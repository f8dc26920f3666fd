//! Cost accounting for transition-system construction.

/// Cost accounting for one [`TransitionSystem`] construction.
///
/// Stamped by [`TransitionSystem::build`] and carried on the system so
/// verdict stats and `--stats` output can report how long the graph
/// took to build.
///
/// [`TransitionSystem`]: crate::transition::TransitionSystem
/// [`TransitionSystem::build`]: crate::transition::TransitionSystem::build
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Wall-clock milliseconds spent building the system.
    pub build_ms: u64,
    /// Always 0: every build is one sequential exploration. Kept only
    /// because the benchmark harness still reports it as
    /// `mc.build.steals`.
    pub steals: u64,
    /// Always 0, for the same reason as [`BuildStats::steals`]: the
    /// benchmark harness reports it as `mc.build.cross_shard_ratio`.
    pub cross_shard_edges: u64,
}

impl std::fmt::Display for BuildStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ms", self.build_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_stats_display_mentions_fields() {
        let b = BuildStats {
            build_ms: 7,
            ..BuildStats::default()
        };
        assert_eq!(b.to_string(), "7 ms");
    }
}
