//! Compressed-sparse-row predecessor index over a transition system.
//!
//! The `leadsto` decision procedure propagates *backwards*: "which `¬q`
//! states can reach a fair trap?". The successor table in
//! [`TransitionSystem`] answers the forward question in O(1); answering
//! the backward one from it means rescanning every row until quiescence
//! — the `O(rounds · states · commands)` loop this index replaces.
//!
//! [`PredIndex`] inverts the successor table once into the standard CSR
//! shape: one flat `offsets` array (length `n + 1`) and one flat
//! `edges` array (one entry per stored transition) listing, for each
//! state, the ids of the states with a command stepping onto it. Built
//! once per [`TransitionSystem`] and memoized in the verifier session's
//! `EngineCache` next to the reachable set, it turns each backward
//! propagation into a worklist walk that touches only the rows it
//! marks.
//!
//! Rows list predecessors in ascending source-state order; a source
//! appears once per command stepping onto the target (duplicates are
//! harmless to the marking walks and cheaper than a per-row dedup).
//!
//! The inversion is two sequential passes (count, then fill with a
//! cursor per row), whatever the thread count: rows come out ascending
//! without a sort.

use crate::parallel::ParConfig;
use crate::transition::TransitionSystem;

/// A CSR predecessor index: `row(v)` lists the source states of every
/// stored transition landing on `v`.
#[derive(Debug, Clone)]
pub struct PredIndex {
    /// `edges[offsets[v] .. offsets[v + 1]]` are `v`'s predecessors.
    offsets: Vec<u32>,
    /// Flat predecessor lists (one entry per stored transition).
    edges: Vec<u32>,
}

impl PredIndex {
    /// Inverts the successor table of `ts`. Cost: two passes over the
    /// transitions, no hashing.
    pub fn build(ts: &TransitionSystem) -> Self {
        let n = ts.len();
        let m = ts.transition_count();
        // Hard bound, not a debug assert: a wrapped u32 offset would
        // corrupt rows silently and could flip a liveness verdict.
        // (At the default `max_states` this needs ≥ 64 commands; the
        // succ table itself is ≥ 16 GiB at that point.)
        assert!(
            m <= u32::MAX as usize,
            "transition table ({m} edges) exceeds u32 predecessor offsets"
        );
        // Count in-degrees into offsets[1..], then prefix-sum.
        let mut offsets = vec![0u32; n + 1];
        for s in 0..n {
            for &w in ts.succ_row(s) {
                offsets[w as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Fill rows with a moving cursor per target.
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut edges = vec![0u32; m];
        for s in 0..n {
            for &w in ts.succ_row(s) {
                let at = cursor[w as usize];
                edges[at as usize] = s as u32;
                cursor[w as usize] = at + 1;
            }
        }
        PredIndex { offsets, edges }
    }

    /// [`PredIndex::build`]; `_par` is ignored. The inversion always
    /// runs on one thread: on a 2-core host the atomic parallel
    /// inversion this replaced was 2–6× slower than one thread at every
    /// size measured, from 222,796 to 20,971,520 edges.
    pub fn build_with(ts: &TransitionSystem, _par: &ParConfig) -> Self {
        Self::build(ts)
    }

    /// Number of states the index covers.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the index covers no states.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of stored predecessor edges (equals the transition
    /// count of the indexed system).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The predecessors of state `v`, ascending, one entry per command
    /// stepping onto `v`.
    #[inline(always)]
    pub fn row(&self, v: u32) -> &[u32] {
        &self.edges[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Serializes the index into the persistent artifact payload (see
    /// [`crate::artifact`] for the framing): the CSR offsets and edge
    /// arrays verbatim.
    pub fn to_artifact_bytes(&self) -> Vec<u8> {
        let mut w = crate::artifact::ByteWriter::new();
        w.u32_slice(&self.offsets);
        w.u32_slice(&self.edges);
        w.into_vec()
    }

    /// Rebuilds an index from [`PredIndex::to_artifact_bytes`] output,
    /// validated against the transition system it must invert:
    /// `n_states` and `n_edges` pin the shape, offsets must ascend from
    /// 0 to `n_edges`, and every edge id must be in range. A payload
    /// that disagrees is an error (the store treats it as a cache miss).
    pub fn from_artifact_bytes(
        bytes: &[u8],
        n_states: usize,
        n_edges: usize,
    ) -> Result<Self, String> {
        let mut r = crate::artifact::ByteReader::new(bytes);
        let offsets = r.u32_vec()?;
        let edges = r.u32_vec()?;
        r.finish()?;
        if offsets.len() != n_states + 1 {
            return Err(format!(
                "offset array covers {} states, system has {n_states}",
                offsets.len().saturating_sub(1)
            ));
        }
        if edges.len() != n_edges {
            return Err(format!(
                "edge array has {} entries, system has {n_edges} transitions",
                edges.len()
            ));
        }
        if offsets[0] != 0
            || offsets.windows(2).any(|w| w[0] > w[1])
            || *offsets.last().expect("len >= 1") as usize != n_edges
        {
            return Err("offsets are not ascending from 0 to the edge count".into());
        }
        if edges.iter().any(|&s| s as usize >= n_states) {
            return Err("predecessor id out of range".into());
        }
        Ok(PredIndex { offsets, edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ScanConfig;
    use crate::transition::Universe;
    use std::sync::Arc;
    use unity_core::domain::Domain;
    use unity_core::expr::build::*;
    use unity_core::ident::Vocabulary;
    use unity_core::program::Program;

    fn counter(k: i64) -> Program {
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, k).unwrap()).unwrap();
        Program::builder("counter", Arc::new(v))
            .init(eq(var(x), int(0)))
            .fair_command("inc", lt(var(x), int(k)), vec![(x, add(var(x), int(1)))])
            .build()
            .unwrap()
    }

    #[test]
    fn inverts_the_successor_table_exactly() {
        for universe in [Universe::Reachable, Universe::AllStates] {
            let p = counter(5);
            let ts = TransitionSystem::build(&p, universe, &ScanConfig::default()).unwrap();
            let pred = PredIndex::build(&ts);
            assert_eq!(pred.len(), ts.len());
            assert_eq!(pred.edge_count(), ts.transition_count());
            // Every forward edge appears backward, and nothing else.
            let mut expect: Vec<Vec<u32>> = vec![Vec::new(); ts.len()];
            for s in 0..ts.len() {
                for &w in ts.succ_row(s) {
                    expect[w as usize].push(s as u32);
                }
            }
            for (v, row) in expect.iter_mut().enumerate() {
                row.sort_unstable();
                assert_eq!(pred.row(v as u32), row.as_slice(), "row {v}");
            }
        }
    }

    #[test]
    fn build_with_equals_build_at_every_thread_count() {
        // Multi-command grid: rows with duplicates, skew, and empty
        // rows (unreachable in-degrees on the full product).
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::int_range(0, 40).unwrap()).unwrap();
        let y = v.declare("y", Domain::int_range(0, 40).unwrap()).unwrap();
        let p = Program::builder("grid", Arc::new(v))
            .init(and2(eq(var(x), int(0)), eq(var(y), int(0))))
            .fair_command("ix", lt(var(x), int(40)), vec![(x, add(var(x), int(1)))])
            .fair_command("iy", lt(var(y), int(40)), vec![(y, add(var(y), int(1)))])
            .fair_command("rx", tt(), vec![(x, int(0))])
            .build()
            .unwrap();
        for universe in [Universe::Reachable, Universe::AllStates] {
            let ts = TransitionSystem::build(&p, universe, &ScanConfig::default()).unwrap();
            let seq = PredIndex::build(&ts);
            for threads in [1usize, 2, 4, 8] {
                let par =
                    PredIndex::build_with(&ts, &crate::parallel::ParConfig::with_threads(threads));
                assert_eq!(par.offsets, seq.offsets, "{universe:?} @ {threads}");
                assert_eq!(par.edges, seq.edges, "{universe:?} @ {threads}");
            }
        }
    }

    #[test]
    fn artifact_bytes_round_trip_exactly() {
        let p = counter(6);
        for universe in [Universe::Reachable, Universe::AllStates] {
            let ts = TransitionSystem::build(&p, universe, &ScanConfig::default()).unwrap();
            let pred = PredIndex::build(&ts);
            let bytes = pred.to_artifact_bytes();
            let back =
                PredIndex::from_artifact_bytes(&bytes, ts.len(), ts.transition_count()).unwrap();
            assert_eq!(back.offsets, pred.offsets);
            assert_eq!(back.edges, pred.edges);
        }
    }

    #[test]
    fn artifact_decode_rejects_mismatch_and_corruption() {
        let p = counter(6);
        let ts = TransitionSystem::build(&p, Universe::Reachable, &ScanConfig::default()).unwrap();
        let pred = PredIndex::build(&ts);
        let bytes = pred.to_artifact_bytes();
        let (n, m) = (ts.len(), ts.transition_count());
        // Shape disagreements.
        assert!(PredIndex::from_artifact_bytes(&bytes, n + 1, m).is_err());
        assert!(PredIndex::from_artifact_bytes(&bytes, n, m + 1).is_err());
        // Truncations.
        for cut in 0..bytes.len() {
            assert!(
                PredIndex::from_artifact_bytes(&bytes[..cut], n, m).is_err(),
                "cut at {cut}"
            );
        }
        // An out-of-range edge id (last edge → n) is caught.
        let mut bad = bytes.clone();
        let at = bad.len() - 4;
        bad[at..].copy_from_slice(&(n as u32).to_le_bytes());
        assert!(PredIndex::from_artifact_bytes(&bad, n, m).is_err());
    }

    #[test]
    fn multi_command_duplicates_are_kept() {
        // Two commands stepping onto the same target from the same
        // source yield two entries.
        let mut v = Vocabulary::new();
        let x = v.declare("x", Domain::Bool).unwrap();
        let p = Program::builder("dup", Arc::new(v))
            .init(not(var(x)))
            .fair_command("a", tt(), vec![(x, tt())])
            .fair_command("b", tt(), vec![(x, tt())])
            .build()
            .unwrap();
        let ts = TransitionSystem::build(&p, Universe::AllStates, &ScanConfig::default()).unwrap();
        let pred = PredIndex::build(&ts);
        assert_eq!(pred.edge_count(), ts.transition_count());
        // The x = true state receives both commands from both states.
        let target = (0..ts.len() as u32)
            .find(|&id| {
                ts.state(id).get(unity_core::ident::VarId(0))
                    == unity_core::value::Value::Bool(true)
            })
            .unwrap();
        assert_eq!(pred.row(target).len(), 4);
    }
}
