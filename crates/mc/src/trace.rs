//! Counterexamples and check outcomes.

use std::fmt;

use unity_core::ident::Vocabulary;
use unity_core::state::State;

/// Why a property check failed, with enough detail to reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Counterexample {
    /// An initial state violating `init p`.
    Init {
        /// The offending initial state.
        state: State,
    },
    /// A state/command pair violating `p next q`: `p` holds in `state` but
    /// `q` fails after `command` (`None` = the implicit `skip`).
    Next {
        /// Pre-state satisfying `p`.
        state: State,
        /// Offending command name (`None` for the implicit skip step).
        command: Option<String>,
        /// Post-state violating `q`.
        after: State,
    },
    /// For `transient p`: every fair command has some `p`-state it fails to
    /// falsify; we report one witness per fair command.
    Transient {
        /// For each fair command, a `p`-state it leaves inside `p`.
        witnesses: Vec<(String, State)>,
    },
    /// A command changed the value of an `unchanged e` expression.
    Unchanged {
        /// Pre-state.
        state: State,
        /// Offending command name.
        command: String,
        /// Value before.
        before: i64,
        /// Value after (integers and booleans are both rendered as i64).
        after: i64,
    },
    /// A validity check `⊨ p` failed in this state.
    Validity {
        /// The falsifying state.
        state: State,
    },
    /// A concrete execution path whose final state violates the checked
    /// predicate: a shortest one, from
    /// [`check_invariant_reachable`](crate::check::check_invariant_reachable).
    Reach {
        /// States from an initial state (inclusive) to the violating state
        /// (inclusive); adjacent states are one command step apart.
        path: Vec<State>,
    },
    /// A `p ↦ q` violation: a lasso — a finite prefix from a `p ∧ ¬q`
    /// state into a fair trap where `q` never holds.
    LeadsTo {
        /// Prefix of states from the violating `p`-state (inclusive) to the
        /// trap.
        prefix: Vec<State>,
        /// States of the fair trap SCC (every fair command can fire inside
        /// forever while `q` stays false).
        trap: Vec<State>,
    },
}

impl Counterexample {
    /// Renders the counterexample with variable names.
    pub fn display<'a>(&'a self, vocab: &'a Vocabulary) -> CexDisplay<'a> {
        CexDisplay { cex: self, vocab }
    }
}

/// Display helper for [`Counterexample`].
pub struct CexDisplay<'a> {
    cex: &'a Counterexample,
    vocab: &'a Vocabulary,
}

impl fmt::Display for CexDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.vocab;
        match self.cex {
            Counterexample::Init { state } => {
                write!(f, "initial state violates predicate: {}", state.display(v))
            }
            Counterexample::Next {
                state,
                command,
                after,
            } => write!(
                f,
                "from {} via {} reaching {}",
                state.display(v),
                command.as_deref().unwrap_or("skip"),
                after.display(v)
            ),
            Counterexample::Transient { witnesses } => {
                write!(f, "no fair command falsifies the predicate everywhere:")?;
                for (cmd, s) in witnesses {
                    write!(f, " [{} stuck at {}]", cmd, s.display(v))?;
                }
                Ok(())
            }
            Counterexample::Unchanged {
                state,
                command,
                before,
                after,
            } => write!(
                f,
                "command {} changes the expression from {} to {} in {}",
                command,
                before,
                after,
                state.display(v)
            ),
            Counterexample::Validity { state } => {
                write!(f, "falsified in state {}", state.display(v))
            }
            Counterexample::Reach { path } => {
                write!(f, "violating path of {} states", path.len())?;
                if let (Some(first), Some(last)) = (path.first(), path.last()) {
                    write!(f, ": {} ... {}", first.display(v), last.display(v))?;
                }
                Ok(())
            }
            Counterexample::LeadsTo { prefix, trap } => {
                write!(f, "lasso: prefix of {} states", prefix.len())?;
                if let Some(first) = prefix.first() {
                    write!(f, " from {}", first.display(v))?;
                }
                write!(f, " into a fair trap of {} states", trap.len())?;
                if let Some(t) = trap.first() {
                    write!(f, " (e.g. {})", t.display(v))?;
                }
                Ok(())
            }
        }
    }
}

/// Error type for model-checking: a failed property with its counterexample
/// or an infrastructure error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McError {
    /// The property does not hold.
    Refuted {
        /// What was being checked (rendered).
        property: String,
        /// The counterexample.
        cex: Counterexample,
    },
    /// The state space exceeds the configured bound.
    SpaceTooLarge {
        /// Actual size (None = overflowed u64).
        size: Option<u64>,
        /// Configured limit.
        limit: u64,
    },
    /// A core-level error (typing etc.).
    Core(unity_core::error::CoreError),
    /// An error reconstructed from its rendered form (deserialized
    /// [`Report`](crate::report::Report)s carry errors as text; the
    /// structure of the original error is not recoverable). Displays
    /// verbatim.
    Message(String),
}

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McError::Refuted { property, .. } => write!(f, "refuted: {property}"),
            McError::SpaceTooLarge { size, limit } => match size {
                Some(n) => write!(f, "state space of {n} states exceeds limit {limit}"),
                None => write!(f, "state space size overflows u64 (limit {limit})"),
            },
            McError::Core(e) => write!(f, "{e}"),
            McError::Message(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for McError {}

impl From<unity_core::error::CoreError> for McError {
    fn from(e: unity_core::error::CoreError) -> Self {
        McError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unity_core::domain::Domain;
    use unity_core::value::Value;

    #[test]
    fn renders_counterexamples() {
        let mut v = Vocabulary::new();
        v.declare("x", Domain::int_range(0, 3).unwrap()).unwrap();
        let s = State::new(vec![Value::Int(2)]);
        let cex = Counterexample::Next {
            state: s.clone(),
            command: Some("inc".into()),
            after: State::new(vec![Value::Int(3)]),
        };
        let text = cex.display(&v).to_string();
        assert!(text.contains("inc"));
        assert!(text.contains("x=2"));
        assert!(text.contains("x=3"));

        let cex = Counterexample::Validity { state: s };
        assert!(cex.display(&v).to_string().contains("falsified"));
    }

    #[test]
    fn error_display() {
        let e = McError::SpaceTooLarge {
            size: Some(1 << 40),
            limit: 1 << 20,
        };
        assert!(e.to_string().contains("exceeds"));
    }
}
