//! Full-domain validity and satisfiability scans.
//!
//! The paper's inductive property definitions quantify over *all*
//! type-consistent states (it deliberately avoids the substitution axiom
//! and reachability-based strengthenings), so the kernel's side conditions
//! (`⊨ p`, `⊨ a = b`) are decided by scanning the full domain product.
//! Scans are chunk-parallel over the flat state index (see
//! [`crate::parallel`]).
//!
//! Two evaluation strategies decide the same scans:
//!
//! * the **compiled fast path** (default): predicates lower once to
//!   register bytecode and states stream as packed `u64` words — see
//!   [`crate::compiled`] and `unity_core::expr::compile`;
//! * the **reference path**: the tree-walking evaluator over explicit
//!   [`State`]s, kept as the executable semantics (and for vocabularies
//!   beyond 64 packed bits). `ScanConfig::reference()` forces it; the
//!   differential test suite checks both paths agree verdict-for-verdict.

use unity_core::expr::compile::{CompiledExpr, Scratch};
use unity_core::expr::eval::{eval, eval_bool};
use unity_core::expr::Expr;
use unity_core::ident::Vocabulary;
use unity_core::state::{State, StateSpaceIter};

use crate::compiled::{decode_witness, scan_packed, try_layout};
use crate::parallel::{par_find_ranges, ParConfig};
use crate::trace::{Counterexample, McError};

/// Which evaluation engine decides a check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The tree-walking evaluator over explicit [`State`]s — the
    /// semantics of record, and the only engine for vocabularies beyond
    /// 64 packed bits.
    Reference,
    /// The compiled bytecode/packed-state fast path (default).
    #[default]
    Compiled,
    /// The symbolic BDD backend (`unity-symbolic`): state *sets* instead
    /// of state enumeration — the only engine whose cost is independent
    /// of the state count. Checks it does not implement (`leadsto`, the
    /// reachable `invariant`) and programs it cannot lower fall back to
    /// the compiled path.
    Symbolic,
}

/// Configuration for scans.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Refuse spaces larger than this many states (enumerating engines
    /// only — the symbolic engine never enumerates, so it ignores this).
    pub max_states: u64,
    /// Parallelism settings.
    pub par: ParConfig,
    /// Project scans onto the *support* of the checked property (the
    /// variables it mentions plus those the relevant commands read or
    /// write). Sound because evaluation cannot depend on the other
    /// variables; this is what makes a *local* component property checkable
    /// at component cost, independent of how many other components share
    /// the vocabulary — the executable face of the paper's insistence on
    /// local specifications.
    pub projection: bool,
    /// Which engine decides checks. The reference tree-walk remains the
    /// semantics of record; this field exists so differential tests (and
    /// bench baselines) can pin any engine.
    pub engine: Engine,
    /// Options for the symbolic engine (variable-order strategy and
    /// sift watermark); ignored by the enumerating engines. Defaults to
    /// static dependency ordering plus dynamic sifting.
    pub symbolic: unity_symbolic::SymbolicOptions,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            max_states: 1 << 26,
            par: ParConfig::default(),
            projection: true,
            engine: Engine::Compiled,
            symbolic: unity_symbolic::SymbolicOptions::default(),
        }
    }
}

impl ScanConfig {
    /// A configuration with projection disabled (full-product scans).
    pub fn without_projection() -> Self {
        ScanConfig {
            projection: false,
            ..Default::default()
        }
    }

    /// A configuration pinned to the tree-walking reference evaluator.
    pub fn reference() -> Self {
        ScanConfig {
            engine: Engine::Reference,
            ..Default::default()
        }
    }

    /// A configuration pinned to the symbolic BDD engine.
    pub fn symbolic() -> Self {
        ScanConfig {
            engine: Engine::Symbolic,
            ..Default::default()
        }
    }

    /// Whether the compiled packed-state machinery may engage (true for
    /// both the compiled and the symbolic engine — the latter falls back
    /// to compiled scans for anything it does not decide symbolically).
    pub fn uses_compiled(&self) -> bool {
        !matches!(self.engine, Engine::Reference)
    }
}

/// A projection of the state space onto a support set: only the support
/// variables are enumerated; all others are pinned at their domain
/// minimum.
pub struct Projection {
    support: Vec<unity_core::ident::VarId>,
    base: State,
    size: u64,
}

impl Projection {
    /// Builds the projection of `vocab` onto `support`. Returns `None` when
    /// the sub-space size overflows.
    pub fn new(
        vocab: &Vocabulary,
        support: &std::collections::BTreeSet<unity_core::ident::VarId>,
    ) -> Option<Projection> {
        let support: Vec<_> = support.iter().copied().collect();
        let mut size: u64 = 1;
        for &v in &support {
            size = size.checked_mul(vocab.domain(v).size())?;
        }
        Some(Projection {
            support,
            base: State::minimum(vocab),
            size,
        })
    }

    /// Number of states in the projected space.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The all-minimum base state (clone it once per worker as the
    /// scratch for [`Projection::decode_into`]).
    pub fn base(&self) -> &State {
        &self.base
    }

    /// Decodes a flat projected index into `out`, overwriting the
    /// support variables (all others keep their minimum from the base
    /// clone). This is the allocation-free form of [`Projection::decode`]:
    /// scan workers reuse one scratch state per chunk instead of cloning
    /// the base per state.
    pub fn decode_into(&self, vocab: &Vocabulary, mut flat: u64, out: &mut State) {
        for &v in self.support.iter().rev() {
            let d = vocab.domain(v);
            out.set(v, d.value_at(flat % d.size()));
            flat /= d.size();
        }
    }

    /// Decodes a flat projected index into a fresh full state
    /// (non-support variables at their minimum).
    pub fn decode(&self, vocab: &Vocabulary, flat: u64) -> State {
        let mut s = self.base.clone();
        self.decode_into(vocab, flat, &mut s);
        s
    }
}

/// The number of states of `vocab`, checked against `cfg.max_states`.
pub fn space_size(vocab: &Vocabulary, cfg: &ScanConfig) -> Result<u64, McError> {
    match vocab.space_size() {
        Some(n) if n <= cfg.max_states => Ok(n),
        other => Err(McError::SpaceTooLarge {
            size: other,
            limit: cfg.max_states,
        }),
    }
}

/// Scans states for a witness, projecting onto `support` when enabled.
/// `support = None` forces a full-product scan. This is the *reference*
/// scan driver: `f` sees explicit states (borrowed — clone to keep one
/// as a witness). The compiled paths go through
/// [`crate::compiled::scan_packed`] instead.
pub fn scan_for<T, F>(
    vocab: &Vocabulary,
    support: Option<&std::collections::BTreeSet<unity_core::ident::VarId>>,
    cfg: &ScanConfig,
    f: F,
) -> Result<Option<T>, McError>
where
    T: Send,
    F: Fn(&State) -> Option<T> + Sync,
{
    if cfg.projection {
        if let Some(support) = support {
            if (support.len() as u64) < vocab.len() as u64 {
                let proj = Projection::new(vocab, support).ok_or(McError::SpaceTooLarge {
                    size: None,
                    limit: cfg.max_states,
                })?;
                if proj.size() > cfg.max_states {
                    return Err(McError::SpaceTooLarge {
                        size: Some(proj.size()),
                        limit: cfg.max_states,
                    });
                }
                return Ok(par_find_ranges(proj.size(), &cfg.par, |lo, hi| {
                    let mut scratch = proj.base().clone();
                    for flat in lo..hi {
                        proj.decode_into(vocab, flat, &mut scratch);
                        if let Some(t) = f(&scratch) {
                            return Some(t);
                        }
                    }
                    None
                }));
            }
        }
    }
    let n = space_size(vocab, cfg)?;
    Ok(par_find_ranges(n, &cfg.par, |lo, hi| {
        (lo..hi).find_map(|flat| f(&StateSpaceIter::decode(vocab, flat)))
    }))
}

/// Session form of [`check_valid`] over a program's vocabulary: under
/// [`Engine::Symbolic`] the session's memoized engine decides the side
/// condition (its `domain` BDD *is* the quantification set); otherwise
/// this is exactly the one-shot scan.
pub(crate) fn check_valid_in(
    program: &unity_core::program::Program,
    p: &Expr,
    cfg: &ScanConfig,
    cache: &mut crate::verifier::EngineCache,
) -> Result<(), McError> {
    if crate::symbolic::wants(cfg) {
        p.check_pred(&program.vocab)?;
        if let Some(sym) = cache.symbolic(program, cfg) {
            if let Ok(witness) = sym.check_valid(p) {
                let state = witness.map(|w| sym.space().layout().unpack(w, &program.vocab));
                cache.sym_decided = true;
                return match state {
                    None => Ok(()),
                    Some(state) => Err(McError::Refuted {
                        property: "validity".into(),
                        cex: Counterexample::Validity { state },
                    }),
                };
            }
        }
    }
    check_valid(&program.vocab, p, cfg)
}

/// Session form of [`check_equivalent`]; see [`check_valid_in`].
pub(crate) fn check_equivalent_in(
    program: &unity_core::program::Program,
    a: &Expr,
    b: &Expr,
    cfg: &ScanConfig,
    cache: &mut crate::verifier::EngineCache,
) -> Result<(), McError> {
    if crate::symbolic::wants(cfg) {
        // Type agreement first — the engine lowers happily across
        // types, but the contract is to reject mismatches.
        let ta = a.infer_type(&program.vocab)?;
        let tb = b.infer_type(&program.vocab)?;
        if ta == tb {
            if let Some(sym) = cache.symbolic(program, cfg) {
                if let Ok(witness) = sym.check_equivalent(a, b) {
                    let state = witness.map(|w| sym.space().layout().unpack(w, &program.vocab));
                    cache.sym_decided = true;
                    return match state {
                        None => Ok(()),
                        Some(state) => Err(McError::Refuted {
                            property: "equivalence".into(),
                            cex: Counterexample::Validity { state },
                        }),
                    };
                }
            }
        }
    }
    check_equivalent(&program.vocab, a, b, cfg)
}

/// Checks `⊨ p` (true in every type-consistent state); returns the first
/// falsifying state otherwise. The scan is projected onto `p`'s variables.
pub fn check_valid(vocab: &Vocabulary, p: &Expr, cfg: &ScanConfig) -> Result<(), McError> {
    p.check_pred(vocab)?;
    let support = unity_core::expr::vars::free_vars(p);
    let found = 'found: {
        if crate::symbolic::wants(cfg) {
            if let Some(witness) = crate::symbolic::try_check_valid(vocab, p) {
                break 'found witness;
            }
        }
        if let Some(layout) = try_layout(vocab, cfg) {
            if let Ok(prog) = CompiledExpr::compile(p, &layout) {
                let word = scan_packed(vocab, &layout, Some(&support), cfg, || {
                    let prog = &prog;
                    let mut scratch = Scratch::new();
                    move |w: u64| (!prog.eval_packed_bool(w, &mut scratch)).then_some(w)
                })?;
                break 'found word.map(|w| decode_witness(&layout, vocab, w));
            }
        }
        scan_for(vocab, Some(&support), cfg, |s| {
            (!eval_bool(p, s)).then(|| s.clone())
        })?
    };
    match found {
        None => Ok(()),
        Some(state) => Err(McError::Refuted {
            property: "validity".into(),
            cex: Counterexample::Validity { state },
        }),
    }
}

/// Checks `⊨ a = b` (both expressions have the same value in every state).
pub fn check_equivalent(
    vocab: &Vocabulary,
    a: &Expr,
    b: &Expr,
    cfg: &ScanConfig,
) -> Result<(), McError> {
    let ta = a.infer_type(vocab)?;
    let tb = b.infer_type(vocab)?;
    if ta != tb {
        return Err(McError::Core(unity_core::error::CoreError::TypeError {
            expr: "equivalence check".into(),
            expected: ta,
            found: tb,
        }));
    }
    // Fast path: linear normal forms decide the common case (the paper's
    // "removing unused dummies" rewrites are all linear) in O(|expr|).
    match unity_core::expr::linear::linear_equivalent(a, b, vocab) {
        Some(true) => return Ok(()),
        Some(false) => {
            return Err(McError::Refuted {
                property: "equivalence".into(),
                cex: Counterexample::Validity {
                    state: State::minimum(vocab),
                },
            })
        }
        None => {}
    }
    let mut support = unity_core::expr::vars::free_vars(a);
    unity_core::expr::vars::collect(b, &mut support);
    let found = 'found: {
        if crate::symbolic::wants(cfg) {
            if let Some(witness) = crate::symbolic::try_check_equivalent(vocab, a, b) {
                break 'found witness;
            }
        }
        if let Some(layout) = try_layout(vocab, cfg) {
            if let (Ok(pa), Ok(pb)) = (
                CompiledExpr::compile(a, &layout),
                CompiledExpr::compile(b, &layout),
            ) {
                let word = scan_packed(vocab, &layout, Some(&support), cfg, || {
                    let (pa, pb) = (&pa, &pb);
                    let mut scratch = Scratch::new();
                    move |w: u64| {
                        (pa.eval_packed(w, &mut scratch) != pb.eval_packed(w, &mut scratch))
                            .then_some(w)
                    }
                })?;
                break 'found word.map(|w| decode_witness(&layout, vocab, w));
            }
        }
        scan_for(vocab, Some(&support), cfg, |s| {
            (eval(a, s) != eval(b, s)).then(|| s.clone())
        })?
    };
    match found {
        None => Ok(()),
        Some(state) => Err(McError::Refuted {
            property: "equivalence".into(),
            cex: Counterexample::Validity { state },
        }),
    }
}

/// Finds a state satisfying `p`, if any.
pub fn find_satisfying(
    vocab: &Vocabulary,
    p: &Expr,
    cfg: &ScanConfig,
) -> Result<Option<State>, McError> {
    p.check_pred(vocab)?;
    let support = unity_core::expr::vars::free_vars(p);
    if crate::symbolic::wants(cfg) {
        if let Some(witness) = crate::symbolic::try_find_satisfying(vocab, p) {
            return Ok(witness);
        }
    }
    if let Some(layout) = try_layout(vocab, cfg) {
        if let Ok(prog) = CompiledExpr::compile(p, &layout) {
            let word = scan_packed(vocab, &layout, Some(&support), cfg, || {
                let prog = &prog;
                let mut scratch = Scratch::new();
                move |w: u64| prog.eval_packed_bool(w, &mut scratch).then_some(w)
            })?;
            return Ok(word.map(|w| decode_witness(&layout, vocab, w)));
        }
    }
    scan_for(vocab, Some(&support), cfg, |s| {
        eval_bool(p, s).then(|| s.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unity_core::domain::Domain;
    use unity_core::expr::build::*;

    fn vocab() -> Vocabulary {
        let mut v = Vocabulary::new();
        v.declare("x", Domain::int_range(0, 7).unwrap()).unwrap();
        v.declare("b", Domain::Bool).unwrap();
        v
    }

    /// All three engines must be exercised by every test below.
    fn engines() -> [ScanConfig; 3] {
        [
            ScanConfig::default(),
            ScanConfig::reference(),
            ScanConfig::symbolic(),
        ]
    }

    #[test]
    fn valid_tautology() {
        let v = vocab();
        let x = v.lookup("x").unwrap();
        let p = or2(le(var(x), int(3)), gt(var(x), int(3)));
        for cfg in engines() {
            check_valid(&v, &p, &cfg).unwrap();
        }
    }

    #[test]
    fn invalid_reports_state() {
        let v = vocab();
        let x = v.lookup("x").unwrap();
        let p = le(var(x), int(6));
        for cfg in engines() {
            let err = check_valid(&v, &p, &cfg).unwrap_err();
            match err {
                McError::Refuted {
                    cex: Counterexample::Validity { state },
                    ..
                } => {
                    assert_eq!(state.get(x), unity_core::value::Value::Int(7));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn equivalence() {
        let v = vocab();
        let x = v.lookup("x").unwrap();
        for cfg in engines() {
            check_equivalent(&v, &add(var(x), var(x)), &mul(int(2), var(x)), &cfg).unwrap();
            assert!(check_equivalent(&v, &add(var(x), int(1)), &var(x), &cfg).is_err());
            // Mixed types rejected.
            let b = v.lookup("b").unwrap();
            assert!(check_equivalent(&v, &var(b), &var(x), &cfg).is_err());
        }
    }

    #[test]
    fn satisfiability() {
        let v = vocab();
        let x = v.lookup("x").unwrap();
        for cfg in engines() {
            let s = find_satisfying(&v, &eq(var(x), int(5)), &cfg)
                .unwrap()
                .unwrap();
            assert_eq!(s.get(x), unity_core::value::Value::Int(5));
            assert!(find_satisfying(&v, &lt(var(x), int(0)), &cfg)
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn space_limit_enforced() {
        let v = vocab();
        for engine in [Engine::Compiled, Engine::Reference] {
            let cfg = ScanConfig {
                max_states: 3,
                engine,
                ..Default::default()
            };
            // `true` has empty support: with projection the scan is a single
            // state and succeeds even under a tiny limit.
            check_valid(&v, &tt(), &cfg).unwrap();
            // A predicate over `x` (8 values) exceeds the limit either way.
            let x = v.lookup("x").unwrap();
            assert!(matches!(
                check_valid(&v, &le(var(x), int(7)), &cfg),
                Err(McError::SpaceTooLarge { .. })
            ));
            // And with projection disabled, even `true` must scan everything.
            let cfg = ScanConfig {
                max_states: 3,
                projection: false,
                engine,
                ..Default::default()
            };
            assert!(matches!(
                check_valid(&v, &tt(), &cfg),
                Err(McError::SpaceTooLarge { .. })
            ));
        }
    }

    #[test]
    fn projection_agrees_with_full_scan() {
        let v = vocab();
        let x = v.lookup("x").unwrap();
        let b = v.lookup("b").unwrap();
        let preds = [
            le(var(x), int(6)),
            or2(var(b), le(var(x), int(7))),
            implies(var(b), ge(var(x), int(0))),
        ];
        for base in engines() {
            let with = base.clone();
            let without = ScanConfig {
                projection: false,
                ..base
            };
            for p in &preds {
                assert_eq!(
                    check_valid(&v, p, &with).is_ok(),
                    check_valid(&v, p, &without).is_ok()
                );
            }
        }
    }

    #[test]
    fn compiled_and_reference_verdicts_agree() {
        let v = vocab();
        let x = v.lookup("x").unwrap();
        let b = v.lookup("b").unwrap();
        let preds = [
            tt(),
            ff(),
            le(var(x), int(7)),
            le(var(x), int(6)),
            iff(var(b), ge(var(x), int(4))),
            implies(
                and2(var(b), ge(var(x), int(2))),
                gt(add(var(x), int(1)), int(2)),
            ),
        ];
        for p in &preds {
            assert_eq!(
                check_valid(&v, p, &ScanConfig::default()).is_ok(),
                check_valid(&v, p, &ScanConfig::reference()).is_ok(),
                "engines disagree on {p:?}"
            );
        }
    }
}
