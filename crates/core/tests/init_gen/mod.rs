//! Random multi-group `initially` predicates over a small shared
//! vocabulary: nested `&&` both ways (binary and n-ary), variable-free
//! conjuncts of both truth values, variables shared across components,
//! a variable no atom names, and atoms whose groups can be
//! unsatisfiable. Shared by the `compose` consistency tests here and
//! the model checker's per-group `init` tests (`unity-mc`'s
//! `prop_init_groups.rs` includes this file by path).

#![allow(dead_code)]

use std::sync::Arc;

use proptest::prelude::*;
use unity_core::domain::Domain;
use unity_core::expr::build::*;
use unity_core::expr::Expr;
use unity_core::ident::{VarId, Vocabulary};
use unity_core::program::Program;

pub const A: VarId = VarId(0);
pub const B: VarId = VarId(1);
pub const X: VarId = VarId(2);
pub const Y: VarId = VarId(3);
pub const Z: VarId = VarId(4);

/// a, b: bool; x: 0..3; y: 0..2; z: -1..1; w: 0..4 (no atom names w,
/// so it is always unmentioned). 2·2·4·3·3·5 = 720 states.
pub fn vocab() -> Arc<Vocabulary> {
    let mut v = Vocabulary::new();
    v.declare("a", Domain::Bool).unwrap();
    v.declare("b", Domain::Bool).unwrap();
    v.declare("x", Domain::int_range(0, 3).unwrap()).unwrap();
    v.declare("y", Domain::int_range(0, 2).unwrap()).unwrap();
    v.declare("z", Domain::int_range(-1, 1).unwrap()).unwrap();
    v.declare("w", Domain::int_range(0, 4).unwrap()).unwrap();
    Arc::new(v)
}

pub fn arb_atom() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(var(A)),
        Just(not(var(B))),
        (0i64..=3).prop_map(|k| eq(var(X), int(k))),
        (0i64..=4).prop_map(|k| lt(var(X), int(k))),
        (0i64..=2).prop_map(|k| ne(var(Y), int(k))),
        (-1i64..=1).prop_map(|k| eq(var(Z), int(k))),
        (0i64..=6).prop_map(|k| eq(add(var(X), var(Y)), int(k))),
        (-1i64..=4).prop_map(|k| le(add(var(Y), var(Z)), int(k))),
        Just(iff(var(A), var(B))),
        Just(implies(var(B), eq(var(Z), int(1)))),
        // Variable-free conjuncts, both truth values.
        Just(tt()),
        Just(ff()),
        (0i64..=2).prop_map(|k| lt(int(k), int(1))),
    ]
}

/// A conjunct: an atom, a disjunction (kept whole by the grouping), or a
/// nested conjunction in either the binary or the n-ary form.
pub fn arb_init() -> impl Strategy<Value = Expr> {
    arb_atom().prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| and2(a, b)),
            prop::collection::vec(inner.clone(), 0..4).prop_map(and),
            (inner.clone(), inner).prop_map(|(a, b)| or2(a, b)),
        ]
    })
}

pub fn components(inits: &[Expr]) -> Vec<Program> {
    let v = vocab();
    inits
        .iter()
        .enumerate()
        .map(|(k, init)| {
            Program::builder(format!("C{k}"), v.clone())
                .init(init.clone())
                .build()
                .unwrap()
        })
        .collect()
}
