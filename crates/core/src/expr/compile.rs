//! Compilation of expressions to register bytecode over packed states.
//!
//! The model checker's inner loops evaluate the same predicates against
//! millions of states. The tree-walking [`eval`](super::eval) pays an
//! enum-match and a pointer chase per AST node per state, against a
//! heap-allocated `Box<[Value]>` state. This module lowers an [`Expr`]
//! **once** into:
//!
//! * a flat, post-order [`CompiledExpr`] — a register bytecode with
//!   short-circuit jumps for `&&`/`||`/`⇒` and if-then-else, n-ary
//!   reductions unrolled, and constants folded (via
//!   [`simplify`]); and
//! * a [`PackedLayout`] that bit-packs a whole state into one `u64` word
//!   (each variable a contiguous field holding its canonical domain
//!   index), so the scan loops stream plain integers instead of chasing
//!   heap states.
//!
//! Booleans evaluate as `0`/`1` integers; the type checker has already
//! guaranteed operand types, so one `i64` register file serves both
//! types. All arithmetic conventions of the reference evaluator are
//! preserved exactly (saturating `+ − × neg`, total Euclidean `÷`/`%`
//! with `x/0 = x%0 = 0`); the differential property suite
//! (`tests/prop_compile.rs`) pins `compiled ≡ eval` on random
//! expressions.
//!
//! The fast path engages when the vocabulary fits in 64 bits
//! ([`PackedLayout::new`] returns `Some` — true for every shipped
//! system); callers keep the tree-walking evaluator as the reference
//! semantics and fall back to it otherwise.

use super::eval::{euclid_div, euclid_rem};
use super::simplify::simplify;
use super::{BinOp, Expr, NAryOp};
use crate::domain::Domain;
use crate::ident::{VarId, Vocabulary};
use crate::state::State;
use crate::value::Value;

/// Bit-packed state representation: one `u64` word per state.
///
/// Variable `v` occupies `bits[v]` bits at `shift[v]`, storing the
/// *canonical index* of its value within its domain (`false < true`;
/// integers ascending from the domain minimum). The all-zero word is the
/// all-minimum state.
#[derive(Debug, Clone)]
pub struct PackedLayout {
    shift: Vec<u32>,
    bits: Vec<u32>,
    mask: Vec<u64>,
    /// Decoded value of field 0 (domain minimum; 0 for booleans).
    base: Vec<i64>,
    /// Domain sizes, for in-domain checks and mixed-radix arithmetic.
    size: Vec<u64>,
    /// Mixed-radix weight of each variable in the canonical flat index
    /// (`weight[v] = Π_{j > v} size[j]`).
    weight: Vec<u64>,
    total_bits: u32,
}

impl PackedLayout {
    /// Builds the layout, or `None` when the vocabulary needs more than
    /// 64 bits (the callers then stay on the reference path).
    pub fn new(vocab: &Vocabulary) -> Option<PackedLayout> {
        let n = vocab.len();
        let mut shift = Vec::with_capacity(n);
        let mut bits = Vec::with_capacity(n);
        let mut mask = Vec::with_capacity(n);
        let mut base = Vec::with_capacity(n);
        let mut size = Vec::with_capacity(n);
        let mut at: u32 = 0;
        for (_, decl) in vocab.iter() {
            let b = decl.domain.bits();
            if at + b > 64 {
                return None;
            }
            shift.push(at);
            bits.push(b);
            mask.push(if b == 0 { 0 } else { (!0u64) >> (64 - b) });
            base.push(match &decl.domain {
                Domain::Bool => 0,
                Domain::IntRange(lo, _) => *lo,
            });
            size.push(decl.domain.size());
            at += b;
        }
        let mut weight = vec![1u64; n];
        for v in (0..n.saturating_sub(1)).rev() {
            // Saturating: only meaningful when the full product fits u64;
            // `flat_of_word` callers check `space_size()` first.
            weight[v] = weight[v + 1].saturating_mul(size[v + 1]);
        }
        Some(PackedLayout {
            shift,
            bits,
            mask,
            base,
            size,
            weight,
            total_bits: at,
        })
    }

    /// Number of variables in the layout.
    pub fn len(&self) -> usize {
        self.shift.len()
    }

    /// Whether the layout has no variables.
    pub fn is_empty(&self) -> bool {
        self.shift.is_empty()
    }

    /// Total bits used by a packed word.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Field width in bits of variable `v`.
    pub fn field_bits(&self, v: usize) -> u32 {
        self.bits[v]
    }

    /// Bit offset of variable `v`'s field within a packed word.
    ///
    /// Together with [`PackedLayout::field_bits`],
    /// [`PackedLayout::field_base`] and [`PackedLayout::domain_size`] this
    /// exposes the full packed layout, so alternative backends (the
    /// symbolic BDD engine) can share the exact bit encoding.
    pub fn field_shift(&self, v: usize) -> u32 {
        self.shift[v]
    }

    /// Decoded value of field 0 of variable `v` (the domain minimum;
    /// 0 for booleans).
    pub fn field_base(&self, v: usize) -> i64 {
        self.base[v]
    }

    /// Decoded value of variable `v` in `word` (booleans as 0/1).
    #[inline(always)]
    pub fn get(&self, word: u64, v: usize) -> i64 {
        self.base[v] + ((word >> self.shift[v]) & self.mask[v]) as i64
    }

    /// Canonical field (domain index) of variable `v` in `word`.
    #[inline(always)]
    pub fn field(&self, word: u64, v: usize) -> u64 {
        (word >> self.shift[v]) & self.mask[v]
    }

    /// Writes decoded value `val` into variable `v` of `word`, or `None`
    /// when `val` lies outside the variable's domain.
    #[inline(always)]
    pub fn set_checked(&self, word: u64, v: usize, val: i64) -> Option<u64> {
        let idx = val.wrapping_sub(self.base[v]) as u64;
        if idx >= self.size[v] {
            return None;
        }
        Some((word & !(self.mask[v] << self.shift[v])) | (idx << self.shift[v]))
    }

    /// Domain size of variable `v`.
    #[inline(always)]
    pub fn domain_size(&self, v: usize) -> u64 {
        self.size[v]
    }

    /// Packs a [`State`] into a word.
    ///
    /// # Panics
    /// Panics if a value lies outside its declared domain.
    pub fn pack(&self, state: &State) -> u64 {
        let mut word = 0u64;
        for (v, val) in state.values().iter().enumerate() {
            let decoded = match val {
                Value::Bool(b) => i64::from(*b),
                Value::Int(n) => *n,
            };
            word = self
                .set_checked(word, v, decoded)
                .expect("state value within its declared domain");
        }
        word
    }

    /// Unpacks a word into a [`State`] over `vocab`.
    pub fn unpack(&self, word: u64, vocab: &Vocabulary) -> State {
        State::new(
            vocab
                .iter()
                .enumerate()
                .map(|(v, (_, decl))| decl.domain.value_at(self.field(word, v)))
                .collect(),
        )
    }

    /// Unpacks a word into an existing state (no allocation; `out` must
    /// belong to `vocab`).
    pub fn unpack_into(&self, word: u64, vocab: &Vocabulary, out: &mut State) {
        for (v, (id, decl)) in vocab.iter().enumerate() {
            out.set(id, decl.domain.value_at(self.field(word, v)));
        }
    }

    /// The canonical flat index (mixed-radix, first variable slowest) of
    /// `word` — matches `StateSpaceIter` enumeration order.
    pub fn flat_of_word(&self, word: u64) -> u64 {
        let mut flat = 0u64;
        for v in 0..self.len() {
            flat = flat * self.size[v] + self.field(word, v);
        }
        flat
    }

    /// Mixed-radix weight of variable `v` within the canonical flat
    /// index.
    #[inline(always)]
    pub fn flat_weight(&self, v: usize) -> u64 {
        self.weight[v]
    }

    /// The packed word of canonical flat index `flat` (inverse of
    /// [`PackedLayout::flat_of_word`]).
    pub fn word_of_flat(&self, mut flat: u64) -> u64 {
        let mut word = 0u64;
        for v in (0..self.len()).rev() {
            let f = flat % self.size[v];
            flat /= self.size[v];
            word |= f << self.shift[v];
        }
        word
    }

    /// A cursor enumerating the sub-space spanned by `support` (all other
    /// variables pinned at their minimum), in canonical order starting at
    /// flat sub-index `start`. Returns `None` if the sub-space size
    /// overflows `u64`.
    pub fn support_cursor(&self, support: &[VarId], start: u64) -> Option<SupportCursor> {
        let mut size: u64 = 1;
        for v in support {
            size = size.checked_mul(self.size[v.index()])?;
        }
        let vars: Vec<u32> = support.iter().map(|v| v.0).collect();
        let mut digits = vec![0u64; vars.len()];
        let mut word = 0u64;
        let mut rem = start;
        for (k, &v) in vars.iter().enumerate().rev() {
            let s = self.size[v as usize];
            digits[k] = rem % s;
            rem /= s;
            word |= digits[k] << self.shift[v as usize];
        }
        Some(SupportCursor {
            vars,
            digits,
            word,
            size,
        })
    }
}

/// Incremental mixed-radix enumeration of a support sub-space as packed
/// words (amortized O(1) per step — no div/mod in the loop).
#[derive(Debug, Clone)]
pub struct SupportCursor {
    vars: Vec<u32>,
    digits: Vec<u64>,
    word: u64,
    size: u64,
}

impl SupportCursor {
    /// The current packed word.
    #[inline(always)]
    pub fn word(&self) -> u64 {
        self.word
    }

    /// Number of words in the enumerated sub-space.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Advances to the next word (wrapping at the end).
    #[inline]
    pub fn advance(&mut self, layout: &PackedLayout) {
        for k in (0..self.vars.len()).rev() {
            let v = self.vars[k] as usize;
            self.digits[k] += 1;
            // Wrapping: a field at shift 63 (layouts may use all 64
            // bits) overflows transiently on rollover; the carry
            // subtraction below restores the exact value mod 2^64.
            self.word = self.word.wrapping_add(1 << layout.shift[v]);
            if self.digits[k] < layout.size[v] {
                return;
            }
            self.word = self.word.wrapping_sub(self.digits[k] << layout.shift[v]);
            self.digits[k] = 0;
        }
    }
}

/// One bytecode instruction. `dst`/`src` index the scratch register
/// file; jump targets are instruction indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `r[dst] = val`
    Const {
        /// Destination register.
        dst: u8,
        /// Constant value (booleans as 0/1).
        val: i64,
    },
    /// `r[dst] = decode(word >> shift & mask)` / `state[idx]`
    Load {
        /// Destination register.
        dst: u8,
        /// Variable index (for state-slice evaluation).
        idx: u16,
        /// Field shift (packed evaluation).
        shift: u8,
        /// Field mask (packed evaluation).
        mask: u64,
        /// Decoded value of field 0.
        base: i64,
    },
    /// `r[dst] = !r[dst]` (boolean).
    Not {
        /// Operand and destination register.
        dst: u8,
    },
    /// `r[dst] = -r[dst]` (saturating).
    Neg {
        /// Operand and destination register.
        dst: u8,
    },
    /// `r[dst] = r[dst] op r[src]`
    Bin {
        /// Strict binary operator.
        op: BinCode,
        /// Left operand and destination register.
        dst: u8,
        /// Right operand register.
        src: u8,
    },
    /// Skip to `target` when `r[reg] == 0`.
    JumpIfZero {
        /// Tested register.
        reg: u8,
        /// Jump target (instruction index).
        target: u16,
    },
    /// Skip to `target` when `r[reg] != 0`.
    JumpIfNonZero {
        /// Tested register.
        reg: u8,
        /// Jump target (instruction index).
        target: u16,
    },
    /// Unconditional jump.
    Jump {
        /// Jump target (instruction index).
        target: u16,
    },
}

/// Strict (non-short-circuiting) binary operators of the bytecode.
/// The lazy connectives compile to jumps instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinCode {
    /// Saturating addition.
    Add,
    /// Saturating subtraction.
    Sub,
    /// Saturating multiplication.
    Mul,
    /// Total Euclidean division (`x/0 = 0`).
    Div,
    /// Total Euclidean remainder (`x%0 = 0`).
    Mod,
    /// Equality (also implements `⇔` on booleans).
    Eq,
    /// Disequality.
    Ne,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Why an expression could not be compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The expression nests deeper than the 256-register file.
    TooDeep,
    /// The bytecode exceeds `u16` jump range.
    TooLong,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::TooDeep => write!(f, "expression exceeds 256 registers"),
            CompileError::TooLong => write!(f, "bytecode exceeds 65535 instructions"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A compiled expression: flat bytecode plus its register demand.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    ops: Vec<Op>,
    n_regs: usize,
    /// Whether `Load` ops carry real field offsets — false for
    /// [`CompiledExpr::compile_unpacked`] programs, whose packed
    /// evaluation would silently read every variable as 0.
    has_layout: bool,
    /// The literal conjuncts as one mask test: a word with
    /// `word & lit_mask != lit_value` evaluates to 0. `(0, 0)` tests
    /// nothing; `(0, 1)` fails every word.
    lit_mask: u64,
    lit_value: u64,
    /// Whether the mask test decides alone (every conjunct is literal).
    exact: bool,
}

/// One conjunct read as a literal test: `b`, `!b`, `x == c`, `c == x`,
/// `b <=> c` or a boolean constant.
enum Pin {
    /// Always true (`true`). A pin of a 0-bit field to its value is a
    /// `Field` with mask 0, which tests nothing.
    Always,
    /// Always false (`false`, or a constant outside the domain).
    Never,
    /// `(word & mask) == value` on one field.
    Field { mask: u64, value: u64 },
}

/// Reads `e` as a literal test over `layout`, or `None` when it is not
/// one. A bare `b` or `!b` counts only for a field holding 0 and 1, so
/// its bytecode value is the test's 0/1 result.
fn literal_pin(e: &Expr, layout: &PackedLayout) -> Option<Pin> {
    let bit = |v: usize| layout.base[v] == 0 && layout.size[v] == 2;
    let pin = |v: usize, c: i64| {
        layout
            .set_checked(0, v, c)
            .map_or(Pin::Never, |value| Pin::Field {
                mask: layout.mask[v] << layout.shift[v],
                value,
            })
    };
    let lit = |v: &Value| match v {
        Value::Bool(b) => i64::from(*b),
        Value::Int(n) => *n,
    };
    match e {
        Expr::Lit(Value::Bool(true)) => Some(Pin::Always),
        Expr::Lit(Value::Bool(false)) => Some(Pin::Never),
        Expr::Var(id) if bit(id.index()) => Some(pin(id.index(), 1)),
        Expr::Not(a) => match a.as_ref() {
            Expr::Var(id) if bit(id.index()) => Some(pin(id.index(), 0)),
            _ => None,
        },
        Expr::Bin(BinOp::Eq | BinOp::Iff, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Var(id), Expr::Lit(c)) | (Expr::Lit(c), Expr::Var(id)) => {
                Some(pin(id.index(), lit(c)))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Collects the top-level conjuncts of `e` (binary and n-ary `&&`).
fn conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Bin(BinOp::And, a, b) => {
            conjuncts(a, out);
            conjuncts(b, out);
        }
        Expr::NAry(NAryOp::And, args) => args.iter().for_each(|a| conjuncts(a, out)),
        _ => out.push(e),
    }
}

/// Folds the literal conjuncts of `e` into `(mask, value, exact)`.
/// A contradiction (a `Never` pin, or two pins of one field to
/// different values) makes the expression always 0: `(0, 1, true)`.
fn literal_mask(e: &Expr, layout: &PackedLayout) -> (u64, u64, bool) {
    const ALWAYS_ZERO: (u64, u64, bool) = (0, 1, true);
    let mut parts = Vec::new();
    conjuncts(e, &mut parts);
    let (mut mask, mut value, mut exact) = (0u64, 0u64, true);
    for part in parts {
        match literal_pin(part, layout) {
            Some(Pin::Always) => {}
            Some(Pin::Never) => return ALWAYS_ZERO,
            Some(Pin::Field { mask: m, value: v }) => {
                if mask & m != 0 && value & m != v {
                    return ALWAYS_ZERO;
                }
                mask |= m;
                value |= v;
            }
            None => exact = false,
        }
    }
    (mask, value, exact)
}

/// Reusable register file for compiled evaluation. One per worker
/// thread; no allocation inside the scan loops.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    regs: Vec<i64>,
    /// Staging buffer for simultaneous-assignment values.
    vals: Vec<i64>,
}

impl Scratch {
    /// Creates an empty scratch (grown on demand).
    pub fn new() -> Self {
        Scratch::default()
    }

    #[inline]
    fn ensure(&mut self, n: usize) {
        if self.regs.len() < n {
            self.regs.resize(n, 0);
        }
    }
}

impl CompiledExpr {
    /// Compiles `e` (after constant folding) for evaluation over packed
    /// words of `layout` and over plain states.
    pub fn compile(e: &Expr, layout: &PackedLayout) -> Result<CompiledExpr, CompileError> {
        Self::compile_inner(e, Some(layout))
    }

    /// Compiles `e` for state-slice evaluation only (no packed layout —
    /// used when the vocabulary exceeds 64 bits).
    pub fn compile_unpacked(e: &Expr) -> Result<CompiledExpr, CompileError> {
        Self::compile_inner(e, None)
    }

    fn compile_inner(
        e: &Expr,
        layout: Option<&PackedLayout>,
    ) -> Result<CompiledExpr, CompileError> {
        let folded = simplify(e);
        let mut c = Compiler {
            ops: Vec::with_capacity(folded.size()),
            layout,
            n_regs: 0,
        };
        c.emit(&folded, 0)?;
        let (lit_mask, lit_value, exact) = match layout {
            Some(l) => literal_mask(&folded, l),
            None => (0, 0, false),
        };
        Ok(CompiledExpr {
            ops: c.ops,
            n_regs: c.n_regs,
            has_layout: layout.is_some(),
            lit_mask,
            lit_value,
            exact,
        })
    }

    /// The instruction stream (inspection/tests).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Registers required.
    pub fn register_count(&self) -> usize {
        self.n_regs
    }

    /// Evaluates against a packed word. Requires compilation with a
    /// layout whose vocabulary produced the word. The literal conjuncts'
    /// mask test runs first: it decides a word that fails it (0) and,
    /// when every conjunct is a literal test, every word.
    #[inline(always)]
    pub fn eval_packed(&self, word: u64, scratch: &mut Scratch) -> i64 {
        debug_assert!(
            self.has_layout,
            "eval_packed on a compile_unpacked program (use eval_state)"
        );
        if word & self.lit_mask != self.lit_value {
            return 0;
        }
        if self.exact {
            return 1;
        }
        self.run_packed(word, scratch)
    }

    /// The bytecode interpreter behind [`CompiledExpr::eval_packed`].
    #[inline]
    fn run_packed(&self, word: u64, scratch: &mut Scratch) -> i64 {
        scratch.ensure(self.n_regs);
        let regs = &mut scratch.regs[..];
        let mut pc = 0usize;
        let ops = &self.ops[..];
        while pc < ops.len() {
            match ops[pc] {
                Op::Const { dst, val } => regs[dst as usize] = val,
                Op::Load {
                    dst,
                    shift,
                    mask,
                    base,
                    ..
                } => regs[dst as usize] = base + ((word >> shift) & mask) as i64,
                Op::Not { dst } => regs[dst as usize] = i64::from(regs[dst as usize] == 0),
                Op::Neg { dst } => regs[dst as usize] = regs[dst as usize].saturating_neg(),
                Op::Bin { op, dst, src } => {
                    let a = regs[dst as usize];
                    let b = regs[src as usize];
                    regs[dst as usize] = bin_code(op, a, b);
                }
                Op::JumpIfZero { reg, target } => {
                    if regs[reg as usize] == 0 {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::JumpIfNonZero { reg, target } => {
                    if regs[reg as usize] != 0 {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::Jump { target } => {
                    pc = target as usize;
                    continue;
                }
            }
            pc += 1;
        }
        regs[0]
    }

    /// Evaluates against a plain state (values in `VarId` order).
    #[inline]
    pub fn eval_state(&self, state: &State, scratch: &mut Scratch) -> i64 {
        scratch.ensure(self.n_regs);
        let regs = &mut scratch.regs[..];
        let values = state.values();
        let mut pc = 0usize;
        let ops = &self.ops[..];
        while pc < ops.len() {
            match ops[pc] {
                Op::Const { dst, val } => regs[dst as usize] = val,
                Op::Load { dst, idx, .. } => {
                    regs[dst as usize] = match values[idx as usize] {
                        Value::Bool(b) => i64::from(b),
                        Value::Int(n) => n,
                    }
                }
                Op::Not { dst } => regs[dst as usize] = i64::from(regs[dst as usize] == 0),
                Op::Neg { dst } => regs[dst as usize] = regs[dst as usize].saturating_neg(),
                Op::Bin { op, dst, src } => {
                    let a = regs[dst as usize];
                    let b = regs[src as usize];
                    regs[dst as usize] = bin_code(op, a, b);
                }
                Op::JumpIfZero { reg, target } => {
                    if regs[reg as usize] == 0 {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::JumpIfNonZero { reg, target } => {
                    if regs[reg as usize] != 0 {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::Jump { target } => {
                    pc = target as usize;
                    continue;
                }
            }
            pc += 1;
        }
        regs[0]
    }

    /// Boolean convenience over [`CompiledExpr::eval_packed`].
    #[inline(always)]
    pub fn eval_packed_bool(&self, word: u64, scratch: &mut Scratch) -> bool {
        self.eval_packed(word, scratch) != 0
    }
}

#[inline(always)]
fn bin_code(op: BinCode, a: i64, b: i64) -> i64 {
    match op {
        BinCode::Add => a.saturating_add(b),
        BinCode::Sub => a.saturating_sub(b),
        BinCode::Mul => a.saturating_mul(b),
        BinCode::Div => euclid_div(a, b),
        BinCode::Mod => euclid_rem(a, b),
        BinCode::Eq => i64::from(a == b),
        BinCode::Ne => i64::from(a != b),
        BinCode::Lt => i64::from(a < b),
        BinCode::Le => i64::from(a <= b),
        BinCode::Gt => i64::from(a > b),
        BinCode::Ge => i64::from(a >= b),
        BinCode::Min => a.min(b),
        BinCode::Max => a.max(b),
    }
}

struct Compiler<'a> {
    ops: Vec<Op>,
    layout: Option<&'a PackedLayout>,
    n_regs: usize,
}

impl Compiler<'_> {
    fn reg(&mut self, r: usize) -> Result<u8, CompileError> {
        if r >= 256 {
            return Err(CompileError::TooDeep);
        }
        self.n_regs = self.n_regs.max(r + 1);
        Ok(r as u8)
    }

    fn target(&self) -> Result<u16, CompileError> {
        u16::try_from(self.ops.len()).map_err(|_| CompileError::TooLong)
    }

    fn push(&mut self, op: Op) -> Result<(), CompileError> {
        if self.ops.len() >= u16::MAX as usize {
            return Err(CompileError::TooLong);
        }
        self.ops.push(op);
        Ok(())
    }

    fn patch(&mut self, at: usize) -> Result<(), CompileError> {
        let here = self.target()?;
        match &mut self.ops[at] {
            Op::JumpIfZero { target, .. }
            | Op::JumpIfNonZero { target, .. }
            | Op::Jump { target } => *target = here,
            other => unreachable!("patching non-jump {other:?}"),
        }
        Ok(())
    }

    /// Emits code leaving the value of `e` in register `dst`.
    fn emit(&mut self, e: &Expr, dst: usize) -> Result<(), CompileError> {
        let d = self.reg(dst)?;
        match e {
            Expr::Lit(v) => {
                let val = match v {
                    Value::Bool(b) => i64::from(*b),
                    Value::Int(n) => *n,
                };
                self.push(Op::Const { dst: d, val })
            }
            Expr::Var(id) => {
                let v = id.index();
                let (shift, mask, base) = match self.layout {
                    Some(l) => (l.shift[v] as u8, l.mask[v], l.base[v]),
                    None => (0, 0, 0),
                };
                self.push(Op::Load {
                    dst: d,
                    idx: v as u16,
                    shift,
                    mask,
                    base,
                })
            }
            Expr::Not(a) => {
                self.emit(a, dst)?;
                self.push(Op::Not { dst: d })
            }
            Expr::Neg(a) => {
                self.emit(a, dst)?;
                self.push(Op::Neg { dst: d })
            }
            Expr::Bin(op, a, b) => self.emit_bin(*op, a, b, dst),
            Expr::Ite(c, t, f) => {
                self.emit(c, dst)?;
                let jz = self.ops.len();
                self.push(Op::JumpIfZero { reg: d, target: 0 })?;
                self.emit(t, dst)?;
                let jend = self.ops.len();
                self.push(Op::Jump { target: 0 })?;
                self.patch(jz)?;
                self.emit(f, dst)?;
                self.patch(jend)
            }
            Expr::NAry(op, args) => self.emit_nary(*op, args, dst),
        }
    }

    fn emit_bin(&mut self, op: BinOp, a: &Expr, b: &Expr, dst: usize) -> Result<(), CompileError> {
        let d = self.reg(dst)?;
        match op {
            BinOp::And => {
                self.emit(a, dst)?;
                let jz = self.ops.len();
                self.push(Op::JumpIfZero { reg: d, target: 0 })?;
                self.emit(b, dst)?;
                self.patch(jz)
            }
            BinOp::Or => {
                self.emit(a, dst)?;
                let jnz = self.ops.len();
                self.push(Op::JumpIfNonZero { reg: d, target: 0 })?;
                self.emit(b, dst)?;
                self.patch(jnz)
            }
            BinOp::Implies => {
                self.emit(a, dst)?;
                let jz = self.ops.len();
                self.push(Op::JumpIfZero { reg: d, target: 0 })?;
                self.emit(b, dst)?;
                let jend = self.ops.len();
                self.push(Op::Jump { target: 0 })?;
                self.patch(jz)?;
                self.push(Op::Const { dst: d, val: 1 })?;
                self.patch(jend)
            }
            _ => {
                let code = match op {
                    BinOp::Add => BinCode::Add,
                    BinOp::Sub => BinCode::Sub,
                    BinOp::Mul => BinCode::Mul,
                    BinOp::Div => BinCode::Div,
                    BinOp::Mod => BinCode::Mod,
                    BinOp::Eq | BinOp::Iff => BinCode::Eq,
                    BinOp::Ne => BinCode::Ne,
                    BinOp::Lt => BinCode::Lt,
                    BinOp::Le => BinCode::Le,
                    BinOp::Gt => BinCode::Gt,
                    BinOp::Ge => BinCode::Ge,
                    BinOp::And | BinOp::Or | BinOp::Implies => unreachable!(),
                };
                self.emit(a, dst)?;
                self.emit(b, dst + 1)?;
                let s = self.reg(dst + 1)?;
                self.push(Op::Bin {
                    op: code,
                    dst: d,
                    src: s,
                })
            }
        }
    }

    fn emit_nary(&mut self, op: NAryOp, args: &[Expr], dst: usize) -> Result<(), CompileError> {
        let d = self.reg(dst)?;
        match op {
            NAryOp::And | NAryOp::Or => {
                if args.is_empty() {
                    return self.push(Op::Const {
                        dst: d,
                        val: i64::from(matches!(op, NAryOp::And)),
                    });
                }
                let mut jumps = Vec::with_capacity(args.len() - 1);
                for (k, a) in args.iter().enumerate() {
                    self.emit(a, dst)?;
                    if k + 1 < args.len() {
                        jumps.push(self.ops.len());
                        self.push(match op {
                            NAryOp::And => Op::JumpIfZero { reg: d, target: 0 },
                            _ => Op::JumpIfNonZero { reg: d, target: 0 },
                        })?;
                    }
                }
                for j in jumps {
                    self.patch(j)?;
                }
                Ok(())
            }
            NAryOp::Sum | NAryOp::Min | NAryOp::Max => {
                let code = match op {
                    NAryOp::Sum => BinCode::Add,
                    NAryOp::Min => BinCode::Min,
                    _ => BinCode::Max,
                };
                match args.split_first() {
                    None => self.push(Op::Const { dst: d, val: 0 }),
                    Some((first, rest)) => {
                        self.emit(first, dst)?;
                        for a in rest {
                            self.emit(a, dst + 1)?;
                            let s = self.reg(dst + 1)?;
                            self.push(Op::Bin {
                                op: code,
                                dst: d,
                                src: s,
                            })?;
                        }
                        Ok(())
                    }
                }
            }
        }
    }
}

/// A command lowered for packed stepping: compiled guard, compiled
/// right-hand sides, and per-target field/domain metadata.
#[derive(Debug, Clone)]
pub struct CompiledCommand {
    guard: CompiledExpr,
    updates: Vec<CompiledUpdate>,
    /// `(clear, set)` when every update writes an in-domain constant:
    /// an enabled step is then `(word & !clear) | set`.
    constant: Option<(u64, u64)>,
}

#[derive(Debug, Clone)]
struct CompiledUpdate {
    target: u32,
    rhs: CompiledExpr,
}

impl CompiledCommand {
    /// Compiles `command` against `layout`.
    pub fn compile(
        command: &crate::command::Command,
        layout: &PackedLayout,
    ) -> Result<CompiledCommand, CompileError> {
        let guard = CompiledExpr::compile(&command.guard, layout)?;
        let updates: Vec<CompiledUpdate> = command
            .updates
            .iter()
            .map(|(x, e)| {
                Ok(CompiledUpdate {
                    target: x.0,
                    rhs: CompiledExpr::compile(e, layout)?,
                })
            })
            .collect::<Result<_, CompileError>>()?;
        // A folded constant compiles to a single `Const`; one outside
        // its domain keeps the checked path, whose domain guard skips.
        let mut constant = Some((0u64, 0u64));
        for u in &updates {
            let v = u.target as usize;
            constant = match (constant, u.rhs.ops()) {
                (Some((clear, set)), [Op::Const { val, .. }]) => {
                    layout.set_checked(0, v, *val).map(|w| {
                        let field = layout.mask[v] << layout.shift[v];
                        (clear | field, set | w)
                    })
                }
                _ => None,
            };
        }
        Ok(CompiledCommand {
            guard,
            updates,
            constant,
        })
    }

    /// Executes one guarded-else-skip step on a packed word, mirroring
    /// [`Command::step`](crate::command::Command::step): guard false or
    /// any update leaving its domain means the word is returned
    /// unchanged.
    #[inline(always)]
    pub fn step_packed(&self, word: u64, layout: &PackedLayout, scratch: &mut Scratch) -> u64 {
        if self.guard.eval_packed(word, scratch) == 0 {
            return word;
        }
        if let Some((clear, set)) = self.constant {
            return (word & !clear) | set;
        }
        self.write_updates(word, layout, scratch)
    }

    /// The checked update path behind [`CompiledCommand::step_packed`]:
    /// right-hand sides evaluated in the pre-state, each written with
    /// its domain guard.
    #[inline]
    fn write_updates(&self, word: u64, layout: &PackedLayout, scratch: &mut Scratch) -> u64 {
        // Evaluate all right-hand sides in the pre-state before writing.
        scratch.vals.clear();
        for u in &self.updates {
            let v = u.rhs.eval_packed(word, scratch);
            scratch.vals.push(v);
        }
        let mut out = word;
        for (k, u) in self.updates.iter().enumerate() {
            match layout.set_checked(out, u.target as usize, scratch.vals[k]) {
                Some(w) => out = w,
                None => return word, // domain guard: act as skip
            }
        }
        out
    }

    /// Like [`CompiledCommand::step_packed`], but also maintains the
    /// canonical flat index incrementally: the successor's flat index is
    /// the predecessor's plus the weighted field deltas of the written
    /// variables — O(updates) instead of the O(vars) full re-encoding of
    /// [`PackedLayout::flat_of_word`]. `flat` must be `word`'s index.
    #[inline]
    pub fn step_packed_flat(
        &self,
        word: u64,
        flat: u64,
        layout: &PackedLayout,
        scratch: &mut Scratch,
    ) -> (u64, u64) {
        let out = self.step_packed(word, layout, scratch);
        if out == word {
            return (word, flat);
        }
        let mut delta: i64 = 0;
        for u in &self.updates {
            let v = u.target as usize;
            let before = layout.field(word, v) as i64;
            let after = layout.field(out, v) as i64;
            delta += (after - before) * layout.flat_weight(v) as i64;
        }
        (out, (flat as i64 + delta) as u64)
    }

    /// The compiled guard (for enabledness scans).
    pub fn guard(&self) -> &CompiledExpr {
        &self.guard
    }

    /// Number of updates.
    pub fn update_count(&self) -> usize {
        self.updates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::build::*;
    use super::*;
    use crate::command::Command;
    use crate::state::StateSpaceIter;

    fn vocab() -> Vocabulary {
        let mut v = Vocabulary::new();
        v.declare("b", Domain::Bool).unwrap();
        v.declare("n", Domain::int_range(-3, 4).unwrap()).unwrap();
        v.declare("m", Domain::int_range(0, 6).unwrap()).unwrap();
        v
    }

    fn assert_agrees(e: &Expr, v: &Vocabulary) {
        let layout = PackedLayout::new(v).unwrap();
        let prog = CompiledExpr::compile(e, &layout).unwrap();
        let mut scratch = Scratch::new();
        for s in StateSpaceIter::new(v) {
            let reference = match super::super::eval::eval(e, &s) {
                Value::Bool(b) => i64::from(b),
                Value::Int(n) => n,
            };
            let word = layout.pack(&s);
            assert_eq!(
                prog.eval_packed(word, &mut scratch),
                reference,
                "packed {e:?}"
            );
            assert_eq!(prog.eval_state(&s, &mut scratch), reference, "state {e:?}");
        }
    }

    #[test]
    fn layout_roundtrips() {
        let v = vocab();
        let layout = PackedLayout::new(&v).unwrap();
        assert_eq!(layout.total_bits(), 1 + 3 + 3);
        for (flat, s) in StateSpaceIter::new(&v).enumerate() {
            let word = layout.pack(&s);
            assert_eq!(layout.unpack(word, &v), s);
            assert_eq!(layout.flat_of_word(word), flat as u64);
            assert_eq!(layout.word_of_flat(flat as u64), word);
        }
    }

    #[test]
    fn layout_rejects_oversized_vocabularies() {
        let mut v = Vocabulary::new();
        for i in 0..9 {
            v.declare(&format!("x{i}"), Domain::int_range(0, 200).unwrap())
                .unwrap();
        }
        assert!(PackedLayout::new(&v).is_none(), "9 × 8 bits > 64");
    }

    #[test]
    fn arithmetic_and_comparisons_agree() {
        let v = vocab();
        let n = v.lookup("n").unwrap();
        let m = v.lookup("m").unwrap();
        for e in [
            add(var(n), mul(var(m), int(3))),
            sub(neg(var(n)), var(m)),
            div(var(m), var(n)),
            rem(var(m), var(n)),
            ite(lt(var(n), int(0)), neg(var(n)), var(n)),
        ] {
            assert_agrees(&e, &v);
        }
        for e in [
            lt(var(n), var(m)),
            le(var(n), int(0)),
            gt(var(m), int(3)),
            ge(add(var(n), var(m)), int(2)),
            eq(var(n), var(m)),
            ne(var(n), int(-3)),
        ] {
            assert_agrees(&e, &v);
        }
    }

    #[test]
    fn boolean_connectives_agree_and_short_circuit() {
        let v = vocab();
        let b = v.lookup("b").unwrap();
        let n = v.lookup("n").unwrap();
        for e in [
            and2(var(b), lt(var(n), int(2))),
            or2(not(var(b)), ge(var(n), int(0))),
            implies(var(b), lt(var(n), int(4))),
            iff(var(b), lt(var(n), int(0))),
            not(and2(var(b), var(b))),
        ] {
            assert_agrees(&e, &v);
        }
    }

    #[test]
    fn nary_reductions_agree() {
        let v = vocab();
        let n = v.lookup("n").unwrap();
        let m = v.lookup("m").unwrap();
        let b = v.lookup("b").unwrap();
        for e in [
            sum(vec![var(n), var(m), int(1)]),
            min(vec![var(n), var(m)]),
            max(vec![var(n), var(m), int(0)]),
        ] {
            assert_agrees(&e, &v);
        }
        for e in [
            and(vec![var(b), lt(var(n), int(3)), ge(var(m), int(0))]),
            or(vec![not(var(b)), eq(var(n), int(4))]),
            and(vec![]),
            or(vec![]),
        ] {
            assert_agrees(&e, &v);
        }
    }

    #[test]
    fn saturation_and_division_conventions_match() {
        let v = vocab();
        let n = v.lookup("n").unwrap();
        for e in [
            add(int(i64::MAX), int(1)),
            sub(int(i64::MIN), int(1)),
            neg(int(i64::MIN)),
            div(var(n), int(0)),
            rem(var(n), int(0)),
            div(int(-7), int(2)),
            rem(int(-7), int(2)),
        ] {
            assert_agrees(&e, &v);
        }
    }

    #[test]
    fn compiled_command_steps_match_reference() {
        let v = vocab();
        let n = v.lookup("n").unwrap();
        let m = v.lookup("m").unwrap();
        let b = v.lookup("b").unwrap();
        let layout = PackedLayout::new(&v).unwrap();
        let commands = [
            Command::new(
                "swapish",
                var(b),
                vec![(n, sub(var(m), int(3))), (m, add(var(m), int(1)))],
                &v,
            )
            .unwrap(),
            // Relies on the implicit domain guard at the m-boundary.
            Command::new("bump", tt(), vec![(m, add(var(m), int(2)))], &v).unwrap(),
            Command::new("blocked", ff(), vec![(m, int(0))], &v).unwrap(),
        ];
        let mut scratch = Scratch::new();
        for c in &commands {
            let cc = CompiledCommand::compile(c, &layout).unwrap();
            for s in StateSpaceIter::new(&v) {
                let expect = c.step(&s, &v);
                let got = cc.step_packed(layout.pack(&s), &layout, &mut scratch);
                assert_eq!(
                    layout.unpack(got, &v),
                    expect,
                    "command {} from {}",
                    c.name,
                    s.display(&v)
                );
            }
        }
    }

    #[test]
    fn literal_conjunctions_and_constant_updates_are_classified() {
        let mut v = Vocabulary::new();
        let e0 = v.declare("e0", Domain::Bool).unwrap();
        let e1 = v.declare("e1", Domain::Bool).unwrap();
        let x = v.declare("x", Domain::int_range(0, 4).unwrap()).unwrap();
        let p = v.declare("p", Domain::Bool).unwrap();
        let layout = PackedLayout::new(&v).unwrap();
        // Decided by the mask test alone, pre-filtered by it, or neither.
        let kind = |e: &Expr| {
            let prog = CompiledExpr::compile(e, &layout).unwrap();
            match (prog.exact, prog.lit_mask != 0) {
                (true, _) => "exact",
                (false, true) => "filtered",
                (false, false) => "bytecode",
            }
        };
        // A token-ring command: literal guard, constant updates.
        let ring = Command::new(
            "r0",
            and2(var(e0), not(var(e1))),
            vec![(e0, ff()), (e1, tt())],
            &v,
        )
        .unwrap();
        assert_eq!(kind(&ring.guard), "exact");
        let cc = CompiledCommand::compile(&ring, &layout).unwrap();
        assert!(cc.constant.is_some());
        // A non-literal conjunct keeps the bytecode behind the filter.
        assert_eq!(kind(&and2(lt(var(x), int(3)), var(p))), "filtered");
        assert_eq!(kind(&lt(var(x), int(3))), "bytecode");
        // Pins: `c == x`, `b <=> c`, out of domain, conflicting.
        assert_eq!(
            kind(&and(vec![eq(int(2), var(x)), iff(var(p), ff())])),
            "exact"
        );
        let mut scratch = Scratch::new();
        for never in [
            eq(var(x), int(9)),
            // Index 8 does not fit x's three bits; it must not spill
            // into p's field and match `p`.
            and2(eq(var(x), int(8)), var(p)),
            and2(eq(var(x), int(1)), eq(var(x), int(2))),
            and(vec![lt(var(x), int(4)), var(p), not(var(p))]),
        ] {
            assert_eq!(kind(&never), "exact", "{never:?}");
            let prog = CompiledExpr::compile(&never, &layout).unwrap();
            for s in StateSpaceIter::new(&v) {
                assert_eq!(prog.eval_packed(layout.pack(&s), &mut scratch), 0);
            }
        }
        // A computed update is not constant; neither is a constant
        // outside its domain, which must keep the domain skip.
        let inc = Command::new(
            "inc",
            lt(var(x), int(4)),
            vec![(x, add(var(x), int(1)))],
            &v,
        )
        .unwrap();
        assert!(CompiledCommand::compile(&inc, &layout)
            .unwrap()
            .constant
            .is_none());
        let out = Command::new("out", tt(), vec![(x, int(7))], &v).unwrap();
        assert!(CompiledCommand::compile(&out, &layout)
            .unwrap()
            .constant
            .is_none());
    }

    #[test]
    fn support_cursor_enumerates_subspace_in_order() {
        let v = vocab();
        let layout = PackedLayout::new(&v).unwrap();
        let n = v.lookup("n").unwrap();
        let b = v.lookup("b").unwrap();
        let support = vec![b, n];
        let mut cursor = layout.support_cursor(&support, 0).unwrap();
        assert_eq!(cursor.size(), 16);
        let mut seen = Vec::new();
        for _ in 0..cursor.size() {
            seen.push(cursor.word());
            cursor.advance(&layout);
        }
        // All distinct, m pinned at minimum (field 0).
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
        for w in &seen {
            assert_eq!(layout.field(*w, v.lookup("m").unwrap().index()), 0);
        }
        // Wraps to the start.
        assert_eq!(cursor.word(), seen[0]);
        // Starting mid-way agrees with sequential enumeration.
        let mid = layout.support_cursor(&support, 7).unwrap();
        assert_eq!(mid.word(), seen[7]);
    }

    #[test]
    fn cursor_survives_full_64_bit_layouts() {
        // Exactly 64 packed bits: the top field sits at shift 63, so
        // rollover past it must wrap, not overflow (regression).
        let mut v = Vocabulary::new();
        for i in 0..64 {
            v.declare(&format!("b{i}"), Domain::Bool).unwrap();
        }
        let layout = PackedLayout::new(&v).unwrap();
        assert_eq!(layout.total_bits(), 64);
        // Enumerate a support containing the top variable and wrap.
        let support = vec![VarId(0), VarId(63)];
        let mut cursor = layout.support_cursor(&support, 0).unwrap();
        let start = cursor.word();
        for _ in 0..cursor.size() {
            cursor.advance(&layout);
        }
        assert_eq!(cursor.word(), start, "full cycle returns to the start");
    }

    #[test]
    fn constant_folding_shrinks_programs() {
        let v = vocab();
        let layout = PackedLayout::new(&v).unwrap();
        let e = add(int(2), int(3));
        let prog = CompiledExpr::compile(&e, &layout).unwrap();
        assert_eq!(prog.ops(), &[Op::Const { dst: 0, val: 5 }]);
        // `x && false` folds to `false`.
        let b = v.lookup("b").unwrap();
        let e = and2(var(b), ff());
        let prog = CompiledExpr::compile(&e, &layout).unwrap();
        assert_eq!(prog.ops(), &[Op::Const { dst: 0, val: 0 }]);
    }

    #[test]
    fn deep_expressions_are_rejected_not_miscompiled() {
        let v = vocab();
        let n = v.lookup("n").unwrap();
        let layout = PackedLayout::new(&v).unwrap();
        // Right-leaning additions: each level needs one more register.
        let mut e = var(n);
        for _ in 0..300 {
            e = add(var(n), e);
        }
        assert_eq!(
            CompiledExpr::compile(&e, &layout).unwrap_err(),
            CompileError::TooDeep
        );
    }
}
