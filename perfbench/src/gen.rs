//! Seeded input generation: the `cli_battery` corpus and the request
//! streams of the two daemon workloads.
//!
//! Everything is a pure function of the seed. Each generated check
//! carries the verdict it must get, known by construction:
//!
//! * token ring, `e_k leadsto e_{k+1}`: only the command that moves the
//!   token off edge `k` can falsify its own guard `e_k && !e_{k+1}`, so
//!   weak fairness forces the move — holds from any state;
//! * token ring, `true leadsto (all edges hold a token)`: every
//!   component's `init` frees one of its edges and every command moves a
//!   token without creating one, so that state is unreachable — refuted;
//! * quadrant grid, `origin`/`bounds`/`settled`/`arrival`: the battery
//!   of `unity_systems::quadrants`, which holds;
//! * quadrant grid, `invariant x <= side-2` is refuted by the east step
//!   out of column `side-2`, and `init x == 1` by the initial state.
//!
//! Sizes are fixed per workload and only the details vary with the
//! seed, so runs with different seeds cost about the same.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a byte stream: the printed input digest.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        // A separator, so ("ab","c") and ("a","bc") differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A check name and whether it must pass.
pub type Expect = (String, bool);

/// One generated `.unity` file and its expected verdicts.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub src: String,
    pub expect: Vec<Expect>,
}

/// A token ring split into components: one boolean per edge (`e_i`
/// holds a token), each component owns a run of edges and passes tokens
/// forward; `tag` names the commands, so two rings with different tags
/// are different programs with the same behaviour.
#[derive(Debug, Clone)]
pub struct Ring {
    sizes: Vec<usize>,
    freed: Vec<usize>,
    tag: u64,
}

impl Ring {
    /// A ring with components of the given sizes (in seeded order); each
    /// component's `init` frees one seeded edge of its own.
    pub fn random(rng: &mut Rng, sizes: &[usize], tag: u64) -> Ring {
        let mut sizes = sizes.to_vec();
        rng.shuffle(&mut sizes);
        let freed = sizes.iter().map(|&s| rng.below(s)).collect();
        Ring { sizes, freed, tag }
    }

    pub fn edges(&self) -> usize {
        self.sizes.iter().sum()
    }

    fn programs(&self) -> String {
        let e = self.edges();
        let mut out = String::new();
        let mut start = 0;
        for (q, (&size, &freed)) in self.sizes.iter().zip(&self.freed).enumerate() {
            let _ = writeln!(out, "program Segment{q}");
            for i in start..=start + size {
                let _ = writeln!(out, "  var e{} : bool", i % e);
            }
            let _ = writeln!(out, "  init !e{}", start + freed);
            for i in start..start + size {
                let j = (i + 1) % e;
                let _ = writeln!(
                    out,
                    "  fair cmd r{i}_{}: e{i} && !e{j} -> e{i} := false, e{j} := true",
                    self.tag
                );
            }
            out.push_str("end\n");
            start += size;
        }
        out
    }

    /// The ring with `advance` checks `e_k leadsto e_{k+1}` for each `k`
    /// and, when `saturate` is `Some(pos)`, the refuted saturation check
    /// inserted at position `pos` of the battery.
    pub fn spec(&self, name: &str, advance: &[usize], saturate: Option<usize>) -> Case {
        let e = self.edges();
        let mut lines: Vec<(String, bool)> = advance
            .iter()
            .map(|&k| {
                let (k, j) = (k % e, (k + 1) % e);
                (format!("  adv{k}: e{k} leadsto e{j}"), true)
            })
            .collect();
        if let Some(pos) = saturate {
            let all = (0..e)
                .map(|i| format!("e{i}"))
                .collect::<Vec<_>>()
                .join(" && ");
            lines.insert(
                pos.min(lines.len()),
                (format!("  saturate: true leadsto {all}"), false),
            );
        }
        finish_case(name, self.programs(), "Ring", lines)
    }
}

/// `n` distinct edge indices of a ring with `e` edges, in seeded order.
fn distinct_edges(rng: &mut Rng, e: usize, n: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..e).collect();
    rng.shuffle(&mut all);
    all.truncate(n);
    all
}

/// The N-quadrant grid of `unity_systems::quadrants` as a `.unity` file:
/// walker `i` roams a `side_i × side_i` quadrant of its own, burning
/// one unit of fuel per step. `tags[i]` names quadrant `i`'s commands, so
/// an edit that bumps it makes a new component program.
#[derive(Debug, Clone)]
pub struct Grid {
    pub sides: Vec<i64>,
    pub tags: Vec<u64>,
}

/// Which grid checks to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridBattery {
    /// `origin`, `bounds`, `settled` per quadrant: all-states safety scans.
    Safety,
    /// The safety battery plus `arrival` (`leadsto`) per quadrant: the
    /// battery the assume-guarantee rules discharge completely.
    Full,
}

impl Grid {
    fn programs(&self) -> String {
        let mut out = String::new();
        for (i, (&side, &tag)) in self.sides.iter().zip(&self.tags).enumerate() {
            let m = side - 1;
            let fuel = 2 * m;
            let _ = write!(
                out,
                "program Quadrant{i}\n  \
                 var x{i} : int 0..{m} local\n  \
                 var y{i} : int 0..{m} local\n  \
                 var f{i} : int 0..{fuel} local\n  \
                 init x{i} == 0 && y{i} == 0 && f{i} == {fuel}\n  \
                 fair cmd east{i}_{tag}: x{i} < {m} -> x{i} := x{i} + 1, f{i} := f{i} - 1\n  \
                 fair cmd north{i}_{tag}: y{i} < {m} -> y{i} := y{i} + 1, f{i} := f{i} - 1\n\
                 end\n"
            );
        }
        out
    }

    /// The grid with its battery; `tight` and `moved` name quadrants that
    /// get one deliberately refuted check each.
    pub fn spec(&self, name: &str, battery: GridBattery, tight: &[usize], moved: &[usize]) -> Case {
        let mut lines = Vec::new();
        for (i, &side) in self.sides.iter().enumerate() {
            let m = side - 1;
            let fuel = 2 * m;
            lines.push((
                format!("  origin{i}: init x{i} == 0 && y{i} == 0 && f{i} == {fuel}"),
                true,
            ));
            lines.push((
                format!("  bounds{i}: invariant x{i} <= {m} && y{i} <= {m}"),
                true,
            ));
            lines.push((format!("  settled{i}: stable f{i} == 0"), true));
            if battery == GridBattery::Full {
                lines.push((format!("  arrival{i}: true leadsto f{i} == 0"), true));
            }
            if tight.contains(&i) {
                lines.push((format!("  tight{i}: invariant x{i} <= {}", m - 1), false));
            }
            if moved.contains(&i) {
                lines.push((format!("  moved{i}: init x{i} == 1"), false));
            }
        }
        finish_case(name, self.programs(), "Grid", lines)
    }
}

fn finish_case(name: &str, programs: String, spec: &str, lines: Vec<(String, bool)>) -> Case {
    let mut src = programs;
    let _ = writeln!(src, "spec {spec}");
    let mut expect = Vec::with_capacity(lines.len());
    for (line, pass) in lines {
        let label = line
            .trim()
            .split(':')
            .next()
            .unwrap_or_default()
            .to_string();
        src.push_str(&line);
        src.push('\n');
        expect.push((label, pass));
    }
    src.push_str("end\n");
    Case {
        name: name.to_string(),
        src,
        expect,
    }
}

/// The generated half of the `cli_battery` corpus: two token rings whose
/// `leadsto` checks load build, pred and leadsto, and two quadrant grids
/// whose all-states safety checks load the scans. Every file has exactly
/// one or two refuted checks, at seeded places.
pub fn cli_corpus(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed);
    let ring14 = Ring::random(&mut rng, &[4, 4, 3, 3], 0);
    let adv = distinct_edges(&mut rng, 14, 3);
    let pos = rng.below(4);
    let ring14 = ring14.spec("ring14", &adv, Some(pos));

    let ring15 = Ring::random(&mut rng, &[3, 3, 3, 3, 3], 0);
    let adv = distinct_edges(&mut rng, 15, 2);
    let pos = rng.below(3);
    let ring15 = ring15.spec("ring15", &adv, Some(pos));

    // The 4-quadrant grid is the flat engines' worst case (291,600
    // states) and passes everywhere, so `--compositional` never falls
    // back to the product on it.
    // Grid layouts are fixed: the spec parser's init-consistency check
    // enumerates the product, and how far it walks depends on the order
    // of the domains.
    let grid4 = Grid {
        sides: vec![3, 3, 2, 2],
        tags: vec![0; 4],
    }
    .spec("grid4", GridBattery::Safety, &[], &[]);

    // The refuted checks go to side-3 quadrants only, so the product
    // fallback they force costs the same for every seed.
    let tight = rng.below(2);
    let moved = rng.below(2);
    let grid3 = Grid {
        sides: vec![3, 3, 2],
        tags: vec![0; 3],
    }
    .spec("grid3", GridBattery::Safety, &[tight], &[moved]);

    vec![ring14, ring15, grid4, grid3]
}

/// The kind of one daemon request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Store pre-warm (set-up, not timed).
    Prewarm,
    /// The same spec text again.
    Resubmit,
    /// Same program, different check lines: same program hash.
    CheckEdit,
    /// A program never submitted before: misses the store.
    ProgramEdit,
    /// One component of a compositional system replaced by a new one.
    ComponentEdit,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Prewarm => "prewarm",
            Kind::Resubmit => "resubmit",
            Kind::CheckEdit => "check_edit",
            Kind::ProgramEdit => "program_edit",
            Kind::ComponentEdit => "component_edit",
        }
    }
}

/// One daemon submission and what it must get back.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub compositional: bool,
    /// Which program slot (serve) it belongs to; 0 for compose.
    pub slot: usize,
    /// Identifies the submitted program (slot contents version).
    pub program: u64,
    pub case: Case,
    /// Seconds after the previous request that this one is due.
    pub gap_s: f64,
}

/// A daemon workload's inputs: the pre-warm submissions, then the
/// request stream the open and closed loops consume in order.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub prewarm: Vec<Request>,
    pub stream: Vec<Request>,
}

impl Schedule {
    pub fn digest(&self) -> String {
        let mut d = Digest::default();
        for r in self.prewarm.iter().chain(&self.stream) {
            d.add(r.kind.label().as_bytes());
            d.add(r.case.src.as_bytes());
            d.add(&r.gap_s.to_bits().to_le_bytes());
        }
        d.hex()
    }
}

/// Program slots of `serve_resubmit`: more than the store's 32-entry
/// memory layer, so some hits decode segments from disk.
pub const SERVE_SLOTS: usize = 40;

/// Mix of `serve_resubmit`, per block of 20 requests in seeded order.
const SERVE_BLOCK: [(Kind, usize); 3] = [
    (Kind::Resubmit, 13),
    (Kind::CheckEdit, 5),
    (Kind::ProgramEdit, 2),
];

/// Mix of `compose_edit`, per block of 10 requests in seeded order.
const COMPOSE_BLOCK: [(Kind, usize); 2] = [(Kind::Resubmit, 6), (Kind::ComponentEdit, 4)];

/// Component sizes of a `serve_resubmit` ring: 14 edges, 16,384 states.
const SERVE_RING: [usize; 4] = [4, 4, 3, 3];

/// Seconds until the next Poisson arrival at `rate` per second.
fn exp_gap(rng: &mut Rng, rate: f64) -> f64 {
    -(1.0 - rng.unit()).ln() / rate
}

/// The next request kind: `block` is dealt in seeded order, one whole
/// block at a time, so every block holds the mix exactly and a longer
/// stream extends a shorter one.
fn next_kind(rng: &mut Rng, block: &[(Kind, usize)], pending: &mut Vec<Kind>) -> Kind {
    if pending.is_empty() {
        pending.extend(block.iter().flat_map(|&(k, c)| std::iter::repeat_n(k, c)));
        rng.shuffle(pending);
    }
    pending.pop().expect("a block holds at least one request")
}

/// `serve_resubmit`: flat submissions of 14-edge token rings with two
/// `leadsto` checks each, over [`SERVE_SLOTS`] program slots.
pub fn serve_schedule(seed: u64, n: usize, rate: f64) -> Schedule {
    let mut rng = Rng::new(seed ^ 0x7365_7276_6500);
    let mut tag = 0u64;
    let mut slots: Vec<(Ring, u64, Case)> = (0..SERVE_SLOTS)
        .map(|s| {
            tag += 1;
            let ring = Ring::random(&mut rng, &SERVE_RING, tag);
            let case = ring.spec(&format!("slot{s}"), &distinct_edges(&mut rng, 14, 2), None);
            (ring, tag, case)
        })
        .collect();
    let request = |kind, slot: usize, (_, program, case): &(Ring, u64, Case), gap_s| Request {
        kind,
        compositional: false,
        slot,
        program: *program,
        case: case.clone(),
        gap_s,
    };
    let prewarm = slots
        .iter()
        .enumerate()
        .map(|(s, entry)| request(Kind::Prewarm, s, entry, 0.0))
        .collect();
    let mut pending = Vec::new();
    let mut stream = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = next_kind(&mut rng, &SERVE_BLOCK, &mut pending);
        let s = rng.below(SERVE_SLOTS);
        let gap = exp_gap(&mut rng, rate);
        let name = format!("slot{s}");
        match kind {
            Kind::CheckEdit => {
                slots[s].2 = slots[s]
                    .0
                    .spec(&name, &distinct_edges(&mut rng, 14, 2), None);
            }
            Kind::ProgramEdit => {
                tag += 1;
                let ring = Ring::random(&mut rng, &SERVE_RING, tag);
                let case = ring.spec(&name, &distinct_edges(&mut rng, 14, 2), None);
                slots[s] = (ring, tag, case);
            }
            _ => {}
        }
        stream.push(request(kind, s, &slots[s], gap));
    }
    Schedule { prewarm, stream }
}

/// Independent systems of `compose_edit`, each edited by its own client.
pub const COMPOSE_SYSTEMS: usize = 8;

/// `compose_edit`: compositional submissions of [`COMPOSE_SYSTEMS`]
/// evolving 4-quadrant grids. An edit rewrites one seeded quadrant of one
/// system under a new command tag: a new component program of the same
/// size, so exactly its certificates are new and every seed costs the
/// same. Tags are unique across systems, so no two systems share a
/// component program. (Layouts stay put: the spec parser's
/// init-consistency check enumerates the product, so changing sizes or
/// their order would make the parse cost drift with the seed.)
pub fn compose_schedule(seed: u64, n: usize, rate: f64) -> Schedule {
    let mut rng = Rng::new(seed ^ 0x636f_6d70_6f73);
    let mut tag = 0u64;
    let mut systems: Vec<(Grid, u64, Case)> = (0..COMPOSE_SYSTEMS)
        .map(|s| {
            let sides = vec![3, 3, 2, 2];
            let tags = (0..4)
                .map(|_| {
                    tag += 1;
                    tag
                })
                .collect();
            let grid = Grid { sides, tags };
            let case = grid.spec(&format!("system{s}"), GridBattery::Full, &[], &[]);
            (grid, tag, case)
        })
        .collect();
    let request = |kind, slot: usize, (_, program, case): &(Grid, u64, Case), gap_s| Request {
        kind,
        compositional: true,
        slot,
        program: *program,
        case: case.clone(),
        gap_s,
    };
    let prewarm = systems
        .iter()
        .enumerate()
        .map(|(s, entry)| request(Kind::Prewarm, s, entry, 0.0))
        .collect();
    let mut pending = Vec::new();
    let mut stream = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = next_kind(&mut rng, &COMPOSE_BLOCK, &mut pending);
        let s = rng.below(COMPOSE_SYSTEMS);
        let gap = exp_gap(&mut rng, rate);
        if kind == Kind::ComponentEdit {
            let q = rng.below(4);
            tag += 1;
            let (grid, program, case) = &mut systems[s];
            grid.tags[q] = tag;
            *program = tag;
            *case = grid.spec(&format!("system{s}"), GridBattery::Full, &[], &[]);
        }
        stream.push(request(kind, s, &systems[s], gap));
    }
    Schedule { prewarm, stream }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = cli_corpus(7);
        let b = cli_corpus(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.src, y.src);
            assert_eq!(x.expect, y.expect);
        }
        assert_eq!(
            serve_schedule(7, 300, 20.0).digest(),
            serve_schedule(7, 300, 20.0).digest()
        );
        assert_eq!(
            compose_schedule(7, 300, 20.0).digest(),
            compose_schedule(7, 300, 20.0).digest()
        );
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(cli_corpus(1)[0].src, cli_corpus(2)[0].src);
        assert_ne!(
            serve_schedule(1, 50, 20.0).digest(),
            serve_schedule(2, 50, 20.0).digest()
        );
        assert_ne!(
            compose_schedule(1, 50, 20.0).digest(),
            compose_schedule(2, 50, 20.0).digest()
        );
    }

    #[test]
    fn a_longer_stream_extends_a_shorter_one() {
        let short = serve_schedule(3, 40, 20.0);
        let long = serve_schedule(3, 80, 20.0);
        for (a, b) in short.stream.iter().zip(&long.stream) {
            assert_eq!(a.case.src, b.case.src);
        }
    }

    #[test]
    fn mixes_hold_exactly_per_block() {
        let s = serve_schedule(5, 200, 20.0);
        let count = |k| s.stream.iter().filter(|r| r.kind == k).count();
        assert_eq!(count(Kind::Resubmit), 130);
        assert_eq!(count(Kind::CheckEdit), 50);
        assert_eq!(count(Kind::ProgramEdit), 20);
        let c = compose_schedule(5, 100, 20.0);
        assert_eq!(
            c.stream
                .iter()
                .filter(|r| r.kind == Kind::ComponentEdit)
                .count(),
            40
        );
    }

    #[test]
    fn generated_expectations_name_every_check() {
        for case in cli_corpus(11) {
            let refuted = case.expect.iter().filter(|(_, pass)| !pass).count();
            assert!(
                (case.name == "grid4") == (refuted == 0),
                "{}: {refuted} refuted",
                case.name
            );
            for (name, _) in &case.expect {
                assert!(case.src.contains(&format!("  {name}: ")), "{name}");
            }
        }
    }

    #[test]
    fn rng_below_stays_in_range() {
        let mut rng = Rng::new(9);
        assert!((0..1000).all(|_| rng.below(7) < 7));
        let u = rng.unit();
        assert!((0.0..1.0).contains(&u));
    }
}
