//! Strongly connected components (iterative Tarjan) over masked subgraphs.
//!
//! Two forms: [`tarjan_scc`] materializes one `Vec` per component (the
//! original interface, kept for the reference liveness path), and
//! [`tarjan_scc_pooled`] writes into reusable [`SccScratch`] buffers —
//! components become ranges into one flat order array, so a hot caller
//! (the `leadsto` trap search runs once per property) performs no
//! per-component allocation at all. The pooled form starts its depth-first
//! search only from the roots it is given, so it visits just the part of
//! the mask those roots reach; the `leadsto` decision pass roots it at the
//! `p ∧ ¬q` states. Rooted at every mask node, it produces the partition
//! of [`tarjan_scc`] in identical order; rooted at a subset, that of
//! [`tarjan_scc`] on the reached subgraph with the roots numbered first.
//! The unit tests below pin both.

/// Reusable buffers for [`tarjan_scc_pooled`]. Sized to the graph on
/// first use and reused across runs (pooled in the verifier session's
/// `EngineCache`): repeated runs cost index resets, not allocations.
#[derive(Debug, Clone, Default)]
pub struct SccScratch {
    /// Tarjan visit index per node (`u32::MAX` = unvisited).
    index: Vec<u32>,
    /// Lowlink per node.
    low: Vec<u32>,
    /// Whether a node is on the component stack.
    on_stack: Vec<bool>,
    /// The component stack.
    stack: Vec<u32>,
    /// Iterative DFS frames: (node, next successor position).
    work: Vec<(u32, u32)>,
    /// All visited nodes, grouped by component (each component's
    /// members are contiguous, in the order they leave Tarjan's stack,
    /// as [`tarjan_scc`] lists them).
    order: Vec<u32>,
    /// End offset into `order` of each component, in component order.
    comp_ends: Vec<u32>,
    /// Component id per node (`u32::MAX` for nodes outside the mask).
    comp_of: Vec<u32>,
}

impl SccScratch {
    /// Number of components found by the last run.
    pub fn comp_count(&self) -> usize {
        self.comp_ends.len()
    }

    /// Number of nodes visited by the last run: the mask nodes its roots
    /// reach.
    pub fn visited(&self) -> usize {
        self.order.len()
    }

    /// Members of component `cid`, in the order they left Tarjan's
    /// stack ([`tarjan_scc`]'s member order).
    pub fn members(&self, cid: usize) -> &[u32] {
        let lo = if cid == 0 {
            0
        } else {
            self.comp_ends[cid - 1] as usize
        };
        &self.order[lo..self.comp_ends[cid] as usize]
    }

    /// Component id of node `v` (`u32::MAX` when the last run did not
    /// visit `v`).
    pub fn comp_of(&self, v: u32) -> u32 {
        self.comp_of[v as usize]
    }
}

/// [`tarjan_scc`] started from `roots` only, with pooled scratch and flat
/// component storage: the output lives in `scratch` as ranges into one
/// order array instead of a `Vec<Vec<u32>>`, and every auxiliary array is
/// reused across runs.
///
/// `roots` are the nodes to start from, in ascending id order; a root
/// outside the mask or already visited is skipped. The run visits the mask
/// nodes the roots reach and nothing else. Rooted at every mask node, it
/// is [`tarjan_scc`]'s traversal: same component order, same member order.
pub fn tarjan_scc_pooled<'a>(
    mask: &[bool],
    roots: impl IntoIterator<Item = u32>,
    succ: impl Fn(u32) -> &'a [u32] + Copy,
    scratch: &mut SccScratch,
) {
    let n = mask.len();
    const UNVISITED: u32 = u32::MAX;
    let s = scratch;
    s.index.clear();
    s.index.resize(n, UNVISITED);
    s.low.clear();
    s.low.resize(n, 0);
    s.on_stack.clear();
    s.on_stack.resize(n, false);
    s.comp_of.clear();
    s.comp_of.resize(n, UNVISITED);
    s.stack.clear();
    s.work.clear();
    s.order.clear();
    s.comp_ends.clear();
    let mut next_index: u32 = 0;

    for start in roots {
        if !mask[start as usize] || s.index[start as usize] != UNVISITED {
            continue;
        }
        s.index[start as usize] = next_index;
        s.low[start as usize] = next_index;
        next_index += 1;
        s.stack.push(start);
        s.on_stack[start as usize] = true;
        s.work.push((start, 0));
        while let Some(&(v, pos)) = s.work.last() {
            let succs = succ(v);
            if (pos as usize) < succs.len() {
                s.work.last_mut().expect("frame just read").1 = pos + 1;
                let w = succs[pos as usize];
                if !mask[w as usize] {
                    continue; // successors outside the mask are ignored
                }
                if s.index[w as usize] == UNVISITED {
                    s.index[w as usize] = next_index;
                    s.low[w as usize] = next_index;
                    next_index += 1;
                    s.stack.push(w);
                    s.on_stack[w as usize] = true;
                    s.work.push((w, 0));
                } else if s.on_stack[w as usize] {
                    s.low[v as usize] = s.low[v as usize].min(s.index[w as usize]);
                }
            } else {
                // All successors done: close v.
                s.work.pop();
                if s.low[v as usize] == s.index[v as usize] {
                    let cid = s.comp_ends.len() as u32;
                    loop {
                        let w = s.stack.pop().expect("tarjan stack underflow");
                        s.on_stack[w as usize] = false;
                        s.comp_of[w as usize] = cid;
                        s.order.push(w);
                        if w == v {
                            break;
                        }
                    }
                    s.comp_ends.push(s.order.len() as u32);
                }
                // Propagate lowlink to parent (if any).
                if let Some(&(parent, _)) = s.work.last() {
                    let p = parent as usize;
                    s.low[p] = s.low[p].min(s.low[v as usize]);
                }
            }
        }
    }
}

/// Computes the strongly connected components of the subgraph of
/// `0..mask.len()` induced by `mask`, with successors given by `succ`
/// (successors outside the mask are ignored).
///
/// Returns the components in reverse topological order (Tarjan's natural
/// output); each component lists its member node ids.
pub fn tarjan_scc<'a>(mask: &[bool], succ: impl Fn(u32) -> &'a [u32] + Copy) -> Vec<Vec<u32>> {
    let n = mask.len();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index: u32 = 0;
    let mut components: Vec<Vec<u32>> = Vec::new();

    // Iterative DFS frame: (node, successor slice, next successor position).
    enum Frame<'a> {
        Enter(u32),
        Resume(u32, &'a [u32], usize),
    }

    for start in 0..n as u32 {
        if !mask[start as usize] || index[start as usize] != UNVISITED {
            continue;
        }
        let mut work = vec![Frame::Enter(start)];
        while let Some(frame) = work.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v as usize] = next_index;
                    low[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                    work.push(Frame::Resume(v, succ(v), 0));
                }
                Frame::Resume(v, succs, mut pos) => {
                    let mut descended = false;
                    while pos < succs.len() {
                        let w = succs[pos];
                        pos += 1;
                        if !mask[w as usize] {
                            continue; // successors outside the mask are ignored
                        }
                        if index[w as usize] == UNVISITED {
                            work.push(Frame::Resume(v, succs, pos));
                            work.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w as usize] {
                            low[v as usize] = low[v as usize].min(index[w as usize]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    // All successors done: close v.
                    if low[v as usize] == index[v as usize] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w as usize] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        components.push(comp);
                    }
                    // Propagate lowlink to parent (if any).
                    if let Some(Frame::Resume(parent, _, _)) = work.last() {
                        let p = *parent as usize;
                        low[p] = low[p].min(low[v as usize]);
                    }
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adjacency(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a as usize].push(b);
        }
        adj
    }

    #[test]
    fn single_cycle() {
        let adj = adjacency(3, &[(0u32, 1u32), (1, 2), (2, 0)]);
        let mask = vec![true; 3];
        let sccs = tarjan_scc(&mask, |v| adj[v as usize].as_slice());
        assert_eq!(sccs.len(), 1);
        let mut c = sccs[0].clone();
        c.sort();
        assert_eq!(c, vec![0, 1, 2]);
    }

    #[test]
    fn dag_gives_singletons() {
        let adj = adjacency(3, &[(0u32, 1u32), (1, 2), (0, 2)]);
        let mask = vec![true; 3];
        let sccs = tarjan_scc(&mask, |v| adj[v as usize].as_slice());
        assert_eq!(sccs.len(), 3);
        assert!(sccs.iter().all(|c| c.len() == 1));
        // Reverse topological: sinks first.
        assert_eq!(sccs[0], vec![2]);
    }

    #[test]
    fn two_components_with_bridge() {
        // 0 <-> 1 -> 2 <-> 3
        let adj = adjacency(4, &[(0u32, 1u32), (1, 0), (1, 2), (2, 3), (3, 2)]);
        let mask = vec![true; 4];
        let sccs = tarjan_scc(&mask, |v| adj[v as usize].as_slice());
        assert_eq!(sccs.len(), 2);
        let mut sizes: Vec<usize> = sccs.iter().map(Vec::len).collect();
        sizes.sort();
        assert_eq!(sizes, vec![2, 2]);
    }

    #[test]
    fn mask_excludes_nodes() {
        // Cycle 0 -> 1 -> 2 -> 0 broken by masking 2.
        let adj = adjacency(3, &[(0u32, 1u32), (1, 2), (2, 0)]);
        let mask = vec![true, true, false];
        let sccs = tarjan_scc(&mask, |v| adj[v as usize].as_slice());
        assert_eq!(sccs.len(), 2);
        assert!(sccs.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        // 100k-node chain: iterative DFS must not overflow.
        let n = 100_000u32;
        let mask = vec![true; n as usize];
        let adj = adjacency(
            n as usize,
            &(0..n - 1).map(|v| (v, v + 1)).collect::<Vec<_>>(),
        );
        let sccs = tarjan_scc(&mask, |v| adj[v as usize].as_slice());
        assert_eq!(sccs.len(), n as usize);
    }

    #[test]
    fn self_loop_is_component() {
        let adj = adjacency(2, &[(0u32, 0u32), (0, 1)]);
        let mask = vec![true; 2];
        let sccs = tarjan_scc(&mask, |v| adj[v as usize].as_slice());
        assert_eq!(sccs.len(), 2);
    }

    /// Collects the pooled output back into the `Vec<Vec<u32>>` shape
    /// for exact comparison against [`tarjan_scc`].
    fn pooled_components(
        mask: &[bool],
        adj: &[Vec<u32>],
        scratch: &mut SccScratch,
    ) -> Vec<Vec<u32>> {
        rooted_components(mask, mask_nodes(mask), adj, scratch)
    }

    /// The pooled pass from `roots`, collected like [`pooled_components`].
    fn rooted_components(
        mask: &[bool],
        roots: Vec<u32>,
        adj: &[Vec<u32>],
        scratch: &mut SccScratch,
    ) -> Vec<Vec<u32>> {
        tarjan_scc_pooled(mask, roots, |v| adj[v as usize].as_slice(), scratch);
        (0..scratch.comp_count())
            .map(|cid| scratch.members(cid).to_vec())
            .collect()
    }

    /// Every node inside `mask`, in id order: the roots that make the
    /// pooled pass cover the whole mask.
    fn mask_nodes(mask: &[bool]) -> Vec<u32> {
        (0..mask.len() as u32)
            .filter(|&v| mask[v as usize])
            .collect()
    }

    /// A pseudo-random subset of `0..n` (a linear congruential stream).
    fn random_mask(n: usize, seed: u64) -> Vec<bool> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) & 1 == 0
            })
            .collect()
    }

    /// A deterministic pseudo-random graph (xorshift edges).
    fn random_graph(n: usize, edges: usize, seed: u64) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); n];
        let mut x = seed | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..edges {
            let a = (next() % n as u64) as u32;
            let b = (next() % n as u64) as u32;
            adj[a as usize].push(b);
        }
        adj
    }

    #[test]
    fn pooled_matches_original_on_full_graphs() {
        // Full mask, structured and pseudo-random graphs: the pooled
        // form must reproduce the `Vec<Vec>` partition exactly —
        // component order and member order included.
        let cases: Vec<Vec<Vec<u32>>> = vec![
            adjacency(3, &[(0u32, 1u32), (1, 2), (2, 0)]),
            adjacency(3, &[(0u32, 1u32), (1, 2), (0, 2)]),
            adjacency(4, &[(0u32, 1u32), (1, 0), (1, 2), (2, 3), (3, 2)]),
            adjacency(2, &[(0u32, 0u32), (0, 1)]),
            random_graph(200, 600, 0xfeed),
            random_graph(97, 97, 42),
            random_graph(50, 400, 7),
        ];
        let mut scratch = SccScratch::default();
        for adj in &cases {
            let mask = vec![true; adj.len()];
            let expect = tarjan_scc(&mask, |v| adj[v as usize].as_slice());
            let got = pooled_components(&mask, adj, &mut scratch);
            assert_eq!(got, expect);
            assert_eq!(scratch.visited(), adj.len());
            // comp_of agrees with membership.
            for (cid, comp) in expect.iter().enumerate() {
                for &v in comp {
                    assert_eq!(scratch.comp_of(v), cid as u32);
                }
            }
        }
    }

    #[test]
    fn pooled_matches_original_under_masks() {
        let adj = random_graph(120, 500, 0xabcd);
        let mut scratch = SccScratch::default();
        for seed in 1u64..6 {
            let mask = random_mask(adj.len(), seed);
            let expect = tarjan_scc(&mask, |v| adj[v as usize].as_slice());
            let got = pooled_components(&mask, &adj, &mut scratch);
            assert_eq!(got, expect, "masked partition diverged (seed {seed})");
            // Unvisited nodes keep the sentinel.
            for (v, &m) in mask.iter().enumerate() {
                if !m {
                    assert_eq!(scratch.comp_of(v as u32), u32::MAX);
                }
            }
        }
    }

    #[test]
    fn rooted_pass_is_tarjan_on_the_reached_subgraph() {
        // Rooted at a random subset of a random mask, the pooled pass must
        // equal `tarjan_scc` on the subgraph the roots reach, in partition
        // and in order, once the roots are renumbered to come first (in
        // their own order, rows unchanged): `tarjan_scc` then starts from
        // the same nodes in the same order, and every later start is
        // already visited.
        let graphs = [
            random_graph(200, 600, 0xfeed),
            random_graph(97, 97, 42),
            random_graph(50, 400, 7),
            random_graph(120, 500, 0xabcd),
        ];
        let mut scratch = SccScratch::default();
        for (g, adj) in graphs.iter().enumerate() {
            let n = adj.len();
            for seed in 1u64..6 {
                let mask = random_mask(n, seed * 7 + g as u64);
                let pick = random_mask(n, seed * 131 + 3 + g as u64);
                // About a quarter of the mask nodes.
                let roots: Vec<u32> = mask_nodes(&mask)
                    .into_iter()
                    .filter(|&v| pick[v as usize] && pick[(v as usize * 5 + 1) % n])
                    .collect();
                // The mask nodes the roots reach.
                let mut reached = vec![false; n];
                let mut stack = roots.clone();
                for &r in &roots {
                    reached[r as usize] = true;
                }
                while let Some(v) = stack.pop() {
                    for &w in &adj[v as usize] {
                        if mask[w as usize] && !reached[w as usize] {
                            reached[w as usize] = true;
                            stack.push(w);
                        }
                    }
                }
                // Renumber: roots first, then every other node, each group
                // in id order.
                let order: Vec<u32> = roots
                    .iter()
                    .copied()
                    .chain((0..n as u32).filter(|v| !roots.contains(v)))
                    .collect();
                let mut new_id = vec![0u32; n];
                for (k, &v) in order.iter().enumerate() {
                    new_id[v as usize] = k as u32;
                }
                let renumbered: Vec<Vec<u32>> = order
                    .iter()
                    .map(|&v| {
                        adj[v as usize]
                            .iter()
                            .map(|&w| new_id[w as usize])
                            .collect()
                    })
                    .collect();
                let sub_mask: Vec<bool> = order.iter().map(|&v| reached[v as usize]).collect();
                let expect: Vec<Vec<u32>> =
                    tarjan_scc(&sub_mask, |v| renumbered[v as usize].as_slice())
                        .into_iter()
                        .map(|comp| comp.into_iter().map(|k| order[k as usize]).collect())
                        .collect();
                let got = rooted_components(&mask, roots, adj, &mut scratch);
                assert_eq!(got, expect, "graph {g}, seed {seed}");
                assert_eq!(scratch.visited(), reached.iter().filter(|&&r| r).count());
                for v in 0..n as u32 {
                    assert_eq!(scratch.comp_of(v) != u32::MAX, reached[v as usize]);
                }
            }
        }
    }

    #[test]
    fn roots_outside_the_mask_or_already_visited_are_skipped() {
        // 0 -> 1 -> 2 -> 1, with 0 masked out: rooted at 0 the pass visits
        // nothing; rooted at 1 and again at 2 it finds {1, 2} once.
        let adj = adjacency(3, &[(0u32, 1u32), (1, 2), (2, 1)]);
        let mask = [false, true, true];
        let mut scratch = SccScratch::default();
        assert!(rooted_components(&mask, vec![0], &adj, &mut scratch).is_empty());
        assert_eq!(scratch.visited(), 0);
        assert_eq!(
            rooted_components(&mask, vec![0, 1, 2], &adj, &mut scratch),
            vec![vec![2, 1]]
        );
    }

    #[test]
    fn pooled_scratch_reuse_is_clean() {
        // A big run followed by a small one: stale state from the first
        // must not leak into the second.
        let big = random_graph(300, 900, 3);
        let small = adjacency(3, &[(0u32, 1u32), (1, 2), (2, 0)]);
        let mut scratch = SccScratch::default();
        let _ = pooled_components(&vec![true; 300], &big, &mut scratch);
        let got = pooled_components(&[true; 3], &small, &mut scratch);
        let expect = tarjan_scc(&[true; 3], |v| small[v as usize].as_slice());
        assert_eq!(got, expect);
        assert_eq!(scratch.comp_count(), 1);
    }

    #[test]
    fn pooled_deep_chain_no_stack_overflow() {
        let n = 100_000u32;
        let mask = vec![true; n as usize];
        let adj = adjacency(
            n as usize,
            &(0..n - 1).map(|v| (v, v + 1)).collect::<Vec<_>>(),
        );
        let mut scratch = SccScratch::default();
        tarjan_scc_pooled(&mask, 0..n, |v| adj[v as usize].as_slice(), &mut scratch);
        assert_eq!(scratch.comp_count(), n as usize);
    }
}
