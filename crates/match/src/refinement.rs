//! Global refinement of candidate sets (paper §4(1), after GraphQL).
//!
//! For each surviving pair `v ∈ CS(u)`, consider the bipartite graph
//! `B_v^u` between `N(u)` and `N(v)` with an edge `(u', v')` iff
//! `v' ∈ CS(u')`, and keep `v` only if `B_v^u` has a semi-perfect matching
//! (one saturating `N(u)`). The procedure is safe: if `(u, v)` is part of a
//! real embedding `f`, then `u' ↦ f(u')` is itself such a matching. Rounds
//! repeat until a fixed point or the round budget is hit (the paper: "could
//! be conducted multiple times to obtain a more compact candidate set").
//!
//! A pair test allocates nothing. `v' ∈ CS(u')` is one bit lookup in a
//! membership bitset per query vertex, refreshed whenever a `CS(u)` is
//! replaced, so later query vertices of a round see the sets the earlier
//! ones left. `B_v^u` is built into flat buffers reused across pairs; a
//! query neighbour with no candidate in `N(v)` rejects the pair before any
//! matching, and otherwise augmenting paths (Kuhn's algorithm — `N(u)` has
//! at most `|V(q)| − 1` vertices) decide whether `N(u)` can be saturated.

use crate::candidates::CandidateSets;
use neursc_graph::types::VertexId;
use neursc_graph::Graph;

/// Runs up to `max_rounds` refinement passes; returns the number of rounds
/// actually performed (stops early at a fixed point).
pub fn global_refinement(q: &Graph, g: &Graph, cs: &mut CandidateSets, max_rounds: usize) -> usize {
    let mut meter = crate::budget::FilterBudget::UNBOUNDED.meter();
    let (rounds, exhausted) = global_refinement_metered(q, g, cs, max_rounds, &mut meter);
    debug_assert!(!exhausted, "unbounded meter cannot trip");
    rounds
}

/// [`global_refinement`] charging one step per candidate-pair test to the
/// supplied meter. Returns `(rounds completed, budget exhausted)`.
///
/// Exhaustion here degrades gracefully instead of erroring: refinement only
/// removes provably-impossible candidates, so stopping at any point leaves
/// `cs` complete (Definition 2) — merely less tight. A query vertex whose
/// pass was cut short keeps its pre-round candidate list.
pub fn global_refinement_metered(
    q: &Graph,
    g: &Graph,
    cs: &mut CandidateSets,
    max_rounds: usize,
    meter: &mut crate::budget::WorkMeter,
) -> (usize, bool) {
    if max_rounds == 0 {
        return (0, false);
    }
    let mut members = Membership::new(cs);
    let mut matcher = PairMatcher::default();
    let mut survivors: Vec<VertexId> = Vec::new();
    for round in 0..max_rounds {
        let mut changed = false;
        for u in q.vertices() {
            let nu = q.neighbors(u);
            survivors.clear();
            for &v in &cs.sets[u as usize] {
                if meter.charge(1).is_err() {
                    // Abandon the partial survivor list: the untested tail
                    // must be retained, so leave CS(u) as-is and stop.
                    return (round, true);
                }
                if matcher.saturates(nu, g.neighbors(v), &members) {
                    survivors.push(v);
                }
            }
            if survivors.len() != cs.sets[u as usize].len() {
                changed = true;
                std::mem::swap(&mut cs.sets[u as usize], &mut survivors);
                // `survivors` now holds the replaced set, a superset.
                members.replace(u, &survivors, &cs.sets[u as usize]);
            }
        }
        if !changed {
            return (round + 1, false);
        }
    }
    (max_rounds, false)
}

/// One bitset per query vertex over data ids `0..=max candidate id`:
/// bit `v` of row `u` is set iff `v ∈ CS(u)`.
struct Membership {
    words: usize,
    bits: Vec<u64>,
}

impl Membership {
    fn new(cs: &CandidateSets) -> Self {
        let n = cs
            .sets
            .iter()
            .flatten()
            .max()
            .map_or(0, |&m| m as usize + 1);
        let words = n.div_ceil(64);
        let mut m = Membership {
            words,
            bits: vec![0; words * cs.sets.len()],
        };
        for (u, set) in cs.sets.iter().enumerate() {
            for &v in set {
                m.bits[u * words + v as usize / 64] |= 1 << (v % 64);
            }
        }
        m
    }

    #[inline]
    fn contains(&self, u: VertexId, v: VertexId) -> bool {
        let w = v as usize / 64;
        w < self.words && (self.bits[u as usize * self.words + w] >> (v % 64)) & 1 == 1
    }

    /// Clears the bits of `old \ new` in row `u` (`new ⊆ old`).
    fn replace(&mut self, u: VertexId, old: &[VertexId], new: &[VertexId]) {
        let row = u as usize * self.words;
        for &v in old {
            self.bits[row + v as usize / 64] &= !(1 << (v % 64));
        }
        for &v in new {
            self.bits[row + v as usize / 64] |= 1 << (v % 64);
        }
    }
}

const FREE: u32 = u32::MAX;

/// Reused buffers of the semi-perfect-matching test: `B_v^u` as flat
/// adjacency from left (`N(u)` index) to right (`N(v)` index).
#[derive(Default)]
struct PairMatcher {
    /// Left `i`'s right neighbours are `adj[start[i]..start[i + 1]]`.
    adj: Vec<u32>,
    start: Vec<u32>,
    /// Left vertex matched to each right vertex, or [`FREE`].
    mate: Vec<u32>,
    /// `seen[j] == stamp` ⇔ right `j` visited in the current search.
    seen: Vec<u32>,
}

impl PairMatcher {
    /// Whether some matching of `B_v^u` saturates every vertex of `nu`.
    fn saturates(&mut self, nu: &[VertexId], nv: &[VertexId], members: &Membership) -> bool {
        if nv.len() < nu.len() {
            return false;
        }
        self.adj.clear();
        self.start.clear();
        self.start.push(0);
        for &u2 in nu {
            let before = self.adj.len();
            for (j, &v2) in nv.iter().enumerate() {
                if members.contains(u2, v2) {
                    self.adj.push(j as u32);
                }
            }
            if self.adj.len() == before {
                return false; // u2 has no candidate in N(v)
            }
            self.start.push(self.adj.len() as u32);
        }
        self.mate.clear();
        self.mate.resize(nv.len(), FREE);
        self.seen.clear();
        self.seen.resize(nv.len(), 0);
        (0..nu.len() as u32).all(|i| self.augment(i, i + 1))
    }

    /// Finds an augmenting path from left `i`, trying a free right
    /// neighbour before re-routing a matched one.
    fn augment(&mut self, i: u32, stamp: u32) -> bool {
        let (lo, hi) = (
            self.start[i as usize] as usize,
            self.start[i as usize + 1] as usize,
        );
        for k in lo..hi {
            let j = self.adj[k] as usize;
            if self.mate[j] == FREE {
                self.mate[j] = i;
                return true;
            }
        }
        for k in lo..hi {
            let j = self.adj[k] as usize;
            if self.seen[j] == stamp {
                continue;
            }
            self.seen[j] = stamp;
            if self.augment(self.mate[j], stamp) {
                self.mate[j] = i;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::local_pruning;
    use crate::profile::{paper_data_graph, paper_query_graph};

    #[test]
    fn paper_example_refinement_reaches_final_sets() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let mut cs = local_pruning(&q, &g, 1);
        global_refinement(&q, &g, &mut cs, 4);
        // Example 1's final candidate sets.
        assert_eq!(cs.get(0), &[0]); // CS(u1) = {v1}
        assert_eq!(cs.get(1), &[3]); // CS(u2) = {v4}
        assert_eq!(cs.get(2), &[4, 5]); // CS(u3) = {v5, v6}
        assert_eq!(cs.get(3), &[9, 10]); // CS(u4) = {v10, v11}
    }

    #[test]
    fn refinement_is_monotone_shrinking() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let cs0 = local_pruning(&q, &g, 1);
        let mut cs1 = cs0.clone();
        global_refinement(&q, &g, &mut cs1, 1);
        let mut cs2 = cs0.clone();
        global_refinement(&q, &g, &mut cs2, 2);
        for u in q.vertices() {
            for &v in cs2.get(u) {
                assert!(cs1.contains(u, v));
            }
            for &v in cs1.get(u) {
                assert!(cs0.contains(u, v));
            }
        }
    }

    #[test]
    fn refinement_preserves_known_match() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let mut cs = local_pruning(&q, &g, 1);
        global_refinement(&q, &g, &mut cs, 8);
        for (u, v) in [(0u32, 0u32), (1, 3), (2, 4), (3, 9)] {
            assert!(
                cs.contains(u, v),
                "refinement dropped true match pair ({u},{v})"
            );
        }
    }

    #[test]
    fn fixed_point_stops_early() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let mut cs = local_pruning(&q, &g, 1);
        let rounds = global_refinement(&q, &g, &mut cs, 100);
        assert!(
            rounds < 100,
            "should reach a fixed point quickly, ran {rounds}"
        );
        // Re-running changes nothing.
        let before = cs.clone();
        global_refinement(&q, &g, &mut cs, 1);
        assert_eq!(before, cs);
    }

    #[test]
    fn zero_rounds_is_a_noop() {
        let q = paper_query_graph();
        let g = paper_data_graph();
        let mut cs = local_pruning(&q, &g, 1);
        let before = cs.clone();
        let rounds = global_refinement(&q, &g, &mut cs, 0);
        assert_eq!(rounds, 0);
        assert_eq!(before, cs);
    }
}
