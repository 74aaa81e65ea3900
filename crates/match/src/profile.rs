//! r-hop label profiles (GraphQL local pruning, paper §4(1)).
//!
//! The *profile* of a vertex `u` within radius `r` is the multiset of
//! labels of `u` and of every vertex within `r` hops. Local pruning keeps
//! `v ∈ CS(u)` iff the profile of `u` is a sub-multiset of the profile of
//! `v` — a necessary condition for `(u, v)` to appear in any match, because
//! a subgraph-isomorphism embedding maps the r-ball of `u` injectively and
//! label-preservingly into the r-ball of `v`.
//!
//! A profile is stored run-length encoded: its distinct labels in ascending
//! order, each with its multiplicity. A whole graph's profiles live in one
//! flat [`ProfileTable`] (CSR offsets over one run array), built by
//! counting each ball's labels rather than sorting them. An r-ball holds
//! many vertices but few distinct labels, so the table is a fraction of the
//! size of per-vertex label lists and [`subsumes`] merges over runs, not
//! labels.

use neursc_graph::traversal::khop_ball;
use neursc_graph::types::{Label, VertexId};
use neursc_graph::Graph;
use std::fmt;
use std::ops::Index;

/// One run of a profile: `count` occurrences of `label`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The label.
    pub label: Label,
    /// Its multiplicity in the r-ball (≥ 1).
    pub count: u32,
}

/// One vertex's profile as counted runs, plus the counting scratch that
/// builds it. Reused across vertices, it allocates only when a ball brings
/// a label larger than any seen before.
#[derive(Debug, Clone, Default)]
pub struct ProfileRow {
    /// `counts[l]` while counting; all zero between rows.
    counts: Vec<u32>,
    runs: Vec<Run>,
}

impl ProfileRow {
    /// The runs of the last finished row, ascending by label.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    fn clear(&mut self) {
        self.runs.clear();
    }

    #[inline]
    fn count(&mut self, label: Label) {
        let l = label as usize;
        if l >= self.counts.len() {
            self.counts.resize(l + 1, 0);
        }
        if self.counts[l] == 0 {
            self.runs.push(Run { label, count: 0 });
        }
        self.counts[l] += 1;
    }

    /// Sorts the distinct labels seen (few, unlike the ball's vertices) and
    /// moves their counts into the runs, leaving `counts` zeroed.
    fn finish(&mut self) {
        self.runs.sort_unstable_by_key(|r| r.label);
        for run in &mut self.runs {
            let c = &mut self.counts[run.label as usize];
            run.count = *c;
            *c = 0;
        }
    }
}

/// A sorted label list handed to [`ProfileTable::push_sorted_labels`] was
/// not in ascending order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsortedProfile {
    /// Index of the offending vertex in the table being built.
    pub vertex: usize,
}

impl fmt::Display for UnsortedProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "profile of vertex {} is not sorted", self.vertex)
    }
}

impl std::error::Error for UnsortedProfile {}

/// The profiles of every vertex of one graph: CSR offsets over a single
/// array of [`Run`]s. `table[v]` is vertex `v`'s profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileTable {
    /// `offsets[v]..offsets[v + 1]` indexes `runs`; `len = n + 1`.
    offsets: Vec<usize>,
    runs: Vec<Run>,
}

impl ProfileTable {
    /// An empty table with room for `n_vertices` rows.
    pub fn with_capacity(n_vertices: usize) -> Self {
        let mut offsets = Vec::with_capacity(n_vertices + 1);
        offsets.push(0);
        ProfileTable {
            offsets,
            runs: Vec::new(),
        }
    }

    /// Number of vertices (rows).
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vertex `v`'s profile expanded back into its ascending label list —
    /// the per-vertex layout of the v1 snapshot format.
    pub fn labels(&self, v: usize) -> impl Iterator<Item = Label> + '_ {
        self[v]
            .iter()
            .flat_map(|r| std::iter::repeat_n(r.label, r.count as usize))
    }

    fn push_runs(&mut self, runs: &[Run]) {
        self.runs.extend_from_slice(runs);
        self.offsets.push(self.runs.len());
    }

    /// Appends a row given as an ascending label list, compressing it into
    /// runs. A list out of order is rejected and the table left unchanged.
    pub fn push_sorted_labels(
        &mut self,
        labels: impl IntoIterator<Item = Label>,
    ) -> Result<(), UnsortedProfile> {
        let start = self.runs.len();
        for l in labels {
            match self.runs[start..].last_mut() {
                Some(last) if last.label == l => last.count += 1,
                Some(last) if last.label > l => {
                    self.runs.truncate(start);
                    return Err(UnsortedProfile { vertex: self.len() });
                }
                _ => self.runs.push(Run { label: l, count: 1 }),
            }
        }
        self.offsets.push(self.runs.len());
        Ok(())
    }

    /// A table from per-vertex ascending label lists.
    pub fn from_sorted_lists<L: AsRef<[Label]>>(lists: &[L]) -> Result<Self, UnsortedProfile> {
        let mut t = ProfileTable::with_capacity(lists.len());
        for l in lists {
            t.push_sorted_labels(l.as_ref().iter().copied())?;
        }
        Ok(t)
    }
}

impl Index<usize> for ProfileTable {
    type Output = [Run];

    fn index(&self, v: usize) -> &[Run] {
        &self.runs[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// Computes the radius-`r` profile of one vertex.
pub fn vertex_profile(g: &Graph, v: VertexId, r: u32) -> Vec<Run> {
    let mut row = ProfileRow::default();
    for u in khop_ball(g, v, r) {
        row.count(g.label(u));
    }
    row.finish();
    row.runs
}

/// Computes the radius-1 profiles of **all** vertices in one pass — the
/// common case (`r = 1` is GraphQL's default and what NeurSC uses), done
/// without per-vertex BFS: `O(n + m)` label counting.
pub fn all_profiles_r1(g: &Graph) -> ProfileTable {
    let mut table = ProfileTable::with_capacity(g.n_vertices());
    let mut row = ProfileRow::default();
    for v in g.vertices() {
        profile_r1_into(
            g.label(v),
            g.neighbors(v).iter().map(|&u| g.label(u)),
            &mut row,
        );
        table.push_runs(row.runs());
    }
    table
}

/// Fills `out` with the radius-1 profile of a vertex given its own label
/// and its neighbors' labels — the row-streamed analogue of
/// [`all_profiles_r1`], shared with the out-of-core store so the resident
/// and streamed filtering paths use one profile definition.
pub fn profile_r1_into(
    own: Label,
    neighbor_labels: impl IntoIterator<Item = Label>,
    out: &mut ProfileRow,
) {
    out.clear();
    out.count(own);
    for l in neighbor_labels {
        out.count(l);
    }
    out.finish();
}

/// Computes all radius-`r` profiles. `r = 1` uses the one-pass gather;
/// `r > 1` runs a BFS per vertex but reuses one queue and one stamp-based
/// visited array across all of them — per-vertex BFS allocation was the
/// dominant cost of this path on large data graphs.
pub fn all_profiles(g: &Graph, r: u32) -> ProfileTable {
    if r == 1 {
        return all_profiles_r1(g);
    }
    let n = g.n_vertices();
    let mut table = ProfileTable::with_capacity(n);
    let mut row = ProfileRow::default();
    // `visited[u] == stamp` ⇔ u reached in the BFS from vertex `stamp`.
    let mut visited: Vec<VertexId> = vec![VertexId::MAX; n];
    let mut queue: Vec<VertexId> = Vec::new();
    for v in g.vertices() {
        queue.clear();
        queue.push(v);
        visited[v as usize] = v;
        let mut head = 0;
        let mut frontier_end = queue.len();
        let mut depth = 0;
        while depth < r && head < queue.len() {
            while head < frontier_end {
                let u = queue[head];
                head += 1;
                for &w in g.neighbors(u) {
                    if visited[w as usize] != v {
                        visited[w as usize] = v;
                        queue.push(w);
                    }
                }
            }
            frontier_end = queue.len();
            depth += 1;
        }
        row.clear();
        for &u in &queue {
            row.count(g.label(u));
        }
        row.finish();
        table.push_runs(row.runs());
    }
    table
}

/// Multiset-inclusion test on two run-length profiles: does `needle`
/// subsume into `haystack`? One merge over the runs, both ascending by
/// label.
pub fn subsumes(haystack: &[Run], needle: &[Run]) -> bool {
    if needle.len() > haystack.len() {
        return false;
    }
    let mut i = 0; // haystack cursor
    for n in needle {
        // Skip haystack runs of smaller labels; at most `len − i` remain.
        while i < haystack.len() && haystack[i].label < n.label {
            i += 1;
        }
        match haystack.get(i) {
            Some(h) if h.label == n.label && h.count >= n.count => i += 1,
            _ => return false,
        }
    }
    true
}

/// Test fixture: a data graph reproducing the paper's Figure 1b / Example 1
/// semantics. Labels: `A = 0, B = 1, C = 2, D = 3`; vertex `v{i}` of the
/// figure is id `i − 1`.
///
/// The graph is constructed so that, exactly as in Example 1, local pruning
/// yields `CS(u2) = {v2, v3, v4}` and global refinement shrinks it to
/// `{v4}`, the final candidate sets are `CS(u1) = {v1}`, `CS(u3) = {v5,
/// v6}`, `CS(u4) = {v10, v11}`, and the query has exactly **3** embeddings.
pub fn paper_data_graph() -> Graph {
    let labels = [0, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3];
    let edges = [
        (0, 1),  // v1-v2
        (0, 2),  // v1-v3
        (0, 3),  // v1-v4
        (1, 12), // v2-v13
        (2, 12), // v3-v13
        (3, 4),  // v4-v5
        (3, 5),  // v4-v6
        (3, 9),  // v4-v10
        (3, 10), // v4-v11
        (4, 9),  // v5-v10
        (4, 10), // v5-v11
        (5, 10), // v6-v11
        (6, 11), // v7-v12
        (7, 11), // v8-v12
        (8, 11), // v9-v12
    ];
    Graph::from_edges(13, &labels, &edges).unwrap_or_else(|_| unreachable!("static fixture"))
}

/// Test fixture: the Figure 1a query graph — `u1(A)−u2(B)`, `u2−u4(D)`,
/// `u3(C)−u4` (profiles match Example 1: profile(u2) = {A, B, D}).
pub fn paper_query_graph() -> Graph {
    Graph::from_edges(4, &[0, 1, 2, 3], &[(0, 1), (1, 3), (2, 3)])
        .unwrap_or_else(|_| unreachable!("static fixture"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs of an ascending label list.
    fn runs(labels: &[Label]) -> Vec<Run> {
        ProfileTable::from_sorted_lists(&[labels]).unwrap()[0].to_vec()
    }

    #[test]
    fn profile_contains_self_and_neighbors() {
        let g = paper_data_graph();
        // v4 (id 3): label B, neighbors v1(A), v5(C), v6(C), v10(D), v11(D)
        let p = vertex_profile(&g, 3, 1);
        assert_eq!(p, runs(&[0, 1, 2, 2, 3, 3]));
    }

    #[test]
    fn all_profiles_r1_matches_per_vertex() {
        let g = paper_data_graph();
        let all = all_profiles_r1(&g);
        assert_eq!(all.len(), g.n_vertices());
        for v in g.vertices() {
            assert_eq!(all[v as usize], vertex_profile(&g, v, 1));
        }
    }

    #[test]
    fn all_profiles_scratch_bfs_matches_per_vertex() {
        let g = paper_data_graph();
        for r in [2u32, 3, 4] {
            let all = all_profiles(&g, r);
            for v in g.vertices() {
                assert_eq!(all[v as usize], vertex_profile(&g, v, r), "r={r} v={v}");
            }
        }
    }

    #[test]
    fn labels_expand_runs_back_to_the_sorted_list() {
        let lists: Vec<Vec<Label>> = vec![vec![], vec![3], vec![0, 0, 2, 5, 5, 5]];
        let t = ProfileTable::from_sorted_lists(&lists).unwrap();
        assert_eq!(t.len(), 3);
        let run = |label, count| Run { label, count };
        assert_eq!(t[2], [run(0, 2), run(2, 1), run(5, 3)]);
        for (v, l) in lists.iter().enumerate() {
            assert_eq!(&t.labels(v).collect::<Vec<_>>(), l);
        }
    }

    #[test]
    fn unsorted_lists_are_rejected() {
        let mut t = ProfileTable::with_capacity(2);
        t.push_sorted_labels([1, 1, 2]).unwrap();
        assert_eq!(
            t.push_sorted_labels([1, 0]),
            Err(UnsortedProfile { vertex: 1 })
        );
        assert_eq!(t.len(), 1, "a rejected row leaves the table unchanged");
        t.push_sorted_labels([4]).unwrap();
        assert_eq!(t[1], [Run { label: 4, count: 1 }]);
    }

    #[test]
    fn radius2_profile_is_superset_of_radius1() {
        let g = paper_data_graph();
        for v in g.vertices() {
            let p1 = vertex_profile(&g, v, 1);
            let p2 = vertex_profile(&g, v, 2);
            assert!(subsumes(&p2, &p1));
        }
    }

    #[test]
    fn subsumes_multiset_semantics() {
        let s = |h: &[Label], n: &[Label]| subsumes(&runs(h), &runs(n));
        assert!(s(&[0, 1, 1, 2], &[1, 2]));
        assert!(s(&[0, 1, 1, 2], &[1, 1]));
        assert!(!s(&[0, 1, 2], &[1, 1])); // multiplicity matters
        assert!(!s(&[0, 1], &[3]));
        assert!(s(&[5], &[]));
        assert!(!s(&[], &[0]));
        assert!(s(&[], &[]));
    }

    #[test]
    fn paper_example_profiles() {
        // Example 1: profile(u2) = {A, B, D}; the profiles of v2, v3 are
        // also {A, B, D} and v4's is {A, B, C, C, D, D}; all subsume u2's.
        let q = paper_query_graph();
        let g = paper_data_graph();
        let pu2 = vertex_profile(&q, 1, 1);
        assert_eq!(pu2, runs(&[0, 1, 3]));
        for data_v in [1u32, 2, 3] {
            assert!(subsumes(&vertex_profile(&g, data_v, 1), &pu2));
        }
        // v10 (D-labeled) must not subsume a B-rooted profile.
        assert!(!subsumes(&vertex_profile(&g, 9, 1), &pu2));
    }

    #[test]
    fn paper_example_u3_candidates_after_local_pruning() {
        // profile(u3) = {C, D}; every C vertex adjacent to a D vertex passes.
        let q = paper_query_graph();
        let g = paper_data_graph();
        let pu3 = vertex_profile(&q, 2, 1);
        assert_eq!(pu3, runs(&[2, 3]));
        let passing: Vec<u32> = g
            .vertices_with_label(2)
            .filter(|&v| subsumes(&vertex_profile(&g, v, 1), &pu3))
            .collect();
        // v5..v9 (ids 4..=8) all pass local pruning; refinement later
        // removes v7, v8, v9 (their D neighbor v12 is not in CS(u4)).
        assert_eq!(passing, vec![4, 5, 6, 7, 8]);
    }
}
