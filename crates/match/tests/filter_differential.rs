//! Differential test of the candidate filter against a reference kept only
//! here: per-vertex sorted label lists with the two-pointer multiset test
//! for local pruning, and a per-pair bipartite graph with Hopcroft–Karp for
//! refinement. The library's run-length profile table and allocation-free
//! pair matcher must agree with it exactly — same candidate sets, same
//! `degraded` flag, same step count, same budget error — at radius 1/2/3,
//! refinement rounds 0–4 and a range of step caps.

use neursc_graph::generate::erdos_renyi;
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_graph::traversal::khop_ball;
use neursc_graph::types::{Label, VertexId};
use neursc_graph::{Graph, GraphBuilder};
use neursc_match::candidates::{local_pruning_with, CandidateSets};
use neursc_match::filter::{filter_candidates_budgeted, FilterConfig, FilterOutput};
use neursc_match::profile::all_profiles;
use neursc_match::refinement::global_refinement;
use neursc_match::{FilterBudget, FilterError, FilterPhase, WorkMeter};
use proptest::prelude::*;
use rand::SeedableRng;

/// Sorted label list of every vertex's r-ball.
fn ref_profiles(g: &Graph, r: u32) -> Vec<Vec<Label>> {
    g.vertices()
        .map(|v| {
            let mut l: Vec<Label> = khop_ball(g, v, r).into_iter().map(|u| g.label(u)).collect();
            l.sort_unstable();
            l
        })
        .collect()
}

/// Multiset inclusion on sorted label lists (two-pointer merge).
fn ref_subsumes(haystack: &[Label], needle: &[Label]) -> bool {
    if needle.len() > haystack.len() {
        return false;
    }
    let mut i = 0;
    for &x in needle {
        while i < haystack.len() && haystack[i] < x {
            i += 1;
        }
        if i >= haystack.len() || haystack[i] != x {
            return false;
        }
        i += 1;
    }
    true
}

/// Hopcroft–Karp: whether `adj` (left → right indices, `n_right` right
/// vertices) has a matching saturating the left side.
fn ref_saturating(adj: &[Vec<usize>], n_right: usize) -> bool {
    const NIL: usize = usize::MAX;
    const INF: u32 = u32::MAX;
    let n_left = adj.len();
    let mut match_l = vec![NIL; n_left];
    let mut match_r = vec![NIL; n_right];
    let mut dist = vec![0u32; n_left];
    fn dfs(
        l: usize,
        adj: &[Vec<usize>],
        dist: &mut [u32],
        match_l: &mut [usize],
        match_r: &mut [usize],
    ) -> bool {
        for &r in &adj[l] {
            let l2 = match_r[r];
            if l2 == NIL || (dist[l2] == dist[l] + 1 && dfs(l2, adj, dist, match_l, match_r)) {
                match_l[l] = r;
                match_r[r] = l;
                return true;
            }
        }
        dist[l] = INF;
        false
    }
    loop {
        let mut queue = std::collections::VecDeque::new();
        for l in 0..n_left {
            if match_l[l] == NIL {
                dist[l] = 0;
                queue.push_back(l);
            } else {
                dist[l] = INF;
            }
        }
        let mut found = false;
        while let Some(l) = queue.pop_front() {
            for &r in &adj[l] {
                let l2 = match_r[r];
                if l2 == NIL {
                    found = true;
                } else if dist[l2] == INF {
                    dist[l2] = dist[l] + 1;
                    queue.push_back(l2);
                }
            }
        }
        if !found {
            break;
        }
        for l in 0..n_left {
            if match_l[l] == NIL {
                dfs(l, adj, &mut dist, &mut match_l, &mut match_r);
            }
        }
    }
    match_l.iter().all(|&r| r != NIL)
}

/// Reference local pruning on sorted label lists, one metered step per
/// pair.
fn ref_local_pruning(
    q: &Graph,
    g: &Graph,
    r: u32,
    meter: &mut WorkMeter,
) -> Result<CandidateSets, FilterError> {
    let gp = ref_profiles(g, r);
    let qp = ref_profiles(q, r);
    let mut sets = Vec::new();
    for u in q.vertices() {
        let mut set = Vec::new();
        for v in g.vertices().filter(|&v| g.label(v) == q.label(u)) {
            meter.charge(1).map_err(|_| FilterError::BudgetExhausted {
                phase: FilterPhase::LocalPruning,
                spent: meter.spent(),
            })?;
            if g.degree(v) >= q.degree(u) && ref_subsumes(&gp[v as usize], &qp[u as usize]) {
                set.push(v);
            }
        }
        sets.push(set);
    }
    Ok(CandidateSets { sets })
}

/// Reference refinement: a bipartite graph per pair, decided by
/// Hopcroft–Karp; `true` when the budget ran out.
fn ref_refinement(
    q: &Graph,
    g: &Graph,
    cs: &mut CandidateSets,
    rounds: usize,
    meter: &mut WorkMeter,
) -> bool {
    for _ in 0..rounds {
        let mut changed = false;
        for u in q.vertices() {
            let mut survivors: Vec<VertexId> = Vec::new();
            for &v in cs.get(u) {
                if meter.charge(1).is_err() {
                    return true;
                }
                let (nu, nv) = (q.neighbors(u), g.neighbors(v));
                let adj: Vec<Vec<usize>> = nu
                    .iter()
                    .map(|&u2| (0..nv.len()).filter(|&j| cs.contains(u2, nv[j])).collect())
                    .collect();
                if nv.len() >= nu.len() && ref_saturating(&adj, nv.len()) {
                    survivors.push(v);
                }
            }
            if survivors.len() != cs.get(u).len() {
                changed = true;
                cs.sets[u as usize] = survivors;
            }
        }
        if !changed {
            break;
        }
    }
    false
}

/// The reference of `filter_candidates_budgeted`.
fn ref_filter(
    q: &Graph,
    g: &Graph,
    cfg: &FilterConfig,
    budget: &FilterBudget,
) -> Result<FilterOutput, FilterError> {
    let mut meter = budget.meter();
    let mut cs = ref_local_pruning(q, g, cfg.profile_radius, &mut meter)?;
    let mut degraded = false;
    if !cs.any_empty() {
        degraded = ref_refinement(q, g, &mut cs, cfg.refinement_rounds, &mut meter);
    }
    Ok(FilterOutput {
        candidates: cs,
        degraded,
        steps: meter.spent(),
    })
}

/// A random labeled graph on `n` vertices (no self-loops).
fn random_graph(n: usize, m: usize, n_labels: u32, seed: u64) -> Graph {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for v in 0..n as u32 {
        b.set_label(v, rng.gen_range(0..n_labels));
    }
    for _ in 0..m {
        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        if u != v {
            b.add_edge(u, v).unwrap();
        }
    }
    b.build()
}

/// Checks one (query, data) pair at every radius, round count and cap.
fn check(q: &Graph, g: &Graph) -> Result<(), TestCaseError> {
    for r in 1..=3u32 {
        let profiles = all_profiles(g, r);
        for rounds in 0..=4usize {
            let cfg = FilterConfig {
                profile_radius: r,
                refinement_rounds: rounds,
            };
            let unbounded = ref_filter(q, g, &cfg, &FilterBudget::UNBOUNDED);
            let total = unbounded.as_ref().map_or(0, |o| o.steps);
            let pruning = q
                .vertices()
                .map(|u| g.vertices().filter(|&v| g.label(v) == q.label(u)).count() as u64)
                .sum::<u64>();
            let caps = [
                0,
                1,
                pruning / 2,
                pruning.saturating_sub(1),
                pruning,
                pruning + 1,
                (pruning + total) / 2,
                total.saturating_sub(1),
                total,
                u64::MAX,
            ];
            for cap in caps {
                let budget = FilterBudget::steps(cap);
                let want = ref_filter(q, g, &cfg, &budget);
                let got = filter_candidates_budgeted(q, g, &cfg, &profiles, &budget);
                prop_assert_eq!(&got, &want, "r={} rounds={} cap={}", r, rounds, cap);
            }
            // The unmetered entry points agree with the unbounded run.
            let mut cs = local_pruning_with(q, g, r, &profiles);
            if !cs.any_empty() {
                global_refinement(q, g, &mut cs, rounds);
            }
            let want = unbounded.map(|o| o.candidates);
            prop_assert_eq!(Ok(cs), want, "unmetered r={} rounds={}", r, rounds);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Queries sampled from the data graph: non-empty sets that refinement
    /// tightens over several rounds.
    #[test]
    fn sampled_queries_match_the_reference(
        seed in any::<u64>(),
        n in 20usize..70,
        degree in 2usize..6,
        n_labels in 2usize..5,
        q_size in 3usize..7,
    ) {
        let g = erdos_renyi(n, n * degree / 2, n_labels, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
        if let Some(q) = sample_query(&g, &QuerySampler::induced(q_size), &mut rng) {
            check(&q, &g)?;
        }
    }

    /// Arbitrary queries, including ones with no match at all, labels
    /// absent from the data graph and isolated query vertices.
    #[test]
    fn arbitrary_queries_match_the_reference(
        seed in any::<u64>(),
        n in 10usize..50,
        q_n in 1usize..7,
        n_labels in 1u32..4,
    ) {
        let g = random_graph(n, 2 * n, n_labels, seed);
        let q = random_graph(q_n, 2 * q_n, n_labels + 1, seed.rotate_left(17));
        check(&q, &g)?;
    }
}
