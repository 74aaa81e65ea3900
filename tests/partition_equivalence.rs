//! Partitioned estimation over a packed `GraphStore` must reproduce the
//! whole-graph estimate **bit for bit** — for both estimator backends, at
//! every partition count, thread count, and store access mode.
//!
//! This is the system-level contract of the out-of-core path: partitioning
//! changes *where* the candidate work happens (per-core local pruning over
//! a streamed CSR image), never *what* is computed. The WEst forward pass
//! is deterministic, and the sampling backend reseeds per chunk, so both
//! must agree to the last mantissa bit; anything looser would let a
//! partition-boundary bug hide inside a tolerance.
//!
//! Pruning hands on the rows of the vertices it kept, and the working set
//! is built from them: at radius 1 from the rows the profiles were read
//! from, at radius ≥ 2 from the partition view's core rows. Both paths are
//! swept, and a streamed estimate reads exactly the chunks pruning reads.

use neursc::core::{estimate_partitioned, GraphContext, NeurSc, NeurScConfig};
use neursc::graph::generate::erdos_renyi;
use neursc::graph::Graph;
use neursc::sample::{SampleConfig, SampleEstimator};
use neursc::store::{encode_graph, AccessMode, CacheStats, GraphStore, PartitionPlan};
use neursc_core::partition::PartitionBackend;
use neursc_core::EstimateDetail;

const THREADS: [usize; 3] = [1, 2, 4];
const PARTITIONS: [usize; 3] = [1, 2, 4];

fn modes() -> [AccessMode; 2] {
    [
        AccessMode::Resident,
        AccessMode::Streamed {
            chunk_edges: 128,
            max_chunks: 3,
        },
    ]
}

/// Bit-level equality of everything a caller can observe (wall-clock
/// report timings excluded — they are honest measurements, not results).
fn assert_bit_identical(part: &EstimateDetail, mono: &EstimateDetail, what: &str) {
    assert_eq!(
        part.count.to_bits(),
        mono.count.to_bits(),
        "{what}: count {} vs {}",
        part.count,
        mono.count
    );
    assert_eq!(part.n_substructures, mono.n_substructures, "{what}");
    assert_eq!(part.trivially_zero, mono.trivially_zero, "{what}");
    assert_eq!(part.degraded, mono.degraded, "{what}");
    match (part.ci, mono.ci) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.low.to_bits(), b.low.to_bits(), "{what}: ci.low");
            assert_eq!(a.high.to_bits(), b.high.to_bits(), "{what}: ci.high");
            assert!(a.contains(mono.count), "{what}: ci excludes its own mean");
        }
        (a, b) => panic!("{what}: ci presence differs: {a:?} vs {b:?}"),
    }
}

fn sweep(backend: &dyn PartitionBackend, q: &Graph, g: &Graph, label: &str) {
    let mono = backend
        .estimate_detailed_with(q, g, &GraphContext::new())
        .unwrap();
    let bytes = encode_graph(g);
    for mode in modes() {
        let store = GraphStore::open_bytes(bytes.clone(), mode).unwrap();
        for k in PARTITIONS {
            let plan = PartitionPlan::contiguous(&store, k);
            for threads in THREADS {
                let d = estimate_partitioned(
                    backend,
                    q,
                    &store,
                    &plan,
                    &GraphContext::new(),
                    None,
                    threads,
                )
                .unwrap();
                assert_bit_identical(
                    &d,
                    &mono,
                    &format!("{label}, {mode:?}, k={k}, threads={threads}"),
                );
            }
        }
    }
}

#[test]
fn west_partitioned_equals_whole_graph_everywhere() {
    let g = erdos_renyi(150, 450, 4, 23);
    let path3 = Graph::from_edges(3, &[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
    let triangle = Graph::from_edges(3, &[0, 1, 1], &[(0, 1), (1, 2), (0, 2)]).unwrap();
    let model = NeurSc::new(NeurScConfig::small(), 13);
    sweep(&model, &path3, &g, "west/path3");
    sweep(&model, &triangle, &g, "west/triangle");
}

#[test]
fn sampling_partitioned_equals_whole_graph_everywhere() {
    let g = erdos_renyi(150, 450, 4, 23);
    let path3 = Graph::from_edges(3, &[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
    let cfg = SampleConfig::from_model_config(&NeurScConfig::small()).with_trials(200);
    let est = SampleEstimator::new(cfg);
    sweep(&est, &path3, &g, "sample/path3");
}

#[test]
fn disconnected_query_partitioned_equals_whole_graph() {
    let g = erdos_renyi(100, 300, 3, 9);
    // An edge component plus an isolated vertex: routes through the §6.1
    // component product on both sides.
    let q = Graph::from_edges(3, &[0, 1, 2], &[(0, 1)]).unwrap();
    let model = NeurSc::new(NeurScConfig::small(), 13);
    sweep(&model, &q, &g, "west/disconnected");
}

#[test]
fn absent_label_is_trivially_zero_partitioned_too() {
    let g = erdos_renyi(80, 200, 2, 5); // labels {0, 1} only
    let q = Graph::from_edges(2, &[0, 7], &[(0, 1)]).unwrap(); // label 7 absent
    let model = NeurSc::new(NeurScConfig::small(), 13);
    let bytes = encode_graph(&g);
    for mode in modes() {
        let store = GraphStore::open_bytes(bytes.clone(), mode).unwrap();
        let plan = PartitionPlan::contiguous(&store, 2);
        let d =
            estimate_partitioned(&model, &q, &store, &plan, &GraphContext::new(), None, 2).unwrap();
        assert!(d.trivially_zero, "{mode:?}");
        assert_eq!(d.count, 0.0, "{mode:?}");
    }
    sweep(&model, &q, &g, "west/absent-label");
}

fn with_radius(radius: u32) -> NeurScConfig {
    let mut cfg = NeurScConfig::small();
    cfg.filter.profile_radius = radius;
    cfg
}

#[test]
fn deep_profile_radius_partitioned_equals_whole_graph() {
    let g = erdos_renyi(150, 450, 4, 23);
    let path3 = Graph::from_edges(3, &[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
    let triangle = Graph::from_edges(3, &[0, 1, 1], &[(0, 1), (1, 2), (0, 2)]).unwrap();
    for radius in [2, 3] {
        let model = NeurSc::new(with_radius(radius), 13);
        sweep(&model, &path3, &g, &format!("west/path3/r{radius}"));
        sweep(&model, &triangle, &g, &format!("west/triangle/r{radius}"));
        let cfg = SampleConfig::from_model_config(&with_radius(radius)).with_trials(200);
        let est = SampleEstimator::new(cfg);
        sweep(&est, &path3, &g, &format!("sample/path3/r{radius}"));
    }
}

/// Counter deltas of `store` across `f`.
fn stats_delta(store: &GraphStore, f: impl FnOnce()) -> CacheStats {
    let before = store.cache_stats();
    f();
    let after = store.cache_stats();
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
    }
}

#[test]
fn streamed_estimate_reads_only_the_chunks_pruning_reads() {
    let g = erdos_renyi(150, 450, 4, 23);
    let bytes = encode_graph(&g);
    // About 8 chunks, all of which fit in the cache: a chunk is missed once
    // per store, so any row the working set read would show as extra hits.
    let mode = AccessMode::Streamed {
        chunk_edges: 128,
        max_chunks: 64,
    };
    let path3 = Graph::from_edges(3, &[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
    let triangle = Graph::from_edges(3, &[0, 1, 1], &[(0, 1), (1, 2), (0, 2)]).unwrap();
    for radius in [1, 2, 3] {
        let model = NeurSc::new(with_radius(radius), 13);
        for (name, q) in [("path3", &path3), ("triangle", &triangle)] {
            let what = format!("{name}, r={radius}");
            let store = GraphStore::open_bytes(bytes.clone(), mode).unwrap();
            let plan = PartitionPlan::contiguous(&store, 3);
            let pruning = stats_delta(&store, || {
                for core in plan.cores() {
                    store.local_pruning_core(q, core, radius).unwrap();
                }
            });
            let store = GraphStore::open_bytes(bytes.clone(), mode).unwrap();
            let estimate = stats_delta(&store, || {
                estimate_partitioned(&model, q, &store, &plan, &GraphContext::new(), None, 1)
                    .unwrap();
            });
            assert!(pruning.misses > 0, "{what}: pruning read no chunk");
            assert_eq!(
                estimate, pruning,
                "{what}: the estimate read beyond pruning"
            );
        }
    }
}
