//! Ablation benches for two of the design choices DESIGN.md §5 calls out:
//! refinement rounds vs. candidate-set size and filtering cost, and
//! profile radius vs. local-pruning cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_match::candidates::local_pruning;
use neursc_match::filter::{filter_candidates, FilterConfig};
use neursc_match::refinement::global_refinement;
use neursc_workloads::datasets::{dataset, DatasetId};
use rand::SeedableRng;

fn bench_refinement_rounds(c: &mut Criterion) {
    let g = dataset(DatasetId::Yeast);
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let queries: Vec<_> = (0..4)
        .map(|_| sample_query(&g, &QuerySampler::induced(8), &mut rng).unwrap())
        .collect();

    // Report pruning power per round count alongside cost.
    for rounds in [0usize, 1, 2, 3] {
        let sizes: usize = queries
            .iter()
            .map(|q| {
                let cfg = FilterConfig {
                    profile_radius: 1,
                    refinement_rounds: rounds,
                };
                filter_candidates(q, &g, &cfg).total_size()
            })
            .sum();
        eprintln!("refinement rounds={rounds}: total |CS| over 4 queries = {sizes}");
    }

    let mut group = c.benchmark_group("refinement_rounds");
    for rounds in [0usize, 1, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(rounds), &rounds, |b, &r| {
            let mut i = 0;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                let mut cs = local_pruning(q, &g, 1);
                global_refinement(q, &g, &mut cs, r);
                cs
            });
        });
    }
    group.finish();
}

fn bench_profile_radius(c: &mut Criterion) {
    let g = dataset(DatasetId::Yeast);
    let mut rng = rand::rngs::StdRng::seed_from_u64(22);
    let queries: Vec<_> = (0..4)
        .map(|_| sample_query(&g, &QuerySampler::induced(8), &mut rng).unwrap())
        .collect();
    let mut group = c.benchmark_group("profile_radius");
    for radius in [1u32, 2] {
        group.bench_with_input(BenchmarkId::from_parameter(radius), &radius, |b, &r| {
            let mut i = 0;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                local_pruning(q, &g, r)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = ablation_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_refinement_rounds, bench_profile_radius
}
criterion_main!(ablation_benches);
