//! Seeded input generation. `perfbench gen` writes one workload's inputs
//! into a directory; `perfbench run` reads only those files. Generation
//! runs in its own process so it never counts toward a run's peak memory.

use crate::Workload;
use neursc_core::persist::{load_model, save_model};
use neursc_core::train::prepare_query_with;
use neursc_core::{GraphContext, NeurSc, NeurScConfig};
use neursc_graph::generate::{generate, DegreeModel, GraphSpec};
use neursc_graph::io::{format_graph, parse_graph, save_graph};
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_graph::Graph;
use neursc_match::count_embeddings;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::Path;

/// Data graph, text format.
pub const GRAPH: &str = "data.graph";
/// Data graph packed as an NSCS store (streamed-store only).
pub const STORE: &str = "data.nscs";
/// The seeded, untrained model.
pub const MODEL: &str = "model.txt";
/// Query graphs, concatenated `.graph` blocks.
pub const QUERIES: &str = "queries.txt";
/// One exact count per query (train only).
pub const TRUTH: &str = "truth.txt";
/// One reference estimate per query as f64 bits in hex (streamed-store).
pub const REFS: &str = "refs.txt";
/// The seed, for the run's own seeded choices (request mix).
pub const SEED: &str = "seed.txt";

/// Distinct queries in each of the two offline-batch phases' slices.
pub const OFFLINE_PHASE_QUERIES: usize = 10_000;
/// Labeled queries the train workload fits on; the rest are held out.
pub const TRAIN_QUERIES: usize = 50;
const HELD_OUT_QUERIES: usize = 30;
/// Substructures, and their vertices in all, a training query must bring.
const TRAIN_SUBS: std::ops::RangeInclusive<usize> = 4..=4;
const TRAIN_SUB_VERTICES: std::ops::RangeInclusive<usize> = 32..=48;
/// Exact-count budget (enumeration steps) for ground truth.
const TRUTH_BUDGET: u64 = 20_000_000;

/// Writes the inputs of `w` for `seed` into `dir`.
pub fn generate_inputs(w: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    write(dir, SEED, &seed.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7065_7266);
    match w {
        Workload::OfflineBatch => {
            let g = generate(&community(10_000, 8.0, 8), seed);
            let qs = distinct_queries(&g, 2 * OFFLINE_PHASE_QUERIES, 4..=8, &mut rng, |_| true);
            if qs.len() < 2 * OFFLINE_PHASE_QUERIES {
                return Err(format!("only {} distinct queries", qs.len()));
            }
            save_graph(&g, &dir.join(GRAPH)).map_err(|e| e.to_string())?;
            write_queries(dir, &qs)?;
            save_untrained(dir, model_config(w), seed)
        }
        Workload::ServeOpen => {
            let mut spec = community(1_000, 6.0, 8);
            spec.label_zipf = 0.0;
            let g = generate(&spec, seed);
            let qs = distinct_queries(&g, 1_000, 3..=4, &mut rng, |_| true);
            save_graph(&g, &dir.join(GRAPH)).map_err(|e| e.to_string())?;
            write_queries(dir, &qs)?;
            save_untrained(dir, model_config(w), seed)
        }
        Workload::Train => {
            let g = generate(&community(1_000, 6.0, 6), seed);
            let cfg = model_config(w);
            let ctx = GraphContext::new();
            let want = TRAIN_QUERIES + HELD_OUT_QUERIES;
            let mut labeled = Vec::new();
            let mut seen = HashSet::new();
            let mut tries = 0;
            while labeled.len() < want && tries < 2_000 * want {
                tries += 1;
                let Some(q) = sample_query(&g, &QuerySampler::induced(4), &mut rng) else {
                    continue;
                };
                if !seen.insert(format_graph(&q)) {
                    continue;
                }
                // Only queries that train, with bounded work: substructures
                // and their vertices, in all, within `TRAIN_SUBS` and
                // `TRAIN_SUB_VERTICES`.
                // This keeps the per-epoch work, and so the epoch time,
                // comparable from seed to seed.
                let Ok(pq) = prepare_query_with(&q, &g, &cfg, 0, &ctx) else {
                    continue;
                };
                let rows: usize = pq.subs.iter().map(|s| s.x.rows()).sum();
                if pq.trivially_zero
                    || !TRAIN_SUBS.contains(&pq.subs.len())
                    || !TRAIN_SUB_VERTICES.contains(&rows)
                {
                    continue;
                }
                if let Some(c) = count_embeddings(&q, &g, TRUTH_BUDGET).exact() {
                    labeled.push((q, c));
                }
            }
            if labeled.len() < want {
                return Err(format!("only {} labeled queries", labeled.len()));
            }
            save_graph(&g, &dir.join(GRAPH)).map_err(|e| e.to_string())?;
            let qs: Vec<Graph> = labeled.iter().map(|(q, _)| q.clone()).collect();
            write_queries(dir, &qs)?;
            let truth: String = labeled.iter().map(|(_, c)| format!("{c}\n")).collect();
            write(dir, TRUTH, &truth)?;
            save_untrained(dir, model_config(w), seed)
        }
        Workload::StreamedStore => {
            let spec = GraphSpec {
                n_vertices: 200_000,
                avg_degree: 6.0,
                n_labels: 32,
                label_zipf: 1.5,
                model: DegreeModel::ErdosRenyi,
            };
            let g = generate(&spec, seed);
            // Rare-label queries: small candidate sets, while local pruning
            // still scans every partition's rows through the chunk cache.
            let freq = g.label_frequencies();
            let rare = |q: &Graph| q.labels().iter().all(|&l| freq[l as usize] < 2_000);
            let qs = distinct_queries(&g, 200, 2..=3, &mut rng, rare);
            neursc_store::pack_graph(&g, dir.join(STORE)).map_err(|e| e.to_string())?;
            write_queries(dir, &qs)?;
            save_untrained(dir, model_config(w), seed)?;
            // The reference: resident whole-graph estimates, same model file.
            let model = load_model(&dir.join(MODEL)).map_err(|e| e.to_string())?;
            let ctx = GraphContext::new();
            let mut refs = String::new();
            for q in &qs {
                let d = model
                    .estimate_detailed_with(q, &g, &ctx)
                    .map_err(|e| e.to_string())?;
                refs.push_str(&format!("{:016x}\n", d.count.to_bits()));
            }
            write(dir, REFS, &refs)
        }
    }
}

/// The model configuration each workload's untrained model file carries.
fn model_config(w: Workload) -> NeurScConfig {
    let mut cfg = NeurScConfig::small();
    match w {
        // The bench_pipeline setting: radius-3 profiles make the profile
        // build a visible part of set-up; substructures stay bounded.
        Workload::OfflineBatch => {
            cfg.filter.profile_radius = 3;
            cfg.max_substructure_vertices = Some(64);
        }
        // Bounded substructures keep per-query training cost, and so the
        // epoch time, comparable from seed to seed.
        Workload::StreamedStore | Workload::Train => cfg.max_substructure_vertices = Some(64),
        Workload::ServeOpen => {}
    }
    cfg
}

fn community(n: usize, degree: f64, labels: usize) -> GraphSpec {
    GraphSpec {
        n_vertices: n,
        avg_degree: degree,
        n_labels: labels,
        label_zipf: 0.5,
        model: DegreeModel::Community {
            community_size: 40,
            intra_fraction: 0.8,
        },
    }
}

/// `count` distinct random-walk queries whose sizes cycle through `sizes`,
/// so every seed gets the same size mix.
fn distinct_queries(
    g: &Graph,
    count: usize,
    sizes: std::ops::RangeInclusive<usize>,
    rng: &mut StdRng,
    keep: impl Fn(&Graph) -> bool,
) -> Vec<Graph> {
    let mut out = Vec::with_capacity(count);
    let mut seen = HashSet::new();
    let mut tries = 0;
    let sizes: Vec<usize> = sizes.collect();
    while out.len() < count && tries < 1000 * count {
        tries += 1;
        let k = sizes[out.len() % sizes.len()];
        if let Some(q) = sample_query(g, &QuerySampler::induced(k), rng) {
            if keep(&q) && seen.insert(format_graph(&q)) {
                out.push(q);
            }
        }
    }
    out
}

fn save_untrained(dir: &Path, cfg: NeurScConfig, seed: u64) -> Result<(), String> {
    let model = NeurSc::new(cfg, seed);
    save_model(&model, &dir.join(MODEL)).map_err(|e| e.to_string())
}

fn write(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    let p = dir.join(name);
    std::fs::write(&p, text).map_err(|e| format!("write {}: {e}", p.display()))
}

fn write_queries(dir: &Path, qs: &[Graph]) -> Result<(), String> {
    let text: String = qs.iter().map(format_graph).collect();
    write(dir, QUERIES, &text)
}

/// Reads a file of the input directory.
pub fn read(dir: &Path, name: &str) -> Result<String, String> {
    let p = dir.join(name);
    std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))
}

/// Reads the query file back: one graph per `t` header line.
pub fn read_queries(dir: &Path) -> Result<Vec<Graph>, String> {
    let text = read(dir, QUERIES)?;
    let mut blocks: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.starts_with("t ") || blocks.is_empty() {
            blocks.push(String::new());
        }
        let b = blocks.last_mut().expect("a block was just pushed");
        b.push_str(line);
        b.push('\n');
    }
    blocks
        .iter()
        .map(|b| parse_graph(b).map_err(|e| e.to_string()))
        .collect()
}

/// Reads the run seed.
pub fn read_seed(dir: &Path) -> Result<u64, String> {
    read(dir, SEED)?
        .trim()
        .parse()
        .map_err(|e| format!("bad seed file: {e}"))
}
