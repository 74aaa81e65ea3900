//! `streamed-store`: a graph larger than its adjacency cache.
//!
//! The NSCS store is opened `Streamed` with a chunk cache far smaller than
//! the adjacency, and rare-label queries run through
//! `estimate_partitioned` on one thread, so every query pulls chunks
//! through the store's LRU. Each estimate must equal, bit for bit, the
//! resident whole-graph estimate `gen` computed from the same model file.
//!
//! The run cycles through the queries in a fixed order, so after the first
//! cycle each query meets the same cache state every time. Other tenants
//! of a shared host slow identical work by up to 2x in bursts of seconds,
//! each vCPU on its own, and that noise only adds time, so cycles alternate
//! CPUs and a query's latency is its fastest cycle; the latencies and the
//! throughput come from those best times.
//!
//! The traced run wraps each call in a `query` span with the
//! `estimate_partitioned` call as its one child: the store's stages run
//! inside that call and have no entry points a caller would use.

use crate::gen::{self, MODEL, REFS, STORE};
use crate::stats;
use crate::trace::{self, Trace};
use crate::{dur, median_setup, on_cpu, own_peak_rss_mb, secs, Outcome, RunCtx};
use neursc_core::obs::Span;
use neursc_core::persist::load_model;
use neursc_core::{estimate_partitioned, GraphContext};
use neursc_store::{AccessMode, GraphStore, PartitionPlan};
use std::time::Instant;

/// Chunk geometry: 4 chunks of 16 Ki adjacency entries (256 KiB) cached,
/// against 1.2 M entries of adjacency.
const CHUNK_EDGES: usize = 1 << 14;
const MAX_CHUNKS: usize = 4;
const PARTITIONS: usize = 4;
const SETUP_REPS: usize = 11;

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let qs = gen::read_queries(&ctx.dir)?;
    let refs: Vec<u64> = gen::read(&ctx.dir, REFS)?
        .lines()
        .map(|l| u64::from_str_radix(l.trim(), 16).map_err(|e| format!("bad ref: {e}")))
        .collect::<Result<_, _>>()?;
    let mut out = Outcome::default();
    let mut open_s = Vec::new();
    let mode = AccessMode::Streamed {
        chunk_edges: CHUNK_EDGES,
        max_chunks: MAX_CHUNKS,
    };
    let (setup_s, (store, model)) = median_setup(SETUP_REPS, || {
        let t0 = Instant::now();
        let store = GraphStore::open(ctx.dir.join(STORE), mode).map_err(|e| e.to_string())?;
        open_s.push(secs(t0));
        let model = load_model(&ctx.dir.join(MODEL)).map_err(|e| e.to_string())?;
        Ok((secs(t0), (store, model)))
    })?;
    out.set("setup_s", setup_s);
    out.set("store.open_ms", stats::median(&open_s) * 1e3);
    let plan = PartitionPlan::contiguous(&store, PARTITIONS);
    let gctx = GraphContext::new();
    // One thread: partitions run in turn, so chunk traffic and memory do
    // not depend on how two workers interleave on a shared host.
    let threads = 1;
    let check = |i: usize, r: Result<f64, String>, out: &mut Outcome| match r {
        Ok(c) if c.to_bits() == refs[i] => {}
        Ok(c) => out.fail(format!(
            "query {i}: streamed {c} != resident {}",
            f64::from_bits(refs[i])
        )),
        Err(e) => out.fail(format!("query {i}: {e}")),
    };

    let budget = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let before = store.cache_stats();
    let mut lat_ms = Vec::new();
    // Per query: its fastest cycle. At least one whole cycle always runs.
    let mut best_ms = vec![f64::INFINITY; qs.len()];
    let start = Instant::now();
    while start.elapsed() < dur(budget) || lat_ms.len() < qs.len() {
        let i = lat_ms.len() % qs.len();
        // Cycles alternate CPUs (see `on_cpu`).
        let (r, ms) = on_cpu(lat_ms.len() / qs.len(), || {
            let t = Instant::now();
            let r = estimate_partitioned(&model, &qs[i], &store, &plan, &gctx, None, threads);
            (r, t.elapsed().as_secs_f64() * 1e3)
        });
        lat_ms.push(ms);
        best_ms[i] = best_ms[i].min(ms);
        check(i, r.map(|d| d.count).map_err(|e| e.to_string()), &mut out);
    }
    let after = store.cache_stats();
    out.attempted += lat_ms.len() as u64;
    out.latencies(
        &format!(
            "streamed estimate_partitioned, fastest of {:.1} cycles",
            lat_ms.len() as f64 / qs.len() as f64
        ),
        &best_ms,
    );
    out.set("throughput_per_s", 1e3 / stats::mean(&best_ms));
    out.set("peak_rss_mb", own_peak_rss_mb());
    let misses = (after.misses - before.misses) as f64;
    let hits = (after.hits - before.hits) as f64;
    out.set("store.chunk_misses_per_query", misses / lat_ms.len() as f64);
    out.set("store.chunk_hit_ratio", hits / (hits + misses).max(1.0));

    if ctx.traced {
        let trace = Trace::default();
        let mut n_queries = 0;
        let start = Instant::now();
        while start.elapsed() < dur(budget) || n_queries == 0 {
            let i = n_queries % qs.len();
            let r = trace.scope(|| {
                let _root = Span::enter("query");
                let _sp = Span::enter("partition.estimate_partitioned");
                trace::library(|| {
                    estimate_partitioned(&model, &qs[i], &store, &plan, &gctx, None, threads)
                })
            });
            n_queries += 1;
            check(i, r.map(|d| d.count).map_err(|e| e.to_string()), &mut out);
        }
        out.attempted += n_queries as u64;
        let n = n_queries as f64;
        let spans = trace.spans();
        let st = trace::self_times(&spans);
        let self_us = |name: &str| st.get(name).copied().unwrap_or(0) as f64 / n / 1e3;
        out.set(
            "partition.estimate_ms",
            self_us("partition.estimate_partitioned") / 1e3,
        );
        out.set("unattributed_us", self_us("query"));
        let traced_ms = trace::total_ns(&spans, "query") as f64 / n / 1e6;
        let untraced_ms = stats::mean(&lat_ms);
        out.set(
            "tracing_overhead_pct",
            (traced_ms / untraced_ms - 1.0) * 100.0,
        );
        out.notes.push(format!(
            "reconcile over {} queries: partition {:.3} ms + unattributed {:.1} us = traced \
             {traced_ms:.3} ms; untraced {untraced_ms:.3} ms",
            n_queries,
            self_us("partition.estimate_partitioned") / 1e3,
            self_us("query"),
        ));
        out.tracer = Some(trace);
    }
    Ok(out)
}
