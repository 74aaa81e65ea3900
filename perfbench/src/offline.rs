//! `offline-batch`: a library embedded in a query optimizer.
//!
//! Phase 1 calls `estimate_detailed_with` once per distinct query on one
//! thread (the per-query latency). Phase 2 calls `estimate_batch` on fresh
//! distinct queries in fixed-size batches at `nproc` threads (the
//! throughput). Each phase has half of `--seconds` and its own fixed slice
//! of the query pool, large enough that a program many times faster does
//! not use it up; one that does fails the run's check. Outside the timed
//! region every batch result is checked bit-for-bit against a
//! single-query estimate of the same query.
//!
//! Each phase runs in `PASSES` passes. The first takes fresh queries for
//! its share of the time; each later pass reruns exactly those queries on
//! a freshly loaded model and a fresh context, so no instance sees a query
//! twice. Other tenants of a shared host slow identical work by up to 2x
//! in bursts of seconds, and that noise only adds time, so each query (or
//! batch) is charged its fastest pass. Every pass must give the same
//! estimates.
//!
//! The traced run replaces phase 2 with [`traced_query`] over phase 1's
//! queries: the stages that have no entry point of their own are timed
//! standalone, then the real calls (`prepare_query_with`, then the fused
//! GNN per substructure) run under a `query` span, and the standalone
//! timings are recorded as derived children.

use crate::gen::{self, GRAPH, MODEL};
use crate::stats::{mean, median};
use crate::trace::{self, Trace};
use crate::{dur, median_setup, on_cpu, own_peak_rss_mb, secs, Outcome, RunCtx};
use neursc_core::obs::{span_with_ns, Span};
use neursc_core::persist::load_model;
use neursc_core::train::prepare_query_with;
use neursc_core::{extract_substructures_with, GraphContext, NeurSc};
use neursc_graph::io::load_graph;
use neursc_graph::Graph;
use neursc_match::candidates::local_pruning_with;
use neursc_match::refinement::global_refinement;
use neursc_nn::infer::{Arena, InferCtx, InferWeights};
use neursc_nn::ParamStore;
use std::time::Instant;

/// Queries per `estimate_batch` call.
const BATCH: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Passes of each phase over the same work, each on a fresh instance.
const PASSES: usize = 4;

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let qs = gen::read_queries(&ctx.dir)?;
    let mut out = Outcome::default();
    let (mut load_s, mut profile_s) = (Vec::new(), Vec::new());
    let (setup_s, (g, mut model, gctx)) = median_setup(SETUP_REPS, || {
        let t0 = Instant::now();
        let g = load_graph(&ctx.dir.join(GRAPH)).map_err(|e| e.to_string())?;
        load_s.push(secs(t0));
        let model = load_model(&ctx.dir.join(MODEL)).map_err(|e| e.to_string())?;
        let gctx = GraphContext::new();
        let t1 = Instant::now();
        let _ = gctx.profiles_for(&g, model.config.filter.profile_radius);
        profile_s.push(secs(t1));
        Ok((secs(t0), (g, model, gctx)))
    })?;
    out.set("setup_s", setup_s);
    out.set("graph.load_ms", median(&load_s) * 1e3);
    out.set("match.profile_build_ms", median(&profile_s) * 1e3);
    model.config.parallelism.threads = 1;
    // A later pass's instance, set up as above (untimed).
    let fresh = |threads: usize| -> Result<Instance, String> {
        let mut m = load_model(&ctx.dir.join(MODEL)).map_err(|e| e.to_string())?;
        m.config.parallelism.threads = threads;
        let c = GraphContext::new();
        let _ = c.profiles_for(&g, m.config.filter.profile_radius);
        Ok((m, c))
    };

    // Each phase draws from its own slice of the pool, sized so that even
    // a much faster program cannot use it up within its time budget; a
    // phase that does is a failed check, not a silently shorter phase.
    let (pool1, pool2) = qs.split_at(gen::OFFLINE_PHASE_QUERIES.min(qs.len()));
    let share = dur(ctx.seconds / 2.0 / PASSES as f64);

    // Phase 1: one call per distinct query, one thread.
    let unit1 = |(m, c): &Instance, i: usize| {
        vec![m
            .estimate_detailed_with(&pool1[i], &g, c)
            .map(|d| d.count)
            .map_err(|e| e.to_string())]
    };
    // Phase 2: estimate_batch on fresh queries at nproc threads.
    let unit2 = |(m, c): &Instance, b: usize| {
        m.estimate_batch(&pool2[b * BATCH..(b + 1) * BATCH], &g, c)
            .into_iter()
            .map(|r| r.map(|d| d.count).map_err(|e| e.to_string()))
            .collect::<Vec<_>>()
    };
    // Phase 1 passes alternate CPUs (see `on_cpu`); phase 2 uses them all.
    // The set-up instance runs the first pass and is then dropped, so one
    // instance is alive at a time and peak memory is one instance's.
    let mut p1 = {
        let first = (model, gctx);
        on_cpu(0, || {
            Passes::first(&mut out, "phase 1", share, pool1.len(), &first, unit1)
        })?
    };
    let mut rerun1 = |out: &mut Outcome, pass: usize| -> Result<(), String> {
        let inst = fresh(1)?;
        on_cpu(pass, || p1.rerun(out, "phase 1", pass, &inst, unit1));
        Ok(())
    };
    if ctx.traced {
        for pass in 1..PASSES {
            rerun1(&mut out, pass)?;
        }
        let single = p1.record(&mut out);
        let (model, gctx) = fresh(1)?;
        traced_pass(
            ctx,
            &model,
            &g,
            &gctx,
            pool1,
            &single,
            &p1.first_ms,
            &mut out,
        )?;
        return Ok(out);
    }
    let batches = pool2.len() / BATCH;
    let mut p2 = Passes::first(
        &mut out,
        "phase 2",
        share,
        batches,
        &fresh(ctx.nproc)?,
        unit2,
    )?;
    // The phases' later passes alternate, so each unit's passes spread
    // over the whole run.
    for pass in 1..PASSES {
        rerun1(&mut out, pass)?;
        p2.rerun(&mut out, "phase 2", pass, &fresh(ctx.nproc)?, unit2);
    }
    let single = p1.record(&mut out);
    let batched: Vec<Option<f64>> = p2.counts.into_iter().flatten().collect();
    out.attempted += (batched.len() * PASSES) as u64;
    out.set(
        "throughput_per_s",
        batched.len() as f64 * 1e3 / p2.best_ms.iter().sum::<f64>(),
    );
    out.notes.push(format!(
        "phase 1: {} of {} queries; phase 2: {} of {} queries in batches of {BATCH} at {} \
         threads; each phase in {PASSES} passes",
        single.len(),
        pool1.len(),
        batched.len(),
        pool2.len(),
        ctx.nproc
    ));
    out.set("peak_rss_mb", own_peak_rss_mb());

    // Check, untimed: each batch slot equals the single-query estimate.
    let (model, gctx) = fresh(1)?;
    let reference = parallel_single(&model, &g, &gctx, &pool2[..batched.len()], ctx.nproc);
    for (i, (b, s)) in batched.iter().zip(&reference).enumerate() {
        if let (Some(b), Some(s)) = (b, s) {
            if b.to_bits() != s.to_bits() {
                out.fail(format!("phase 2 query {i}: batch {b} != single {s}"));
            }
        }
    }
    Ok(out)
}

/// A model and its graph context.
type Instance = (NeurSc, GraphContext);

/// What [`passes`] measured, per unit of work.
struct Passes {
    /// The first pass's time, ms.
    first_ms: Vec<f64>,
    /// The fastest pass's time, ms.
    best_ms: Vec<f64>,
    /// The first pass's estimates (`None` where one failed).
    counts: Vec<Vec<Option<f64>>>,
}

impl Passes {
    /// The first pass: units `0, 1, ...` on `inst` until `share` has
    /// passed. Running out of the `avail` units, or an error, is a failed
    /// check.
    fn first(
        out: &mut Outcome,
        what: &str,
        share: std::time::Duration,
        avail: usize,
        inst: &Instance,
        unit: impl Fn(&Instance, usize) -> Vec<Result<f64, String>>,
    ) -> Result<Passes, String> {
        let mut p = Passes {
            first_ms: Vec::new(),
            best_ms: Vec::new(),
            counts: Vec::new(),
        };
        let start = Instant::now();
        while start.elapsed() < share && p.counts.len() < avail {
            let t = Instant::now();
            let rs = unit(inst, p.counts.len());
            p.first_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let counts = rs.into_iter().map(|r| match r {
                Ok(c) => Some(c),
                Err(e) => {
                    out.fail(format!("{what}: {e}"));
                    None
                }
            });
            p.counts.push(counts.collect());
        }
        if start.elapsed() < share {
            out.fail(format!(
                "{what} used up its {avail} units before its time budget"
            ));
        }
        if p.counts.is_empty() {
            return Err(format!("no work in {what}"));
        }
        p.best_ms = p.first_ms.clone();
        Ok(p)
    }

    /// Records phase 1's latencies, each query's fastest pass, and returns
    /// its first-pass estimates, one per query.
    fn record(&self, out: &mut Outcome) -> Vec<Option<f64>> {
        out.attempted += (self.counts.len() * PASSES) as u64;
        out.latencies(
            &format!("per-query estimate_detailed_with, fastest of {PASSES} passes"),
            &self.best_ms,
        );
        self.counts.iter().flatten().copied().collect()
    }

    /// A later pass: reruns exactly the first pass's units on `inst`, a
    /// fresh instance, so no instance sees a query twice. An error, or an
    /// estimate that differs from the first pass's, is a failed check.
    fn rerun(
        &mut self,
        out: &mut Outcome,
        what: &str,
        pass: usize,
        inst: &Instance,
        unit: impl Fn(&Instance, usize) -> Vec<Result<f64, String>>,
    ) {
        for i in 0..self.counts.len() {
            let t = Instant::now();
            let rs = unit(inst, i);
            self.best_ms[i] = self.best_ms[i].min(t.elapsed().as_secs_f64() * 1e3);
            for (r, want) in rs.into_iter().zip(&self.counts[i]) {
                match (r, want) {
                    (Ok(c), Some(w)) if c.to_bits() != w.to_bits() => out.fail(format!(
                        "{what} pass {pass} unit {i}: {c} != first pass {w}"
                    )),
                    (Err(e), _) => out.fail(format!("{what} pass {pass}: {e}")),
                    _ => {}
                }
            }
        }
    }
}

/// Single-query estimates of `qs`, split over `threads` workers.
fn parallel_single(
    model: &NeurSc,
    g: &Graph,
    gctx: &GraphContext,
    qs: &[Graph],
    threads: usize,
) -> Vec<Option<f64>> {
    let chunk = qs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = qs
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|q| {
                            model
                                .estimate_detailed_with(q, g, gctx)
                                .ok()
                                .map(|d| d.count)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check worker panicked"))
            .collect()
    })
}

/// Per-query work counters the traced pass accumulates.
#[derive(Default)]
struct Counts {
    cands_before: usize,
    cands_after: usize,
    trivially_zero: usize,
    subs: usize,
    sub_vertices: usize,
    flops: f64,
}

#[allow(clippy::too_many_arguments)]
fn traced_pass(
    ctx: &RunCtx,
    model: &NeurSc,
    g: &Graph,
    gctx: &GraphContext,
    qs: &[Graph],
    single: &[Option<f64>],
    untraced_ms: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let weights = InferWeights::from_store(&model.store, Default::default());
    let mut arena = Some(Arena::new());
    let trace = Trace::default();
    let mut c = Counts::default();
    let mut n_queries = 0usize;
    let budget = dur(ctx.seconds / 2.0);
    let start = Instant::now();
    for (q, want) in qs.iter().zip(single) {
        if start.elapsed() >= budget && n_queries > 0 {
            break;
        }
        let count = traced_query(&trace, &mut c, model, &weights, &mut arena, g, gctx, q)?;
        n_queries += 1;
        match want {
            Some(w) if w.to_bits() != count.to_bits() => {
                out.fail(format!("traced pipeline {count} != estimate {w}"))
            }
            _ => {}
        }
    }
    out.attempted += n_queries as u64;
    let n = n_queries as f64;
    let spans = trace.spans();
    let st = trace::self_times(&spans);
    let per_q_us = |name: &str| st.get(name).copied().unwrap_or(0) as f64 / n / 1e3;
    out.set("match.local_prune_us", per_q_us("match.local_prune"));
    out.set("match.refine_us", per_q_us("match.refine"));
    out.set("extract.us", per_q_us("extract"));
    out.set("featurize.us", per_q_us("featurize"));
    out.set("gnn.query_intra_us", per_q_us("gnn.query_intra"));
    out.set("gnn.intra_us", per_q_us("gnn.intra"));
    out.set("gnn.inter_us", per_q_us("gnn.inter"));
    out.set("gnn.readout_us", per_q_us("gnn.forward_pair"));
    out.set("unattributed_us", per_q_us("query"));
    out.set("match.cands_after_prune", c.cands_before as f64 / n);
    out.set("match.cands_after_refine", c.cands_after as f64 / n);
    out.set(
        "match.refine_keep_ratio",
        c.cands_after as f64 / c.cands_before.max(1) as f64,
    );
    out.set("match.trivially_zero_ratio", c.trivially_zero as f64 / n);
    out.set("extract.subs_per_query", c.subs as f64 / n);
    out.set("extract.sub_vertices_per_query", c.sub_vertices as f64 / n);
    out.set("gnn.flops_per_query", c.flops / n);
    let traced_us = trace::total_ns(&spans, "query") as f64 / n / 1e3;
    let untraced_us = mean(&untraced_ms[..n_queries]) * 1e3;
    out.set(
        "tracing_overhead_pct",
        (traced_us / untraced_us - 1.0) * 100.0,
    );
    out.notes.push(format!(
        "reconcile over {n_queries} queries: layers {:.1} us + unattributed {:.1} us = traced \
         {traced_us:.1} us; untraced {untraced_us:.1} us",
        traced_us - per_q_us("query"),
        per_q_us("query"),
    ));
    out.tracer = Some(trace);
    Ok(())
}

/// Standalone timings of the stages that have no entry point of their
/// own, for one query, in ns.
struct Derived {
    prune: u64,
    refine: u64,
    extract: u64,
    /// Per substructure: intra GIN and inter attention.
    gnn: Vec<(u64, u64)>,
}

/// One query through the real pipeline calls under a `query` span.
///
/// First, outside any span, the stages without an entry point of their
/// own are timed standalone on the same inputs. Then the real calls run
/// under spans, and the standalone timings are recorded as derived
/// children of the call that contains them. Span tree (self time →
/// metric):
/// - `query` → `unattributed_us`
///   - `featurize` = `prepare_query_with` → `featurize.us`
///     - `match.local_prune` (derived: `local_pruning_with`)
///     - `match.refine` (derived: `global_refinement`)
///     - `extract` (derived: `extract_substructures_with` standalone, less
///       the two stages above, which run inside it; clamped at 0) → `extract.us`
///   - `gnn.query_intra` = `WEst::infer_query_intra`
///   - per substructure `gnn.forward_pair` = `WEst::forward_pair_infer` → `gnn.readout_us`
///     - `gnn.intra` (derived: `GinStack::infer_forward` on the substructure)
///     - `gnn.inter` (derived: `BipartiteAttention::infer_forward` on the pair)
///
/// Returns the estimate, which must equal `estimate_detailed_with` bit for
/// bit.
#[allow(clippy::too_many_arguments)]
fn traced_query(
    trace: &Trace,
    c: &mut Counts,
    model: &NeurSc,
    weights: &InferWeights,
    arena: &mut Option<Arena>,
    g: &Graph,
    gctx: &GraphContext,
    q: &Graph,
) -> Result<f64, String> {
    let cfg = &model.config;
    let west = &model.west;
    let mut ictx = InferCtx::new(weights, arena.take().unwrap_or_default());

    // The standalone stages, untraced.
    let r = cfg.filter.profile_radius;
    let (profiles, _) = gctx.profiles_for(g, r);
    let t = Instant::now();
    let mut cs = local_pruning_with(q, g, r, &profiles);
    let prune = ns(t);
    c.cands_before += cs.total_size();
    let t = Instant::now();
    if !cs.any_empty() {
        global_refinement(q, g, &mut cs, cfg.filter.refinement_rounds);
    }
    let refine = ns(t);
    c.cands_after += cs.total_size();
    let t = Instant::now();
    let ex = extract_substructures_with(q, g, cfg, gctx);
    let extract = ns(t);
    c.subs += ex.substructures.len();
    c.sub_vertices += ex.total_substructure_vertices();
    let pq =
        prepare_query_with(q, g, cfg, 0, gctx).map_err(|e| format!("prepare_query_with: {e}"))?;
    c.trivially_zero += usize::from(pq.trivially_zero);
    let mut d = Derived {
        prune,
        refine,
        extract,
        gnn: Vec::with_capacity(pq.subs.len()),
    };
    for sub in &pq.subs {
        let t = Instant::now();
        let hs = west.gin.infer_forward(&mut ictx, &sub.x, &sub.edges);
        let intra = ns(t);
        ictx.recycle(hs);
        let inter = match &west.inter {
            Some(inter) => {
                let t = Instant::now();
                let x_all = ictx.concat_rows(&pq.x_q, &sub.x);
                let h = inter.infer_forward(&mut ictx, &x_all, &sub.gb);
                let d = ns(t);
                ictx.recycle(h);
                ictx.recycle(x_all);
                d
            }
            None => 0,
        };
        d.gnn.push((intra, inter));
    }
    let nq = pq.x_q.rows();
    if !pq.trivially_zero && !pq.subs.is_empty() {
        c.flops += gin_flops(west, nq, pq.q_edges.src.len());
    }
    for sub in &pq.subs {
        let ns_rows = sub.x.rows();
        c.flops += gin_flops(west, ns_rows, sub.edges.src.len())
            + attention_flops(&model.store, west, nq + ns_rows, sub.gb.src.len())
            + mlp_flops(&west.head, 1);
    }
    drop(pq);

    // The real calls, under spans.
    let count = trace.scope(|| -> Result<f64, String> {
        let _root = Span::enter("query");
        let pq = {
            let _sp = Span::enter("featurize");
            let pq = trace::library(|| prepare_query_with(q, g, cfg, 0, gctx));
            span_with_ns("match.local_prune", d.prune);
            span_with_ns("match.refine", d.refine);
            span_with_ns("extract", d.extract.saturating_sub(d.prune + d.refine));
            pq.map_err(|e| format!("prepare_query_with: {e}"))?
        };
        let mut count = 0.0f64;
        if !pq.trivially_zero && !pq.subs.is_empty() {
            let hq = {
                let _sp = Span::enter("gnn.query_intra");
                trace::library(|| west.infer_query_intra(&mut ictx, &pq.x_q, &pq.q_edges))
            };
            for (sub, &(intra, inter)) in pq.subs.iter().zip(&d.gnn) {
                let _sp = Span::enter("gnn.forward_pair");
                let z = trace::library(|| {
                    west.forward_pair_infer(&mut ictx, &pq.x_q, &hq, &sub.x, &sub.edges, &sub.gb)
                });
                span_with_ns("gnn.intra", intra);
                span_with_ns("gnn.inter", inter);
                count += (z as f64).exp();
            }
            ictx.recycle(hq);
        }
        Ok(count)
    })?;
    *arena = Some(ictx.into_arena());
    Ok(count)
}

/// Dense multiply-add flops of an MLP on `rows` rows: `2·rows·in·out`
/// per linear layer, from the layers' weight shapes.
fn mlp_flops(mlp: &neursc_nn::layers::Mlp, rows: usize) -> f64 {
    mlp.layers
        .iter()
        .map(|l| 2.0 * rows as f64 * l.in_dim as f64 * l.out_dim as f64)
        .sum()
}

/// GIN stack on `n` vertices and `e` directed edges: per layer one add per
/// edge and feature (neighbor aggregation) plus the layer's MLP.
fn gin_flops(west: &neursc_core::west::WEst, n: usize, e: usize) -> f64 {
    west.gin
        .layers
        .iter()
        .map(|l| {
            let d_in = l.mlp.layers.first().map_or(0, |x| x.in_dim);
            (e * d_in) as f64 + mlp_flops(&l.mlp, n)
        })
        .sum()
}

/// Bipartite attention on `n` vertices and `e` edges, from the weight
/// shapes: the two vertex projections (`Θ`, `Θ_a`), one attention logit
/// per edge (`attn`), and the weighted aggregation per edge.
fn attention_flops(store: &ParamStore, west: &neursc_core::west::WEst, n: usize, e: usize) -> f64 {
    let Some(inter) = &west.inter else {
        return 0.0;
    };
    let (n, e) = (n as f64, e as f64);
    inter
        .layers
        .iter()
        .map(|l| {
            let (ti, to) = store.value(l.theta).shape();
            let (ai, ao) = store.value(l.theta_a).shape();
            let (wr, _) = store.value(l.attn).shape();
            2.0 * n * (ti * to + ai * ao) as f64 + 2.0 * e * wr as f64 + 2.0 * e * to as f64
        })
        .sum()
}
