//! `train`: fitting the estimator on labeled queries.
//!
//! Set-up loads the graph and model and prepares every labeled query
//! (`prepare_batch`); that preparation counts only in `setup_s`. The timed
//! region is a sequence of repetitions. Each starts from the untrained
//! model file and runs `ROUNDS_PER_REP` `fit_prepared` rounds, each one
//! count-loss epoch and one adversarial epoch (tape forward and backward,
//! Adam, the Wasserstein critic), so no filtering runs while timing.
//! An epoch's cost changes as the weights train, so every repetition
//! retraces the same trajectory: the work timed does not depend on how
//! many rounds fit in `--seconds`. After the first repetition the held-out
//! queries are estimated untimed, which makes the q-error deterministic at
//! a fixed seed. Every epoch loss must be finite and no round may roll
//! back.
//!
//! Other tenants of a shared host slow identical rounds by up to 2x, in
//! bursts of seconds, each vCPU on its own. The noise only ever adds time,
//! so repetitions alternate CPUs and each round position is charged its
//! fastest untraced repetition: the latencies and the throughput come
//! from those best times. The median
//! and tail of every round as it ran are printed as notes.
//!
//! The traced run times, before each traced round, one standalone pass of
//! `train::forward_prepared` and `Tape::backward` over the training
//! queries; per epoch these are the `train.forward` and `train.backward`
//! children of the `fit_prepared` span, whose remainder is the optimizer,
//! critic and loss (`train.other_ms`). The standalone backward starts from
//! the count loss alone, so it slightly under-counts adversarial epochs.

use crate::gen::{self, GRAPH, MODEL, TRAIN_QUERIES, TRUTH};
use crate::stats;
use crate::trace::{self, Trace};
use crate::{dur, median_setup, on_cpu, own_peak_rss_mb, secs, Outcome, RunCtx};
use neursc_core::loss::{count_loss, CountLossMode};
use neursc_core::obs::{span_with_ns, Span};
use neursc_core::persist::load_model;
use neursc_core::train::{forward_prepared, PreparedQuery};
use neursc_core::{q_error, GraphContext, NeurSc};
use neursc_graph::io::load_graph;
use neursc_nn::Tape;
use std::time::Instant;

/// Epochs per `fit_prepared` round: one count-loss, one adversarial.
const PRETRAIN_PER_ROUND: usize = 1;
const ADVERSARIAL_PER_ROUND: usize = 1;
/// Rounds per repetition; the held-out q-error is taken after the first.
const ROUNDS_PER_REP: usize = 3;
const SETUP_REPS: usize = 11;

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let qs = gen::read_queries(&ctx.dir)?;
    let truth: Vec<u64> = gen::read(&ctx.dir, TRUTH)?
        .lines()
        .map(|l| l.trim().parse().map_err(|e| format!("bad truth: {e}")))
        .collect::<Result<_, _>>()?;
    let labeled: Vec<_> = qs.into_iter().zip(truth).collect();
    let mut out = Outcome::default();
    let (mut load_s, mut prepare_s) = (Vec::new(), Vec::new());
    let (setup_s, (model, prepared)) = median_setup(SETUP_REPS, || {
        let t0 = Instant::now();
        let g = load_graph(&ctx.dir.join(GRAPH)).map_err(|e| e.to_string())?;
        load_s.push(secs(t0));
        let model = load_model(&ctx.dir.join(MODEL)).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let prepared = model
            .prepare_batch(&g, &labeled, &GraphContext::new())
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("prepare_batch: {e}"))?;
        prepare_s.push(secs(t1));
        Ok((secs(t0), (model, prepared)))
    })?;
    out.set("setup_s", setup_s);
    out.set("graph.load_ms", stats::median(&load_s) * 1e3);
    out.set("train.prepare_s", stats::median(&prepare_s));
    let per_round = |mut m: NeurSc| {
        m.config.pretrain_epochs = PRETRAIN_PER_ROUND;
        m.config.adversarial_epochs = ADVERSARIAL_PER_ROUND;
        m
    };
    let mut model = per_round(model);
    let (train, held_out) = prepared.split_at(TRAIN_QUERIES);
    let usable = train
        .iter()
        .filter(|p| !p.trivially_zero && !p.subs.is_empty())
        .count();
    let subs: usize = train.iter().map(|p| p.subs.len()).sum();
    let sub_rows: usize = train.iter().flat_map(|p| &p.subs).map(|s| s.x.rows()).sum();
    out.notes.push(format!(
        "training set: {usable} usable queries, {subs} substructures, {sub_rows} substructure vertices"
    ));

    let mut epoch_ms = Vec::new();
    // Per round position: its fastest untraced repetition, ms per epoch.
    let mut best_ms = [f64::INFINITY; ROUNDS_PER_REP];
    let mut traced_epochs = 0usize;
    let trace = Trace::default();
    let (mut fwd_ns, mut bwd_ns) = (0u64, 0u64);
    let untraced_budget = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let epochs_of = |r: &Result<neursc_core::TrainReport, _>| match r {
        Ok(r) => r.pretrain_epochs + r.adversarial_epochs,
        Err(_) => 0,
    };
    let mut rounds = 0;
    let start = Instant::now();
    loop {
        let traced = ctx.traced && start.elapsed() >= dur(untraced_budget);
        if rounds > 0 && start.elapsed() >= dur(ctx.seconds) && (!ctx.traced || traced_epochs > 0) {
            break;
        }
        if rounds > 0 {
            // A new repetition, from the untrained model (untimed).
            let m = load_model(&ctx.dir.join(MODEL)).map_err(|e| e.to_string())?;
            model = per_round(m);
        }
        for (round, best) in best_ms.iter_mut().enumerate() {
            let (report, d) = if traced {
                let (f, b) = forward_backward(&mut model, train);
                trace.scope(|| {
                    let _root = Span::enter("train.round");
                    let _fit = Span::enter("train.fit_prepared");
                    let t = Instant::now();
                    let report = trace::library(|| model.fit_prepared(train));
                    let d = secs(t);
                    let n = epochs_of(&report) as u64;
                    span_with_ns("train.forward", f * n);
                    span_with_ns("train.backward", b * n);
                    fwd_ns += f * n;
                    bwd_ns += b * n;
                    traced_epochs += n as usize;
                    (report, d)
                })
            } else {
                // Repetitions alternate CPUs (see `on_cpu`).
                on_cpu(rounds / ROUNDS_PER_REP, || {
                    let t = Instant::now();
                    let report = model.fit_prepared(train);
                    (report, secs(t))
                })
            };
            let epochs = epochs_of(&report);
            match &report {
                Ok(r) if r.rolled_back || r.diverged_at.is_some() => out.fail(format!(
                    "round {round} rolled back (diverged at {:?})",
                    r.diverged_at
                )),
                Ok(r) if r.epoch_losses.iter().any(|l| !l.is_finite()) => out.fail(format!(
                    "round {round}: non-finite loss {:?}",
                    r.epoch_losses
                )),
                Ok(r) if epochs != PRETRAIN_PER_ROUND + ADVERSARIAL_PER_ROUND => out.fail(format!(
                    "round {round} ran {epochs} epochs ({:?})",
                    r.epoch_losses
                )),
                Ok(_) => {}
                Err(e) => out.fail(format!("round {round}: {e}")),
            }
            out.attempted += (PRETRAIN_PER_ROUND + ADVERSARIAL_PER_ROUND) as u64;
            if !traced {
                let ms = d * 1e3 / (PRETRAIN_PER_ROUND + ADVERSARIAL_PER_ROUND) as f64;
                epoch_ms.push(ms);
                *best = best.min(ms);
            }
            rounds += 1;
        }
        if rounds == ROUNDS_PER_REP {
            let errs: Vec<f64> = held_out
                .iter()
                .map(|pq| q_error(model.estimate_prepared(pq).count, pq.truth as f64))
                .collect();
            let s = stats::sorted(&errs);
            out.set("train.qerror_median", stats::percentile(&s, 50.0));
            out.set("train.qerror_p90", stats::percentile(&s, 90.0));
        }
    }
    // The first repetition always runs untraced, so every position has a time.
    out.set("latency_p50_ms", stats::median(&best_ms));
    out.set(
        "latency_tail_ms",
        stats::sorted(&best_ms)[ROUNDS_PER_REP - 1],
    );
    out.set(
        "throughput_per_s",
        usable as f64 * 1e3 / stats::mean(&best_ms),
    );
    let t = stats::tail(&epoch_ms);
    out.notes.push(format!(
        "per epoch, best of each round position: {best_ms:.4?} ms; every round as it ran: \
         p50 {:.4} ms, p{} {:.4} ms over {} samples",
        stats::median(&epoch_ms),
        t.percentile,
        t.value,
        t.samples
    ));
    out.set("peak_rss_mb", own_peak_rss_mb());
    out.notes.push(format!(
        "{} repetitions of {ROUNDS_PER_REP} rounds of {} epochs on {usable} usable training \
         queries; q-error on {} held-out queries after the first",
        rounds / ROUNDS_PER_REP,
        PRETRAIN_PER_ROUND + ADVERSARIAL_PER_ROUND,
        held_out.len()
    ));

    if ctx.traced {
        let epochs = traced_epochs as f64;
        let spans = trace.spans();
        let st = trace::self_times(&spans);
        let per_epoch_ms = |name: &str| st.get(name).copied().unwrap_or(0) as f64 / epochs / 1e6;
        out.set("train.forward_ms", fwd_ns as f64 / epochs / 1e6);
        out.set("train.backward_ms", bwd_ns as f64 / epochs / 1e6);
        out.set("train.other_ms", per_epoch_ms("train.fit_prepared"));
        out.set("unattributed_us", per_epoch_ms("train.round") * 1e3);
        let traced = trace::total_ns(&spans, "train.round") as f64 / epochs / 1e6;
        let untraced = stats::mean(&epoch_ms);
        out.set("tracing_overhead_pct", (traced / untraced - 1.0) * 100.0);
        out.notes.push(format!(
            "reconcile per epoch: forward {:.2} + backward {:.2} + other {:.2} + unattributed \
             {:.4} ms = traced {traced:.2} ms; untraced {untraced:.2} ms",
            fwd_ns as f64 / epochs / 1e6,
            bwd_ns as f64 / epochs / 1e6,
            per_epoch_ms("train.fit_prepared"),
            per_epoch_ms("train.round"),
        ));
        out.tracer = Some(trace);
    }
    Ok(out)
}

/// One standalone forward and backward pass over `train` (count loss),
/// returning their total ns. Gradients are zeroed afterwards; parameter
/// values are untouched, so training is unaffected.
fn forward_backward(model: &mut NeurSc, train: &[PreparedQuery]) -> (u64, u64) {
    let (mut f, mut b) = (0u64, 0u64);
    for pq in train {
        let mut tape = Tape::new();
        let t = Instant::now();
        let Some((_, zs)) = forward_prepared(model, &mut tape, pq) else {
            continue;
        };
        let loss = count_loss(&mut tape, &zs, pq.truth, CountLossMode::LogQError);
        f += t.elapsed().as_nanos() as u64;
        model.store.zero_grads();
        let t = Instant::now();
        tape.backward(loss, &mut model.store);
        b += t.elapsed().as_nanos() as u64;
    }
    model.store.zero_grads();
    (f, b)
}
