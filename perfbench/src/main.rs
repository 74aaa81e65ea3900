//! `perfbench`: the repository's one seeded benchmark.
//!
//! ```text
//! perfbench gen --workload W --seed N --dir D
//! perfbench run --workload W --dir D --seconds S --trace 0|1
//!               [--cli PATH] [--trace-out FILE] [--rustc TEXT] [--commit TEXT]
//! ```
//!
//! `gen` writes the workload's inputs (graph, queries, ground truth and a
//! seeded untrained model file) for the seed; `run` reads only those
//! files, times the program from outside through each layer's public
//! functions, checks the outputs, and prints every metric by name with its
//! unit. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`,
//! carrying the end-to-end metrics untraced (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`). `perfbench/run.py` builds the
//! program and drives both steps; see `perfbench/README.md`.

mod gen;
mod offline;
mod serve;
mod stats;
mod streamed;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineBatch,
    ServeOpen,
    Train,
    StreamedStore,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "offline-batch" => Workload::OfflineBatch,
            "serve-open" => Workload::ServeOpen,
            "train" => Workload::Train,
            "streamed-store" => Workload::StreamedStore,
            _ => return None,
        })
    }
}

/// End-to-end metrics (`--trace 0`), every workload: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), every workload; a layer a workload
/// does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.load_ms", "ms"),
    ("match.profile_build_ms", "ms"),
    ("match.local_prune_us", "us"),
    ("match.refine_us", "us"),
    ("match.cands_after_prune", "count"),
    ("match.cands_after_refine", "count"),
    ("match.refine_keep_ratio", "ratio"),
    ("match.trivially_zero_ratio", "ratio"),
    ("extract.us", "us"),
    ("extract.subs_per_query", "count"),
    ("extract.sub_vertices_per_query", "count"),
    ("featurize.us", "us"),
    ("gnn.query_intra_us", "us"),
    ("gnn.intra_us", "us"),
    ("gnn.inter_us", "us"),
    ("gnn.readout_us", "us"),
    ("gnn.flops_per_query", "flop"),
    ("train.prepare_s", "s"),
    ("train.forward_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.other_ms", "ms"),
    ("train.qerror_median", "ratio"),
    ("train.qerror_p90", "ratio"),
    ("serve.batch_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.outside_batch_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.max_rps", "1/s"),
    ("serve.rejected", "count"),
    ("serve.rss_growth_mb", "MB"),
    ("serve.generator_lag_ms", "ms"),
    ("obs.spans_dropped", "count"),
    ("store.open_ms", "ms"),
    ("store.chunk_misses_per_query", "count"),
    ("store.chunk_hit_ratio", "ratio"),
    ("partition.estimate_ms", "ms"),
    ("unattributed_us", "us"),
    ("tracing_overhead_pct", "%"),
];

/// What one run is asked to do.
pub struct RunCtx {
    /// The generated inputs.
    pub dir: PathBuf,
    /// Measurement budget.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// The `neursc_cli` binary (serve-open).
    pub cli: Option<PathBuf>,
    /// Worker threads and connections: the host's parallelism.
    pub nproc: usize,
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed (errors, refusals, mismatches).
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed before the result (tail rule, notes).
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<trace::Trace>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a latency sample's median and tail (with the rule's
    /// percentile and sample count as a note).
    pub fn latencies(&mut self, what: &str, ms: &[f64]) {
        let t = stats::tail(ms);
        self.set("latency_p50_ms", stats::median(ms));
        self.set("latency_tail_ms", t.value);
        self.notes.push(format!(
            "tail: {what} p{} = {:.4} ms over {} samples ({} beyond)",
            t.percentile, t.value, t.samples, t.beyond
        ));
    }

    /// Records the latency metrics from consecutive time windows of a
    /// phase, each with the hypervisor steal taken during it: each kept
    /// window's median, and its tail by the tail rule, then the median of
    /// each over the [`least_stolen`] windows. The windows are chosen by
    /// steal alone, never by the latencies.
    pub fn windowed_latencies(&mut self, what: &str, windows: &[Vec<f64>], steal: &[u64]) {
        let kept = least_stolen(steal);
        let tails: Vec<stats::Tail> = kept.iter().map(|&i| stats::tail(&windows[i])).collect();
        let p50s: Vec<f64> = kept.iter().map(|&i| stats::median(&windows[i])).collect();
        let tail_values: Vec<f64> = tails.iter().map(|t| t.value).collect();
        self.set("latency_p50_ms", stats::median(&p50s));
        self.set("latency_tail_ms", stats::median(&tail_values));
        let t = tails[0];
        self.notes.push(format!(
            "tail: {what}, median over the {} least-stolen of {} windows of p{} ({} samples, \
             {} beyond, in the first kept); steal per window {steal:?} ticks",
            kept.len(),
            windows.len(),
            t.percentile,
            t.samples,
            t.beyond
        ));
    }

    /// Records a failed check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self
            .notes
            .iter()
            .filter(|n| n.starts_with("FAILED"))
            .count()
            < 10
        {
            self.notes.push(format!("FAILED: {why}"));
        }
    }
}

/// Windows a windowed metric keeps, of [`WINDOWS`].
pub const KEEP_WINDOWS: usize = 3;
/// Windows a windowed phase is cut into.
pub const WINDOWS: usize = 5;

/// Indices, ascending, of the [`KEEP_WINDOWS`] windows during which the
/// hypervisor stole the least CPU time (ties to the earlier window). Other
/// tenants of a shared host take the CPU in bursts of seconds; the
/// windowed metrics are medians over the kept windows, so a burst that
/// covers part of a run does not move them.
pub fn least_stolen(steal: &[u64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steal.len()).collect();
    idx.sort_by_key(|&i| (steal[i], i));
    idx.truncate(KEEP_WINDOWS.min(steal.len()));
    idx.sort_unstable();
    idx
}

/// Runs `f` and returns its value with the hypervisor steal, in
/// `/proc/stat` ticks, taken while it ran (0 where not available).
pub fn with_steal<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let a = steal_jiffies();
    let v = f();
    let stolen = match (a, steal_jiffies()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => 0,
    };
    (v, stolen)
}

/// Runs `f` with the calling thread pinned to the `i`-th (modulo their
/// count) of the CPUs it may use, then restores its CPU set; runs `f`
/// unpinned where the CPU set cannot be read or set. Threads `f` spawns
/// inherit the pin, so only single-threaded work runs here.
///
/// On a shared host each vCPU is slowed by other tenants on its own, for
/// seconds at a time, so the repetitions of a fastest-repetition metric
/// alternate CPUs: one slow vCPU then does not set the floor.
pub fn on_cpu<T>(i: usize, f: impl FnOnce() -> T) -> T {
    affinity::pinned(i, f)
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn pinned<T>(i: usize, f: impl FnOnce() -> T) -> T {
        let size = std::mem::size_of::<CpuSet>();
        let mut all: CpuSet = [0; 16];
        // SAFETY: pid 0 is the calling thread; `all` is a writable
        // `cpu_set_t` of the size passed.
        if unsafe { sched_getaffinity(0, size, &mut all) } != 0 {
            return f();
        }
        let cpus: Vec<usize> = (0..1024)
            .filter(|&c| all[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        if cpus.is_empty() {
            return f();
        }
        let c = cpus[i % cpus.len()];
        let mut one: CpuSet = [0; 16];
        one[c / 64] = 1 << (c % 64);
        // SAFETY: as above; the masks are read-only `cpu_set_t`s.
        let ok = unsafe { sched_setaffinity(0, size, &one) } == 0;
        let v = f();
        if ok {
            // SAFETY: as above.
            unsafe { sched_setaffinity(0, size, &all) };
        }
        v
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pinned<T>(_: usize, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// Median of `reps` set-ups, each timed by `f` (returns seconds), plus the
/// value the last set-up returned. Each set-up's value is dropped before
/// the next one starts, so at most one is alive and peak memory is the
/// program's, not the repetition's.
pub fn median_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<(f64, T), String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (s, v) = f()?;
        times.push(s);
        last = Some(v);
    }
    Ok((stats::median(&times), last.expect("reps >= 1")))
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident memory of this process, MB.
pub fn own_peak_rss_mb() -> f64 {
    neursc_core::obs::process_peak_rss_bytes() as f64 / (1 << 20) as f64
}

/// The SIMD path the fused kernels take, by the rule `nn::infer` uses:
/// AVX-512F if the CPU has it, else AVX2, else scalar.
fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    neursc_serve::json::write_str(s, &mut out);
    out
}

/// Host metadata as a JSON object.
fn host_json(args: &Args, w: &str, ctx: &RunCtx) -> String {
    format!(
        "{{\"workload\": {}, \"nproc\": {}, \"cpu\": {}, \"simd\": \"{}\", \"rustc\": {}, \
         \"commit\": {}, \"traced\": {}, \"seconds\": {}}}",
        json_str(w),
        ctx.nproc,
        json_str(&cpu_model()),
        simd_path(),
        json_str(args.get("rustc").unwrap_or("unknown")),
        json_str(args.get("commit").unwrap_or("unknown")),
        ctx.traced,
        ctx.seconds
    )
}

struct Args(Vec<String>);

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        let flag = format!("--{key}");
        self.0
            .iter()
            .position(|a| *a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn req(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match run_main(raw) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn run_main(raw: Vec<String>) -> Result<(), String> {
    let cmd = raw.first().cloned().unwrap_or_default();
    let args = Args(raw);
    let wname = args.req("workload")?;
    let w = Workload::parse(wname).ok_or_else(|| format!("unknown workload {wname:?}"))?;
    let dir = PathBuf::from(args.req("dir")?);
    match cmd.as_str() {
        "gen" => {
            let seed: u64 = args
                .req("seed")?
                .parse()
                .map_err(|e| format!("bad --seed: {e}"))?;
            gen::generate_inputs(w, seed, &dir)
        }
        "run" => {
            let seconds: f64 = args
                .req("seconds")?
                .parse()
                .map_err(|e| format!("bad --seconds: {e}"))?;
            let traced = match args.req("trace")? {
                "0" => false,
                "1" => true,
                t => return Err(format!("bad --trace {t:?} (0|1)")),
            };
            let ctx = RunCtx {
                dir,
                seconds,
                traced,
                cli: args.get("cli").map(PathBuf::from),
                nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            };
            run(w, wname, &args, &ctx)
        }
        other => Err(format!("unknown command {other:?} (gen|run)")),
    }
}

fn run(w: Workload, wname: &str, args: &Args, ctx: &RunCtx) -> Result<(), String> {
    let host = host_json(args, wname, ctx);
    println!("host: {host}");
    let steal0 = steal_jiffies();
    let run_start = Instant::now();
    let out = match w {
        Workload::OfflineBatch => offline::run(ctx)?,
        Workload::ServeOpen => serve::run(ctx)?,
        Workload::Train => train::run(ctx)?,
        Workload::StreamedStore => streamed::run(ctx)?,
    };
    for n in &out.notes {
        println!("{n}");
    }
    if let (Some(a), Some(b)) = (steal0, steal_jiffies()) {
        // /proc/stat counts in USER_HZ (100 per second) per CPU.
        let pct =
            (b - a) as f64 / (run_start.elapsed().as_secs_f64() * 100.0 * ctx.nproc as f64) * 100.0;
        println!("host: {pct:.1}% of CPU time stolen by the hypervisor during the run");
    }
    if let (Some(t), Some(path)) = (&out.tracer, args.get("trace-out")) {
        write_trace(t, Path::new(path), &host)?;
        let mut st: Vec<_> = trace::self_times(&t.spans()).into_iter().collect();
        st.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        println!("self time by span (ms, whole traced pass):");
        for (name, ns) in st {
            println!("  {name:<28} {:>12.3}", ns as f64 / 1e6);
        }
        println!("trace written to {path}");
    }
    if out.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let table = if ctx.traced { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let v = match out.metrics.get(name) {
            Some(&v) => v,
            None if ctx.traced => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !v.is_finite() {
            return Err(format!("{name} is not finite ({v})"));
        }
        println!("metric {name} = {v} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            num(v),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    Ok(())
}

/// Jiffies of CPU time the hypervisor stole, from `/proc/stat`.
fn steal_jiffies() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// A finite f64 as JSON with all its digits (shortest round-trip form).
fn num(v: f64) -> String {
    let mut s = String::new();
    neursc_serve::json::write_num(v, &mut s);
    s
}

fn write_trace(t: &trace::Trace, path: &Path, host: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, t.chrome_json(host)).map_err(|e| format!("write {}: {e}", path.display()))
}

/// `Duration` from fractional seconds.
pub fn dur(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_stolen_keeps_the_quietest_windows_in_order() {
        assert_eq!(least_stolen(&[9, 0, 4, 0, 7]), vec![1, 2, 3]);
        // Ties go to the earlier window.
        assert_eq!(least_stolen(&[0, 0, 0, 0, 0]), vec![0, 1, 2]);
        assert_eq!(least_stolen(&[5, 1]), vec![0, 1]);
    }
}
