//! The repository benchmark: one workload per invocation, inputs made from
//! `--seed`, every answer checked, one JSON result as the last line of
//! standard output.
//!
//! ```text
//! dacebench --workload serve-hot|serve-cold|offline --seed N --seconds S
//!           --trace 0|1 [--trace-out PATH]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: half the window untraced, half
//! with `dace_obs` spans on (plus the benchmark's own spans around each
//! public call), then the per-layer probes; it reports the per-layer
//! metrics, the tracing overhead as the ratio of the two halves' CPU cost
//! per operation, and writes the spans as a Chrome trace to `--trace-out`.

mod host;
mod layers;
mod offline;
mod serve;
mod setup;

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dace_obs::{Event, EventRecord, FlightRecorder};
use rand::Rng;

use crate::host::{iqm, median, peak_rss_mib, quantile, reset_peak_rss, seeded_rng};

/// Set-ups per run, each on its own corpus; `setup_s` is their median,
/// the q-errors are quantiles of all their held-out plans pooled, the
/// traced run's training CPU figures the interquartile mean of all their
/// timed epochs, and the workload runs against the last one.
const SETUPS: usize = 5;
/// Seed of the set-up corpora. They are fixed rather than drawn from
/// `--seed`, so the models every workload runs against, and with them the
/// held-out q-errors, are the same on every run and move only with the
/// code; `--seed` draws the workload's traffic and queries.
const SETUP_SEED: u64 = 0x5E7;
/// Spans written to `--trace-out` (the self times use all of them).
const TRACE_OUT_EVENTS: usize = 20_000;

/// Counts allocated bytes for `EpochRecord::alloc_bytes` and the
/// allocating forward probe the way `dace_bench::counting_alloc` does
/// (gross bytes; `realloc` counts its growth), but only in the traced run:
/// that one counts on every call, and two contended atomic adds per
/// allocation would slow the serve threads in the untraced runs that
/// supply the end-to-end figures.
struct CountingAlloc;

static COUNT_ALLOCS: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if COUNT_ALLOCS.load(Ordering::Relaxed) {
        ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's own arguments;
// the counter has no effect on the memory returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract, and `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeHot,
    ServeCold,
    Offline,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut trace_out) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "serve-hot" => Workload::ServeHot,
                    "serve-cold" => Workload::ServeCold,
                    "offline" => Workload::Offline,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--trace-out" => trace_out = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

/// One reported figure.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything a run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<Metric>,
    /// Sample counts and context, printed on the report line.
    report: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dacebench: {e}");
            std::process::exit(2);
        }
    };
    COUNT_ALLOCS.store(args.trace, Ordering::Relaxed);
    if args.trace {
        dace_obs::set_alloc_probe(allocated_bytes);
    }

    let mut setups = Vec::with_capacity(SETUPS);
    let mut world = None;
    for replica in 0..SETUPS as u64 {
        // The previous world goes first, so that set-up peaks at one world.
        drop(world.take());
        let (w, cost) = setup::build(seeded_rng(SETUP_SEED, replica).gen::<u64>());
        world = Some(w);
        setups.push(cost);
    }
    let world = world.expect("SETUPS > 0");
    // From here on the high-water mark tracks the workload, not set-up.
    let setup_peak_rss_mib = peak_rss_mib();
    let peak_reset = reset_peak_rss();
    let of = |f: fn(&setup::SetupCost) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let mut out = Outcome::default();
    let mut events: Vec<Event> = Vec::new();
    match args.workload {
        Workload::ServeHot | Workload::ServeCold => {
            let traffic = if args.workload == Workload::ServeHot {
                serve::Traffic::hot(&world, args.seed)
            } else {
                serve::Traffic::cold(&world, args.seed)
            };
            let base = serve::run(&world, &traffic, args.seed, half(&args), false);
            let mut traced = args
                .trace
                .then(|| serve::run(&world, &traffic, args.seed, args.seconds / 2.0, true));
            out.correct = true;
            for r in std::iter::once(&base).chain(&traced) {
                out.attempted += r.attempted;
                out.failed += r.failed();
                out.correct &= r.check_failures == 0 && r.checks > 0 && r.completed_agrees;
            }
            if let Some(t) = &mut traced {
                serve_layers(&mut out, &base, t, &world, &traffic, args.seed);
                events = std::mem::take(&mut t.events);
            }
            let run = traced.as_ref().unwrap_or(&base);
            if !args.trace {
                out.metric("cpu_us_per_op", iqm(&run.cpu_us_per_op), "us");
            }
            out.report.extend([
                ("answered", run.answered() as f64),
                ("cpu_slices", run.cpu_us_per_op.len() as f64),
                ("checks", run.checks as f64),
                ("check_failures", run.check_failures as f64),
                ("max_rel_err", run.max_rel_err),
                ("max_int8_qerr", run.max_int8_qerr),
                (
                    "completed_agrees",
                    f64::from(u8::from(run.completed_agrees)),
                ),
                ("steal_share", run.steal_share),
                ("req_per_s", run.answered() as f64 / run.wall_s),
                ("e2e_p99_us", quantile(&run.latency_us, 0.99)),
                ("generator_late_us_p99", quantile(&run.late_us, 0.99)),
                ("distinct_share", traffic.distinct_share()),
            ]);
        }
        Workload::Offline => {
            let queries = offline::queries(&world, args.seed);
            let base = offline::run(&world, &queries, half(&args), false);
            let mut traced = args
                .trace
                .then(|| offline::run(&world, &queries, args.seconds / 2.0, true));
            out.correct = true;
            for r in std::iter::once(&base).chain(&traced) {
                out.attempted += r.queries;
                out.failed += r.errors + r.check_failures;
                out.correct &= r.check_failures == 0 && r.checks > 0;
            }
            if let Some(t) = &mut traced {
                search_layers(&mut out, &base, t, &world, &queries, args.seed);
                events = std::mem::take(&mut t.events);
            }
            let run = traced.as_ref().unwrap_or(&base);
            if !args.trace {
                out.metric("cpu_us_per_op", iqm(&run.cpu_us_per_op), "us");
            }
            out.report.extend([
                ("queries", run.queries as f64),
                ("passes", run.cpu_us_per_op.len() as f64),
                ("cpu_ms_per_query", run.cpu_s * 1e3 / run.queries as f64),
                (
                    "candidates_per_query",
                    run.candidates as f64 / run.queries as f64,
                ),
                ("memo_pick_mismatches", run.memo_pick_mismatches as f64),
                ("checks", run.checks as f64),
                ("check_failures", run.check_failures as f64),
                ("steal_share", run.steal_share),
                ("p99_us", quantile(&run.latency_us, 0.99)),
            ]);
        }
    }

    if args.trace {
        out.metric("host.setup_peak_rss_mib", setup_peak_rss_mib, "MiB");
        trainer_layers(&mut out, &setups);
        let selfs = layers::self_times(&events);
        let ops = out.attempted.max(1) as f64;
        for (name, span) in SPANS {
            out.metric(name, selfs.get(span).copied().unwrap_or(0.0) / ops, "us");
        }
        out.metric(
            "obs.recorder_dropped",
            FlightRecorder::global().dropped() as f64,
            "count",
        );
        if let Some(path) = &args.trace_out {
            write_trace(path, &events);
        }
    } else {
        out.metric("setup_s", of(|c| c.wall_s), "s");
        let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
        out.metric("ok_share", 1.0 - failed_share.min(1.0), "ratio");
        out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
        let qerrs: Vec<f64> = setups
            .iter()
            .flat_map(|c| c.qerrs.iter().copied())
            .collect();
        out.metric("qerr_p50", quantile(&qerrs, 0.50), "ratio");
        out.metric("qerr_p95", quantile(&qerrs, 0.95), "ratio");
    }
    out.report.extend([
        ("setups", setups.len() as f64),
        ("setup_peak_rss_mib", setup_peak_rss_mib),
        ("peak_rss_reset", f64::from(u8::from(peak_reset))),
    ]);
    print_outcome(&out);
}

/// The untraced window: the whole run, or its first half when traced.
fn half(args: &Args) -> f64 {
    if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    }
}

/// Span self times reported per operation: (metric, span name).
const SPANS: [(&str, &str); 12] = [
    ("span.bench_submit.self_us_per_op", "bench_submit"),
    ("span.bench_wait.self_us_per_op", "bench_wait"),
    ("span.serve_drain.self_us_per_op", "serve_drain"),
    ("span.serve_featurize.self_us_per_op", "serve_featurize"),
    ("span.serve_forward.self_us_per_op", "serve_forward"),
    ("span.serve_respond.self_us_per_op", "serve_respond"),
    (
        "span.serve_process_batch.self_us_per_op",
        "serve_process_batch",
    ),
    ("span.bench_plan.self_us_per_op", "bench_plan"),
    ("span.search_scan.self_us_per_op", "search_scan"),
    ("span.search_dp_join.self_us_per_op", "search_dp_join"),
    ("span.search_score.self_us_per_op", "search_score"),
    ("span.bench_score.self_us_per_op", "bench_score"),
];

/// Serve-layer figures, and the model and kernel probes on the workload's
/// plans; the search figures read 0 (no search ran).
fn serve_layers(
    out: &mut Outcome,
    base: &serve::ServeRun,
    traced: &serve::ServeRun,
    world: &setup::World,
    traffic: &serve::Traffic,
    seed: u64,
) {
    let snap = traced
        .snapshot
        .as_ref()
        .expect("a finished window has a snapshot");
    let lookups = (snap.cache_hits + snap.cache_misses).max(1) as f64;
    let answered = traced.answered().max(1) as f64;
    let cpu_per = |r: &serve::ServeRun| r.cpu_s / r.answered().max(1) as f64;
    out.metric(
        "serve.submit_us_p50",
        quantile(&traced.submit_us, 0.5),
        "us",
    );
    out.metric(
        "serve.submit_us_p99",
        quantile(&traced.submit_us, 0.99),
        "us",
    );
    out.metric(
        "serve.queue_wait_us_p50",
        snap.queue_wait_us.p50 as f64,
        "us",
    );
    out.metric(
        "serve.queue_wait_us_p99",
        snap.queue_wait_us.p99 as f64,
        "us",
    );
    out.metric("serve.batch_size_mean", snap.batch_size.mean, "count");
    out.metric("serve.respond_us", snap.respond_us.mean, "us");
    out.metric(
        "serve.unattributed_us",
        median(&traced.unattributed_us),
        "us",
    );
    out.metric("serve.shed", traced.shed as f64, "count");
    out.metric("serve.expired", traced.expired as f64, "count");
    out.metric("serve.steals", traced.steals as f64, "count");
    out.metric(
        "serve.cache_hit_rate",
        snap.cache_hits as f64 / lookups,
        "ratio",
    );
    out.metric("serve.cache_lookup_us", snap.cache_lookup_us.mean, "us");
    out.metric(
        "serve.tier_quantized_share",
        traced.quantized as f64 / answered,
        "ratio",
    );
    out.metric(
        "serve.req_per_s",
        base.answered() as f64 / base.wall_s,
        "1/s",
    );
    out.metric("serve.e2e_p50_us", median(&base.latency_us), "us");
    out.metric("serve.e2e_p99_us", quantile(&base.latency_us, 0.99), "us");
    out.metric("serve.e2e_samples", base.answered() as f64, "count");
    out.metric(
        "obs.trace_overhead",
        cpu_per(traced) / cpu_per(base),
        "ratio",
    );
    out.metric(
        "host.steal_share",
        traced.steal_share.max(base.steal_share),
        "ratio",
    );
    out.metric(
        "host.generator_late_us_p99",
        quantile(&base.late_us, 0.99),
        "us",
    );
    for name in SEARCH_METRICS {
        out.metric(name.0, 0.0, name.1);
    }
    core_layers(
        out,
        world,
        &traffic.plans[..traffic.plans.len().min(512)],
        seed,
    );
}

const SEARCH_METRICS: [(&str, &str); 7] = [
    ("search.candidates_per_query", "count"),
    ("search.score_batches_per_query", "count"),
    ("search.memo_hit_rate", "ratio"),
    ("search.score_us_per_candidate", "us"),
    ("search.enumerate_share", "ratio"),
    ("search.query_p50_us", "us"),
    ("search.memo_pick_mismatches", "count"),
];

/// Search-layer figures, and the model and kernel probes on the plans of
/// the workload's own queries; the serve figures read 0 (no request was
/// served).
fn search_layers(
    out: &mut Outcome,
    base: &offline::SearchRun,
    traced: &offline::SearchRun,
    world: &setup::World,
    queries: &[dace_query::Query],
    seed: u64,
) {
    let q = traced.queries.max(1) as f64;
    let plan_s = traced.latency_us.iter().sum::<f64>() * 1e-6;
    let cpu_per = |r: &offline::SearchRun| r.cpu_s / r.queries.max(1) as f64;
    out.metric(
        "search.candidates_per_query",
        traced.candidates as f64 / q,
        "count",
    );
    out.metric(
        "search.score_batches_per_query",
        traced.batches as f64 / q,
        "count",
    );
    out.metric(
        "search.memo_hit_rate",
        traced.memo_hits as f64 / traced.memo_lookups.max(1) as f64,
        "ratio",
    );
    out.metric(
        "search.score_us_per_candidate",
        traced.score_s * 1e6 / traced.candidates.max(1) as f64,
        "us",
    );
    out.metric(
        "search.enumerate_share",
        1.0 - traced.score_s / plan_s,
        "ratio",
    );
    out.metric("search.query_p50_us", median(&base.query_mean_us()), "us");
    out.metric(
        "search.memo_pick_mismatches",
        traced.memo_pick_mismatches as f64,
        "count",
    );
    out.metric(
        "obs.trace_overhead",
        cpu_per(traced) / cpu_per(base),
        "ratio",
    );
    out.metric(
        "host.steal_share",
        traced.steal_share.max(base.steal_share),
        "ratio",
    );
    for (name, unit) in SERVE_METRICS {
        out.metric(name, 0.0, unit);
    }
    core_layers(out, world, &offline::probe_plans(world, queries), seed);
}

const SERVE_METRICS: [(&str, &str); 18] = [
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.respond_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.steals", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_lookup_us", "us"),
    ("serve.tier_quantized_share", "ratio"),
    ("serve.req_per_s", "1/s"),
    ("serve.e2e_p50_us", "us"),
    ("serve.e2e_p99_us", "us"),
    ("serve.e2e_samples", "count"),
    ("host.generator_late_us_p99", "us"),
];

/// Trainer figures of the set-ups, which every workload runs.
fn trainer_layers(out: &mut Outcome, setups: &[setup::SetupCost]) {
    let epochs = |f: fn(&setup::SetupCost) -> Vec<f64>| {
        median(&setups.iter().flat_map(f).collect::<Vec<_>>())
    };
    let cpu_per_plan = |f: fn(&setup::SetupCost) -> &Vec<f64>| {
        iqm(&setups.iter().flat_map(f).copied().collect::<Vec<_>>())
    };
    out.metric(
        "core.train_cpu_us_per_plan",
        cpu_per_plan(|c| &c.train_cpu_us_per_plan),
        "us",
    );
    out.metric(
        "core.finetune_cpu_us_per_plan",
        cpu_per_plan(|c| &c.finetune_cpu_us_per_plan),
        "us",
    );
    out.metric(
        "core.train_epoch_ms",
        epochs(|c| c.train_epochs.iter().map(|e| e.epoch_ms).collect()),
        "ms",
    );
    out.metric(
        "core.finetune_epoch_ms",
        epochs(|c| c.finetune_epochs.iter().map(|e| e.epoch_ms).collect()),
        "ms",
    );
    out.metric(
        "core.train_alloc_bytes_per_epoch",
        epochs(|c| {
            c.train_epochs
                .iter()
                .filter_map(|e| e.alloc_bytes.map(|b| b as f64))
                .collect()
        }),
        "bytes",
    );
}

/// `dace-core` forward/featurize probes and `dace-nn` kernels on `plans`.
fn core_layers(out: &mut Outcome, world: &setup::World, plans: &[dace_plan::PlanTree], seed: u64) {
    let c = layers::core(&world.est, plans);
    out.metric("core.featurize_us_per_plan", c.featurize_us, "us");
    out.metric("core.fingerprint_us_per_plan", c.fingerprint_us, "us");
    out.metric("core.forward_single_us_per_plan", c.single_us, "us");
    out.metric("core.forward_packed32_us_per_plan", c.packed_us, "us");
    out.metric(
        "core.packed_over_single",
        c.packed_us / c.single_us,
        "ratio",
    );
    out.metric(
        "core.forward_packed32_alloc_bytes_per_plan",
        c.packed_alloc_bytes,
        "bytes",
    );
    out.metric("core.forward_single_ws_us_per_plan", c.single_ws_us, "us");
    out.metric("core.forward_packed32_ws_us_per_plan", c.packed_ws_us, "us");
    out.metric(
        "core.packed_over_single_ws",
        c.packed_ws_us / c.single_ws_us,
        "ratio",
    );
    out.metric("core.attention_us_per_plan", c.attention_us, "us");
    out.metric("core.mlp_us_per_plan", c.mlp_us, "us");
    out.metric("core.int8_packed32_us_per_plan", c.int8_packed_us, "us");
    let (proj, mlp) = layers::kernels(c.mean_nodes, seed);
    out.metric("nn.matmul_proj_us", proj.us, "us");
    out.metric("nn.matmul_proj_gflops", proj.gflops, "GFLOP/s");
    out.metric("nn.matmul_mlp_us", mlp.us, "us");
    out.metric("nn.matmul_mlp_gflops", mlp.gflops, "GFLOP/s");
    out.metric("nn.matmul_proj_bytes", proj.bytes, "bytes");
    out.metric("nn.matmul_mlp_bytes", mlp.bytes, "bytes");
}

/// Write up to [`TRACE_OUT_EVENTS`] spans as Chrome trace-event JSON.
fn write_trace(path: &str, events: &[Event]) {
    let records: Vec<EventRecord> = events
        .iter()
        .take(TRACE_OUT_EVENTS)
        .map(|ev| EventRecord {
            name: dace_obs::span_name(ev.name_id).to_string(),
            t_us: ev.t_us,
            dur_us: ev.dur_us,
            thread: ev.thread,
            depth: ev.depth,
            trace: ev.trace,
        })
        .collect();
    if let Err(e) = std::fs::write(path, dace_obs::chrome_trace(&records)) {
        eprintln!("dacebench: cannot write {path}: {e}");
    }
}

/// A number JSON can carry (non-finite values read 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Print the report line, then the result line (the last line of
/// standard output).
fn print_outcome(out: &Outcome) {
    let mut report = String::from("{\"report\": {");
    for (i, (k, v)) in out.report.iter().enumerate() {
        let _ = write!(
            report,
            "{}\"{k}\": {}",
            if i > 0 { ", " } else { "" },
            num(*v)
        );
    }
    report.push_str("}}");
    println!("{report}");
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            num(m.value),
            m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
}
