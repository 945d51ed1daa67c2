//! The two serving workloads, driven through the public `DaceServer` API.
//!
//! * `serve-hot` — a closed loop: one client thread keeps
//!   [`HOT_IN_FLIGHT`] requests outstanding over [`HOT_POOL`] repeating
//!   plans, one in four through the LoRA adapter, no tenant ids. The pool
//!   fits the featurization cache, so this is the batching and
//!   packed-forward path.
//! * `serve-cold` — an open loop at a fixed [`COLD_RATE`] (under capacity,
//!   the same on every commit) over [`COLD_VARIANTS`] jittered plan
//!   variants that cycle past the cache, spread over [`COLD_TENANTS`]
//!   tenants, one in four with a deadline that routes it to the int8 tier.
//!   This is the featurize, admission/fair-queueing, batch-window and int8
//!   path.
//!
//! Every answer is checked as it arrives, against reference predictions
//! computed before the window (so the reference forwards are not billed to
//! the server's CPU figure).

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dace_obs::{span, Event, FlightRecorder};
use dace_plan::PlanTree;
use dace_serve::{
    q_error, DaceServer, MetricsSnapshot, ModelRegistry, Prediction, PredictionHandle, ServeConfig,
    ServeError, Tier,
};
use rand::Rng;

use crate::host::{cpu_ticks, process_cpu_s, seeded_rng, steal_share, CpuSlices};
use crate::setup::World;

/// Registry name of the fine-tuned adapter.
const ADAPTER: &str = "shifted";
/// Distinct plans in the hot pool (well under the 4096-entry cache).
const HOT_POOL: usize = 120;
/// Requests the closed-loop client keeps outstanding.
const HOT_IN_FLIGHT: usize = 32;
/// Distinct jittered plans the open loop cycles through.
const COLD_VARIANTS: usize = 20_000;
/// Open-loop offered rate, requests per second.
const COLD_RATE: u64 = 4000;
/// Tenants the open loop spreads its requests over.
const COLD_TENANTS: usize = 16;
/// Deadlines at or under this route to the int8 tier.
const FAST_TIER: Duration = Duration::from_millis(50);
/// The deadline carried by one request in four on `serve-cold`; generous,
/// so that only a stall of the server, not the host, expires a request.
const FAST_DEADLINE: Duration = Duration::from_millis(40);
/// Unmeasured traffic before each window: caches fill, workspaces reach
/// their high-water size, worker threads are running.
const WARMUP: Duration = Duration::from_millis(500);
/// Full-precision served answers must match `DaceEstimator::predict_ms`
/// on the same plan and adapter within this relative error (the packed
/// forward sums in a different order than the single-plan one).
const REL_TOL: f64 = 1e-3;
/// Int8 answers must stay within this q-error of full precision (the bound
/// the quantized tier's property tests hold).
const INT8_QERR: f64 = 1.5;
/// Wall length of one CPU-accounting slice.
const SLICE: Duration = Duration::from_millis(500);
/// Recorder drain period while tracing, in requests (the flight recorder
/// drops events once its 65 536 slots fill).
const DRAIN_EVERY: u64 = 1024;

/// The inputs of one serving workload, with the reference answers the
/// served ones are checked against.
pub struct Traffic {
    /// Plans the requests name, by index.
    pub plans: Vec<PlanTree>,
    /// Open loop over tenants (`serve-cold`) or closed loop (`serve-hot`).
    cold: bool,
    /// `DaceEstimator::predict_ms` per plan: base model, then adapter
    /// (`NaN` where the workload never asks for the adapter).
    reference: Vec<[f64; 2]>,
    /// Plan indices by featurization-cache fingerprint.
    cells: HashMap<u64, Vec<usize>>,
    /// Each plan's fingerprint.
    fingerprints: Vec<u64>,
}

impl Traffic {
    /// `serve-hot`: [`HOT_POOL`] collected plans, drawn by seed.
    pub fn hot(world: &World, seed: u64) -> Traffic {
        let mut rng = seeded_rng(seed, 2);
        let plans = (0..HOT_POOL)
            .map(|_| {
                world.train.plans[rng.gen_range(0..world.train.len())]
                    .tree
                    .clone()
            })
            .collect();
        Traffic::new(world, plans, false)
    }

    /// `serve-cold`: [`COLD_VARIANTS`] collected plans with every node's
    /// row and cost estimate jittered by up to ±16%, so nearly every
    /// variant has its own fingerprint and misses the cache.
    pub fn cold(world: &World, seed: u64) -> Traffic {
        let mut rng = seeded_rng(seed, 3);
        let plans = (0..COLD_VARIANTS)
            .map(|_| {
                let mut tree = world.train.plans[rng.gen_range(0..world.train.len())]
                    .tree
                    .clone();
                for id in tree.ids().collect::<Vec<_>>() {
                    let node = tree.node_mut(id);
                    node.est_rows *= (0.3 * (rng.gen::<f64>() - 0.5)).exp();
                    node.est_cost *= (0.3 * (rng.gen::<f64>() - 0.5)).exp();
                }
                tree
            })
            .collect();
        Traffic::new(world, plans, true)
    }

    fn new(world: &World, plans: Vec<PlanTree>, cold: bool) -> Traffic {
        let reference = plans
            .iter()
            .map(|t| {
                let tuned = if cold {
                    f64::NAN
                } else {
                    world.tuned.predict_ms(t)
                };
                [world.est.predict_ms(t), tuned]
            })
            .collect();
        let fingerprints: Vec<u64> = plans
            .iter()
            .map(|t| world.est.featurizer.fingerprint(t))
            .collect();
        let mut cells: HashMap<u64, Vec<usize>> = HashMap::new();
        for (plan, &fp) in fingerprints.iter().enumerate() {
            cells.entry(fp).or_default().push(plan);
        }
        Traffic {
            plans,
            cold,
            reference,
            cells,
            fingerprints,
        }
    }

    /// Distinct fingerprints among the plans ÷ plans.
    pub fn distinct_share(&self) -> f64 {
        self.cells.len() as f64 / self.plans.len() as f64
    }

    /// Check one answer. The featurization cache is keyed by a fingerprint
    /// that rounds each estimate to ~1.6% (by design), so an answer served
    /// from the cache may carry the features of another plan of the same
    /// fingerprint cell. An answer therefore passes when it matches the
    /// reference of some plan of its cell: full precision within
    /// [`REL_TOL`] of `predict_ms` on that plan and adapter, int8 within
    /// [`INT8_QERR`] of it. Degraded answers fail: no fallback is
    /// configured, so one would be a bug.
    fn check(&self, req: Request, p: &Prediction, out: &mut ServeRun) {
        let cell = &self.cells[&self.fingerprints[req.plan]];
        let err = cell
            .iter()
            .map(|&plan| {
                let want = self.reference[plan][usize::from(req.adapter)];
                match p.tier {
                    Tier::Full => (p.ms - want).abs() / want.abs().max(1e-12),
                    Tier::Quantized => q_error(p.ms, want),
                }
            })
            .fold(f64::INFINITY, f64::min);
        let ok = match p.tier {
            Tier::Full => {
                out.max_rel_err = out.max_rel_err.max(err);
                err <= REL_TOL
            }
            Tier::Quantized => {
                out.max_int8_qerr = out.max_int8_qerr.max(err);
                err < INT8_QERR
            }
        };
        out.checks += 1;
        if !ok || p.degraded {
            out.check_failures += 1;
        }
    }
}

/// One request as the client issued it.
#[derive(Clone, Copy)]
struct Request {
    plan: usize,
    adapter: bool,
    tenant: Option<usize>,
    fast: bool,
}

/// What one measured serving window produced.
#[derive(Default)]
pub struct ServeRun {
    /// Requests submitted in the window.
    pub attempted: u64,
    /// Requests refused or failed by the server (shed, expired, errors).
    pub errors: u64,
    /// Shed at admission.
    pub shed: u64,
    /// Expired in the queue.
    pub expired: u64,
    /// Answers checked against the reference estimator.
    pub checks: u64,
    /// Answers that failed a check.
    pub check_failures: u64,
    /// Largest relative error of a full-precision answer.
    pub max_rel_err: f64,
    /// Largest q-error of an int8 answer against full precision.
    pub max_int8_qerr: f64,
    /// Client-counted answers (warm-up included) equal the server's
    /// `completed` counter.
    pub completed_agrees: bool,
    /// Process CPU seconds over the window (drain of in-flight included).
    pub cpu_s: f64,
    /// Process CPU µs per request in each [`SLICE`] of the window.
    pub cpu_us_per_op: Vec<f64>,
    /// Wall seconds over the window.
    pub wall_s: f64,
    /// Hypervisor steal share over the window.
    pub steal_share: f64,
    /// Per answered request: µs from scheduled send (open loop) or submit
    /// (closed loop) to the answer being observed.
    pub latency_us: Vec<f32>,
    /// Traced only, per request: µs spent inside `submit*`.
    pub submit_us: Vec<f32>,
    /// Open loop only: µs the generator sent each request after its
    /// scheduled time.
    pub late_us: Vec<f32>,
    /// Traced only, per answered request: client latency minus the
    /// server's stages.
    pub unattributed_us: Vec<f32>,
    /// Requests the int8 tier answered.
    pub quantized: u64,
    /// Requests moved between shards by work stealing.
    pub steals: u64,
    /// The server's own metrics (warm-up included).
    pub snapshot: Option<MetricsSnapshot>,
    /// Spans recorded while tracing.
    pub events: Vec<Event>,
    /// Tracing was on.
    traced: bool,
}

impl ServeRun {
    /// Answered requests.
    pub fn answered(&self) -> u64 {
        self.latency_us.len() as u64
    }

    /// Errors plus failed checks.
    pub fn failed(&self) -> u64 {
        self.errors + self.check_failures
    }
}

/// Run one serving window of `secs` seconds (plus warm-up) on a fresh
/// server, with `dace_obs` tracing on if `traced`.
pub fn run(world: &World, traffic: &Traffic, seed: u64, secs: f64, traced: bool) -> ServeRun {
    let registry = Arc::new(ModelRegistry::new(world.est.clone()));
    registry
        .install_adapter(ADAPTER, &world.adapter)
        .expect("the adapter was tuned on this base model");
    let config = ServeConfig {
        fast_tier_deadline: traffic.cold.then_some(FAST_TIER),
        ..ServeConfig::default()
    };
    let server = DaceServer::new(registry, config);
    let tenants: Vec<String> = (0..COLD_TENANTS)
        .map(|t| format!("tenant-{t:02}"))
        .collect();
    let mut rng = seeded_rng(seed, if traced { 5 } else { 4 });
    // The open loop walks the variants in order from a seeded offset, so a
    // variant recurs only after all the others: far past the cache's reach.
    let mut cursor = rng.gen_range(0..traffic.plans.len());
    let mut next = || {
        cursor = (cursor + 1) % traffic.plans.len();
        if traffic.cold {
            Request {
                plan: cursor,
                adapter: false,
                tenant: Some(rng.gen_range(0..COLD_TENANTS)),
                fast: rng.gen_range(0..4) == 0,
            }
        } else {
            Request {
                plan: rng.gen_range(0..traffic.plans.len()),
                adapter: rng.gen_range(0..4) == 0,
                tenant: None,
                fast: false,
            }
        }
    };
    let submit = |req: Request| {
        server.submit_for(
            req.tenant.map(|t| tenants[t].as_str()),
            &traffic.plans[req.plan],
            req.adapter.then_some(ADAPTER),
            req.fast.then_some(FAST_DEADLINE),
        )
    };

    // Warm-up: every hot plan once on each model, then unmeasured traffic
    // of the workload's own shape.
    let mut warm = ServeRun::default();
    if !traffic.cold {
        for plan in 0..traffic.plans.len() {
            for adapter in [false, true] {
                let req = Request {
                    plan,
                    adapter,
                    tenant: None,
                    fast: false,
                };
                let sent = Instant::now();
                let res = submit(req).and_then(PredictionHandle::wait);
                record(traffic, req, sent, res, &mut warm);
            }
        }
    }
    drive(traffic, &submit, &mut next, WARMUP, &mut warm);

    dace_obs::set_tracing(traced);
    let mut out = ServeRun {
        traced,
        ..ServeRun::default()
    };
    let ticks = cpu_ticks();
    let cpu = process_cpu_s();
    let started = Instant::now();
    drive(
        traffic,
        &submit,
        &mut next,
        Duration::from_secs_f64(secs),
        &mut out,
    );
    out.wall_s = started.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu;
    out.steal_share = steal_share(ticks, cpu_ticks());
    dace_obs::set_tracing(false);
    if traced {
        out.events.extend(FlightRecorder::global().snapshot());
    }
    let snapshot = server.metrics_snapshot();
    out.completed_agrees = snapshot.completed == warm.answered() + out.answered();
    out.steals = server.shard_snapshot().iter().map(|s| s.stolen).sum();
    out.snapshot = Some(snapshot);
    server.shutdown();
    out
}

/// Issue traffic for `dur`, then wait out every request still in flight.
fn drive(
    traffic: &Traffic,
    submit: &dyn Fn(Request) -> Result<PredictionHandle, ServeError>,
    next: &mut dyn FnMut() -> Request,
    dur: Duration,
    out: &mut ServeRun,
) {
    if traffic.cold {
        open_loop(traffic, submit, next, dur, out);
    } else {
        closed_loop(traffic, submit, next, dur, out);
    }
}

/// Timed `submit*`, counted as attempted.
fn timed_submit(
    submit: &dyn Fn(Request) -> Result<PredictionHandle, ServeError>,
    req: Request,
    out: &mut ServeRun,
) -> Result<PredictionHandle, ServeError> {
    out.attempted += 1;
    if !out.traced {
        return submit(req);
    }
    let t = Instant::now();
    let res = {
        let _span = span!("bench_submit");
        submit(req)
    };
    out.submit_us.push(t.elapsed().as_secs_f32() * 1e6);
    res
}

/// Wait for one answer (under a span while tracing).
fn wait(handle: PredictionHandle) -> Result<Prediction, ServeError> {
    let _span = span!("bench_wait");
    handle.wait()
}

/// Book and check one outcome: an answer with its latency from `since`,
/// or an error.
fn record(
    traffic: &Traffic,
    req: Request,
    since: Instant,
    res: Result<Prediction, ServeError>,
    out: &mut ServeRun,
) {
    match res {
        Ok(p) => {
            let latency = since.elapsed().as_secs_f32() * 1e6;
            out.latency_us.push(latency);
            if let (true, Some(s)) = (out.traced, p.stages) {
                let staged = s.queue_wait_us
                    + s.cache_lookup_us
                    + s.featurize_us
                    + s.attention_us
                    + s.mlp_us;
                out.unattributed_us.push(latency - staged as f32);
            }
            if p.tier == Tier::Quantized {
                out.quantized += 1;
            }
            traffic.check(req, &p, out);
        }
        Err(e) => {
            out.errors += 1;
            match e {
                ServeError::Overloaded => out.shed += 1,
                ServeError::DeadlineExceeded => out.expired += 1,
                _ => {}
            }
        }
    }
}

/// One client thread keeps [`HOT_IN_FLIGHT`] requests outstanding and
/// waits for them in submission order.
fn closed_loop(
    traffic: &Traffic,
    submit: &dyn Fn(Request) -> Result<PredictionHandle, ServeError>,
    next: &mut dyn FnMut() -> Request,
    dur: Duration,
    out: &mut ServeRun,
) {
    let end = Instant::now() + dur;
    let mut slices = CpuSlices::new(SLICE);
    let mut in_flight: VecDeque<(Request, Instant, PredictionHandle)> = VecDeque::new();
    loop {
        if Instant::now() < end {
            while in_flight.len() < HOT_IN_FLIGHT {
                let req = next();
                let sent = Instant::now();
                match timed_submit(submit, req, out) {
                    Ok(h) => in_flight.push_back((req, sent, h)),
                    Err(e) => record(traffic, req, sent, Err(e), out),
                }
                if out.traced && out.attempted.is_multiple_of(DRAIN_EVERY) {
                    out.events.extend(FlightRecorder::global().snapshot());
                }
            }
        }
        let Some((req, sent, handle)) = in_flight.pop_front() else {
            break;
        };
        record(traffic, req, sent, wait(handle), out);
        slices.tick(out.answered());
    }
    out.cpu_us_per_op = slices.per_op_us;
}

/// The generator (this thread) sends on a fixed schedule, sleeping until
/// each send is due; a second thread waits for the answers in send order.
/// Latency runs from the scheduled send time, so a stall also bills the
/// requests queued behind it.
fn open_loop(
    traffic: &Traffic,
    submit: &dyn Fn(Request) -> Result<PredictionHandle, ServeError>,
    next: &mut dyn FnMut() -> Request,
    dur: Duration,
    out: &mut ServeRun,
) {
    let period = Duration::from_nanos(1_000_000_000 / COLD_RATE);
    let sends = (dur.as_nanos() / period.as_nanos()) as u32;
    let (tx, rx) = mpsc::channel::<(Request, Instant, PredictionHandle)>();
    let mut waited = ServeRun {
        traced: out.traced,
        ..ServeRun::default()
    };
    std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            for (req, due, handle) in rx {
                record(traffic, req, due, wait(handle), &mut waited);
                if waited.traced && waited.answered().is_multiple_of(DRAIN_EVERY) {
                    waited.events.extend(FlightRecorder::global().snapshot());
                }
            }
        });
        let start = Instant::now();
        let mut slices = CpuSlices::new(SLICE);
        for k in 0..sends {
            let due = start + period * k;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            out.late_us.push(due.elapsed().as_secs_f32() * 1e6);
            let req = next();
            match timed_submit(submit, req, out) {
                Ok(h) => tx
                    .send((req, due, h))
                    .expect("the waiter outlives the generator"),
                Err(e) => record(traffic, req, due, Err(e), out),
            }
            slices.tick(u64::from(k) + 1);
        }
        out.cpu_us_per_op = slices.per_op_us;
        drop(tx);
        waiter.join().expect("the waiter thread does not panic");
    });
    out.errors += waited.errors;
    out.shed += waited.shed;
    out.expired += waited.expired;
    out.quantized += waited.quantized;
    out.checks += waited.checks;
    out.check_failures += waited.check_failures;
    out.max_rel_err = out.max_rel_err.max(waited.max_rel_err);
    out.max_int8_qerr = out.max_int8_qerr.max(waited.max_int8_qerr);
    out.latency_us.append(&mut waited.latency_us);
    out.unattributed_us.append(&mut waited.unattributed_us);
    out.events.append(&mut waited.events);
}
