//! The `offline` workload: learned plan search, the optimizer's own use of
//! the estimator. Each pass plans every query of a seeded workload with a
//! fresh `LearnedScorer` (so the sub-plan memo lives for one pass, as in a
//! planning session), and passes repeat until the window is spent. Passes
//! are whole, so every run does the same work per query. Search cost grows
//! steeply with join count, so the queries come in a fixed mix of sizes
//! and CPU is charged per scored candidate: the seed then changes which
//! queries run but hardly the figures.

use std::ops::Range;
use std::time::{Duration, Instant};

use dace_engine::{collect_dataset, CostModel, LearnedScorer, PhysPlan, PlanScorer, SearchSession};
use dace_obs::{span, Event, FlightRecorder};
use dace_plan::{MachineId, PlanTree};
use dace_query::Query;
use rand::Rng;

use crate::host::{cpu_ticks, process_cpu_s, seeded_rng, steal_share};
use crate::setup::{interleave, queries_by_size, World};

/// Joins per query at most: wide enough that the DP levels hand the scorer
/// candidate batches of hundreds of sub-plans per query.
const MAX_JOINS: usize = 8;
/// Queries per join count (0..=MAX_JOINS) in one search pass.
const PER_SIZE: usize = 30;
/// Queries whose picks are compared with the memo on and off.
const PICK_CHECK_QUERIES: usize = 20;
/// Relative difference under which two picks count as tied. The memo
/// shares one score across a fingerprint cell, whose estimates differ by
/// up to ~1.6%; the model's answers across such a cell differ by far less.
const PICK_TIE: f64 = 1e-3;
/// Score memo capacity (entries) while searching.
const MEMO_CAPACITY: usize = 1 << 16;

/// The seeded search workload.
pub fn queries(world: &World, seed: u64) -> Vec<Query> {
    interleave(queries_by_size(
        &world.db,
        seeded_rng(seed, 6).gen::<u64>(),
        MAX_JOINS,
        PER_SIZE,
    ))
}

/// The plans the workload's queries execute, 0 to [`MAX_JOINS`] joins,
/// for the model and kernel probes: what a packed forward costs per plan
/// depends on plan size.
pub fn probe_plans(world: &World, queries: &[Query]) -> Vec<PlanTree> {
    collect_dataset(&world.db, queries, MachineId::M1)
        .plans
        .into_iter()
        .map(|p| p.tree)
        .collect()
}

/// Times the wrapped scorer from outside, so scoring can be told apart
/// from enumeration without a span inside the engine.
struct TimedScorer<'a> {
    inner: LearnedScorer<'a>,
    score_s: f64,
}

impl PlanScorer for TimedScorer<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn score(&mut self, cands: &[PhysPlan], groups: &[Range<usize>]) -> Vec<f64> {
        let _span = span!("bench_score");
        let t = Instant::now();
        let scores = self.inner.score(cands, groups);
        self.score_s += t.elapsed().as_secs_f64();
        scores
    }
}

/// What one search window produced.
#[derive(Default)]
pub struct SearchRun {
    /// Queries planned.
    pub queries: u64,
    /// Queries in one pass.
    queries_per_pass: usize,
    /// Queries whose planning failed.
    pub errors: u64,
    /// Picks compared with the memo on and off.
    pub checks: u64,
    /// Compared picks that differed beyond a tie.
    pub check_failures: u64,
    /// Compared picks that differed at all.
    pub memo_pick_mismatches: u64,
    /// Process CPU seconds over the window.
    pub cpu_s: f64,
    /// Process CPU µs per scored candidate of each pass.
    pub cpu_us_per_op: Vec<f64>,
    /// Wall seconds over the window.
    pub wall_s: f64,
    /// Hypervisor steal share over the window.
    pub steal_share: f64,
    /// Wall µs per planned query.
    pub latency_us: Vec<f64>,
    /// Candidates scored, summed over queries.
    pub candidates: u64,
    /// Scoring batches, summed over queries.
    pub batches: u64,
    /// Wall seconds inside the scorer.
    pub score_s: f64,
    /// Memo hits and lookups, summed over passes.
    pub memo_hits: u64,
    /// Memo lookups, summed over passes.
    pub memo_lookups: u64,
    /// Spans recorded while tracing.
    pub events: Vec<Event>,
}

impl SearchRun {
    /// Each query's planning latency averaged over the passes, µs.
    pub fn query_mean_us(&self) -> Vec<f64> {
        let queries = self.queries_per_pass.max(1);
        let passes = self.latency_us.len() / queries;
        (0..queries)
            .map(|q| {
                (0..passes)
                    .map(|p| self.latency_us[p * queries + q])
                    .sum::<f64>()
                    / passes.max(1) as f64
            })
            .collect()
    }
}

/// Plan whole passes over `queries` until `secs` have elapsed (at least
/// one pass), with `dace_obs` tracing on if `traced`.
pub fn run(world: &World, queries: &[Query], secs: f64, traced: bool) -> SearchRun {
    let cm = CostModel::default();
    let session = SearchSession::new(&world.db, &cm);
    let mut out = SearchRun {
        queries_per_pass: queries.len(),
        ..SearchRun::default()
    };
    dace_obs::set_tracing(traced);
    let ticks = cpu_ticks();
    let cpu = process_cpu_s();
    let started = Instant::now();
    while out.queries == 0 || started.elapsed() < Duration::from_secs_f64(secs) {
        let mut scorer = TimedScorer {
            inner: LearnedScorer::new(&world.est, MEMO_CAPACITY),
            score_s: 0.0,
        };
        let (pass_cpu, pass_candidates) = (process_cpu_s(), out.candidates);
        for q in queries {
            let t = Instant::now();
            let res = {
                let _span = span!("bench_plan");
                session.plan(q, &mut scorer)
            };
            out.latency_us.push(t.elapsed().as_secs_f64() * 1e6);
            out.queries += 1;
            match res {
                Ok((_, report)) => {
                    out.candidates += report.candidates_scored as u64;
                    out.batches += report.score_batches as u64;
                }
                Err(_) => out.errors += 1,
            }
            if traced {
                out.events.extend(FlightRecorder::global().snapshot());
            }
        }
        let candidates = (out.candidates - pass_candidates).max(1);
        out.cpu_us_per_op
            .push((process_cpu_s() - pass_cpu) * 1e6 / candidates as f64);
        out.score_s += scorer.score_s;
        out.memo_hits += scorer.inner.memo().hits();
        out.memo_lookups += scorer.inner.memo().hits() + scorer.inner.memo().misses();
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu;
    out.steal_share = steal_share(ticks, cpu_ticks());
    dace_obs::set_tracing(false);
    check_picks(world, queries, &session, &mut out);
    out
}

/// Learned-search picks with the memo on must equal the picks with it off
/// (capacity 0) on a fixed subset of the workload. Memo-on scores come
/// from differently composed batches and are shared within a fingerprint
/// cell, so two candidates that tie to float rounding may swap; such a
/// swap is counted in `memo_pick_mismatches` but fails the check only if
/// the two picks differ in estimated cost or in predicted latency by more
/// than [`PICK_TIE`].
fn check_picks(world: &World, queries: &[Query], session: &SearchSession, out: &mut SearchRun) {
    let mut memo = LearnedScorer::new(&world.est, MEMO_CAPACITY);
    let mut fresh = LearnedScorer::new(&world.est, 0);
    for q in queries.iter().take(PICK_CHECK_QUERIES) {
        let a = session.plan(q, &mut memo).map(|(p, _)| p);
        let b = session.plan(q, &mut fresh).map(|(p, _)| p);
        out.checks += 1;
        match (a, b) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(a), Ok(b)) => {
                out.memo_pick_mismatches += 1;
                let rel = |x: f64, y: f64| (x - y).abs() / y.abs().max(1e-12);
                let (pa, pb) = (
                    world.est.predict_ms(&a.to_plan_tree()),
                    world.est.predict_ms(&b.to_plan_tree()),
                );
                if rel(a.est_cost, b.est_cost) > PICK_TIE || rel(pa, pb) > PICK_TIE {
                    out.check_failures += 1;
                }
            }
            _ => out.check_failures += 1,
        }
    }
}
