//! Per-layer figures for the traced run: `dace-core` and `dace-nn` calls
//! timed from outside on the workload's own plans, and span self times
//! derived from the flight recorder.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use dace_core::{
    DaceEstimator, ForwardTimings, PlanFeatures, QuantWorkspace, QuantizedEstimator, Workspace,
    ENCODING_DIM, FEATURE_DIM,
};
use dace_nn::Tensor2;
use dace_obs::{span_name, Event};
use dace_plan::PlanTree;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::host::{median, seeded_rng};

/// Plans per packed batch in the forward probes (the serve `max_batch`).
const PACK: usize = 32;
/// Each probe is repeated this many times and the median kept.
const REPEATS: usize = 5;
/// Minimum wall time of one probe repetition, seconds.
const MIN_PROBE_S: f64 = 0.03;
/// Width of the attention projections and of the MLP's first layers
/// (`dace-core` model dimensions).
const D_PROJ: usize = 128;

/// Median over [`REPEATS`] of the µs per item of `f`, which processes
/// `items` items per call; each repetition loops `f` for
/// [`MIN_PROBE_S`].
fn probe(items: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            let mut calls = 0usize;
            while calls == 0 || t.elapsed().as_secs_f64() < MIN_PROBE_S {
                f();
                calls += 1;
            }
            t.elapsed().as_secs_f64() * 1e6 / (calls * items) as f64
        })
        .collect();
    median(&samples)
}

/// Model-layer figures on `plans`.
pub struct CoreProbe {
    /// `Featurizer::encode`, µs per plan.
    pub featurize_us: f64,
    /// `Featurizer::fingerprint`, µs per plan.
    pub fingerprint_us: f64,
    /// One-plan `predict_features_batch_ms`, µs per plan.
    pub single_us: f64,
    /// `predict_features_batch_ms` in batches of [`PACK`], µs per plan.
    pub packed_us: f64,
    /// Bytes that path allocates per plan (its fresh workspace per call).
    /// Whether those allocations page-fault depends on the allocator's
    /// state (a grown heap serves them without), which moves `packed_us`
    /// between processes; the byte count does not.
    pub packed_alloc_bytes: f64,
    /// One-plan forward over reused scratch, µs per plan.
    pub single_ws_us: f64,
    /// Forward in batches of [`PACK`] over reused scratch, µs per plan.
    pub packed_ws_us: f64,
    /// Attention share of the packed forward, µs per plan.
    pub attention_us: f64,
    /// MLP share of the packed forward, µs per plan.
    pub mlp_us: f64,
    /// Int8 packed forward in batches of [`PACK`], µs per plan.
    pub int8_packed_us: f64,
    /// Mean nodes per plan.
    pub mean_nodes: f64,
}

/// Time the `dace-core` entry points the serve worker calls.
pub fn core(est: &DaceEstimator, plans: &[PlanTree]) -> CoreProbe {
    let featurize_us = probe(plans.len(), || {
        for t in plans {
            black_box(est.featurizer.encode(black_box(t)));
        }
    });
    let fingerprint_us = probe(plans.len(), || {
        for t in plans {
            black_box(est.featurizer.fingerprint(black_box(t)));
        }
    });
    let feats: Vec<PlanFeatures> = plans.iter().map(|t| est.featurizer.encode(t)).collect();
    let refs: Vec<&PlanFeatures> = feats.iter().collect();
    // The public batch entry point, which sets up a fresh workspace per
    // call (the path the packed-batch slowdown was first measured on)...
    let single_us = probe(refs.len(), || {
        for f in &refs {
            black_box(est.predict_features_batch_ms(std::slice::from_ref(f)));
        }
    });
    let mut timings = ForwardTimings::default();
    let mut packed_plans = 0usize;
    let packed_us = probe(refs.len(), || {
        for chunk in refs.chunks(PACK) {
            let (preds, t) = est.predict_features_batch_ms_timed(chunk);
            timings.accumulate(t);
            black_box(preds);
        }
        packed_plans += refs.len();
    });
    let before = crate::allocated_bytes();
    for chunk in refs.chunks(PACK) {
        black_box(est.predict_features_batch_ms(chunk));
    }
    let packed_alloc_bytes = (crate::allocated_bytes() - before) as f64 / refs.len().max(1) as f64;
    // ...and the serve worker's path over reused scratch.
    let (mut ws, mut roots, mut out) = (Workspace::new(), Vec::new(), Vec::new());
    let single_ws_us = probe(refs.len(), || {
        for f in &refs {
            est.predict_features_batch_ms_timed_ws(
                std::slice::from_ref(f),
                &mut ws,
                &mut roots,
                &mut out,
            );
            black_box(&out);
        }
    });
    let packed_ws_us = probe(refs.len(), || {
        for chunk in refs.chunks(PACK) {
            est.predict_features_batch_ms_timed_ws(chunk, &mut ws, &mut roots, &mut out);
            black_box(&out);
        }
    });
    let quant = QuantizedEstimator::from_estimator(est);
    let mut qws = QuantWorkspace::default();
    let int8_packed_us = probe(refs.len(), || {
        for chunk in refs.chunks(PACK) {
            quant.predict_features_batch_ms_timed_ws(chunk, &mut qws, &mut roots, &mut out);
            black_box(&out);
        }
    });
    let per_plan = |us: u64| us as f64 / packed_plans.max(1) as f64;
    CoreProbe {
        featurize_us,
        fingerprint_us,
        single_us,
        packed_us,
        packed_alloc_bytes,
        single_ws_us,
        packed_ws_us,
        attention_us: per_plan(timings.attention_us),
        mlp_us: per_plan(timings.mlp_us),
        int8_packed_us,
        mean_nodes: plans.iter().map(PlanTree::len).sum::<usize>() as f64
            / plans.len().max(1) as f64,
    }
}

/// One matmul shape: µs per call, achieved GFLOP/s and bytes moved.
/// Operation counts (2·m·k·n) and bytes (4 per f32 of A, B and C, each
/// touched once) come from the tensor sizes, not from hardware counters.
pub struct Matmul {
    /// µs per `matmul_into` call.
    pub us: f64,
    /// 2·m·k·n ÷ time.
    pub gflops: f64,
    /// 4·(m·k + k·n + m·n).
    pub bytes: f64,
}

fn matmul(m: usize, k: usize, n: usize, rng: &mut SmallRng) -> Matmul {
    let mut fill = |r: usize, c: usize| {
        Tensor2::from_vec(r, c, (0..r * c).map(|_| rng.gen::<f32>() - 0.5).collect())
    };
    let (a, b) = (fill(m, k), fill(k, n));
    let mut c = Tensor2::zeros(m, n);
    let us = probe(1, || {
        a.matmul_into(black_box(&b), &mut c);
        black_box(&c);
    });
    Matmul {
        us,
        gflops: 2.0 * (m * k * n) as f64 / (us * 1e3),
        bytes: (4 * (m * k + k * n + m * n)) as f64,
    }
}

/// The two matmul shapes a packed batch of [`PACK`] plans runs: the
/// attention projections (every node row × features → 128) and the MLP's
/// 128 → 64 layer (one root row per plan).
pub fn kernels(mean_nodes: f64, seed: u64) -> (Matmul, Matmul) {
    let mut rng = seeded_rng(seed, 7);
    let rows = ((PACK as f64 * mean_nodes).round() as usize).max(PACK);
    (
        matmul(rows, FEATURE_DIM, D_PROJ, &mut rng),
        matmul(PACK, D_PROJ, ENCODING_DIM, &mut rng),
    )
}

/// Self time per span name, µs: each span's duration minus its direct
/// children's (same thread, one level deeper, started inside it).
pub fn self_times(events: &[Event]) -> HashMap<&'static str, f64> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].thread, events[i].t_us, events[i].depth));
    let mut child_us = vec![0u64; events.len()];
    let mut open: Vec<Option<usize>> = Vec::new();
    let mut thread = None;
    for &i in &order {
        let ev = events[i];
        if thread != Some(ev.thread) {
            thread = Some(ev.thread);
            open.clear();
        }
        let depth = ev.depth as usize;
        if depth > 0 {
            if let Some(Some(parent)) = open.get(depth - 1) {
                let p = events[*parent];
                if ev.t_us < p.t_us + p.dur_us.max(1) {
                    child_us[*parent] += ev.dur_us;
                }
            }
        }
        if open.len() <= depth {
            open.resize(depth + 1, None);
        }
        open[depth] = Some(i);
        open.truncate(depth + 1);
    }
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        *out.entry(span_name(ev.name_id)).or_default() +=
            ev.dur_us.saturating_sub(child_us[i]) as f64;
    }
    out
}
