//! The quantized fast tier: an int8 twin of [`DaceModel`] built once per
//! registry swap, serving deadline-tight requests at reduced precision.
//!
//! [`QuantizedModel::from_model`] folds each MLP layer's LoRA delta into its
//! base weight and int8-quantizes it (per-output-channel scales). Attention
//! is shared with the full-precision tier: the same f32 root-only
//! [`RootAttention`] runs first, so predictions differ from full precision
//! only by the MLP's quantization error. Construction happens at swap time,
//! never on the request path.

use dace_nn::{QuantRows, QuantizedLinear, Relu, RootAttention, RootScratch, Tensor2};
use std::time::Instant;

use crate::featurize::{Featurizer, PlanFeatures};
use crate::model::{DaceModel, ForwardTimings};
use crate::trainer::DaceEstimator;

/// Reusable scratch for the quantized forward: root attention buffers,
/// quantized activation rows and MLP activations. One per worker; buffers
/// grow to the high-water batch size and then stop allocating — the same
/// steady-state story as the f32 [`Workspace`](dace_nn::Workspace).
#[derive(Debug, Default)]
pub struct QuantWorkspace {
    root: RootScratch,
    rows: QuantRows,
    heads: Tensor2,
    h1: Tensor2,
    h2: Tensor2,
    preds: Tensor2,
}

/// Int8 twin of [`DaceModel`]: the shared f32 root-only attention plus
/// three LoRA-folded quantized MLP layers. Holds no optimizer or training
/// state — inference only, cheap to rebuild on every swap.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    attention: RootAttention,
    l1: QuantizedLinear,
    l2: QuantizedLinear,
    l3: QuantizedLinear,
}

impl QuantizedModel {
    /// Quantize a full-precision model. The current LoRA adapter (if any)
    /// is folded into the MLP base weights, so the twin reflects exactly
    /// the weights the f32 path would serve.
    pub fn from_model(model: &DaceModel) -> QuantizedModel {
        QuantizedModel {
            attention: model.attention.root_attention().clone(),
            l1: QuantizedLinear::from_lora(&model.l1),
            l2: QuantizedLinear::from_lora(&model.l2),
            l3: QuantizedLinear::from_lora(&model.l3),
        }
    }

    /// Weight bytes: the f32 root attention plus the int8 MLP — roughly 4×
    /// below the f32 parameters.
    pub fn bytes(&self) -> usize {
        self.attention.bytes() + self.l1.bytes() + self.l2.bytes() + self.l3.bytes()
    }

    /// Quantized twin of [`DaceModel::predict_roots_timed_ws`]: batched
    /// root log-latency inference, appending to `out` (cleared first).
    /// Same root-only attention; only the MLP matmuls run int8.
    pub fn predict_roots_timed_ws(
        &self,
        feats: &[&PlanFeatures],
        ws: &mut QuantWorkspace,
        out: &mut Vec<f32>,
    ) -> ForwardTimings {
        out.clear();
        if feats.is_empty() {
            return ForwardTimings::default();
        }
        let t_attn = Instant::now();
        self.attention.forward_into(
            feats.iter().map(|f| (&f.x, f.root_mask())),
            &mut ws.root,
            &mut ws.heads,
        );
        let attention_us = t_attn.elapsed().as_micros() as u64;
        let t_mlp = Instant::now();
        self.l1.forward_into(&ws.heads, &mut ws.h1, &mut ws.rows);
        Relu::relu_in_place(&mut ws.h1);
        self.l2.forward_into(&ws.h1, &mut ws.h2, &mut ws.rows);
        Relu::relu_in_place(&mut ws.h2);
        self.l3.forward_into(&ws.h2, &mut ws.preds, &mut ws.rows);
        let mlp_us = t_mlp.elapsed().as_micros() as u64;
        out.extend((0..feats.len()).map(|b| ws.preds.get(b, 0)));
        ForwardTimings {
            attention_us,
            mlp_us,
        }
    }
}

/// The fast-tier serving artifact: a [`QuantizedModel`] plus the batch
/// chunking knob, mirroring
/// [`DaceEstimator::predict_features_batch_ms_timed_ws`]. Featurization is
/// shared with the full-precision tier (the serve layer featurizes once and
/// routes features to either tier), so no featurizer is duplicated here.
#[derive(Debug, Clone)]
pub struct QuantizedEstimator {
    /// The int8 network.
    pub model: QuantizedModel,
    batch_plans: usize,
}

impl QuantizedEstimator {
    /// Build the fast tier from a full-precision estimator — called at
    /// every registry swap so the twin never lags the published weights.
    pub fn from_estimator(est: &DaceEstimator) -> QuantizedEstimator {
        QuantizedEstimator {
            model: QuantizedModel::from_model(&est.model),
            batch_plans: est.config.batch_plans,
        }
    }

    /// Quantized twin of
    /// [`DaceEstimator::predict_features_batch_ms_timed_ws`]: chunked
    /// batch prediction in milliseconds over caller-owned scratch,
    /// appended to `out` (cleared first), aligned with `feats`.
    pub fn predict_features_batch_ms_timed_ws(
        &self,
        feats: &[&PlanFeatures],
        ws: &mut QuantWorkspace,
        roots: &mut Vec<f32>,
        out: &mut Vec<f64>,
    ) -> ForwardTimings {
        let chunk = self.batch_plans.max(1);
        out.clear();
        let mut timings = ForwardTimings::default();
        for group in feats.chunks(chunk) {
            let t = self.model.predict_roots_timed_ws(group, ws, roots);
            timings.accumulate(t);
            out.extend(roots.iter().map(|&r| Featurizer::to_ms(r)));
        }
        timings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{TrainConfig, Trainer};
    use dace_plan::{Dataset, LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, TreeBuilder};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn synthetic_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let plans = (0..n)
            .map(|i| {
                let mut b = TreeBuilder::new();
                let kids: Vec<_> = (0..rng.gen_range(1..=3))
                    .map(|_| {
                        let mut n = PlanNode::new(NodeType::SeqScan, OpPayload::Other);
                        n.est_cost = rng.gen_range(10.0..1e4);
                        n.est_rows = rng.gen_range(1.0..1e5);
                        n.actual_ms = rng.gen_range(0.1..50.0);
                        b.leaf(n)
                    })
                    .collect();
                let mut root = PlanNode::new(NodeType::HashJoin, OpPayload::Other);
                root.est_cost = rng.gen_range(100.0..1e5);
                root.est_rows = rng.gen_range(1.0..1e6);
                root.actual_ms = rng.gen_range(1.0..200.0);
                let id = b.internal(root, kids);
                LabeledPlan {
                    tree: b.finish(id),
                    db_id: (i % 4) as u16,
                    machine: MachineId::M1,
                }
            })
            .collect();
        Dataset::from_plans(plans)
    }

    fn quick_estimator(seed: u64) -> DaceEstimator {
        let ds = synthetic_dataset(60, seed);
        Trainer::new(TrainConfig {
            epochs: 3,
            seed,
            ..Default::default()
        })
        .fit(&ds)
        .expect("training")
    }

    fn encode_all(est: &DaceEstimator, ds: &Dataset) -> Vec<PlanFeatures> {
        ds.plans
            .iter()
            .map(|p| est.featurizer.encode(&p.tree))
            .collect()
    }

    #[test]
    fn quantized_estimator_tracks_full_precision_within_qerror_bound() {
        let est = quick_estimator(41);
        let ds = synthetic_dataset(24, 42);
        let feats = encode_all(&est, &ds);
        let refs: Vec<&PlanFeatures> = feats.iter().collect();
        let full = est.predict_features_batch_ms(&refs);
        let q = QuantizedEstimator::from_estimator(&est);
        let mut ws = QuantWorkspace::default();
        let (mut roots, mut out) = (Vec::new(), Vec::new());
        q.predict_features_batch_ms_timed_ws(&refs, &mut ws, &mut roots, &mut out);
        assert_eq!(out.len(), full.len());
        for (a, b) in out.iter().zip(&full) {
            assert!(
                a.is_finite() && *a > 0.0,
                "quantized pred not positive: {a}"
            );
            let q_err = (a / b).max(b / a);
            assert!(q_err < 1.25, "tier divergence too large: {a} vs {b}");
        }
    }

    #[test]
    fn quantized_batching_is_chunk_invariant() {
        let est = quick_estimator(43);
        let ds = synthetic_dataset(10, 44);
        let feats = encode_all(&est, &ds);
        let refs: Vec<&PlanFeatures> = feats.iter().collect();
        let q = QuantizedEstimator::from_estimator(&est);
        let mut small = q.clone();
        small.batch_plans = 3;
        let mut ws = QuantWorkspace::default();
        let (mut roots, mut a, mut b) = (Vec::new(), Vec::new(), Vec::new());
        q.predict_features_batch_ms_timed_ws(&refs, &mut ws, &mut roots, &mut a);
        small.predict_features_batch_ms_timed_ws(&refs, &mut ws, &mut roots, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "chunking changed predictions");
        }
    }

    #[test]
    fn quantized_model_is_smaller_than_f32() {
        let est = quick_estimator(45);
        let q = QuantizedModel::from_model(&est.model);
        let f32_bytes = est.model.base_param_count() * 4;
        assert!(
            q.bytes() * 3 < f32_bytes,
            "quantized twin not smaller: {} vs {}",
            q.bytes(),
            f32_bytes
        );
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let est = quick_estimator(46);
        let q = QuantizedEstimator::from_estimator(&est);
        let mut ws = QuantWorkspace::default();
        let (mut roots, mut out) = (Vec::new(), Vec::new());
        let t = q.predict_features_batch_ms_timed_ws(&[], &mut ws, &mut roots, &mut out);
        assert!(out.is_empty());
        assert_eq!(t, ForwardTimings::default());
    }
}
