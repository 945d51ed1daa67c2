//! Root-only inference equivalence: the batched forward that serving and
//! plan search run ([`DaceModel::predict_roots_timed_ws`], root-only
//! attention) must agree with row 0 of the per-node reference forward
//! ([`DaceModel::predict`]) on every plan shape, mask variant and adapter,
//! and a plan's score must not depend on the rest of its batch — the
//! search memo reuses a score computed in one batch for a duplicate
//! sub-plan seen in another.
//!
//! [`DaceModel::predict_roots_timed_ws`]: dace_core::DaceModel::predict_roots_timed_ws
//! [`DaceModel::predict`]: dace_core::DaceModel::predict

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dace_core::{
    DaceEstimator, DaceModel, FeatureConfig, Featurizer, PlanFeatures, ScoreSession, TrainConfig,
    Trainer, Workspace, FEATURE_DIM,
};
use dace_nn::{RootScratch, Tensor2};
use dace_plan::{
    Dataset, LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, PlanTree, TreeBuilder,
};

/// Largest tolerated |root-only − reference| in log-ms.
const LOG_MS_TOL: f32 = 1e-5;

const SCANS: [NodeType; 3] = [
    NodeType::SeqScan,
    NodeType::IndexScan,
    NodeType::BitmapHeapScan,
];
const JOINS: [NodeType; 3] = [
    NodeType::NestedLoop,
    NodeType::HashJoin,
    NodeType::MergeJoin,
];

fn node(rng: &mut SmallRng, ty: NodeType) -> PlanNode {
    let mut n = PlanNode::new(ty, OpPayload::Other);
    n.est_cost = 10f64.powf(rng.gen_range(-1.0..7.0));
    n.est_rows = 10f64.powf(rng.gen_range(0.0..8.0));
    n.actual_ms = 10f64.powf(rng.gen_range(-2.0..3.0));
    n
}

/// A plan with `joins` binary joins over `joins + 1` scans: left-deep when
/// `bushy` is false, pairwise-balanced when true, sometimes under a Sort.
/// Zero joins and no Sort is a single-node plan.
fn plan(seed: u64, joins: usize, bushy: bool) -> PlanTree {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TreeBuilder::new();
    let mut level: Vec<_> = (0..=joins)
        .map(|_| {
            let ty = SCANS[rng.gen_range(0..SCANS.len())];
            let n = node(&mut rng, ty);
            b.leaf(n)
        })
        .collect();
    while level.len() > 1 {
        let ty = JOINS[rng.gen_range(0..JOINS.len())];
        if bushy {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                next.push(if pair.len() == 2 {
                    let n = node(&mut rng, ty);
                    b.internal(n, pair.to_vec())
                } else {
                    pair[0]
                });
            }
            level = next;
        } else {
            let right = level.remove(1);
            let n = node(&mut rng, ty);
            level[0] = b.internal(n, vec![level[0], right]);
        }
    }
    let mut root = level[0];
    if rng.gen_bool(0.3) {
        let n = node(&mut rng, NodeType::Sort);
        root = b.internal(n, vec![root]);
    }
    b.finish(root)
}

fn dataset(n: usize, seed: u64) -> Dataset {
    let plans = (0..n as u64)
        .map(|i| LabeledPlan {
            tree: plan(seed ^ i, (i % 6) as usize, i % 2 == 0),
            db_id: (i % 3) as u16,
            machine: MachineId::M1,
        })
        .collect();
    Dataset::from_plans(plans)
}

/// A trained estimator, the same estimator with a random non-zero LoRA
/// adapter installed, and a featurizer without tree attention — shared by
/// every property case.
fn fixtures() -> &'static (DaceEstimator, DaceEstimator, Featurizer) {
    static FIXTURES: OnceLock<(DaceEstimator, DaceEstimator, Featurizer)> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let data = dataset(60, 23);
        let est = Trainer::new(TrainConfig {
            epochs: 3,
            seed: 23,
            ..Default::default()
        })
        .fit(&data)
        .expect("training");
        let mut adapter = est.extract_adapter();
        for (i, layer) in adapter.layers.iter_mut().enumerate() {
            let seed = 100 + i as u64;
            layer.b = Tensor2::uniform(layer.b.rows(), layer.b.cols(), 0.1, seed);
            layer.a = Tensor2::uniform(layer.a.rows(), layer.a.cols(), 0.1, seed + 10);
        }
        let tuned = est.with_adapter(&adapter).expect("adapter shapes");
        let no_ta = Featurizer::fit(
            &data,
            FeatureConfig {
                disable_tree_attention: true,
                ..Default::default()
            },
        );
        (est, tuned, no_ta)
    })
}

/// Root log-latency of each plan in one root-only batch.
fn roots(model: &DaceModel, feats: &[&PlanFeatures]) -> Vec<f32> {
    let (mut ws, mut out) = (Workspace::new(), Vec::new());
    model.predict_roots_timed_ws(feats, &mut ws, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Seeded plans with 0–8 joins, left-deep or bushy, with and without
    /// tree attention and a LoRA adapter: root-only equals the reference
    /// forward's row 0.
    #[test]
    fn root_only_matches_reference_row_zero(
        seed in 0u64..100_000,
        joins in 0usize..=8,
        bushy in 0u8..2,
        lora in 0u8..2,
        tree_attention in 0u8..2,
    ) {
        let (bushy, lora, tree_attention) = (bushy == 1, lora == 1, tree_attention == 1);
        let (est, tuned, no_ta) = fixtures();
        let model = if lora { &tuned.model } else { &est.model };
        let featurizer = if tree_attention { &est.featurizer } else { no_ta };
        let feats = featurizer.encode(&plan(seed, joins, bushy));
        let want = model.predict(&feats).get(0, 0);
        let got = roots(model, &[&feats])[0];
        prop_assert!(
            (got - want).abs() <= LOG_MS_TOL,
            "root-only {got} vs reference {want} ({joins} joins, bushy {bushy})"
        );
    }

    /// Hand-built features whose root mask row is arbitrary — non-interval
    /// or fully masked. An allowed set matches the reference; an empty one
    /// gives a zero attention row and a finite prediction.
    #[test]
    fn arbitrary_root_masks_match_or_stay_finite(
        seed in 0u64..100_000,
        n in 1usize..12,
        allowed_bits in 0u32..1 << 12,
    ) {
        let (est, _, _) = fixtures();
        let mut mask = vec![true; n * n];
        for (j, m) in mask[..n].iter_mut().enumerate() {
            *m = allowed_bits >> j & 1 == 1;
        }
        let feats = PlanFeatures {
            x: Tensor2::uniform(n, FEATURE_DIM, 2.0, seed),
            mask,
            heights: vec![0; n],
            targets: vec![0.0; n],
        };
        let got = roots(&est.model, &[&feats])[0];
        prop_assert!(got.is_finite(), "non-finite root prediction {got}");
        if feats.root_mask().contains(&true) {
            let want = est.model.predict(&feats).get(0, 0);
            prop_assert!((got - want).abs() <= LOG_MS_TOL, "root-only {got} vs reference {want}");
        } else {
            let (mut ws, mut attn) = (RootScratch::default(), Tensor2::default());
            est.model.attention.root_attention().forward_into(
                [(&feats.x, feats.root_mask())].into_iter(),
                &mut ws,
                &mut attn,
            );
            prop_assert!(attn.row(0).iter().all(|&v| v == 0.0), "masked root row not zeroed");
        }
    }

    /// A plan scored alone and inside a mixed batch gets bit-identical
    /// scores, on the model and through a [`ScoreSession`].
    #[test]
    fn solo_and_batched_scores_are_bit_identical(
        seed in 0u64..100_000,
        count in 1usize..48,
        lora in 0u8..2,
    ) {
        let (est, tuned, _) = fixtures();
        let est = if lora == 1 { tuned } else { est };
        let trees: Vec<PlanTree> = (0..count as u64)
            .map(|i| plan(seed ^ (i << 20), (i % 9) as usize, i % 3 == 0))
            .collect();
        let feats: Vec<PlanFeatures> = trees.iter().map(|t| est.featurizer.encode(t)).collect();
        let refs: Vec<&PlanFeatures> = feats.iter().collect();
        let batched = roots(&est.model, &refs);
        let tree_refs: Vec<&PlanTree> = trees.iter().collect();
        let mut session = ScoreSession::new(est);
        let batched_ms = session.score_trees_ms(&tree_refs).to_vec();
        for (i, f) in refs.iter().enumerate() {
            let solo = roots(&est.model, &[f])[0];
            prop_assert_eq!(solo.to_bits(), batched[i].to_bits(), "plan {}: solo {} batched {}", i, solo, batched[i]);
            let solo_ms = session.score_trees_ms(&[tree_refs[i]])[0];
            prop_assert_eq!(solo_ms.to_bits(), batched_ms[i].to_bits(), "plan {}", i);
        }
    }
}
