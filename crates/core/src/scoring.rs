//! Candidate-set scoring: the optimizer-facing batched inference session.
//!
//! Plan search asks a different question than serving: not "how long will
//! this finished plan take" once, but "which of these hundreds of candidate
//! sub-plans is cheapest" thousands of times per query. A [`ScoreSession`]
//! amortizes that traffic — it owns a persistent [`Workspace`] plus the
//! root/output scratch vectors, so every batch after the first runs the
//! root-only forward ([`DaceModel::predict_roots_timed_ws`]) without
//! allocating, and it accumulates the
//! throughput counters (sub-plans scored, forward wall time) that the
//! plan-search experiments report.
//!
//! [`DaceModel::predict_roots_timed_ws`]: crate::DaceModel::predict_roots_timed_ws

use std::time::Instant;

use dace_plan::PlanTree;

use crate::featurize::PlanFeatures;
use crate::model::ForwardTimings;
use crate::trainer::DaceEstimator;
use dace_nn::Workspace;

/// A reusable batched-scoring session bound to one estimator.
///
/// Scores come back in candidate order as predicted latency in
/// milliseconds; per-plan results are bit-identical whatever the batch
/// composition (the root-only attention works on each plan's own rows and
/// the matmul kernels are row-independent), which is what lets the search
/// memo reuse a score computed in one batch for a duplicate sub-tree seen
/// in another.
#[derive(Debug)]
pub struct ScoreSession<'a> {
    est: &'a DaceEstimator,
    ws: Workspace,
    roots: Vec<f32>,
    out: Vec<f64>,
    plans_scored: u64,
    batches: u64,
    forward_timings: ForwardTimings,
    wall_us: u64,
}

impl<'a> ScoreSession<'a> {
    /// A fresh session over `est`; scratch grows to the largest batch seen
    /// and is reused thereafter.
    pub fn new(est: &'a DaceEstimator) -> ScoreSession<'a> {
        ScoreSession {
            est,
            ws: Workspace::new(),
            roots: Vec::new(),
            out: Vec::new(),
            plans_scored: 0,
            batches: 0,
            forward_timings: ForwardTimings::default(),
            wall_us: 0,
        }
    }

    /// The estimator this session scores with.
    pub fn estimator(&self) -> &DaceEstimator {
        self.est
    }

    /// Structural fingerprint of `tree` under this session's featurizer —
    /// the memo key (quantized estimates, scaler-parameter-salted).
    pub fn fingerprint(&self, tree: &PlanTree) -> u64 {
        self.est.featurizer.fingerprint(tree)
    }

    /// Score a candidate batch: featurize each tree and run one chunked
    /// root-only forward. Returns predicted root latencies (ms) in
    /// input order; the slice is valid until the next `score_*` call.
    pub fn score_trees_ms(&mut self, trees: &[&PlanTree]) -> &[f64] {
        let feats: Vec<PlanFeatures> = trees
            .iter()
            .map(|t| self.est.featurizer.encode(t))
            .collect();
        let refs: Vec<&PlanFeatures> = feats.iter().collect();
        self.score_features_ms_inner(&refs);
        &self.out
    }

    /// Score already-featurized candidates (the memo-miss path, where the
    /// driver featurized while deduplicating). Same output contract as
    /// [`ScoreSession::score_trees_ms`].
    pub fn score_features_ms(&mut self, feats: &[&PlanFeatures]) -> &[f64] {
        self.score_features_ms_inner(feats);
        &self.out
    }

    fn score_features_ms_inner(&mut self, feats: &[&PlanFeatures]) {
        if feats.is_empty() {
            self.out.clear();
            return;
        }
        let start = Instant::now();
        let timings = self.est.predict_features_batch_ms_timed_ws(
            feats,
            &mut self.ws,
            &mut self.roots,
            &mut self.out,
        );
        self.wall_us += start.elapsed().as_micros() as u64;
        self.forward_timings.accumulate(timings);
        self.plans_scored += feats.len() as u64;
        self.batches += 1;
    }

    /// Sub-plans scored across the session's lifetime.
    pub fn plans_scored(&self) -> u64 {
        self.plans_scored
    }

    /// Forward batches run.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Accumulated attention/MLP wall-time split across all batches.
    pub fn forward_timings(&self) -> ForwardTimings {
        self.forward_timings
    }

    /// Total wall time spent inside scoring calls (µs).
    pub fn wall_us(&self) -> u64 {
        self.wall_us
    }

    /// Sub-plan scores per second of scoring wall time (0 before the first
    /// batch).
    pub fn scores_per_sec(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        self.plans_scored as f64 / (self.wall_us as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{TrainConfig, Trainer};
    use dace_plan::{Dataset, LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, TreeBuilder};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A minimal learnable corpus (scan → join trees with varying costs).
    fn corpus(n: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let plans = (0..n)
            .map(|_| {
                let mut b = TreeBuilder::new();
                let cost = rng.gen_range(10.0..10_000.0f64);
                let rows = cost * rng.gen_range(5.0..15.0);
                let scan = {
                    let mut node = PlanNode::new(NodeType::SeqScan, OpPayload::Other);
                    node.est_cost = cost;
                    node.est_rows = rows;
                    node.actual_ms = cost * 0.004;
                    node.actual_rows = rows;
                    b.leaf(node)
                };
                let root = {
                    let mut node = PlanNode::new(NodeType::HashJoin, OpPayload::Other);
                    node.est_cost = cost * 2.0;
                    node.est_rows = rows;
                    node.actual_ms = cost * 0.01;
                    node.actual_rows = rows;
                    b.internal(node, vec![scan])
                };
                LabeledPlan {
                    tree: b.finish(root),
                    db_id: 0,
                    machine: MachineId::M1,
                }
            })
            .collect();
        Dataset::from_plans(plans)
    }

    fn tiny_estimator() -> (DaceEstimator, Dataset) {
        let data = corpus(60, 11);
        let est = Trainer::new(TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        })
        .fit(&data)
        .expect("fit");
        (est, data)
    }

    #[test]
    fn session_scores_match_one_shot_batch_api() {
        let (est, data) = tiny_estimator();
        let trees: Vec<&PlanTree> = data.plans.iter().take(16).map(|p| &p.tree).collect();
        let expect = est.predict_batch_ms(&trees);
        let mut sess = ScoreSession::new(&est);
        let got = sess.score_trees_ms(&trees).to_vec();
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert!(
                (g - e).abs() < 1e-9,
                "session score {g} != batch API score {e}"
            );
        }
        assert_eq!(sess.plans_scored(), 16);
        assert_eq!(sess.batches(), 1);
    }

    #[test]
    fn scores_are_batch_composition_invariant() {
        // The memo's correctness hinges on this: a sub-plan's score must not
        // depend on what else shared its batch.
        let (est, data) = tiny_estimator();
        let trees: Vec<&PlanTree> = data.plans.iter().take(12).map(|p| &p.tree).collect();
        let mut sess = ScoreSession::new(&est);
        let all = sess.score_trees_ms(&trees).to_vec();
        for (i, t) in trees.iter().enumerate() {
            let solo = sess.score_trees_ms(&[t])[0];
            assert!(
                (solo - all[i]).abs() < 1e-9,
                "plan {i}: solo {solo} != batched {}",
                all[i]
            );
        }
    }

    #[test]
    fn throughput_counters_accumulate() {
        let (est, data) = tiny_estimator();
        let trees: Vec<&PlanTree> = data.plans.iter().take(8).map(|p| &p.tree).collect();
        let mut sess = ScoreSession::new(&est);
        sess.score_trees_ms(&trees);
        sess.score_trees_ms(&trees[..4]);
        assert_eq!(sess.plans_scored(), 12);
        assert_eq!(sess.batches(), 2);
        assert!(sess.wall_us() > 0);
        assert!(sess.scores_per_sec() > 0.0);
        // Empty batches are free and uncounted.
        sess.score_trees_ms(&[]);
        assert_eq!(sess.batches(), 2);
    }
}
