//! The set-up every workload shares, timed as `setup_s`: generate the
//! database, collect labelled plans for seeded queries, pre-train the base
//! estimator and LoRA fine-tune an adapter on a shifted copy.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dace_catalog::{generate_database, suite_specs, Database};
use dace_core::{DaceEstimator, LoraAdapter, TrainConfig, Trainer};
use dace_engine::collect_dataset;
use dace_obs::{EpochRecord, RunSink};
use dace_plan::{Dataset, MachineId};
use dace_query::{ComplexWorkloadGen, Query};
use dace_serve::q_error;
use rand::Rng;

use crate::host::{process_cpu_s, seeded_rng};

/// Database from the paper's suite (the IMDB-like snowflake) and its scale.
const DB_INDEX: usize = 0;
const DB_SCALE: f64 = 0.1;
/// Joins per collected query at most (the generator's default).
const MAX_JOINS: usize = 5;
/// Labelled plans per join count (0..=MAX_JOINS) used for pre-training,
/// and held out for q-error.
const TRAIN_PER_SIZE: usize = 170;
const HELDOUT_PER_SIZE: usize = 170;
/// Epochs of pre-training and of the adapter fine-tune (on a shifted copy
/// of the training plans). The first epoch of each also featurizes and
/// packs, so only the later ones are timed per plan.
const TRAIN_EPOCHS: usize = 8;
const FINETUNE_EPOCHS: usize = 6;
const FINETUNE_LR: f32 = 2e-3;
/// Latency multiplier of the adapter's target "machine".
const SHIFT: f64 = 8.0;

/// Everything a workload runs against.
pub struct World {
    /// The generated database.
    pub db: Database,
    /// Pre-training plans.
    pub train: Dataset,
    /// The pre-trained base estimator.
    pub est: DaceEstimator,
    /// The LoRA adapter tuned on the shifted copy.
    pub adapter: LoraAdapter,
    /// `est` with `adapter` applied: the reference for adapter answers.
    pub tuned: DaceEstimator,
}

/// What one set-up cost, and what it trained.
pub struct SetupCost {
    /// Wall time of the whole set-up.
    pub wall_s: f64,
    /// Process CPU of each timed pre-training epoch ÷ plans, µs.
    pub train_cpu_us_per_plan: Vec<f64>,
    /// Process CPU of each timed fine-tune epoch ÷ plans, µs.
    pub finetune_cpu_us_per_plan: Vec<f64>,
    /// Held-out q-error of the base estimator, one per held-out plan.
    pub qerrs: Vec<f64>,
    /// Per-epoch telemetry of pre-training.
    pub train_epochs: Vec<EpochRecord>,
    /// Per-epoch telemetry of the fine-tune.
    pub finetune_epochs: Vec<EpochRecord>,
}

/// Build the world for `seed`. Deterministic in `seed` apart from timings.
pub fn build(seed: u64) -> (World, SetupCost) {
    let started = Instant::now();
    let db = generate_database(&suite_specs()[DB_INDEX], DB_SCALE);
    let mut sizes = queries_by_size(
        &db,
        seeded_rng(seed, 1).gen::<u64>(),
        MAX_JOINS,
        TRAIN_PER_SIZE + HELDOUT_PER_SIZE,
    );
    let heldout: Vec<Vec<Query>> = sizes
        .iter_mut()
        .map(|q| q.split_off(TRAIN_PER_SIZE))
        .collect();
    let train = collect_dataset(&db, &interleave(sizes), MachineId::M1);
    let heldout = collect_dataset(&db, &interleave(heldout), MachineId::M1);

    let sink = Arc::new(EpochCpuSink::default());
    let est = Trainer::with_sink(
        TrainConfig {
            epochs: TRAIN_EPOCHS,
            seed: seed ^ 0xDACE,
            ..TrainConfig::default()
        },
        Arc::clone(&sink) as Arc<dyn RunSink>,
    )
    .fit(&train)
    .expect("the collected corpus is non-empty");

    let mut shifted = train.clone();
    for p in &mut shifted.plans {
        for id in p.tree.ids().collect::<Vec<_>>() {
            p.tree.node_mut(id).actual_ms *= SHIFT;
        }
    }
    let ft_sink = EpochCpuSink::default();
    let mut tuned = est.clone();
    tuned
        .fine_tune_lora_with_sink(
            &shifted,
            FINETUNE_EPOCHS,
            FINETUNE_LR,
            Some(&ft_sink as &dyn RunSink),
        )
        .expect("the shifted corpus is non-empty");
    let adapter = tuned.extract_adapter();

    let qerrs: Vec<f64> = heldout
        .plans
        .iter()
        .map(|p| q_error(est.predict_ms(&p.tree), p.latency_ms()))
        .collect();
    let cost = SetupCost {
        wall_s: started.elapsed().as_secs_f64(),
        train_cpu_us_per_plan: sink.per_plan_us(train.len()),
        finetune_cpu_us_per_plan: ft_sink.per_plan_us(shifted.len()),
        qerrs,
        train_epochs: sink.records(),
        finetune_epochs: ft_sink.records(),
    };
    let world = World {
        db,
        train,
        est,
        adapter,
        tuned,
    };
    (world, cost)
}

/// `per_size` seeded queries for each join count in `0..=max_joins`: the
/// seed varies the queries but not the size mix, and so not how much work
/// a run does.
pub fn queries_by_size(
    db: &Database,
    seed: u64,
    max_joins: usize,
    per_size: usize,
) -> Vec<Vec<Query>> {
    let mut sizes: Vec<Vec<Query>> = vec![Vec::new(); max_joins + 1];
    for round in 0u64.. {
        if sizes.iter().all(|s| s.len() == per_size) {
            break;
        }
        assert!(
            round < 1000,
            "the database cannot host a {max_joins}-join query"
        );
        let gen = ComplexWorkloadGen {
            seed: seeded_rng(seed, round).gen::<u64>(),
            max_joins,
            ..ComplexWorkloadGen::default()
        };
        for q in gen.generate(db, 256) {
            if let Some(s) = sizes.get_mut(q.joins.len()) {
                if s.len() < per_size {
                    s.push(q);
                }
            }
        }
    }
    sizes
}

/// Round-robin over the size classes, so every prefix mixes sizes.
pub fn interleave(sizes: Vec<Vec<Query>>) -> Vec<Query> {
    let mut iters: Vec<_> = sizes.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::new();
    loop {
        let before = out.len();
        out.extend(iters.iter_mut().filter_map(Iterator::next));
        if out.len() == before {
            return out;
        }
    }
}

/// Keeps every epoch record and the process CPU clock at each epoch's end.
#[derive(Debug, Default)]
struct EpochCpuSink {
    epochs: Mutex<Vec<(EpochRecord, f64)>>,
}

impl RunSink for EpochCpuSink {
    fn epoch(&self, record: &EpochRecord) {
        let cpu = process_cpu_s();
        self.epochs
            .lock()
            .expect("no epoch callback panics")
            .push((record.clone(), cpu));
    }
}

impl EpochCpuSink {
    fn records(&self) -> Vec<EpochRecord> {
        let epochs = self.epochs.lock().expect("no epoch callback panics");
        epochs.iter().map(|(r, _)| r.clone()).collect()
    }

    /// CPU µs per plan of each epoch after the first.
    fn per_plan_us(&self, plans: usize) -> Vec<f64> {
        let epochs = self.epochs.lock().expect("no epoch callback panics");
        epochs
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) * 1e6 / plans as f64)
            .collect()
    }
}
