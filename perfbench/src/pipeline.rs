//! Inputs shared by the workloads: the seeded graph, trained models, and
//! output checksums.

use fact_discovery::DiscoveredFact;
use kgfd_embed::{KgeModel, LossKind, ModelKind, OptimizerKind, TrainConfig, TrainSession};
use kgfd_kg::{Dataset, TripleStore};
use std::time::Instant;

/// Embedding width of every model the benchmark trains.
pub const DIM: usize = 64;

/// Epochs the set-up trains each model that discovery or serving uses.
pub const SETUP_EPOCHS: usize = 3;

/// The `fb15k237 --scale standard` graph with its generator seeded from the
/// workload seed. Returns the dataset and the generation time in ms.
pub fn graph(seed: u64) -> (Dataset, f64) {
    let mut profile = kgfd_datasets::fb15k237_like();
    profile.seed = seed;
    let t = Instant::now();
    let data = kgfd_datasets::generate(&profile).expect("the built-in profile is valid");
    (data, t.elapsed().as_secs_f64() * 1e3)
}

/// The configuration `kgfd train --model <kind> --dim 64 --threads 1`
/// trains with (the CLI's defaults: BCE loss, batch 256, 4 negatives, Adam
/// at 0.01, unit-norm entities for TransE).
pub fn train_config(kind: ModelKind, seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig {
        dim: DIM,
        epochs,
        batch_size: 256,
        negatives: 4,
        loss: LossKind::BinaryCrossEntropy,
        optimizer: OptimizerKind::Adam { lr: 0.01 },
        filter_negatives: true,
        normalize_entities: kind == ModelKind::TransE,
        adversarial_temperature: None,
        seed,
        threads: 1,
    }
}

/// Trains `kind` on `store` for [`SETUP_EPOCHS`] epochs.
pub fn trained(kind: ModelKind, store: &TripleStore, seed: u64) -> Box<dyn KgeModel> {
    let config = train_config(kind, seed, SETUP_EPOCHS);
    let mut session = TrainSession::new(kind, store, &config).expect("valid training config");
    while !session.is_complete() {
        session.run_epoch();
    }
    session.into_model().0
}

/// FNV-1a checksum of a fact list: ids and rank bit patterns, in order.
pub fn fact_checksum(facts: &[DiscoveredFact]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in facts {
        eat(&f.triple.subject.0.to_le_bytes());
        eat(&f.triple.relation.0.to_le_bytes());
        eat(&f.triple.object.0.to_le_bytes());
        eat(&f.rank.to_bits().to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgfd_kg::{EntityId, RelationId, Triple};

    #[test]
    fn a_corrupted_fact_changes_the_checksum() {
        // Must-fail: one flipped rank bit is caught.
        let fact = |s: u32, rank: f64| DiscoveredFact {
            triple: Triple {
                subject: EntityId(s),
                relation: RelationId(1),
                object: EntityId(2),
            },
            rank,
        };
        let good = vec![fact(0, 3.5), fact(1, 7.0)];
        let mut bad = good.clone();
        bad[1].rank = f64::from_bits(bad[1].rank.to_bits() ^ 1);
        assert_eq!(fact_checksum(&good), fact_checksum(&good.clone()));
        assert_ne!(fact_checksum(&good), fact_checksum(&bad));
        let mut swapped = good.clone();
        swapped.swap(0, 1);
        assert_ne!(
            fact_checksum(&good),
            fact_checksum(&swapped),
            "order matters"
        );
    }
}
