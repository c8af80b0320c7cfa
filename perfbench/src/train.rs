//! `train-epochs`: `TrainSession::run_epoch` for DistMult, TransE and
//! ComplEx at dim 64, one thread.
//!
//! A closed loop in one process. Each round starts a fresh session per
//! model (same seed) and runs [`EPOCHS_PER_ROUND`] epochs, so every round
//! does identical work and must reproduce the same loss bit patterns; the
//! first round is also checked against the one-shot `kgfd_embed::train`.

use crate::pipeline;
use crate::report::Outcome;
use crate::stats::{best, best_of, median, slowest_quarter_mean};
use crate::trace::Tracer;
use kgfd_embed::{ModelKind, TrainSession};
use kgfd_kg::Dataset;
use std::time::Instant;

const MODELS: [ModelKind; 3] = [ModelKind::DistMult, ModelKind::TransE, ModelKind::ComplEx];

/// Epochs each model runs per round.
const EPOCHS_PER_ROUND: usize = 4;

/// One round: per-epoch times (ms) and per-model loss bit patterns.
struct Round {
    epoch_ms: Vec<f64>,
    losses: Vec<Vec<u64>>,
}

fn round(data: &Dataset, seed: u64, mut tracer: Option<&mut Tracer>) -> Round {
    let mut epoch_ms = Vec::new();
    let mut losses = Vec::new();
    if let Some(tr) = tracer.as_deref_mut() {
        tr.enter("train.round");
    }
    for kind in MODELS {
        let config = pipeline::train_config(kind, seed, EPOCHS_PER_ROUND);
        let mut session = match tracer.as_deref_mut() {
            Some(tr) => tr.leaf("embed.session_new", || {
                TrainSession::new(kind, &data.train, &config)
            }),
            None => TrainSession::new(kind, &data.train, &config),
        }
        .expect("valid training config");
        let mut bits = Vec::new();
        for _ in 0..EPOCHS_PER_ROUND {
            let t = Instant::now();
            let loss = match tracer.as_deref_mut() {
                Some(tr) => tr.leaf("embed.epoch", || session.run_epoch()),
                None => session.run_epoch(),
            };
            epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            bits.push(loss.to_bits());
        }
        losses.push(bits);
    }
    if let Some(tr) = tracer {
        tr.exit();
    }
    Round { epoch_ms, losses }
}

pub fn run(seed: u64, seconds: u64, trace: bool, work_dir: &std::path::Path) -> Outcome {
    let mut out = Outcome::default();
    let mut generate_ms = Vec::new();
    let mut setup_secs = Vec::new();
    // The set-up is a few ms, so it is repeated before every round;
    // `setup_s` is the best of those times, like the epochs'.
    let mut setup = || {
        let t = Instant::now();
        let (data, ms) = pipeline::graph(seed);
        // The sessions the loop starts from: model init and triple copy.
        for kind in MODELS {
            let config = pipeline::train_config(kind, seed, EPOCHS_PER_ROUND);
            drop(TrainSession::new(kind, &data.train, &config).expect("valid training config"));
        }
        setup_secs.push(t.elapsed().as_secs_f64());
        generate_ms.push(ms);
        data
    };
    let data = setup();
    let positives_per_epoch = data.train.len() as u64;
    let negatives_per_positive = pipeline::train_config(MODELS[0], seed, 1).negatives as u64;
    let rank_queries0 = kgfd_obs::counter("eval.rank.total_queries").get();
    let pool0 = kgfd_obs::counter("pool.jobs").get();

    let mut tracer = Tracer::new();
    let mut reference: Option<Vec<Vec<u64>>> = None;
    let mut round_ms = Vec::new();
    let mut traced_round_ms = Vec::new();
    // Epoch times per slot (model × epoch index within the round).
    let mut slot_ms: Vec<Vec<f64>> = vec![Vec::new(); MODELS.len() * EPOCHS_PER_ROUND];
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        let traced_now = trace && i % 2 == 1;
        if i > 0 {
            drop(setup());
        }
        let t = Instant::now();
        let r = round(&data, seed, traced_now.then_some(&mut tracer));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.attempted += r.losses.len() as u64;
        match &reference {
            None => reference = Some(r.losses.clone()),
            Some(want) => {
                for (m, (got, want)) in r.losses.iter().zip(want).enumerate() {
                    if got != want {
                        out.failed += 1;
                        out.error(format!(
                            "{}: epoch losses differ between rounds (traced={traced_now})",
                            MODELS[m].name()
                        ));
                    }
                }
            }
        }
        if traced_now {
            traced_round_ms.push(ms);
        } else {
            round_ms.push(ms);
            for (slot, t) in slot_ms.iter_mut().zip(r.epoch_ms) {
                slot.push(t);
            }
        }
        i += 1;
        let projected = start.elapsed().as_secs_f64() + ms / 1e3;
        if projected > seconds as f64 && !(trace && traced_round_ms.is_empty()) {
            break;
        }
    }
    let rank_queries = kgfd_obs::counter("eval.rank.total_queries").get() - rank_queries0;
    let setup_s = best(&setup_secs);
    let pool_jobs = kgfd_obs::counter("pool.jobs").get() - pool0;

    // The one-shot trainer must reproduce the session's epoch losses.
    let reference = reference.expect("at least one round");
    for (m, kind) in MODELS.into_iter().enumerate() {
        let config = pipeline::train_config(kind, seed, EPOCHS_PER_ROUND);
        let (_, stats) = kgfd_embed::train(kind, &data.train, &config);
        let bits: Vec<u64> = stats.epoch_losses.iter().map(|l| l.to_bits()).collect();
        out.check(bits == reference[m], || {
            format!("{}: TrainSession losses differ from train()", kind.name())
        });
        out.counters.insert(
            format!("{}.final_loss_bits", kind.name()),
            *reference[m].last().expect("epochs per round > 0"),
        );
    }
    let round_positives = positives_per_epoch * (MODELS.len() * EPOCHS_PER_ROUND) as u64;
    out.counters
        .insert("round.positives".into(), round_positives);
    out.counters.insert(
        "round.negatives".into(),
        round_positives * negatives_per_positive,
    );
    out.counters.insert("rank_queries".into(), rank_queries);
    out.counters.insert("rounds".into(), round_ms.len() as u64);

    // Each slot's best epoch time over the rounds (see `stats::best_of`).
    let best = best_of(&slot_ms);
    let best_round_s = best.iter().sum::<f64>() / 1e3;
    let triples_per_s = round_positives as f64 / best_round_s;
    let slowest = slowest_quarter_mean(&best);
    out.named("setup_s", "s", setup_s, setup_secs.len());
    out.named("setup_s.median", "s", median(&setup_secs), setup_secs.len());
    out.named("train.triples_per_s", "1/s", triples_per_s, round_ms.len());
    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("work_per_s", triples_per_s);
    out.end_to_end.insert("op_p50_ms", median(&best));
    out.end_to_end.insert("op_tail_ms", slowest);
    println!(
        "train-epochs: {} rounds; best epoch times: median {:.1} ms, slowest quarter {:.1} ms; \
         best round {:.2} s, median round {:.2} s",
        round_ms.len(),
        median(&best),
        slowest,
        best_round_s,
        median(&round_ms) / 1e3,
    );

    if trace {
        let rounds = traced_round_ms.len() as f64;
        let totals = tracer.totals();
        let plain = median(&round_ms);
        let epoch_total = totals.get("embed.epoch").map_or(0.0, |t| t.0);
        let layer_self: f64 = totals
            .iter()
            .filter(|(n, _)| **n != "train.round")
            .map(|(_, t)| t.1)
            .sum();
        let p = &mut out.per_layer;
        p.insert("embed.epoch_ms", epoch_total / rounds);
        p.insert("embed.positives", round_positives as f64);
        p.insert(
            "embed.negatives",
            (round_positives * negatives_per_positive) as f64,
        );
        // Training never ranks: the program's own query counter must not
        // move, so every ranking layer reads 0 here.
        p.insert("eval.total_queries", rank_queries as f64);
        p.insert("datasets.generate_ms", median(&generate_ms));
        p.insert("pool.jobs", pool_jobs as f64);
        p.insert(
            "trace.unattributed_ms",
            totals.get("train.round").map_or(0.0, |t| t.1) / rounds,
        );
        p.insert("trace.accounted_pct", 100.0 * layer_self / rounds / plain);
        p.insert(
            "obs.tracing_overhead_pct",
            100.0 * (median(&traced_round_ms) - plain) / plain,
        );
        let path = work_dir.join(format!("trace-train-epochs-{seed}.json"));
        if let Err(e) = tracer.write_chrome(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    out
}
