//! `discover-sweep`: the paper's Algorithm 1 over every strategy × model.
//!
//! A closed loop in one process. Each job is one cold `kgfd discover` run's
//! work: `Measures::compute(strategy, store)` (the process-global measure
//! cache is warmed once before the loop, so this is how the cold
//! preparation is timed)
//! followed by `try_discover_facts` at `threads = 1` over all relations with
//! the default `top_n` / `max_candidates` of 500.
//!
//! The traced run alternates untraced sweeps with sweeps through a
//! recomposition of the discovery loop from the layers' public functions,
//! each call inside a benchmark span, and then replays every chunk's
//! distinct rank queries to split ranking into scoring kernel and rank
//! resolution. Both must reproduce the untraced output bit for bit.

use crate::pipeline::{self, fact_checksum};
use crate::report::Outcome;
use crate::stats::{best, median, slowest_quarter_mean};
use crate::trace::Tracer;
use fact_discovery::{
    discover_facts_materialized, try_discover_facts, CandidateStream, DiscoveredFact,
    DiscoveryConfig, DiscoveryReport, Measures, StrategyKind, TopKFacts,
};
use kgfd_embed::{KgeModel, ModelKind};
use kgfd_eval::{rank_with_exclusions, BatchRanker, TripleRanks};
use kgfd_kg::{Dataset, EntityId, KnownTriples, RelationId, Triple};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

const MODELS: [ModelKind; 2] = [ModelKind::DistMult, ModelKind::TransE];

/// Untraced sweeps every run makes, whatever `--seconds` says.
const MIN_SWEEPS: usize = 3;

/// Relations re-run through the materialized oracle per job.
const ORACLE_RELATIONS: usize = 3;

struct Setup {
    data: Dataset,
    models: Vec<Box<dyn KgeModel>>,
    generate_ms: f64,
}

fn setup(seed: u64) -> Setup {
    let (data, generate_ms) = pipeline::graph(seed);
    let models = MODELS
        .iter()
        .map(|&k| pipeline::trained(k, &data.train, seed))
        .collect();
    Setup {
        data,
        models,
        generate_ms,
    }
}

fn config(strategy: StrategyKind, seed: u64) -> DiscoveryConfig {
    DiscoveryConfig {
        strategy,
        seed,
        threads: 1,
        ..DiscoveryConfig::default()
    }
}

/// The (strategy, model) jobs of one sweep, in a fixed order.
fn jobs() -> Vec<(StrategyKind, usize)> {
    StrategyKind::WITH_EXTENSIONS
        .iter()
        .flat_map(|&s| (0..MODELS.len()).map(move |m| (s, m)))
        .collect()
}

fn job_name(s: StrategyKind, m: usize) -> String {
    format!("{}.{}", s.abbrev().to_ascii_lowercase(), MODELS[m].name())
}

/// Exact work of one job; equal across sweeps, runs and the traced loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Work {
    facts: u64,
    checksum: u64,
    candidates: u64,
    pruned: u64,
    total_queries: u64,
    distinct_queries: u64,
}

impl Work {
    fn of(report: &DiscoveryReport, total_queries: u64, distinct_queries: u64) -> Work {
        Work {
            facts: report.facts.len() as u64,
            checksum: fact_checksum(&report.facts),
            candidates: report.candidates_generated() as u64,
            pruned: report.per_relation.iter().map(|r| r.pruned as u64).sum(),
            total_queries,
            distinct_queries,
        }
    }
}

fn rank_counters() -> (u64, u64) {
    (
        kgfd_obs::counter("eval.rank.total_queries").get(),
        kgfd_obs::counter("eval.rank.distinct_queries").get(),
    )
}

/// One untraced job: cold measures plus the discovery run. Returns the
/// wall times of the two parts in ms, the report and its work counters.
fn plain_job(
    set: &Setup,
    s: StrategyKind,
    m: usize,
    seed: u64,
) -> Result<([f64; 2], DiscoveryReport, Work), String> {
    let store = &set.data.train;
    let (tq, dq) = rank_counters();
    let t = Instant::now();
    black_box(Measures::compute(s, store));
    let measures_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let report = try_discover_facts(set.models[m].as_ref(), store, &config(s, seed))
        .map_err(|e| format!("{}: {e}", job_name(s, m)))?;
    let discover_ms = t.elapsed().as_secs_f64() * 1e3;
    let (tq2, dq2) = rank_counters();
    let work = Work::of(&report, tq2 - tq, dq2 - dq);
    Ok(([measures_ms, discover_ms], report, work))
}

/// Output checks that need no oracle: facts are novel and within `top_n`.
fn check_invariants(out: &mut Outcome, set: &Setup, name: &str, report: &DiscoveryReport) {
    let top_n = DiscoveryConfig::default().top_n as f64;
    let bad = report
        .facts
        .iter()
        .filter(|f| set.data.train.contains(&f.triple) || !(1.0..=top_n).contains(&f.rank))
        .count();
    out.check(bad == 0, || {
        format!("{name}: {bad} facts are known triples or rank outside 1..=top_n")
    });
    out.check(!report.facts.is_empty(), || format!("{name}: no facts"));
}

/// Re-runs a seed-chosen subset of relations through the materialized
/// oracle, which must reproduce the streamed facts of those relations.
fn check_oracle(
    out: &mut Outcome,
    set: &Setup,
    s: StrategyKind,
    m: usize,
    seed: u64,
    report: &DiscoveryReport,
) {
    let used = set.data.train.used_relations();
    let mut picked: Vec<RelationId> = (0..ORACLE_RELATIONS)
        .map(|i| used[(seed as usize).wrapping_add(i * 17) % used.len()])
        .collect();
    picked.sort();
    picked.dedup();
    let mut cfg = config(s, seed);
    cfg.relations = Some(picked.clone());
    let oracle = discover_facts_materialized(set.models[m].as_ref(), &set.data.train, &cfg);
    let streamed: Vec<DiscoveredFact> = report
        .facts
        .iter()
        .filter(|f| picked.contains(&f.triple.relation))
        .copied()
        .collect();
    out.check(oracle.facts == streamed, || {
        format!(
            "{}: streamed facts differ from the materialized oracle on relations {picked:?}",
            job_name(s, m)
        )
    });
}

/// Per-layer accumulators of the traced loop.
#[derive(Default)]
struct Layers {
    rank_queries: (u64, u64),
    candidates: u64,
    pruned: u64,
    facts: u64,
    triples_indexed: u64,
    /// Replay: kernel ms, resolution ms, entity-row visits, computed flops.
    kernel_ms: f64,
    resolution_ms: f64,
    row_visits: u64,
    flops: f64,
}

/// The span around `Measures::compute` for `s`; the per-layer metric of
/// the same name carries `measures_ms` in place of `measures`.
fn measures_span(s: StrategyKind) -> (&'static str, &'static str) {
    match s {
        StrategyKind::UniformRandom => ("graph-stats.measures.ur", "graph-stats.measures_ms.ur"),
        StrategyKind::EntityFrequency => ("graph-stats.measures.ef", "graph-stats.measures_ms.ef"),
        StrategyKind::GraphDegree => ("graph-stats.measures.gd", "graph-stats.measures_ms.gd"),
        StrategyKind::ClusteringCoefficient => {
            ("graph-stats.measures.cc", "graph-stats.measures_ms.cc")
        }
        StrategyKind::ClusteringTriangles => {
            ("graph-stats.measures.ct", "graph-stats.measures_ms.ct")
        }
        StrategyKind::ClusteringSquares => {
            ("graph-stats.measures.cs", "graph-stats.measures_ms.cs")
        }
        StrategyKind::PageRank => ("graph-stats.measures.pr", "graph-stats.measures_ms.pr"),
    }
}

/// One rank chunk kept for the kernel/resolution replay.
struct Chunk {
    triples: Vec<Triple>,
    ranks: Vec<TripleRanks>,
}

/// The discovery loop of `try_discover_facts` (streaming engine, no rules,
/// no consolidation, no probability filter — the defaults) recomposed from
/// public calls, each inside a benchmark span.
fn traced_job(
    tr: &mut Tracer,
    set: &Setup,
    s: StrategyKind,
    m: usize,
    seed: u64,
    layers: &mut Layers,
    chunks: &mut Vec<Chunk>,
) -> Result<(f64, Vec<DiscoveredFact>, Work), String> {
    let store = &set.data.train;
    let model = set.models[m].as_ref();
    let cfg = config(s, seed);
    let chunk_size = cfg.chunk_size.max(1);
    let mut work = Work::default();

    tr.enter("discover.job");
    let measures = tr.leaf(measures_span(s).0, || Measures::compute(s, store));
    let known = tr.leaf("kg.known_build", || {
        KnownTriples::from_slices([store.triples()])
    });
    layers.triples_indexed += store.len() as u64;
    let ranker = BatchRanker::new(model, 1);
    let mut facts = Vec::new();
    for r in store.used_relations() {
        tr.enter("core.generation");
        let stream = CandidateStream::for_relation(store, &cfg, r, &measures, None, None);
        tr.exit();
        let mut stream = stream.map_err(|e| format!("{}: {e}", job_name(s, m)))?;
        let mut top = TopKFacts::new(cfg.top_k);
        loop {
            let mut chunk = Vec::with_capacity(chunk_size);
            tr.leaf("core.generation", || {
                stream.fill_chunk(&mut chunk, chunk_size)
            });
            if chunk.is_empty() {
                break;
            }
            let (ranks, stats) = tr.leaf("eval.rank", || {
                ranker.rank_all_with_stats(&chunk, Some(&known))
            });
            work.total_queries += stats.total_queries;
            work.distinct_queries += stats.distinct_queries;
            tr.leaf("core.heap", || {
                for (t, r2) in chunk.iter().zip(&ranks) {
                    let rank = r2.mean();
                    if rank <= cfg.top_n as f64 {
                        top.push(DiscoveredFact { triple: *t, rank });
                    }
                }
            });
            work.candidates += chunk.len() as u64;
            chunks.push(Chunk {
                triples: chunk,
                ranks,
            });
        }
        work.pruned += stream.pruned() as u64;
        facts.extend(top.into_ordered());
    }
    let ms = tr.exit();
    work.facts = facts.len() as u64;
    work.checksum = fact_checksum(&facts);
    layers.rank_queries.0 += work.total_queries;
    layers.rank_queries.1 += work.distinct_queries;
    layers.candidates += work.candidates;
    layers.pruned += work.pruned;
    layers.facts += work.facts;
    Ok((ms, facts, work))
}

/// Computed floating-point operations per (query, entity) score.
fn flops_per_score(model: &dyn KgeModel) -> f64 {
    let d = model.dim() as f64;
    match model.kind() {
        // Dot product of the precomputed query vector with the entity row.
        ModelKind::DistMult => 2.0 * d,
        // Difference, magnitude and sum per component.
        ModelKind::TransE => 3.0 * d,
        _ => 2.0 * d,
    }
}

/// Rank-kernel tile, as in the ranking engine.
const TILE: usize = 16;

/// Replays one chunk's distinct queries: scores them through the batched
/// kernels and resolves every rank with `rank_with_exclusions`, timing the
/// two separately. Returns false if any rank differs in its bits from the
/// ranking engine's.
fn replay_chunk(model: &dyn KgeModel, known: &KnownTriples, c: &Chunk, l: &mut Layers) -> bool {
    let n = model.num_entities();
    let mut same = true;
    let mut buf = vec![0.0f32; TILE * n];
    for object_side in [true, false] {
        // Distinct side queries in first-appearance order with dependents.
        let mut index: HashMap<(u32, u32), usize> = HashMap::new();
        let mut keys: Vec<(u32, u32)> = Vec::new();
        let mut deps: Vec<Vec<usize>> = Vec::new();
        for (i, t) in c.triples.iter().enumerate() {
            let key = if object_side {
                (t.subject.0, t.relation.0)
            } else {
                (t.relation.0, t.object.0)
            };
            let g = *index.entry(key).or_insert_with(|| {
                keys.push(key);
                deps.push(Vec::new());
                keys.len() - 1
            });
            deps[g].push(i);
        }
        l.row_visits += (keys.len() * n) as u64;
        l.flops += (keys.len() * n) as f64 * flops_per_score(model);
        for (tile_i, tile) in keys.chunks(TILE).enumerate() {
            let out = &mut buf[..tile.len() * n];
            let t = Instant::now();
            if object_side {
                let q: Vec<(EntityId, RelationId)> = tile
                    .iter()
                    .map(|&(a, b)| (EntityId(a), RelationId(b)))
                    .collect();
                model.score_objects_batch(&q, out);
            } else {
                let q: Vec<(RelationId, EntityId)> = tile
                    .iter()
                    .map(|&(a, b)| (RelationId(a), EntityId(b)))
                    .collect();
                model.score_subjects_batch(&q, out);
            }
            l.kernel_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            for (slot, &(a, b)) in tile.iter().enumerate() {
                let row = &out[slot * n..(slot + 1) * n];
                let exclude = if object_side {
                    known.true_objects(EntityId(a), RelationId(b))
                } else {
                    known.true_subjects(RelationId(a), EntityId(b))
                };
                for &i in &deps[tile_i * TILE + slot] {
                    let t3 = c.triples[i];
                    let (target, expect) = if object_side {
                        (t3.object, c.ranks[i].object)
                    } else {
                        (t3.subject, c.ranks[i].subject)
                    };
                    let rank = rank_with_exclusions(row, target, exclude);
                    same &= rank.to_bits() == expect.to_bits();
                }
            }
            l.resolution_ms += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    same
}

pub fn run(seed: u64, seconds: u64, trace: bool, work_dir: &std::path::Path) -> Outcome {
    let mut out = Outcome::default();
    let mut generate_ms = Vec::new();
    let mut setup_secs = Vec::new();
    // Set-up is repeated before every untraced sweep; `setup_s` is the best
    // of those times, like the jobs' (see `stats::best_of`).
    let mut timed_setup = || {
        let t = Instant::now();
        let set = setup(seed);
        setup_secs.push(t.elapsed().as_secs_f64());
        generate_ms.push(set.generate_ms);
        set
    };
    let set = timed_setup();
    // Warm the process-global measure cache once, untimed: each job times
    // its own cold `Measures::compute`, and the warm cache keeps
    // `try_discover_facts` from computing the table a second time.
    for s in StrategyKind::WITH_EXTENSIONS {
        fact_discovery::cached_measures(s, &set.data.train);
    }
    let jobs = jobs();
    let budget = seconds as f64;
    let start = Instant::now();
    let pool0 = kgfd_obs::counter("pool.jobs").get();

    // Reference output per job: the first untraced sweep's.
    let mut reference: Vec<Option<(Work, Vec<DiscoveredFact>)>> = vec![None; jobs.len()];
    // Per job, the untraced times of its two parts: cold measures, then
    // discovery.
    let mut part_ms: Vec<[Vec<f64>; 2]> = vec![[Vec::new(), Vec::new()]; jobs.len()];
    let mut sweep_ms: Vec<f64> = Vec::new();
    let mut traced_sweep_ms: Vec<f64> = Vec::new();
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut chunks_by_job: Vec<Vec<Chunk>> = Vec::new();
    let mut traced_sweeps = 0usize;
    let mut sweep = 0usize;
    loop {
        let traced_now = trace && sweep % 2 == 1;
        if sweep > 0 && !traced_now {
            drop(timed_setup());
        }
        // Sweep time is the sum of its jobs' times; checks between jobs
        // are not part of it.
        let mut ms = 0.0;
        for (j, &(s, m)) in jobs.iter().enumerate() {
            out.attempted += 1;
            let result = if traced_now {
                let mut chunks = Vec::new();
                let r = traced_job(&mut tracer, &set, s, m, seed, &mut layers, &mut chunks);
                chunks_by_job.push(chunks);
                r.map(|(ms, facts, work)| (ms, None, facts, work))
            } else {
                plain_job(&set, s, m, seed).map(|(parts, report, work)| {
                    if reference[j].is_none() {
                        check_invariants(&mut out, &set, &job_name(s, m), &report);
                        check_oracle(&mut out, &set, s, m, seed, &report);
                    }
                    (parts[0] + parts[1], Some(parts), report.facts, work)
                })
            };
            match result {
                Ok((job, parts, facts, work)) => {
                    ms += job;
                    if let Some(parts) = parts {
                        part_ms[j][0].push(parts[0]);
                        part_ms[j][1].push(parts[1]);
                    }
                    match &reference[j] {
                        None => reference[j] = Some((work, facts)),
                        Some((w, f)) => {
                            let same = *w == work && *f == facts;
                            if !same {
                                out.failed += 1;
                            }
                            out.check(same, || {
                                format!(
                                    "{}: output or work counters differ between sweeps \
                                     (traced={traced_now}): {w:?} vs {work:?}",
                                    job_name(s, m)
                                )
                            });
                        }
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.error(e);
                }
            }
        }
        if traced_now {
            traced_sweep_ms.push(ms);
            traced_sweeps += 1;
        } else {
            sweep_ms.push(ms);
        }
        sweep += 1;
        // Every job type needs a few repetitions for its best time; a
        // traced run needs one sweep of each kind.
        let need_more = if trace {
            traced_sweeps == 0
        } else {
            sweep_ms.len() < MIN_SWEEPS
        };
        let projected = start.elapsed().as_secs_f64() + ms / 1e3;
        if !need_more && projected > budget {
            break;
        }
    }
    let pool_jobs = kgfd_obs::counter("pool.jobs").get() - pool0;
    let setup_s = best(&setup_secs);

    // Exact counters of one sweep.
    let mut totals = Work::default();
    for (j, &(s, m)) in jobs.iter().enumerate() {
        let Some((w, _)) = &reference[j] else {
            continue;
        };
        let name = job_name(s, m);
        out.counters.insert(format!("{name}.facts"), w.facts);
        out.counters.insert(format!("{name}.checksum"), w.checksum);
        out.counters
            .insert(format!("{name}.candidates"), w.candidates);
        out.counters
            .insert(format!("{name}.distinct_queries"), w.distinct_queries);
        totals.facts += w.facts;
        totals.candidates += w.candidates;
        totals.pruned += w.pruned;
        totals.total_queries += w.total_queries;
        totals.distinct_queries += w.distinct_queries;
    }
    let entities = set.data.train.num_entities() as u64;
    out.counters.insert("sweep.facts".into(), totals.facts);
    out.counters
        .insert("sweep.candidates".into(), totals.candidates);
    out.counters.insert("sweep.pruned".into(), totals.pruned);
    out.counters
        .insert("sweep.total_queries".into(), totals.total_queries);
    out.counters
        .insert("sweep.distinct_queries".into(), totals.distinct_queries);
    out.counters.insert(
        "sweep.entity_row_visits".into(),
        totals.distinct_queries * entities,
    );
    out.counters.insert("sweeps".into(), sweep_ms.len() as u64);

    // Each job's best time over the sweeps (see `stats::best_of`): the best
    // cold measures plus the best discovery run, each part's minimum taken
    // on its own, so interference on one part does not spoil the other.
    let best: Vec<f64> = part_ms
        .iter()
        .map(|[measures, discover]| best(measures) + best(discover))
        .collect();
    let best_sweep_s = best.iter().sum::<f64>() / 1e3;
    let facts_per_s = totals.facts as f64 / best_sweep_s;
    // The gated rate counts candidates, not facts: every job ranks the same
    // number of candidates whatever the seed, while the number of facts
    // among them moves by several percent from seed to seed.
    let candidates_per_s = totals.candidates as f64 / best_sweep_s;
    let slowest = slowest_quarter_mean(&best);
    out.named("setup_s", "s", setup_s, setup_secs.len());
    out.named("setup_s.median", "s", median(&setup_secs), setup_secs.len());
    out.named("discover.facts_per_s", "1/s", facts_per_s, sweep_ms.len());
    out.named(
        "discover.candidates_per_s",
        "1/s",
        candidates_per_s,
        sweep_ms.len(),
    );
    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("work_per_s", candidates_per_s);
    out.end_to_end.insert("op_p50_ms", median(&best));
    out.end_to_end.insert("op_tail_ms", slowest);
    println!(
        "discover-sweep: {} sweeps; best job times: median {:.1} ms, slowest quarter {:.1} ms; \
         best sweep {:.2} s, median sweep {:.2} s",
        sweep_ms.len(),
        median(&best),
        slowest,
        best_sweep_s,
        median(&sweep_ms) / 1e3,
    );

    if trace {
        per_layer(
            &mut out,
            &set,
            &tracer,
            &mut layers,
            &chunks_by_job,
            &jobs,
            traced_sweeps,
            median(&sweep_ms),
            median(&traced_sweep_ms),
        );
        out.per_layer.insert("pool.jobs", pool_jobs as f64);
        out.per_layer
            .insert("datasets.generate_ms", median(&generate_ms));
        let path = work_dir.join(format!("trace-discover-sweep-{seed}.json"));
        if let Err(e) = tracer.write_chrome(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    out: &mut Outcome,
    set: &Setup,
    tracer: &Tracer,
    layers: &mut Layers,
    chunks_by_job: &[Vec<Chunk>],
    jobs: &[(StrategyKind, usize)],
    sweeps: usize,
    plain_sweep_ms: f64,
    traced_sweep_ms: f64,
) {
    let known = KnownTriples::from_slices([set.data.train.triples()]);
    for (k, chunks) in chunks_by_job.iter().enumerate() {
        let (s, m) = jobs[k % jobs.len()];
        let model = set.models[m].as_ref();
        for c in chunks {
            let same = replay_chunk(model, &known, c, layers);
            out.check(same, || {
                format!(
                    "{}: replayed ranks differ from the ranking engine",
                    job_name(s, m)
                )
            });
        }
    }
    let per = |v: f64| v / sweeps as f64;
    let totals: BTreeMap<&str, (f64, f64)> = tracer.totals();
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
    let rank_ms = per(total("eval.rank"));
    let job_ms = per(total("discover.job"));
    let p = &mut out.per_layer;
    p.insert("eval.rank_ms", rank_ms);
    p.insert("eval.rank_share_pct", 100.0 * rank_ms / job_ms);
    p.insert("eval.total_queries", per(layers.rank_queries.0 as f64));
    p.insert("eval.distinct_queries", per(layers.rank_queries.1 as f64));
    p.insert(
        "eval.dedup_ratio",
        layers.rank_queries.0 as f64 / layers.rank_queries.1 as f64,
    );
    p.insert("eval.entity_row_visits", per(layers.row_visits as f64));
    p.insert("eval.rank_resolution_ms", per(layers.resolution_ms));
    p.insert("embed.score_sweep_ms", per(layers.kernel_ms));
    p.insert("embed.score_flops", per(layers.flops));
    for s in StrategyKind::WITH_EXTENSIONS {
        let (span, metric) = measures_span(s);
        p.insert(metric, per(total(span)));
    }
    p.insert("kg.known_build_ms", per(total("kg.known_build")));
    p.insert("kg.triples_indexed", per(layers.triples_indexed as f64));
    p.insert("core.generation_ms", per(total("core.generation")));
    p.insert("core.candidates", per(layers.candidates as f64));
    p.insert("core.pruned", per(layers.pruned as f64));
    p.insert("core.heap_ms", per(total("core.heap")));
    p.insert("core.facts", per(layers.facts as f64));
    p.insert(
        "core.fact_yield",
        layers.facts as f64 / layers.candidates as f64,
    );
    let unattributed = per(totals.get("discover.job").map_or(0.0, |t| t.1));
    let layer_self: f64 = totals
        .iter()
        .filter(|(name, _)| **name != "discover.job")
        .map(|(_, t)| t.1)
        .sum();
    p.insert("trace.unattributed_ms", unattributed);
    p.insert(
        "trace.accounted_pct",
        100.0 * per(layer_self) / plain_sweep_ms,
    );
    p.insert(
        "obs.tracing_overhead_pct",
        100.0 * (traced_sweep_ms - plain_sweep_ms) / plain_sweep_ms,
    );
}
