//! `serve-mixed`: an open loop against a child `kgfd serve --workers 2
//! --rank-threads 1`.
//!
//! One client process keeps at most `available_parallelism` connections
//! open. Arrivals are Poisson from the seed; each latency is timed from the
//! request's due time, and the generator's own lateness is reported (a run
//! whose generator ran late is invalid, not slow). The mix by count is 60%
//! `/v1/rank` (16 filtered test triples, half from a hot set of 32 bodies),
//! 30% `/v1/discover` (one relation, `top_k` 50, `(strategy, relation)`
//! drawn Zipf) and 10% `/v1/score` (16 triples). Every 200 body must equal
//! the in-process `kgfd_serve::api::handle_*` output for the same body.

use crate::pipeline;
use crate::report::{json_str, Outcome};
use crate::stats::{best, median, Summary};
use crate::trace::Tracer;
use fact_discovery::StrategyKind;
use kgfd_embed::ModelKind;
use kgfd_kg::{KnownTriples, Triple, TripleStore, Vocabulary};
use kgfd_serve::{api, GraphContext, ModelRegistry};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Rate the latency metrics are reported at.
pub const NOMINAL_RPS: f64 = 60.0;
/// Nominal-rate requests per second of `--seconds`; the rest of the time
/// goes to the rate ladder.
const NOMINAL_REQUESTS_PER_SECOND_OF_RUN: u64 = 40;
/// Rates tried above (or, if the nominal rate fails, below) it.
const LADDER_UP: [f64; 4] = [90.0, 120.0, 180.0, 240.0];
const LADDER_DOWN: f64 = 30.0;
/// Latency limits of the rate ladder (p90, ms).
const DISCOVER_LIMIT_MS: f64 = 100.0;
const RANK_LIMIT_MS: f64 = 20.0;
/// A generator later than this at p90 makes the run invalid.
pub const GENERATOR_LAG_BOUND_MS: f64 = 5.0;
/// Triples per rank and score body.
const TRIPLES_PER_BODY: usize = 16;
const HOT_RANK_BODIES: usize = 32;
const MODEL: &str = "distmult";
const ZIPF_EXPONENT: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Kind {
    Rank,
    Discover,
    Score,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Rank, Kind::Discover, Kind::Score];

    fn name(self) -> &'static str {
        match self {
            Kind::Rank => "rank",
            Kind::Discover => "discover",
            Kind::Score => "score",
        }
    }

    fn path(self) -> &'static str {
        match self {
            Kind::Rank => "/v1/rank",
            Kind::Discover => "/v1/discover",
            Kind::Score => "/v1/score",
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The served graph and model as the server sees them: read back from the
/// files the server is started with, so ids and labels agree.
struct Served {
    dir: PathBuf,
    vocab: Vocabulary,
    store: TripleStore,
    test: Vec<[String; 3]>,
    generate_ms: f64,
}

fn label_triple(vocab: &Vocabulary, t: &Triple) -> [String; 3] {
    [
        vocab
            .entity_label(t.subject)
            .expect("known entity")
            .to_string(),
        vocab
            .relation_label(t.relation)
            .expect("known relation")
            .to_string(),
        vocab
            .entity_label(t.object)
            .expect("known entity")
            .to_string(),
    ]
}

fn prepare(seed: u64, dir: &Path) -> std::io::Result<Served> {
    let (data, generate_ms) = pipeline::graph(seed);
    std::fs::create_dir_all(dir)?;
    let tsv = dir.join("train.tsv");
    let file = std::io::BufWriter::new(std::fs::File::create(&tsv)?);
    kgfd_kg::write_triples_tsv(file, data.train.triples(), &data.vocab)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let mut vocab = Vocabulary::new();
    let triples = kgfd_kg::read_triples_tsv(std::fs::File::open(&tsv)?, &mut vocab)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let store = TripleStore::new(vocab.num_entities(), vocab.num_relations(), triples)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let model = pipeline::trained(ModelKind::DistMult, &store, seed);
    kgfd_embed::write_model_file(dir.join(format!("{MODEL}.kgfd")), model.as_ref())
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let test = data
        .test
        .iter()
        .map(|t| label_triple(&data.vocab, t))
        .collect();
    Ok(Served {
        dir: dir.to_path_buf(),
        vocab,
        store,
        test,
        generate_ms,
    })
}

/// A running `kgfd serve` child; dropping it stops the server.
struct ServerProcess {
    child: Child,
    addr: SocketAddr,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl ServerProcess {
    fn spawn(kgfd: &Path, dir: &Path) -> std::io::Result<ServerProcess> {
        let mut child = Command::new(kgfd)
            .arg("serve")
            .arg("--train")
            .arg(dir.join("train.tsv"))
            .arg("--model-file")
            .arg(dir.join(format!("{MODEL}.kgfd")))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--rank-threads",
                "1",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line?;
            if let Some(rest) = line.strip_prefix("serving kgfd on http://") {
                addr = rest.trim().parse::<SocketAddr>().ok();
                break;
            }
            eprintln!("kgfd serve: {line}");
        }
        let stderr = std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                eprintln!("kgfd serve: {line}");
            }
        });
        let mut server = ServerProcess {
            child,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            stderr: Some(stderr),
        };
        server.addr = addr.ok_or_else(|| std::io::Error::other("kgfd serve did not announce"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while http(server.addr, "GET", "/healthz", b"").map(|r| r.status) != Ok(200) {
            if Instant::now() > deadline {
                return Err(std::io::Error::other("kgfd serve never became healthy"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(server)
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let pid = self.child.id().to_string();
        let _ = Command::new("kill").args(["-TERM", &pid]).status();
        let deadline = Instant::now() + Duration::from_secs(10);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

struct Response {
    status: u16,
    cache: Option<String>,
    body: Vec<u8>,
}

/// One HTTP/1.1 exchange (the server closes every connection).
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut request = head.into_bytes();
    request.extend_from_slice(body);
    stream
        .write_all(&request)
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without a header terminator")?;
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response without a status")?;
    let cache = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Kgfd-Cache: "))
        .map(str::to_string);
    Ok(Response {
        status,
        cache,
        body: raw[split + 4..].to_vec(),
    })
}

/// The request bodies the schedule draws from.
struct Bodies {
    hot_rank: Vec<String>,
    discover_pairs: Vec<(StrategyKind, String)>,
    zipf_cdf: Vec<f64>,
    test: Vec<[String; 3]>,
    train: Vec<[String; 3]>,
}

fn triples_json(triples: &[[String; 3]]) -> String {
    let items: Vec<String> = triples
        .iter()
        .map(|t| {
            format!(
                "[{},{},{}]",
                json_str(&t[0]),
                json_str(&t[1]),
                json_str(&t[2])
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

impl Bodies {
    fn new(served: &Served, rng: &mut Rng) -> Bodies {
        let train: Vec<[String; 3]> = served
            .store
            .triples()
            .iter()
            .map(|t| label_triple(&served.vocab, t))
            .collect();
        let mut bodies = Bodies {
            hot_rank: Vec::new(),
            discover_pairs: Vec::new(),
            zipf_cdf: Vec::new(),
            test: served.test.clone(),
            train,
        };
        bodies.hot_rank = (0..HOT_RANK_BODIES).map(|_| bodies.rank(rng)).collect();
        for s in StrategyKind::WITH_EXTENSIONS {
            for r in served.store.used_relations() {
                let label = served.vocab.relation_label(r).expect("known relation");
                bodies.discover_pairs.push((s, label.to_string()));
            }
        }
        rng.shuffle(&mut bodies.discover_pairs);
        let mut acc = 0.0;
        for i in 0..bodies.discover_pairs.len() {
            acc += 1.0 / ((i + 1) as f64).powf(ZIPF_EXPONENT);
            bodies.zipf_cdf.push(acc);
        }
        bodies
    }

    fn sample(pool: &[[String; 3]], rng: &mut Rng) -> Vec<[String; 3]> {
        (0..TRIPLES_PER_BODY)
            .map(|_| pool[rng.below(pool.len())].clone())
            .collect()
    }

    fn rank(&self, rng: &mut Rng) -> String {
        let triples = Bodies::sample(&self.test, rng);
        format!(
            "{{\"model\":\"{MODEL}\",\"triples\":{}}}",
            triples_json(&triples)
        )
    }

    fn body(&self, kind: Kind, rng: &mut Rng) -> String {
        match kind {
            Kind::Rank if rng.next().is_multiple_of(2) => {
                self.hot_rank[rng.below(self.hot_rank.len())].clone()
            }
            Kind::Rank => self.rank(rng),
            Kind::Discover => {
                let total = *self.zipf_cdf.last().expect("pairs exist");
                let u = rng.unit() * total;
                let i = self.zipf_cdf.partition_point(|&c| c < u);
                let (s, rel) = &self.discover_pairs[i.min(self.discover_pairs.len() - 1)];
                discover_body(*s, rel, None)
            }
            Kind::Score => {
                let pool = if rng.next().is_multiple_of(2) {
                    &self.test
                } else {
                    &self.train
                };
                let triples = Bodies::sample(pool, rng);
                format!(
                    "{{\"model\":\"{MODEL}\",\"triples\":{}}}",
                    triples_json(&triples)
                )
            }
        }
    }
}

fn discover_body(s: StrategyKind, relation: &str, seed: Option<u64>) -> String {
    let seed = seed.map_or(String::new(), |v| format!(",\"seed\":{v}"));
    format!(
        "{{\"model\":\"{MODEL}\",\"strategy\":\"{}\",\"relation\":{},\"top_k\":50{seed}}}",
        s.abbrev().to_ascii_lowercase(),
        json_str(relation)
    )
}

struct Planned {
    kind: Kind,
    due: Duration,
    body: String,
}

/// `count` requests with exact 60/30/10 proportions, in seeded order, due
/// at the arrival times of a Poisson process of `rate` per second given
/// that `count` arrivals fall in `count / rate` seconds: sorted uniform
/// times in that window. The window is the same for every seed, so
/// goodput measures the server, not how long the seed's schedule ran.
fn schedule(bodies: &Bodies, rng: &mut Rng, count: usize, rate: f64) -> Vec<Planned> {
    let discover = count * 3 / 10;
    let score = count / 10;
    let rank = count - discover - score;
    let mut kinds: Vec<Kind> = std::iter::repeat_n(Kind::Rank, rank)
        .chain(std::iter::repeat_n(Kind::Discover, discover))
        .chain(std::iter::repeat_n(Kind::Score, score))
        .collect();
    rng.shuffle(&mut kinds);
    let window = count as f64 / rate;
    let mut due: Vec<f64> = (0..count).map(|_| rng.unit() * window).collect();
    due.sort_by(f64::total_cmp);
    kinds
        .into_iter()
        .zip(due)
        .map(|(kind, t)| Planned {
            kind,
            due: Duration::from_secs_f64(t),
            body: bodies.body(kind, rng),
        })
        .collect()
}

/// What the client saw for one request. Times are ms since the segment
/// start.
#[derive(Clone)]
struct Sample {
    index: usize,
    kind: Kind,
    due_ms: f64,
    /// When a connection slot became free for this request.
    free_ms: f64,
    sent_ms: f64,
    done_ms: f64,
    /// Sent inside a client span (every other request of a traced run).
    traced: bool,
    outcome: Result<(u16, Option<String>, Vec<u8>), String>,
}

impl Sample {
    /// Latency counted from the due time, so a stall also delays the
    /// requests queued behind it.
    fn latency_ms(&self) -> f64 {
        self.done_ms - self.due_ms
    }

    /// How late the generator itself sent: time past the later of the due
    /// time and the moment a connection slot was free.
    fn generator_lag_ms(&self) -> f64 {
        (self.sent_ms - self.due_ms.max(self.free_ms)).max(0.0)
    }

    fn ok(&self) -> bool {
        matches!(&self.outcome, Ok((200, _, _)))
    }

    fn cache_hit(&self) -> bool {
        matches!(&self.outcome, Ok((_, Some(c), _)) if c == "hit")
    }
}

/// Sends `plan` open-loop from `connections` client threads. With
/// `traced`, every other request is sent inside a client span, so traced
/// and untraced requests share the same time window and cache state.
fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    connections: usize,
    traced: bool,
) -> (Vec<Sample>, Vec<Tracer>) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(plan.len()));
    let tracers = Mutex::new(Vec::new());
    let start = Instant::now();
    let ms = |t: Instant| t.duration_since(start).as_secs_f64() * 1e3;
    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| {
                let mut tracer = Tracer::new();
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(p) = plan.get(i) else { break };
                    let free = Instant::now();
                    let due = start + p.due;
                    if let Some(wait) = due.checked_duration_since(free) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let in_span = traced && i % 2 == 1;
                    if in_span {
                        tracer.enter("serve.client_request");
                    }
                    let outcome = http(addr, "POST", p.kind.path(), p.body.as_bytes())
                        .map(|r| (r.status, r.cache, r.body));
                    if in_span {
                        tracer.exit();
                    }
                    local.push(Sample {
                        index: i,
                        kind: p.kind,
                        due_ms: p.due.as_secs_f64() * 1e3,
                        free_ms: ms(free),
                        sent_ms: ms(sent),
                        done_ms: ms(Instant::now()),
                        traced: in_span,
                        outcome,
                    });
                }
                samples
                    .lock()
                    .expect("client thread panicked")
                    .extend(local);
                tracers.lock().expect("client thread panicked").push(tracer);
            });
        }
    });
    let mut samples = samples.into_inner().expect("client threads joined");
    samples.sort_by_key(|s| s.index);
    (
        samples,
        tracers.into_inner().expect("client threads joined"),
    )
}

/// Latencies of `kind` (all endpoints when `None`) among successful samples.
fn latencies(samples: &[Sample], kind: Option<Kind>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok() && kind.is_none_or(|k| s.kind == k))
        .map(Sample::latency_ms)
        .collect()
}

/// Latencies of the successful requests the server computed: the cache
/// misses. The gated latencies are theirs: over all requests the median
/// falls where cache hits end and misses begin, so it jumps with the
/// seed's hit share, while among misses the median sits inside the rank
/// band and the p90 inside the discover band.
fn computed_latencies(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok() && !s.cache_hit())
        .map(Sample::latency_ms)
        .collect()
}

/// A rung passes when nothing failed, discover and rank p90 (or the
/// highest supported percentile) meet their limits, and the backlog — how
/// long requests waited for a connection slot — does not grow from the
/// first third of the segment to the last.
fn rung_passes(samples: &[Sample]) -> bool {
    let tail = |k| {
        let v = latencies(samples, Some(k));
        if v.is_empty() {
            f64::INFINITY
        } else {
            Summary::of(&v).tail
        }
    };
    let wait = |part: &[Sample]| {
        let v: Vec<f64> = part
            .iter()
            .map(|s| (s.free_ms - s.due_ms).max(0.0))
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let third = samples.len() / 3;
    samples.iter().all(Sample::ok)
        && tail(Kind::Discover) <= DISCOVER_LIMIT_MS
        && tail(Kind::Rank) <= RANK_LIMIT_MS
        && wait(&samples[samples.len() - third..]) <= wait(&samples[..third]) + 10.0
}

/// Parses the Prometheus text of `/metrics` into name → value, with
/// histogram buckets keyed `name{le}`.
fn scrape(addr: SocketAddr) -> HashMap<String, f64> {
    let Ok(r) = http(addr, "GET", "/metrics", b"") else {
        return HashMap::new();
    };
    String::from_utf8_lossy(&r.body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

fn delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// Nearest-rank percentile of a histogram delta, as the upper bound of
/// the bucket holding that rank (the registry's buckets are log-spaced,
/// ≈4.4% wide).
fn histogram_pct(
    before: &HashMap<String, f64>,
    after: &HashMap<String, f64>,
    name: &str,
    pct: usize,
) -> f64 {
    let prefix = format!("{name}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = after
        .keys()
        .filter_map(|k| {
            let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
            let le: f64 = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, delta(before, after, k)))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total <= 0.0 {
        return 0.0;
    }
    let rank = (pct as f64 * total / 100.0).ceil().max(1.0);
    buckets
        .iter()
        .find(|b| b.1 >= rank)
        .map_or(0.0, |b| if b.0.is_finite() { b.0 } else { 0.0 })
}

/// In-process handler outputs and times, memoized per body.
struct Oracle {
    registry: ModelRegistry,
    expected: HashMap<(Kind, String), (Vec<u8>, f64)>,
}

impl Oracle {
    fn new(served: &Served) -> Oracle {
        let registry = ModelRegistry::new(GraphContext::new(
            served.vocab.clone(),
            served.store.clone(),
        ));
        registry
            .load(MODEL, served.dir.join(format!("{MODEL}.kgfd")))
            .expect("the model file just written loads");
        for s in StrategyKind::WITH_EXTENSIONS {
            fact_discovery::cached_measures(s, &registry.graph().store);
        }
        Oracle {
            registry,
            expected: HashMap::new(),
        }
    }

    /// The in-process response body for `body` and the handler time (ms).
    fn expect(&mut self, kind: Kind, body: &str) -> &(Vec<u8>, f64) {
        let key = (kind, body.to_string());
        if !self.expected.contains_key(&key) {
            let entry = self.registry.get(MODEL).expect("model loaded");
            let graph = self.registry.graph();
            let request = api::parse_request(body.as_bytes()).expect("benchmark bodies parse");
            let t = Instant::now();
            let result = match kind {
                Kind::Rank => api::handle_rank(graph, &entry, &request, 1),
                Kind::Discover => api::handle_discover(
                    graph,
                    &entry,
                    &request,
                    1,
                    Instant::now() + Duration::from_secs(60),
                ),
                Kind::Score => api::handle_score(graph, &entry, &request),
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let bytes = result.unwrap_or_else(|e| api::error_body(&e));
            self.expected.insert(key.clone(), (bytes, ms));
        }
        &self.expected[&key]
    }
}

/// Checks every sample: counts failures, compares 200 bodies with the
/// in-process handlers.
fn verify(out: &mut Outcome, oracle: &mut Oracle, plan: &[Planned], samples: &[Sample]) {
    for s in samples {
        out.attempted += 1;
        let p = &plan[s.index];
        match &s.outcome {
            Ok((200, _, body)) => {
                let (want, _) = oracle.expect(p.kind, &p.body);
                if body != want {
                    out.failed += 1;
                    out.error(format!(
                        "{} request {}: body differs from the in-process handler",
                        p.kind.name(),
                        s.index
                    ));
                }
            }
            Ok((status, _, _)) => {
                out.failed += 1;
                eprintln!(
                    "perfbench: {} request {} got {status}",
                    p.kind.name(),
                    s.index
                );
            }
            Err(e) => {
                out.failed += 1;
                eprintln!(
                    "perfbench: {} request {} failed: {e}",
                    p.kind.name(),
                    s.index
                );
            }
        }
    }
}

pub fn run(
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: &Path,
    kgfd: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = work_dir.join(format!("serve-{}", std::process::id()));
    let mut generate_ms = Vec::new();
    let mut setup_secs = Vec::new();
    let mut server = None;
    let mut served = None;
    for _ in 0..SETUPS {
        // Stop the previous instance first so each set-up starts alike.
        drop(server.take());
        let t = Instant::now();
        let s = prepare(seed, &dir).map_err(|e| format!("set-up: {e}"))?;
        let srv = ServerProcess::spawn(kgfd, &dir).map_err(|e| format!("kgfd serve: {e}"))?;
        // Warm the server's measure cache: one discover per strategy, on
        // bodies (explicit seed) the schedule never sends.
        let rel = s
            .vocab
            .relation_label(s.store.used_relations()[0])
            .expect("relation");
        for st in StrategyKind::WITH_EXTENSIONS {
            let body = discover_body(st, rel, Some(u64::MAX));
            let r = http(srv.addr, "POST", "/v1/discover", body.as_bytes())?;
            if r.status != 200 {
                return Err(format!("warm-up discover got {}", r.status));
            }
        }
        setup_secs.push(t.elapsed().as_secs_f64());
        generate_ms.push(s.generate_ms);
        server = Some(srv);
        served = Some(s);
    }
    let server = server.expect("set-up ran");
    let served = served.expect("set-up ran");
    // The best of the set-ups, like the closed loops' operation times.
    let setup_s = best(&setup_secs);

    let connections = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut rng = Rng(seed ^ 0x5EED_5E7E);
    let bodies = Bodies::new(&served, &mut rng);
    let nominal_count = (seconds * NOMINAL_REQUESTS_PER_SECOND_OF_RUN) as usize;
    let nominal_plan = schedule(&bodies, &mut rng, nominal_count, NOMINAL_RPS);

    // Nominal segment.
    let before = scrape(server.addr);
    let (all_nominal, tracers) = drive(server.addr, &nominal_plan, connections, trace);
    let after = scrape(server.addr);
    let nominal_elapsed = all_nominal.iter().map(|s| s.done_ms).fold(0.0, f64::max);

    // Rate ladder in the remaining time.
    let nominal_ok = rung_passes(&all_nominal);
    let mut max_rate = if nominal_ok { NOMINAL_RPS } else { 0.0 };
    let mut ladder: Vec<(f64, Vec<Planned>, Vec<Sample>)> = Vec::new();
    if !trace {
        let rungs: Vec<f64> = if nominal_ok {
            LADDER_UP.to_vec()
        } else {
            vec![LADDER_DOWN]
        };
        let left = (seconds as f64 - nominal_elapsed / 1e3).max(1.0);
        for rate in rungs {
            let count = (rate * left / LADDER_UP.len() as f64) as usize;
            let plan = schedule(&bodies, &mut rng, count.max(30), rate);
            let (s, _) = drive(server.addr, &plan, connections, false);
            let passed = rung_passes(&s);
            println!(
                "serve-mixed: rung {rate} req/s, {} requests: {}",
                s.len(),
                if passed { "pass" } else { "fail" }
            );
            ladder.push((rate, plan, s));
            if !passed {
                break;
            }
            max_rate = max_rate.max(rate);
        }
    }
    drop(server);

    // Correctness: every 200 body equals the in-process handler's.
    let mut oracle = Oracle::new(&served);
    verify(&mut out, &mut oracle, &nominal_plan, &all_nominal);
    for (_, plan, s) in &ladder {
        verify(&mut out, &mut oracle, plan, s);
    }

    // Generator validity.
    let lags: Vec<f64> = all_nominal.iter().map(Sample::generator_lag_ms).collect();
    let lag_p90 = Summary::supported(&lags, 90).unwrap_or(f64::NAN);
    if lag_p90.is_nan() || lag_p90 > GENERATOR_LAG_BOUND_MS {
        out.invalid.push(format!(
            "generator lag p90 {lag_p90:.2} ms exceeds {GENERATOR_LAG_BOUND_MS} ms"
        ));
    }

    // End-to-end metrics at the nominal rate.
    let ok_count = all_nominal.iter().filter(|s| s.ok()).count();
    let first_due = all_nominal
        .iter()
        .map(|s| s.due_ms)
        .fold(f64::MAX, f64::min);
    let goodput = ok_count as f64 / ((nominal_elapsed - first_due) / 1e3);
    let all = Summary::of(&latencies(&all_nominal, None));
    let miss = Summary::of(&computed_latencies(&all_nominal));
    out.named("setup_s", "s", setup_s, setup_secs.len());
    out.named("setup_s.median", "s", median(&setup_secs), setup_secs.len());
    for kind in Kind::ALL {
        let v = latencies(&all_nominal, Some(kind));
        let p50 = if v.is_empty() { f64::NAN } else { median(&v) };
        let p90 = Summary::supported(&v, 90).unwrap_or(f64::NAN);
        out.named(&format!("serve.{}.p50_ms", kind.name()), "ms", p50, v.len());
        out.named(&format!("serve.{}.p90_ms", kind.name()), "ms", p90, v.len());
    }
    out.named("serve.p50_ms", "ms", all.p50, all.n);
    out.named(
        &format!("serve.p{}_ms", all.tail_pct),
        "ms",
        all.tail,
        all.n,
    );
    out.named("serve.computed.p50_ms", "ms", miss.p50, miss.n);
    out.named(
        &format!("serve.computed.p{}_ms", miss.tail_pct),
        "ms",
        miss.tail,
        miss.n,
    );
    out.named("serve.max_rate_rps", "1/s", max_rate, ladder.len() + 1);
    out.named("serve.goodput_rps", "1/s", goodput, ok_count);
    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("work_per_s", goodput);
    out.end_to_end.insert("op_p50_ms", miss.p50);
    out.end_to_end.insert("op_tail_ms", miss.tail);
    println!(
        "serve-mixed: {} requests at {NOMINAL_RPS} req/s, p50 {:.2} ms, p{} {:.2} ms; \
         {} computed (cache misses), p50 {:.2} ms, p{} {:.2} ms; \
         generator lag p90 {lag_p90:.3} ms",
        all_nominal.len(),
        all.p50,
        all.tail_pct,
        all.tail,
        miss.n,
        miss.p50,
        miss.tail_pct,
        miss.tail,
    );

    // Exact counters.
    for kind in Kind::ALL {
        let of_kind = |s: &&Sample| s.kind == kind;
        let sent = all_nominal.iter().filter(of_kind).count() as u64;
        let ok = all_nominal
            .iter()
            .filter(of_kind)
            .filter(|s| s.ok())
            .count() as u64;
        let hits = all_nominal
            .iter()
            .filter(of_kind)
            .filter(|s| s.cache_hit())
            .count() as u64;
        let status = |code: u16| {
            all_nominal
                .iter()
                .filter(of_kind)
                .filter(|s| matches!(&s.outcome, Ok((c, _, _)) if *c == code))
                .count() as u64
        };
        let k = kind.name();
        out.counters.insert(format!("{k}.sent"), sent);
        out.counters.insert(format!("{k}.succeeded"), ok);
        out.counters.insert(format!("{k}.shed"), status(429));
        out.counters.insert(format!("{k}.timed_out"), status(408));
        out.counters.insert(format!("{k}.cache_hits"), hits);
    }
    out.counters
        .insert("distinct_bodies".into(), oracle.expected.len() as u64);

    if trace {
        per_layer(
            &mut out,
            &mut oracle,
            &served,
            &nominal_plan,
            &all_nominal,
            (&before, &after),
            &tracers,
            lag_p90,
        );
        out.per_layer
            .insert("datasets.generate_ms", median(&generate_ms));
        let mut merged = Tracer::new();
        for t in &tracers {
            merged.absorb(t);
        }
        let path = work_dir.join(format!("trace-serve-mixed-{seed}.json"));
        if let Err(e) = merged.write_chrome(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    out: &mut Outcome,
    oracle: &mut Oracle,
    served: &Served,
    plan: &[Planned],
    nominal: &[Sample],
    (before, after): (&HashMap<String, f64>, &HashMap<String, f64>),
    tracers: &[Tracer],
    lag_p90: f64,
) {
    let p = &mut out.per_layer;
    // Handler time vs client latency on cache misses, per endpoint.
    let mut discover_miss_p50 = f64::NAN;
    for kind in Kind::ALL {
        let misses: Vec<&Sample> = nominal
            .iter()
            .filter(|s| s.kind == kind && s.ok() && !s.cache_hit())
            .collect();
        let handler: Vec<f64> = misses
            .iter()
            .map(|s| oracle.expect(kind, &plan[s.index].body).1)
            .collect();
        let client: Vec<f64> = misses.iter().map(|s| s.latency_ms()).collect();
        let (h, c) = if misses.is_empty() {
            (0.0, 0.0)
        } else {
            (median(&handler), median(&client))
        };
        if kind == Kind::Discover {
            discover_miss_p50 = c;
        }
        let (hname, oname) = match kind {
            Kind::Rank => ("serve.handler_ms.rank", "serve.overhead_ms.rank"),
            Kind::Discover => ("serve.handler_ms.discover", "serve.overhead_ms.discover"),
            Kind::Score => ("serve.handler_ms.score", "serve.overhead_ms.score"),
        };
        p.insert(hname, h);
        p.insert(oname, c - h);
    }
    // The filter index every /v1/discover request rebuilds.
    let builds: Vec<f64> = (0..10)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(KnownTriples::from_slices([served.store.triples()]));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let known_ms = median(&builds);
    p.insert("kg.known_build_ms", known_ms);
    p.insert("kg.triples_indexed", served.store.len() as f64);
    p.insert(
        "kg.known_build_share_pct",
        100.0 * known_ms / discover_miss_p50,
    );

    // Ranking inside /v1/rank: the engine call the handler makes, per body.
    let entry = oracle.registry.get(MODEL).expect("model loaded");
    let graph = oracle.registry.graph();
    let (tq0, dq0) = (
        kgfd_obs::counter("eval.rank.total_queries").get(),
        kgfd_obs::counter("eval.rank.distinct_queries").get(),
    );
    let mut rank_ms = Vec::new();
    for s in nominal
        .iter()
        .filter(|s| s.kind == Kind::Rank && !s.cache_hit())
    {
        let request = api::parse_request(plan[s.index].body.as_bytes()).expect("parses");
        let triples: Vec<Triple> = request["triples"]
            .as_array()
            .expect("triples array")
            .iter()
            .map(|t| {
                let l = |i: usize| t[i].as_str().expect("label");
                Triple {
                    subject: graph.vocab.entity(l(0)).expect("entity"),
                    relation: graph.vocab.relation(l(1)).expect("relation"),
                    object: graph.vocab.entity(l(2)).expect("entity"),
                }
            })
            .collect();
        let t = Instant::now();
        let ranker = kgfd_eval::BatchRanker::new(entry.model.as_ref(), 1);
        std::hint::black_box(ranker.rank_all_with_stats(&triples, Some(&graph.known)));
        rank_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let tq = kgfd_obs::counter("eval.rank.total_queries").get() - tq0;
    let dq = kgfd_obs::counter("eval.rank.distinct_queries").get() - dq0;
    if !rank_ms.is_empty() {
        p.insert("eval.rank_ms", median(&rank_ms));
    }
    p.insert("eval.total_queries", tq as f64);
    p.insert("eval.distinct_queries", dq as f64);
    p.insert("eval.dedup_ratio", tq as f64 / dq.max(1) as f64);
    p.insert(
        "eval.entity_row_visits",
        (dq * served.store.num_entities() as u64) as f64,
    );

    // Server-side queue, cache and refusal counters over the nominal segment.
    p.insert(
        "serve.queue_wait_us.p50",
        histogram_pct(before, after, "serve_queue_wait_us", 50),
    );
    p.insert(
        "serve.queue_wait_us.p90",
        histogram_pct(before, after, "serve_queue_wait_us", 90),
    );
    let hits = delta(before, after, "serve_cache_hits");
    let misses = delta(before, after, "serve_cache_misses");
    p.insert("serve.cache_hit_share", hits / (hits + misses).max(1.0));
    p.insert("serve.shed", delta(before, after, "serve_shed"));
    p.insert(
        "serve.deadline_expired",
        delta(before, after, "serve_deadline_expired"),
    );
    p.insert("serve.generator_lag_ms.p90", lag_p90);
    p.insert("pool.jobs", delta(before, after, "pool_jobs"));

    // Tracing validity: traced against untraced requests of the segment.
    let (traced, plain): (Vec<Sample>, Vec<Sample>) =
        nominal.iter().cloned().partition(|s| s.traced);
    let untraced = latencies(&plain, None);
    let traced_lat = latencies(&traced, None);
    if !untraced.is_empty() && !traced_lat.is_empty() {
        let (u, t) = (median(&untraced), median(&traced_lat));
        p.insert("obs.tracing_overhead_pct", 100.0 * (t - u) / u);
    }
    let span_ms: f64 = tracers
        .iter()
        .map(|t| t.totals().get("serve.client_request").map_or(0.0, |v| v.0))
        .sum();
    let sent_to_done: f64 = traced.iter().map(|s| s.done_ms - s.sent_ms).sum();
    if sent_to_done > 0.0 {
        p.insert("trace.accounted_pct", 100.0 * span_ms / sent_to_done);
        p.insert(
            "trace.unattributed_ms",
            (sent_to_done - span_ms) / traced.len().max(1) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stand-in server answering `{}` to every request; the request
    /// numbered `stall_on` is held for `stall_ms` first.
    fn stub_server(requests: usize, stall_on: usize, stall_ms: u64) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("address");
        std::thread::spawn(move || {
            for (i, stream) in listener.incoming().take(requests).enumerate() {
                let mut stream = stream.expect("accept");
                let mut buf = Vec::new();
                let mut chunk = [0u8; 4096];
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = stream.read(&mut chunk).expect("read");
                    buf.extend_from_slice(&chunk[..n]);
                }
                if i == stall_on {
                    std::thread::sleep(Duration::from_millis(stall_ms));
                }
                let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
                stream.write_all(reply).expect("write");
            }
        });
        addr
    }

    fn plan(kinds: &[Kind], gap_ms: u64) -> Vec<Planned> {
        kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| Planned {
                kind,
                due: Duration::from_millis(gap_ms * i as u64),
                body: "{}".to_string(),
            })
            .collect()
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // One connection, requests due every 10 ms, the first held 200 ms:
        // the requests queued behind it must carry that wait, and it is
        // backlog, not generator lateness.
        let addr = stub_server(10, 0, 200);
        let p = plan(&[Kind::Rank; 10], 10);
        let (samples, _) = drive(addr, &p, 1, false);
        assert!(samples.iter().all(Sample::ok));
        for s in &samples[1..5] {
            assert!(
                s.latency_ms() >= 200.0 - s.due_ms - 1.0,
                "request {} latency {:.1} ms ignores the stall",
                s.index,
                s.latency_ms()
            );
            assert!(
                s.done_ms - s.sent_ms < 100.0,
                "service time itself is short"
            );
            assert!(s.generator_lag_ms() < 50.0, "waiting for a slot is not lag");
        }
    }

    #[test]
    fn injected_slowdown_fails_the_rung() {
        // Must-fail: the same traffic passes without the stall and fails
        // the rank latency limit with it.
        let kinds: Vec<Kind> = (0..40)
            .map(|i| {
                if i % 2 == 0 {
                    Kind::Rank
                } else {
                    Kind::Discover
                }
            })
            .collect();
        let fast = drive(stub_server(40, usize::MAX, 0), &plan(&kinds, 5), 1, false).0;
        assert!(rung_passes(&fast), "an idle stub must meet the limits");
        let slow = drive(stub_server(40, 0, 300), &plan(&kinds, 5), 1, false).0;
        assert!(!rung_passes(&slow), "a 300 ms stall must break the limits");
    }

    #[test]
    fn schedule_has_the_exact_mix_and_is_seeded() {
        let bodies = Bodies {
            hot_rank: vec!["hot".to_string()],
            discover_pairs: vec![(StrategyKind::GraphDegree, "r".to_string())],
            zipf_cdf: vec![1.0],
            test: vec![["a".into(), "r".into(), "b".into()]],
            train: vec![["b".into(), "r".into(), "a".into()]],
        };
        let a = schedule(&bodies, &mut Rng(7), 100, 60.0);
        let b = schedule(&bodies, &mut Rng(7), 100, 60.0);
        let count = |k| a.iter().filter(|p| p.kind == k).count();
        assert_eq!(
            (count(Kind::Rank), count(Kind::Discover), count(Kind::Score)),
            (60, 30, 10)
        );
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due == y.due && x.body == y.body));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        // 100 requests at 60 req/s fill a window of 100 / 60 s.
        let last = a.last().expect("100 requests").due.as_secs_f64();
        assert!(last <= 100.0 / 60.0 && last > 0.9 * 100.0 / 60.0, "{last}");
    }
}
