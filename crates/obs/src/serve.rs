//! A dependency-free live metrics endpoint.
//!
//! [`MetricsServer::start`] binds a `std::net::TcpListener` and serves
//! three read-only routes over HTTP/1.1 until [`MetricsServer::shutdown`]
//! (or drop):
//!
//! * `GET /metrics` — the registry in Prometheus text exposition format:
//!   counters and gauges as single samples, histograms as cumulative
//!   `_bucket{le="..."}` series plus `_sum` / `_count`. Metric names have
//!   `.` and other non-identifier characters mapped to `_`
//!   (`embed.train.epoch_loss` → `embed_train_epoch_loss`).
//! * `GET /healthz` — a small JSON document with the run id, uptime in
//!   seconds, and the current pipeline phase (see [`set_phase`]).
//! * `GET /trace` — the top spans by self time from the live trace
//!   collector, as JSON (see [`crate::export::top_spans_json`]).
//!
//! The server is a GET-only route table on the shared HTTP core
//! ([`crate::http`]): one request per connection, `Connection: close`, no
//! keep-alive, no TLS; any other method or path gets `404`. It exists so
//! `curl` and a Prometheus scraper can watch a long `train`/`grid` run —
//! not to be a general web server.
//!
//! **Shutdown.** `shutdown()` (or drop) stops the core's
//! [`Acceptor`](crate::http::Acceptor), joining its thread before
//! returning — so a run never exits with the port still held.

use crate::http::{self, Acceptor, RequestHead, Status};
use crate::metrics::registry;
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpListener, TcpStream};

static PHASE: Mutex<Option<String>> = Mutex::new(None);

/// Declares the pipeline phase reported by `GET /healthz` (e.g.
/// `"train"`, `"discover"`, `"grid:cell lcwa_uniform/transe"`).
pub fn set_phase(phase: impl Into<String>) {
    *PHASE.lock() = Some(phase.into());
}

/// The phase last declared with [`set_phase`], if any.
pub fn current_phase() -> Option<String> {
    PHASE.lock().clone()
}

/// A running metrics endpoint. Shut down explicitly with
/// [`MetricsServer::shutdown`]; dropping it does the same.
pub struct MetricsServer {
    acceptor: Acceptor,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, or port `0` for an ephemeral
    /// port) and starts serving on a background thread.
    pub fn start(addr: &str) -> std::io::Result<MetricsServer> {
        let acceptor =
            Acceptor::start(TcpListener::bind(addr)?, "kgfd-metrics", handle_connection)?;
        Ok(MetricsServer { acceptor })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr()
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.acceptor.stop();
    }
}

fn handle_connection(mut stream: TcpStream) {
    let Some(RequestHead { method, path, .. }) = http::read_head(&mut stream) else {
        return;
    };
    let (status, content_type, body) = match (method.as_str(), path.as_str()) {
        ("GET", "/metrics") => (Status(200), http::PROMETHEUS_TEXT, prometheus_text()),
        ("GET", "/healthz") => (Status(200), "application/json", healthz_json()),
        ("GET", "/trace") => (Status(200), "application/json", trace_json()),
        _ => (
            Status(404),
            "text/plain; charset=utf-8",
            "not found: routes are /metrics, /healthz, /trace\n".to_string(),
        ),
    };
    http::respond(&mut stream, status, content_type, &[], body.as_bytes());
}

/// Maps a metric name onto the Prometheus identifier charset
/// (`[a-zA-Z0-9_:]`); everything else — notably the `.` separators of the
/// `<crate>.<phase>.<name>` convention — becomes `_`.
fn prometheus_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders the whole registry as Prometheus text exposition format. Output
/// order is deterministic: counters, then gauges, then histograms, each
/// sorted by name (the registry snapshot is BTreeMap-backed).
pub fn prometheus_text() -> String {
    let reg = registry();
    let snap = reg.snapshot();
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", format_value(*value)));
    }
    for name in snap.histograms.keys() {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        // Buckets come from the live histogram (the snapshot carries only
        // the quantile summary). The histogram may have gained samples
        // since the snapshot; `_count`/`_sum` are re-read alongside the
        // buckets so the series stays self-consistent.
        let h = reg.histogram(name);
        for (le, cumulative) in h.cumulative_buckets() {
            out.push_str(&format!(
                "{n}_bucket{{le=\"{}\"}} {cumulative}\n",
                format_value(le)
            ));
        }
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
        out.push_str(&format!("{n}_sum {}\n", format_value(h.sum())));
        out.push_str(&format!("{n}_count {}\n", h.count()));
    }
    out
}

fn healthz_json() -> String {
    let phase = match current_phase() {
        Some(p) => format!("\"{}\"", p.replace('\\', "\\\\").replace('"', "\\\"")),
        None => "null".to_string(),
    };
    format!(
        "{{\"status\":\"ok\",\"run\":\"{}\",\"uptime_s\":{:.3},\"phase\":{phase}}}\n",
        crate::observer::run_id(),
        crate::observer::clock_us() as f64 / 1e6,
    )
}

fn trace_json() -> String {
    let tree = crate::export::TraceTree::build(crate::trace::collector().snapshot());
    crate::export::top_spans_json(&tree, 20)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// `PHASE` is process-global; tests that set it take this lock so the
    /// harness's thread-per-test execution cannot interleave them.
    static PHASE_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn get(addr: SocketAddr, path: &str) -> String {
        request(addr, "GET", path)
    }

    fn request(addr: SocketAddr, method: &str, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let request = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n\r\n");
        stream.write_all(request.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    #[test]
    fn serves_metrics_healthz_trace_and_404() {
        let _phase = PHASE_TEST_LOCK.lock();
        registry().counter("serve.test.requests").add(3);
        registry().gauge("serve.test.loss").set(0.25);
        let h = registry().histogram("serve.test.latency_us");
        h.record(10.0);
        h.record(1000.0);
        set_phase("unit-test");

        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "got {metrics}");
        assert!(metrics.contains("# TYPE serve_test_requests counter"));
        assert!(metrics.contains("serve_test_requests 3"));
        assert!(metrics.contains("serve_test_loss 0.25"));
        assert!(metrics.contains("serve_test_latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(metrics.contains("serve_test_latency_us_count 2"));

        let health = get(addr, "/healthz");
        assert!(health.contains("\"status\":\"ok\""));
        assert!(health.contains("\"phase\":\"unit-test\""));
        let body = health.split("\r\n\r\n").nth(1).expect("body");
        let parsed: serde_json::Value = serde_json::from_str(body).expect("healthz is JSON");
        assert!(parsed["uptime_s"].as_f64().is_some());

        let trace = get(addr, "/trace");
        let body = trace.split("\r\n\r\n").nth(1).expect("body");
        let parsed: serde_json::Value = serde_json::from_str(body).expect("trace is JSON");
        assert!(parsed["spans"].as_u64().is_some());

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "got {missing}");
        let post = request(addr, "POST", "/metrics");
        assert!(
            post.starts_with("HTTP/1.1 404"),
            "routes are GET-only, got {post}"
        );

        server.shutdown();
    }

    #[test]
    fn phase_set_before_start_is_visible_on_the_first_request() {
        // Regression: callers must be able to declare the phase *before*
        // binding the endpoint so that the very first scrape — issued the
        // instant the bound address is announced — already reports it.
        // (`kgfd` once called `set_phase` after `MetricsServer::start`,
        // leaving a window where /healthz showed a stale or null phase.)
        let _phase = PHASE_TEST_LOCK.lock();
        set_phase("pre-bind-phase");
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let health = get(server.local_addr(), "/healthz");
        assert!(
            health.contains("\"phase\":\"pre-bind-phase\""),
            "first /healthz after bind must show the pre-bind phase, got: {health}"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_releases_the_port() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        server.shutdown();
        // The accept thread has been joined; rebinding the same port must
        // succeed immediately.
        let rebound = TcpListener::bind(addr).expect("port released");
        drop(rebound);
    }

    #[test]
    fn prometheus_text_is_deterministic() {
        registry().counter("serve.det.a").inc();
        registry().counter("serve.det.b").inc();
        let first = prometheus_text();
        let second = prometheus_text();
        assert_eq!(first, second);
    }
}
