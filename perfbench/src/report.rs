//! Result assembly and printing.
//!
//! Every run prints, on standard output: a human-readable table of the
//! workload's named metrics with unit and sample count, one `report` JSON
//! line (host block, named metrics, exact work counters, errors), and as
//! the very last line the result object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. An untraced run
//! puts the [`END_TO_END`] metrics in `metrics`; a traced run the
//! [`PER_LAYER`] ones, with 0 for a layer the workload never calls.

use std::collections::BTreeMap;

/// Gated metrics every workload reports (name, unit). Their meaning per
/// workload is documented in the benchmark's README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics of the traced run (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("eval.rank_ms", "ms"),
    ("eval.rank_share_pct", "%"),
    ("eval.total_queries", "count"),
    ("eval.distinct_queries", "count"),
    ("eval.dedup_ratio", "ratio"),
    ("eval.entity_row_visits", "count"),
    ("eval.rank_resolution_ms", "ms"),
    ("embed.score_sweep_ms", "ms"),
    ("embed.score_flops", "flop"),
    ("embed.epoch_ms", "ms"),
    ("embed.positives", "count"),
    ("embed.negatives", "count"),
    ("graph-stats.measures_ms.ur", "ms"),
    ("graph-stats.measures_ms.ef", "ms"),
    ("graph-stats.measures_ms.gd", "ms"),
    ("graph-stats.measures_ms.cc", "ms"),
    ("graph-stats.measures_ms.ct", "ms"),
    ("graph-stats.measures_ms.cs", "ms"),
    ("graph-stats.measures_ms.pr", "ms"),
    ("kg.known_build_ms", "ms"),
    ("kg.known_build_share_pct", "%"),
    ("kg.triples_indexed", "count"),
    ("core.generation_ms", "ms"),
    ("core.candidates", "count"),
    ("core.pruned", "count"),
    ("core.heap_ms", "ms"),
    ("core.facts", "count"),
    ("core.fact_yield", "ratio"),
    ("serve.handler_ms.rank", "ms"),
    ("serve.handler_ms.discover", "ms"),
    ("serve.handler_ms.score", "ms"),
    ("serve.overhead_ms.rank", "ms"),
    ("serve.overhead_ms.discover", "ms"),
    ("serve.overhead_ms.score", "ms"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p90", "us"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.generator_lag_ms.p90", "ms"),
    ("datasets.generate_ms", "ms"),
    ("pool.jobs", "count"),
    ("trace.unattributed_ms", "ms"),
    ("trace.accounted_pct", "%"),
    ("obs.tracing_overhead_pct", "%"),
];

/// One named metric with the number of samples behind it.
pub struct Named {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Reasons the run's timings are not trustworthy (host too busy).
    pub invalid: Vec<String>,
    /// Values of the [`END_TO_END`] metrics (untraced runs).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Values of the [`PER_LAYER`] metrics (traced runs).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The named end-to-end metrics of this workload (printed, not gated).
    pub named: Vec<Named>,
    /// Exact work counters; they repeat for a given seed on any host.
    pub counters: BTreeMap<String, u64>,
}

impl Outcome {
    pub fn named(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.named.push(Named {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    pub fn error(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("perfbench: check failed: {msg}");
        self.errors.push(msg);
    }

    /// Records a mismatch found while checking one operation's output.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.error(msg());
        }
    }
}

/// JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number; non-finite values (a bug) print as 0 and are
/// reported as a failed check by [`print`].
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints the table, the report line and the result line. Returns whether
/// the run was correct.
pub fn print(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    host: &crate::host::Host,
    mut out: Outcome,
) -> bool {
    let metrics: Vec<(&str, &str, f64)> = if trace {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, out.per_layer.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n, u, out.end_to_end.get(n).copied().unwrap_or(f64::NAN)))
            .collect()
    };
    for &(name, _, v) in &metrics {
        if !v.is_finite() {
            out.error(format!("metric {name} is not finite ({v})"));
        }
    }
    let error_share = out.failed as f64 / out.attempted.max(1) as f64;
    out.named("error_share", "ratio", error_share, out.attempted as usize);

    println!(
        "perfbench {workload} seed={seed} seconds={seconds} trace={}",
        trace as u8
    );
    println!(
        "host: available_parallelism={} effective_parallelism={:.2} cpu={}",
        host.available_parallelism, host.effective_parallelism, host.cpu_model
    );
    println!(
        "{:<34} {:>16} {:>6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &out.named {
        println!(
            "{:<34} {:>16.4} {:>6} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for (name, unit, v) in &metrics {
        println!("{:<34} {:>16.4} {:>6}", name, v, unit);
    }
    if !out.invalid.is_empty() {
        println!("INVALID RUN (host too busy): {}", out.invalid.join("; "));
    }

    let named: Vec<String> = out
        .named
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples
            )
        })
        .collect();
    let counters: Vec<String> = out
        .counters
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let strings = |v: &[String]| v.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(",");
    println!(
        "{{\"report\":{},\"seed\":{seed},\"trace\":{trace},\"host\":{},\"named\":{{{}}},\"counters\":{{{}}},\"errors\":[{}],\"invalid\":[{}]}}",
        json_str(workload),
        host.to_json(),
        named.join(","),
        counters.join(","),
        strings(&out.errors),
        strings(&out.invalid),
    );

    let correct = out.errors.is_empty();
    let failed = if correct {
        out.failed
    } else {
        out.failed.max(1)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        body.join(",")
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let host = crate::host::Host {
            available_parallelism: 1,
            effective_parallelism: 1.0,
            cpu_model: "test".into(),
        };
        let mut ok = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            ok.end_to_end.insert(name, 1.0);
        }
        assert!(print("w", 1, 1, false, &host, ok));
        let mut bad = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            bad.end_to_end.insert(name, 1.0);
        }
        bad.check(false, || "checksum mismatch".into());
        assert!(!print("w", 1, 1, false, &host, bad));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
