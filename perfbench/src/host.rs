//! The host block printed with every result: timings depend on it, work
//! counters do not.

use std::hint::black_box;
use std::time::Instant;

/// What the benchmark knows about the machine it ran on.
pub struct Host {
    pub available_parallelism: usize,
    /// Parallel speed-up of a calibrated spin loop run on
    /// `available_parallelism` threads at once (1.0 = one effective CPU).
    pub effective_parallelism: f64,
    pub cpu_model: String,
}

/// A fixed amount of integer work the optimizer cannot remove.
fn spin(iters: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

fn time_spin(iters: u64) -> f64 {
    let t = Instant::now();
    spin(iters);
    t.elapsed().as_secs_f64()
}

/// Probes the host: calibrates a ~30 ms spin, then compares one thread
/// against `available_parallelism` threads running it concurrently.
pub fn probe() -> Host {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut iters = 1u64 << 16;
    while time_spin(iters) < 0.03 {
        iters *= 2;
    }
    let single = (0..3).map(|_| time_spin(iters)).fold(f64::MAX, f64::min);
    let parallel = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| spin(iters));
                }
            });
            t.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min);
    Host {
        available_parallelism: threads,
        effective_parallelism: threads as f64 * single / parallel,
        cpu_model: cpu_model(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\":{},\"effective_parallelism\":{:.3},\"cpu_model\":{}}}",
            self.available_parallelism,
            self.effective_parallelism,
            crate::report::json_str(&self.cpu_model)
        )
    }
}
