//! One pipeline benchmark for kgfd on the `fb15k237 --scale standard`
//! graph: `discover-sweep`, `train-epochs` and `serve-mixed`.
//!
//! ```text
//! kgfd-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                --kgfd <path to the kgfd binary> --work-dir <dir>
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds this package
//! and the `kgfd` binary first. The last line of standard output is the
//! result object; see `report.rs` and the README beside this package.
//! Exit codes: 0 correct, 1 a correctness check failed, 2 bad usage or a
//! set-up failure (no result printed), 3 the host ran the serve-mixed
//! generator too late twice (result printed, marked invalid).

mod discover;
mod host;
mod pipeline;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    kgfd: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {key}"))
    };
    let number = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("{key} expects a whole number"))
    };
    let args = Args {
        workload: get("--workload")?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace expects 0 or 1".into()),
        },
        kgfd: get("--kgfd")?.into(),
        work_dir: get("--work-dir")?.into(),
    };
    if !(1..=120).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 120".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    match args.workload.as_str() {
        "discover-sweep" => Ok(discover::run(
            args.seed,
            args.seconds,
            args.trace,
            &args.work_dir,
        )),
        "train-epochs" => Ok(train::run(
            args.seed,
            args.seconds,
            args.trace,
            &args.work_dir,
        )),
        "serve-mixed" => serve::run(
            args.seed,
            args.seconds,
            args.trace,
            &args.work_dir,
            &args.kgfd,
        ),
        other => Err(format!(
            "unknown workload {other:?} (discover-sweep, train-epochs, serve-mixed)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let host = host::probe();
    let mut outcome = run(&args);
    // A busy host can make the open-loop generator late; such a run says
    // nothing about the server, so it is repeated once before giving up.
    if matches!(&outcome, Ok(o) if !o.invalid.is_empty()) {
        eprintln!("perfbench: generator ran late; repeating the run once");
        outcome = run(&args);
    }
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let invalid = !outcome.invalid.is_empty();
    let correct = report::print(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &host,
        outcome,
    );
    if !correct {
        ExitCode::from(1)
    } else if invalid {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}
