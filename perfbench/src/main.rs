//! The IVN benchmark binary. `perfbench/run.py` builds it and runs it;
//! see `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! ivn-perfbench oracle
//! ivn-perfbench run --workload <stream|campaign|inventory|figures>
//!               --seed <n> --seconds <s> --trace <0|1> [--oracle <hex>]
//! ```
//!
//! `run` prints human-readable lines, then `digest <hex>` (the checked
//! outputs, for comparison across runs at one seed), then one JSON line:
//! `{"attempted", "failed", "metrics": {name: {"value", "unit"}}}`. With
//! `--trace 0` the metrics are the end-to-end ones this process measures
//! (`run.py` adds peak memory and `ok_frac`); with `--trace 1` they are
//! the per-layer metrics the workload reaches (`run.py` reports the
//! others as 0).

mod campaign;
mod figures;
mod inventory;
mod ledger;
mod stream;

use ivn_runtime::json::Json;
use ivn_runtime::pool::WorkerPool;
use ledger::Outcome;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    oracle: Option<u64>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        oracle: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad.clone())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad.clone())? != 0,
            "--oracle" => {
                args.oracle = Some(u64::from_str_radix(&value, 16).map_err(|_| bad.clone())?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    // The pool starts before any timing: every user process pays it once.
    WorkerPool::global();
    let oracle = || args.oracle.ok_or("the stream workload needs --oracle");
    Ok(match (args.workload.as_str(), args.trace) {
        ("stream", false) => stream::timed(args.seconds, oracle()?),
        ("stream", true) => stream::traced(oracle()?),
        ("campaign", false) => campaign::timed(args.seed, args.seconds),
        ("campaign", true) => campaign::traced(args.seed),
        ("inventory", false) => inventory::timed(args.seed, args.seconds),
        ("inventory", true) => inventory::traced(args.seed),
        ("figures", false) => figures::timed(args.seed, args.seconds),
        ("figures", true) => figures::traced(args.seed),
        (other, _) => return Err(format!("unknown workload '{other}'")),
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let result = match argv.next().as_deref() {
        Some("oracle") => {
            println!("{:016x}", stream::oracle_digest());
            return ExitCode::SUCCESS;
        }
        Some("run") => parse_args(argv).and_then(|a| run(&a).map(|o| (a, o))),
        _ => Err("usage: ivn-perfbench oracle | run --workload <w> --seed <n> --seconds <s> --trace <0|1> [--oracle <hex>]".into()),
    };
    let (args, out) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ivn-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    const SHOWN_NOTES: usize = 20;
    for line in out.notes.iter().take(SHOWN_NOTES) {
        println!("{line}");
    }
    if out.notes.len() > SHOWN_NOTES {
        println!("... {} more", out.notes.len() - SHOWN_NOTES);
    }
    for (name, value, unit) in &out.metrics {
        println!(
            "{:<28} {value:>16.6} {unit}",
            format!("{}.{name}", args.workload)
        );
    }
    println!("failed {} of {} operations", out.failed, out.attempted);
    println!("digest {:016x}", out.digest);
    let metrics = out
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Json::obj([("value", value.into()), ("unit", unit.into())]),
            )
        })
        .collect();
    let doc = Json::obj([
        ("attempted", (out.attempted as f64).into()),
        ("failed", (out.failed as f64).into()),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", doc.dump());
    ExitCode::SUCCESS
}
