//! Command-line entry point:
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use hwst128::workloads;
use hwst_perfbench::job::FailReason;
use hwst_perfbench::report::{self, json_str};
use hwst_perfbench::run::{timed_run, RunConfig};
use hwst_perfbench::setup::{Kind, Setup, SCALE};
use hwst_perfbench::trace;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::by_name(&val).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(val.parse().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"expected a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The checked-out commit; `unknown` outside a git checkout.
fn commit() -> String {
    tool_output("git", &["--git-dir=.git", "rev-parse", "HEAD"])
}

/// The first line `program args` prints, or `unknown` when it fails.
fn tool_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn run(start: Instant) -> Result<(), String> {
    let args = parse_args()?;
    let mut setup = Setup::new(args.kind, workloads::all()).map_err(|e| e.to_string())?;
    let setup_s = start.elapsed().as_secs_f64();
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let r = timed_run(&mut setup, &cfg);
    let rss = report::peak_rss_mb()?;

    let identical = r.counters_identical;
    let failed = r.failed();
    let correct = failed == 0 && identical;
    let metrics = if args.trace {
        report::per_layer(&r)
    } else {
        report::end_to_end(setup_s, &r, rss)
    };
    let kind = args.kind;
    let jobs = setup.jobs.len();
    let traced = r.passes.iter().filter(|p| p.traced).count();
    println!(
        "workload {}: {} kernels x 4 schemes, {jobs} jobs per pass, {:?} scale",
        kind.name(),
        setup.kernels.len(),
        SCALE
    );
    println!(
        "passes {} ({traced} traced), jobs attempted {}",
        r.passes.len(),
        r.attempted
    );
    let reasons: Vec<String> = FailReason::ALL
        .iter()
        .map(|f| format!("{} {}", f.label(), r.failures.get(f).copied().unwrap_or(0)))
        .collect();
    println!(
        "failed_ratio {} ratio ({})",
        failed as f64 / r.attempted as f64,
        reasons.join(", ")
    );
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let digest = report::fnv1a(&r.counter_bytes());
    println!("counters digest {digest:016x}, identical across passes: {identical}");
    if args.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or(PathBuf::from(".bench_build"), PathBuf::from);
        let path = dir
            .join("perfbench")
            .join(format!("{}-spans.jsonl", kind.name()));
        trace::write_jsonl(&path, r.tracer.spans())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "spans {} written to {}",
            r.tracer.spans().len(),
            path.display()
        );
    }
    println!(
        "provenance {{\"commit\": {}, \"rustc\": {}, \"nproc\": {}, \"scale\": {}, \"seed\": {}, \"seconds\": {}, \"passes\": {}, \"jobs_per_pass\": {jobs}, \"job_samples\": {}}}",
        json_str(&commit()),
        json_str(&tool_output("rustc", &["--version"])),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&format!("{SCALE:?}")),
        args.seed,
        args.seconds,
        r.passes.len(),
        (r.passes.len() - traced) * jobs,
    );
    println!(
        "{}",
        report::result_line(correct, r.attempted, failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let start = Instant::now();
    match run(start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
