//! `hwst-exec` — experiment X1: decoded-block fast-engine speedup.
//!
//! Runs every workload (or the `--smoke` subset) under `HWST128_tchk`
//! with **both** engines — the reference cycle interpreter and the
//! decoded-block fast tier — times each on the host clock, and prints
//! the instructions-per-second table. Each row is also a differential
//! check: any divergence between the engines' exit statuses is a hard
//! row failure (non-zero exit), so a green table certifies bit-identity
//! over the measured set.
//!
//! Flags: the harness family (`--jobs`, `--json PATH`, `--progress`,
//! `--timeout-secs`, `--bench-scale`) plus `--smoke` for the 4-workload
//! CI subset and `--opt O0|O1` to measure the optimized back-end's
//! images instead of the baseline tier.
//!
//! Exit codes (stable, documented in README): `0` — every workload
//! measured and bit-identical; `1` — any failed or diverged workload;
//! `2` — usage or I/O error.

use hwst128::compiler::OptLevel;
use hwst_bench::cli::BenchArgs;
use hwst_bench::exec::{exec_geomean, exec_geomean_by};
use hwst_bench::runs::{exec_results_opt, profile_names, serial_wall};
use hwst_bench::summary::{exec_summary, write_json};
use hwst_harness::collect_ok;
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.flag("--smoke");
    let scale = args.scale();
    let pool = args.pool();
    let opt = match args.value("--opt") {
        None => OptLevel::O0,
        Some(s) => OptLevel::by_name(s).unwrap_or_else(|| {
            eprintln!("error: unknown opt level {s:?} (expected O0 or O1)");
            std::process::exit(2)
        }),
    };
    let names = profile_names(smoke);
    println!(
        "X1 — fast-engine speedup [-{}]{} ({} workloads), scale {scale:?}, {} worker(s)",
        opt.label(),
        if smoke { " [smoke]" } else { "" },
        names.len(),
        pool.workers
    );
    let start = Instant::now();
    let results = exec_results_opt(&names, scale, opt, &pool, args.sink().as_mut());
    let wall = start.elapsed();
    let (rows, failed) = collect_ok(results.clone());
    println!(
        "{:<10} {:<8} {:>12} {:>7} {:>11} {:>11} {:>8}",
        "workload", "suite", "instret", "blocks", "cycle Mips", "fast Mips", "speedup"
    );
    for r in &rows {
        println!(
            "{:<10} {:<8} {:>12} {:>7} {:>11.2} {:>11.2} {:>7.1}x",
            r.name,
            r.suite.to_string(),
            r.instret,
            r.decoded_blocks,
            r.cycle_ips() / 1e6,
            r.fast_ips() / 1e6,
            r.speedup()
        );
    }
    for f in &failed {
        println!("{:<10} FAILED   {}", f.label, f.error);
    }
    let g = exec_geomean(&rows);
    println!("geomean speedup: {g:.1}x (target >= 10x)");
    println!(
        "geomean Mips: cycle {:.2}, fast {:.2}",
        exec_geomean_by(&rows, |r| r.cycle_ips() / 1e6),
        exec_geomean_by(&rows, |r| r.fast_ips() / 1e6)
    );
    eprintln!(
        "wall {:.1} ms (serial {:.1} ms) on {} worker(s)",
        wall.as_secs_f64() * 1e3,
        serial_wall(&results).as_secs_f64() * 1e3,
        pool.workers
    );
    if let Some(path) = args.json_path() {
        let doc = exec_summary(scale, pool.workers, opt, &results, wall, &failed);
        write_json(path, &doc).unwrap_or_else(|e| {
            eprintln!("error: could not write {}: {e}", path.display());
            std::process::exit(2)
        });
        println!("wrote {}", path.display());
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
