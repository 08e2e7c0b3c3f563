//! Metrics derived from a run, and the lines the benchmark prints.

use std::fmt::Write as _;

use crate::run::{median, quantile, Pass, RunResult};
use crate::trace::JOB;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Layer spans in pipeline order. Each gives a `<name>.self_ms` metric.
pub const LAYERS: [&str; 14] = [
    "workloads.build",
    "compiler.analysis",
    "compiler.bounds",
    "compiler.instrument",
    "compiler.rce",
    "compiler.verify",
    "compiler.lower",
    "compiler.binval",
    "sim.load",
    "sim.restore",
    "exec.fast_cold",
    "exec.fast_warm",
    "sim.cycle",
    "bench.check",
];

/// The layers that execute simulated instructions.
const ENGINES: [&str; 3] = ["exec.fast_cold", "exec.fast_warm", "sim.cycle"];

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn untraced(r: &RunResult) -> Vec<&Pass> {
    r.passes.iter().filter(|p| !p.traced).collect()
}

fn traced(r: &RunResult) -> Vec<&Pass> {
    r.passes.iter().filter(|p| p.traced).collect()
}

/// Per job, in job-set order: the least value over `passes` of
/// `f(pass, job)`.
///
/// Every job runs once per pass, so each has one sample per pass, and
/// its fastest sample is taken as its cost. Shared hosts slow down for
/// seconds to minutes at a time when a neighbour is busy, with fast
/// windows in between. Such interference only ever adds time, so the
/// fastest sample varies far less from run to run than the median or a
/// low quantile does, while a slower program still slows every sample.
fn per_job(passes: &[&Pass], f: impl Fn(&Pass, usize) -> f64) -> Vec<f64> {
    let n = passes.first().map_or(0, |p| p.job_ns.len());
    (0..n)
        .map(|j| passes.iter().map(|p| f(p, j)).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Per job, in job-set order: its undisturbed latency, the fastest of
/// its samples over the untraced passes, in ms.
pub fn job_ms(r: &RunResult) -> Vec<f64> {
    per_job(&untraced(r), |p, j| p.job_ns[j] as f64 / 1e6)
}

/// Jobs per second when every job takes its undisturbed latency.
fn jobs_per_s(passes: &[&Pass]) -> f64 {
    let lat = per_job(passes, |p, j| p.job_ns[j] as f64 / 1e9);
    lat.len() as f64 / lat.iter().sum::<f64>()
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
pub fn end_to_end(setup_s: f64, r: &RunResult, rss_mb: f64) -> Vec<Metric> {
    let lat = job_ms(r);
    vec![
        metric("jobs_per_s", jobs_per_s(&untraced(r)), "1/s"),
        metric("job_ms_p50", quantile(&lat, 0.5), "ms"),
        metric("job_ms_p90", quantile(&lat, 0.9), "ms"),
        metric("peak_rss_mb", rss_mb, "MiB"),
        metric("setup_s", setup_s, "s"),
    ]
}

/// Self time of the spans named `names` in job `j` of `p`, in ms.
fn self_ms(p: &Pass, j: usize, names: &[&str]) -> f64 {
    let s = &p.self_ns[j];
    names
        .iter()
        .map(|n| s.get(n).copied().unwrap_or(0))
        .sum::<u64>() as f64
        / 1e6
}

/// Undisturbed self time of `names` (per job, the fastest over the
/// passes) summed over the job set, in ms.
fn layer_ms(passes: &[&Pass], names: &[&str]) -> f64 {
    per_job(passes, |p, j| self_ms(p, j, names)).iter().sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
/// A layer's self time is, per job, the fastest over the traced passes,
/// summed over the job set: the time one pass spends in that layer.
/// Counters are exact per-pass totals.
pub fn per_layer(r: &RunResult) -> Vec<Metric> {
    let tp = traced(r);
    let mut out = Vec::new();
    for name in LAYERS {
        out.push(metric(
            &format!("{name}.self_ms"),
            layer_ms(&tp, &[name]),
            "ms",
        ));
    }
    let t = r.totals();
    let counts = [
        ("workloads.build.ir_insts", t.ir_insts_in),
        ("compiler.bounds.proven", t.bounds_proven),
        ("compiler.instrument.ir_insts_out", t.ir_insts_out),
        ("compiler.rce.removed", t.rce_removed),
        ("compiler.lower.machine_instrs", t.machine_instrs),
        ("compiler.binval.checked_ops", t.checked_ops),
        ("compiler.binval.discharged", t.discharged),
        ("compiler.binval.lowering_findings", t.lowering_findings),
        ("exec.decoded_blocks", t.decoded_blocks),
        ("sim.instret", t.instret),
        ("sim.cycles", t.cycles),
    ];
    for (name, v) in counts {
        out.push(metric(name, v as f64, "count"));
    }
    out.push(metric(
        "exec.block_hit_ratio",
        ratio(t.block_hits, t.block_hits + t.decoded_blocks),
        "ratio",
    ));
    out.push(metric(
        "pipeline.keybuffer.hit_ratio",
        ratio(t.keybuffer_hits, t.keybuffer_hits + t.keybuffer_misses),
        "ratio",
    ));
    let mips = |names: &[&str]| {
        let ms = layer_ms(&tp, names);
        if ms == 0.0 {
            0.0
        } else {
            t.instret as f64 / (ms * 1e3)
        }
    };
    out.push(metric("exec.fast.mips", mips(&ENGINES[..2]), "MIPS"));
    out.push(metric("sim.cycle.mips", mips(&ENGINES[2..]), "MIPS"));
    out.push(metric("sim_mips", mips(&ENGINES), "MIPS"));
    let job_ms = layer_ms(&tp, &[JOB]) + layer_ms(&tp, &LAYERS);
    let share = |names: &[&str]| 100.0 * layer_ms(&tp, names) / job_ms;
    // LAYERS[..8]: IR build through `binval`.
    out.push(metric(
        "split.compile_validate_pct",
        share(&LAYERS[..8]),
        "%",
    ));
    out.push(metric(
        "split.fast_warm_pct",
        share(&["exec.fast_warm"]),
        "%",
    ));
    let sums: Vec<f64> = tp
        .iter()
        .map(|p| {
            let inside: f64 = (0..p.job_ns.len()).map(|j| self_ms(p, j, &LAYERS)).sum();
            let outside = p.job_ns.iter().sum::<u64>() as f64 / 1e6;
            100.0 * inside / outside
        })
        .collect();
    out.push(metric("spans.self_sum_pct", median(&sums), "%"));
    let plain = jobs_per_s(&untraced(r));
    let with_spans = jobs_per_s(&tp);
    out.push(metric("trace.jobs_per_s", with_spans, "1/s"));
    out.push(metric(
        "trace.overhead_pct",
        100.0 * (1.0 - with_spans / plain),
        "%",
    ));
    out
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// FNV-1a over `bytes`: the counter digest printed for cross-run
/// comparison.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let l = result_line(true, 3, 0, &[metric("setup_s", 0.5, "s")]);
        assert_eq!(
            l,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
