//! The benchmark's own checks. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use hwst128::workloads::{self, Workload};
use hwst_perfbench::job::FailReason;
use hwst_perfbench::report::{self, Metric};
use hwst_perfbench::run::{timed_run, RunConfig, RunResult};
use hwst_perfbench::setup::{Kind, Setup};

/// Two small kernels keep every smoke pass short.
fn kernels() -> Vec<Workload> {
    ["math", "treeadd"]
        .iter()
        .map(|n| workloads::Workload::by_name(n).expect("kernel exists"))
        .collect()
}

fn run(setup: &mut Setup, seed: u64, trace: bool) -> RunResult {
    let cfg = RunConfig {
        seed,
        seconds: 0.0,
        trace,
    };
    timed_run(setup, &cfg)
}

/// `(name, unit)` of every metric listed under `key` in BENCHMARK.json.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("list closes")];
    let field = |obj: &str, f: &str| {
        let at = obj.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_string()
    };
    section
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn names_units(ms: &[Metric]) -> Vec<(String, String)> {
    ms.iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn smoke_pass_of_each_workload_emits_every_metric_and_fails_nothing() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for kind in Kind::ALL {
        let mut setup = Setup::new(kind, kernels()).expect("set-up succeeds");
        let r = run(&mut setup, 7, false);
        assert_eq!(r.failed(), 0, "{}: {:?}", kind.name(), r.failures);
        assert!(r.counters_identical, "{}", kind.name());
        let mut got = names_units(&report::end_to_end(0.5, &r, 1.0));
        let mut want = e2e.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want, "{}: end-to-end metrics", kind.name());

        let r = run(&mut setup, 7, true);
        assert_eq!(r.failed(), 0, "{}: {:?}", kind.name(), r.failures);
        assert_eq!(
            names_units(&report::per_layer(&r)),
            layers,
            "{}: per-layer metrics",
            kind.name()
        );
    }
}

#[test]
fn counters_repeat_exactly_across_runs_and_seeds() {
    let mut setup = Setup::new(Kind::PaperSweep, kernels()).expect("set-up succeeds");
    let a = run(&mut setup, 7, false);
    let mut setup = Setup::new(Kind::PaperSweep, kernels()).expect("set-up succeeds");
    let b = run(&mut setup, 99, false);
    assert!(a.counters_identical && b.counters_identical);
    assert_eq!(a.counter_bytes(), b.counter_bytes());
    assert!(a.totals().instret > 0);
}

#[test]
fn planted_wrong_reference_is_counted_as_failed() {
    let mut setup = Setup::new(Kind::PaperSweep, kernels()).expect("set-up succeeds");
    setup.refs[0].output.push(b'!');
    let r = run(&mut setup, 7, false);
    let per_pass = setup.jobs.iter().filter(|j| j.kernel == 0).count() as u64;
    assert_eq!(
        r.failures.get(&FailReason::Output).copied(),
        Some(per_pass * r.passes.len() as u64)
    );
    assert_eq!(r.failed(), per_pass * r.passes.len() as u64);

    let mut setup = Setup::new(Kind::ValidateOnly, kernels()).expect("set-up succeeds");
    setup.programs[3] = setup.programs[2].clone();
    let r = run(&mut setup, 7, false);
    assert_eq!(r.failures.get(&FailReason::Output).copied(), Some(2));

    let mut setup = Setup::new(Kind::CycleRef, kernels()).expect("set-up succeeds");
    setup.images[1]
        .as_mut()
        .expect("image prepared")
        .other_engine
        .stats
        .instret += 1;
    let r = run(&mut setup, 7, false);
    assert_eq!(
        r.failures.get(&FailReason::StatsDivergence).copied(),
        Some(2)
    );
    assert_eq!(r.failed(), 2);
}

/// Self times of the layer spans (the job's root span excluded) must
/// account for the job wall time measured outside the tracer to within
/// this share, on every workload: what is left is span bookkeeping and
/// the job's own glue.
const SELF_SUM_TOLERANCE: f64 = 0.03;

/// Self times add up to job wall time. The share is the median over the
/// traced passes (`spans.self_sum_pct`), and the run lasts long enough
/// for several of them, because one pass of the two small kernels lasts
/// only milliseconds, and a single preemption between two spans can then
/// take several percent of it.
#[test]
fn span_self_times_add_up_to_job_wall_time() {
    for kind in Kind::ALL {
        let mut setup = Setup::new(kind, kernels()).expect("set-up succeeds");
        let cfg = RunConfig {
            seed: 7,
            seconds: 0.25,
            trace: true,
        };
        let r = timed_run(&mut setup, &cfg);
        let pct = report::per_layer(&r)
            .into_iter()
            .find(|m| m.name == "spans.self_sum_pct")
            .expect("metric emitted")
            .value;
        let share = pct / 100.0;
        assert!(
            (1.0 - SELF_SUM_TOLERANCE..=1.0).contains(&share),
            "{}: layer self times cover {share} of job wall time",
            kind.name()
        );
    }
}
