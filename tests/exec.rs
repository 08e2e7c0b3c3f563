//! The fast-vs-cycle differential-correctness gate (ISSUE 8
//! acceptance): for every workload × scheme, the decoded-block fast
//! engine must be **bit-identical** to the reference cycle
//! interpreter — the same exit status (code, output, full
//! `CycleStats`), the same final machine state (PC, all 32 registers,
//! every nonzero memory word) and the same decision-relevant telemetry
//! (named counters, D-cache and keybuffer hit/miss behaviour).
//!
//! The cross-suite smoke subset runs in tier-1; the full 23-workload ×
//! 5-scheme sweep rides the `--ignored` CI heavy gate.

use hwst128::compiler::{compile, Scheme};
use hwst128::config_for;
use hwst128::exec::{BlockCache, Engine};
use hwst128::isa::Reg;
use hwst128::sim::Machine;
use hwst128::workloads::{Scale, Workload};

/// Every instrumentation scheme the compiler accepts, including the
/// SHORE baseline — "all schemes" in the acceptance sense.
const SCHEMES: [Scheme; 5] = [
    Scheme::None,
    Scheme::Sbcets,
    Scheme::Hwst128,
    Scheme::Hwst128Tchk,
    Scheme::Shore,
];

/// The tier-1 cross-suite subset (one representative per suite family).
const SMOKE: [&str; 6] = ["string", "math", "FFT", "treeadd", "health", "bzip2"];

/// Runs `wl` under `scheme` on both engines and asserts bit-identity of
/// the run result and the complete observable final state.
fn assert_engines_identical(wl: &Workload, scheme: Scheme) {
    let ctx = format!("{}/{}", wl.name, scheme.label());
    let module = wl.module(Scale::Test);
    let prog = match compile(&module, scheme) {
        Ok(p) => p,
        Err(e) => panic!("{ctx}: compile failed: {e}"),
    };
    let fuel = wl.fuel(Scale::Test);
    let cfg = config_for(scheme);

    let mut cycle = Machine::new(prog.clone(), cfg);
    let cycle_result = Engine::Cycle.run(&mut cycle, fuel, &mut BlockCache::new());

    let mut fast = Machine::new(prog, cfg);
    let mut cache = BlockCache::new();
    let fast_result = Engine::Fast.run(&mut fast, fuel, &mut cache);

    // Same outcome: exit (code, output, full CycleStats) or trap.
    assert_eq!(cycle_result, fast_result, "{ctx}: run results diverged");

    // Same final architectural state.
    assert_eq!(cycle.pc(), fast.pc(), "{ctx}: final PC");
    for r in Reg::ALL {
        assert_eq!(cycle.reg(r), fast.reg(r), "{ctx}: register {}", r.name());
    }
    let lo = 0u64;
    let hi = u64::MAX;
    let cycle_words = cycle.mem().nonzero_word_addrs_in(lo, hi);
    let fast_words = fast.mem().nonzero_word_addrs_in(lo, hi);
    assert_eq!(cycle_words, fast_words, "{ctx}: nonzero memory footprint");
    for &addr in &cycle_words {
        assert_eq!(
            cycle.mem().read_u64(addr),
            fast.mem().read_u64(addr),
            "{ctx}: memory word at {addr:#x}"
        );
    }

    // Same decision-relevant counters and model-unit behaviour.
    assert_eq!(cycle.stats(), fast.stats(), "{ctx}: cycle stats");
    assert_eq!(
        cycle.pipeline().counters(),
        fast.pipeline().counters(),
        "{ctx}: telemetry counters"
    );
    assert_eq!(
        cycle.pipeline().dcache().stats(),
        fast.pipeline().dcache().stats(),
        "{ctx}: dcache hits/misses"
    );
    assert_eq!(
        cycle.pipeline().keybuffer().stats(),
        fast.pipeline().keybuffer().stats(),
        "{ctx}: keybuffer hits/misses/fills"
    );
}

/// Tier-1: the cross-suite subset × every scheme is bit-identical.
#[test]
fn fast_engine_bit_identical_on_smoke_subset() {
    for name in SMOKE {
        let wl = Workload::by_name(name).unwrap();
        for scheme in SCHEMES {
            assert_engines_identical(&wl, scheme);
        }
    }
}

/// Full acceptance: all 23 workloads × all 5 schemes. Heavier (the
/// cycle engine runs every pair too), so it rides the CI heavy gate.
#[test]
#[ignore = "full sweep; run via the CI heavy gates"]
fn fast_engine_bit_identical_on_full_suite() {
    for wl in hwst128::workloads::all() {
        for scheme in SCHEMES {
            assert_engines_identical(&wl, scheme);
        }
    }
}

/// The `BENCH_exec.json` artifact (the committed full-scale X1 run, or
/// the one CI's smoke step just emitted) must parse, be schema-stable,
/// and report the 10× target honestly: `meets_target` must equal the
/// recorded geomean actually clearing `target_speedup`. The geomean
/// absolute `cycle_mips`/`fast_mips` must be present and positive. Host
/// timings vary, so no speedup floor is asserted — only structure and
/// self-consistency.
#[test]
fn emitted_bench_exec_artifact_is_valid() {
    use hwst_harness::Json;
    let path = std::path::Path::new("BENCH_exec.json");
    if !path.exists() {
        return;
    }
    let text = std::fs::read_to_string(path).expect("readable artifact");
    let doc = Json::parse(&text).expect("BENCH_exec.json parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("hwst-bench/exec")
    );
    let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
    assert!(!rows.is_empty(), "at least the smoke subset");
    for row in rows {
        let name = row.get("name").and_then(Json::as_str).expect("row name");
        for key in ["instret", "cycle_ips", "fast_ips", "speedup"] {
            let v = row
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name}: {key} missing"));
            assert!(v > 0.0, "{name}: {key} must be positive, got {v}");
        }
    }
    for key in ["cycle_mips", "fast_mips"] {
        let v = doc
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{key} missing"));
        assert!(v > 0.0, "{key} must be positive, got {v}");
    }
    let geomean = doc
        .get("geomean_speedup")
        .and_then(Json::as_f64)
        .expect("geomean_speedup");
    let target = doc
        .get("target_speedup")
        .and_then(Json::as_f64)
        .expect("target_speedup");
    assert_eq!(
        doc.get("meets_target"),
        Some(&Json::Bool(geomean >= target)),
        "meets_target must report the geomean honestly"
    );
}
