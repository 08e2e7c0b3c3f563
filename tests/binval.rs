//! Tier-1 gate for the binary-level translation validator: every
//! correctly-lowered workload must validate cleanly under every scheme,
//! IR-level and binary-level verdicts must agree, and the deterministic
//! mutation suite must be killed completely.

use hwst_compiler::binval;
use hwst_compiler::Scheme;
use hwst_workloads::{all, Scale};

const SCHEMES: [Scheme; 4] = [
    Scheme::Sbcets,
    Scheme::Hwst128,
    Scheme::Hwst128Tchk,
    Scheme::Shore,
];

#[test]
fn all_workloads_validate_cleanly_under_every_scheme() {
    for wl in all() {
        let module = wl.module(Scale::Test);
        for scheme in SCHEMES {
            let report = binval::validate_module(&module, scheme)
                .unwrap_or_else(|e| panic!("{} ({scheme:?}): {e}", wl.name));
            let lowering: Vec<_> = report
                .findings
                .iter()
                .filter(|f| f.class == binval::FindingClass::Lowering)
                .collect();
            assert!(
                lowering.is_empty(),
                "{} ({scheme:?}): {} lowering findings, first: {}",
                wl.name,
                lowering.len(),
                lowering[0]
            );
        }
    }
}

#[test]
fn translation_validation_never_diverges() {
    for wl in all() {
        let module = wl.module(Scale::Test);
        for scheme in SCHEMES {
            for rce in [false, true] {
                let tv = binval::translation_validate_with(&module, scheme, rce)
                    .unwrap_or_else(|e| panic!("{} ({scheme:?}): {e}", wl.name));
                assert!(
                    !tv.diverged(),
                    "{} ({scheme:?}, rce={rce}): IR verdict {} vs binary verdict {}; \
                     ir_error={:?}, first finding: {:?}",
                    wl.name,
                    tv.ir_ok,
                    tv.report.ok(),
                    tv.ir_error,
                    tv.report.findings.first().map(|f| f.to_string()),
                );
                assert!(
                    tv.ok(),
                    "{} ({scheme:?}, rce={rce}) failed both levels",
                    wl.name
                );
            }
        }
    }
}

#[test]
fn mutation_suite_is_killed_completely() {
    let seeds: Vec<u64> = (0..8).map(|i| 0xB17A_1000 + i).collect();
    let mut total = 0usize;
    for wl in all() {
        let module = wl.module(Scale::Test);
        for scheme in [Scheme::Hwst128, Scheme::Hwst128Tchk, Scheme::Shore] {
            let rep = binval::mutation_campaign(&module, scheme, &seeds)
                .unwrap_or_else(|e| panic!("{} ({scheme:?}): {e}", wl.name));
            for o in &rep.outcomes {
                assert!(
                    o.killed,
                    "{} ({scheme:?}): surviving mutant {} seed={:#x} site={}",
                    wl.name, o.mutation, o.seed, o.site
                );
            }
            total += rep.total();
        }
    }
    assert!(total > 0, "mutation campaign generated no mutants");
}

#[test]
fn sbcets_images_have_no_mutation_candidates() {
    // Pure-software instrumentation emits no metadata loads, so the
    // campaign must be vacuous rather than erroring.
    let wl = hwst_workloads::Workload::by_name("bzip2").expect("known workload");
    let rep = binval::mutation_campaign(&wl.module(Scale::Test), Scheme::Sbcets, &[1, 2, 3])
        .expect("campaign");
    assert_eq!(rep.candidates, 0);
    assert_eq!(rep.total(), 0);
    assert!(rep.all_killed());
}

#[test]
fn binval_discharges_checks_beyond_rce() {
    // A9: across the suite, the binary-level interpreter must discharge
    // a nonzero number of checks even after IR-level RCE ran.
    let mut discharged = 0usize;
    for wl in all() {
        let module = wl.module(Scale::Test);
        let tv = binval::translation_validate_with(&module, Scheme::Hwst128, true)
            .unwrap_or_else(|e| panic!("{}: {e}", wl.name));
        discharged += tv.report.discharged();
    }
    assert!(
        discharged > 0,
        "binary-level analysis discharged no checks beyond IR-level RCE"
    );
}

/// FNV-1a over a report's `Debug` text: stable across toolchains,
/// unlike `DefaultHasher`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every `validate_with_elim` report over the suite must stay
/// byte-identical: the validator's internals may be rewritten for
/// speed, but never its verdicts, findings or counters. One line per
/// (workload, scheme, tier) so a drift names the job that moved.
/// Regenerate with `BLESS=1 cargo test --test binval` when a change to
/// the reports is intended.
#[test]
fn validate_with_elim_reports_match_golden() {
    use hwst_compiler::binval::ElimPlan;
    use hwst_compiler::{analysis, bounds, instrument, lower_with_plan_opt, rce, OptLevel};

    let schemes: Vec<Scheme> = Scheme::ALL
        .into_iter()
        .chain(Scheme::ZOO)
        .chain([Scheme::Shore])
        .collect();
    let mut actual = String::new();
    for wl in all() {
        let module = wl.module(Scale::Test);
        let info = analysis::analyze(&module).expect("analysis");
        let proof = bounds::analyze(&module);
        for &scheme in &schemes {
            let (mut inst, skips) =
                instrument::instrument_with_bounds(&module, &info, scheme, Some(&proof));
            rce::eliminate(&mut inst);
            let elim = ElimPlan::new(&inst, &skips, &proof.witnesses);
            let cfg = hwst128::config_for(scheme);
            for (tier, opt) in [("O0", OptLevel::O0), ("O1", OptLevel::O1)] {
                let (program, plan) = lower_with_plan_opt(&inst, scheme, opt)
                    .unwrap_or_else(|e| panic!("{} ({scheme:?} {tier}): {e}", wl.name));
                let report =
                    binval::validate_with_elim(&program, &plan, cfg.compression, cfg.layout, &elim);
                let hash = fnv1a(&format!("{report:?}"));
                actual.push_str(&format!(
                    "{} {} {tier} {hash:016x}\n",
                    wl.name,
                    scheme.label()
                ));
            }
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/binval.golden");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e} (run with BLESS=1)", path.display()));
    let drifted: Vec<_> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("  expected {e}\n  got      {a}"))
        .collect();
    assert!(
        drifted.is_empty() && expected.lines().count() == actual.lines().count(),
        "binval reports drifted from {} ({} lines expected, {} got):\n{}\n\
         If the change is intentional, regenerate with BLESS=1.",
        path.display(),
        expected.lines().count(),
        actual.lines().count(),
        drifted.join("\n")
    );
}
