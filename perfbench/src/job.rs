//! One benchmark job: the public entry points of each layer, called in
//! pipeline order, each inside its own span.

use hwst128::compiler::binval::{self, ElimPlan};
use hwst128::compiler::ir::Module;
use hwst128::compiler::{analysis, bounds, instrument, lower_with_plan_opt, rce, verify};
use hwst128::compiler::{OptLevel, Scheme};
use hwst128::config_for;
use hwst128::exec::{run_fast, BlockCache};
use hwst128::isa::Program;
use hwst128::sim::{ExitStatus, Machine, Trap};
use hwst128::workloads::Workload;

use crate::setup::{Kind, Reference, Setup, SCALE};
use crate::trace::Tracer;

/// Why a job failed. Every failed job counts in `failed_ratio`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FailReason {
    /// Analysis, verification or lowering returned an error.
    Compile,
    /// `binval` reported a lowering finding.
    Binval,
    /// Execution trapped (no workload here is meant to trap).
    Trap,
    /// Exit code, output or image differs from the reference.
    Output,
    /// A simulated statistic or work counter differs from the reference
    /// or from an earlier pass of the same job.
    StatsDivergence,
}

impl FailReason {
    /// Every reason, in report order.
    pub const ALL: [FailReason; 5] = [
        FailReason::Compile,
        FailReason::Binval,
        FailReason::Trap,
        FailReason::Output,
        FailReason::StatsDivergence,
    ];

    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            FailReason::Compile => "compile",
            FailReason::Binval => "binval",
            FailReason::Trap => "trap",
            FailReason::Output => "output",
            FailReason::StatsDivergence => "stats-divergence",
        }
    }
}

/// Declares [`Counters`] with one `u64` per listed field, plus the
/// field-wise sum and byte encoding, so the field list is written once.
macro_rules! counters {
    ($($(#[$doc:meta])* $f:ident,)*) => {
        /// Exact work counters of one job. Deterministic for a given
        /// (kernel, scheme, opt, workload): any difference between two
        /// passes is a [`FailReason::StatsDivergence`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $f: u64,)*
        }

        impl Counters {
            /// The counters as little-endian bytes, in field order.
            pub fn encode(&self, out: &mut Vec<u8>) {
                $(out.extend_from_slice(&self.$f.to_le_bytes());)*
            }

            /// Field-wise sum.
            pub fn add(&mut self, o: &Counters) {
                $(self.$f += o.$f;)*
            }
        }
    };
}

counters! {
    /// IR instructions built by the workload.
    ir_insts_in,
    /// IR instructions after instrumentation and RCE.
    ir_insts_out,
    /// Dereference sites the bounds pass proved.
    bounds_proven,
    /// Static checks RCE removed.
    rce_removed,
    /// Machine instructions lowered.
    machine_instrs,
    /// Checked operations `binval` examined.
    checked_ops,
    /// Checked operations `binval` discharged statically.
    discharged,
    /// `binval` lowering findings (must be 0).
    lowering_findings,
    /// Basic blocks the fast engine decoded in this job.
    decoded_blocks,
    /// Block lookups served from the cache in this job.
    block_hits,
    /// Simulated instructions retired.
    instret,
    /// Simulated cycles.
    cycles,
    /// Simulated `tchk` keybuffer hits.
    keybuffer_hits,
    /// Simulated `tchk` keybuffer misses.
    keybuffer_misses,
}

impl Counters {
    fn record_exit(&mut self, e: &ExitStatus) {
        self.instret = e.stats.instret;
        self.cycles = e.stats.total_cycles();
        self.keybuffer_hits = e.stats.keybuffer_hits;
        self.keybuffer_misses = e.stats.keybuffer_misses;
    }
}

/// What the job set holds for one job: which kernel, scheme and
/// back-end tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Index into [`Setup::kernels`].
    pub kernel: usize,
    /// Instrumentation scheme.
    pub scheme: Scheme,
    /// Back-end tier.
    pub opt: OptLevel,
}

fn ir_insts(m: &Module) -> u64 {
    m.funcs
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.insts.len() as u64)
        .sum()
}

/// IR build → pointer analysis → bounds proof → instrumentation → RCE →
/// verification → lowering → `binval` with elimination obligations.
pub fn compile_validate(
    tr: &mut Tracer,
    wl: &Workload,
    scheme: Scheme,
    opt: OptLevel,
    c: &mut Counters,
) -> Result<Program, FailReason> {
    let module = tr.layer("workloads.build", || wl.module(SCALE));
    c.ir_insts_in = ir_insts(&module);
    let info = tr
        .layer("compiler.analysis", || analysis::analyze(&module))
        .map_err(|_| FailReason::Compile)?;
    let proof = tr.layer("compiler.bounds", || bounds::analyze(&module));
    c.bounds_proven = proof.stats.proven as u64;
    let (mut inst, skips) = tr.layer("compiler.instrument", || {
        instrument::instrument_with_bounds(&module, &info, scheme, Some(&proof))
    });
    let removed = tr.layer("compiler.rce", || rce::eliminate(&mut inst));
    c.rce_removed = removed.total() as u64;
    c.ir_insts_out = ir_insts(&inst);
    tr.layer("compiler.verify", || {
        verify::verify_with(&inst, scheme, &skips, &proof.witnesses)
    })
    .map_err(|_| FailReason::Compile)?;
    let (program, plan) = tr
        .layer("compiler.lower", || lower_with_plan_opt(&inst, scheme, opt))
        .map_err(|_| FailReason::Compile)?;
    c.machine_instrs = program.len() as u64;
    let cfg = config_for(scheme);
    let report = tr.layer("compiler.binval", || {
        let elim = ElimPlan::new(&inst, &skips, &proof.witnesses);
        binval::validate_with_elim(&program, &plan, cfg.compression, cfg.layout, &elim)
    });
    c.checked_ops = report.checked_ops() as u64;
    c.discharged = report.discharged() as u64;
    c.lowering_findings = report.lowering_findings() as u64;
    if !report.ok() {
        return Err(FailReason::Binval);
    }
    Ok(program)
}

/// Compares an execution result with the kernel's reference exit code
/// and output and, where set-up recorded one, with the other engine's
/// full exit status.
fn check_exit(
    got: Result<ExitStatus, Trap>,
    reference: &Reference,
    other_engine: Option<&ExitStatus>,
    c: &mut Counters,
) -> Result<(), FailReason> {
    let got = got.map_err(|_| FailReason::Trap)?;
    c.record_exit(&got);
    if got.code != reference.code || got.output != reference.output {
        return Err(FailReason::Output);
    }
    match other_engine {
        Some(want) if want.code != got.code || want.output != got.output => Err(FailReason::Output),
        Some(want) if want.stats != got.stats => Err(FailReason::StatsDivergence),
        _ => Ok(()),
    }
}

/// Runs job `j` of `setup` and returns its counters.
pub fn run_job(setup: &mut Setup, j: usize, tr: &mut Tracer) -> Result<Counters, FailReason> {
    let spec = setup.jobs[j];
    let wl = setup.kernels[spec.kernel];
    let fuel = wl.fuel(SCALE);
    let mut c = Counters::default();
    match setup.kind {
        Kind::ValidateOnly => {
            let program = compile_validate(tr, &wl, spec.scheme, spec.opt, &mut c)?;
            let want = &setup.programs[j];
            tr.layer("bench.check", || {
                if program.base() == want.base() && program.instrs() == want.instrs() {
                    Ok(())
                } else {
                    Err(FailReason::Output)
                }
            })?;
        }
        Kind::PaperSweep => {
            let program = compile_validate(tr, &wl, spec.scheme, spec.opt, &mut c)?;
            let cfg = config_for(spec.scheme);
            let m = tr.layer("sim.load", || Machine::new(program, cfg));
            let mut cache = BlockCache::new();
            let got = tr.layer("exec.fast_cold", || {
                let mut m = m;
                run_fast(&mut m, fuel, &mut cache)
            });
            c.decoded_blocks = cache.decodes();
            c.block_hits = cache.hits();
            let reference = &setup.refs[spec.kernel];
            tr.layer("bench.check", || check_exit(got, reference, None, &mut c))?;
        }
        Kind::WarmExec | Kind::CycleRef => {
            let image = setup.images[j].as_mut().map_err(|e| *e)?;
            let m = tr.layer("sim.restore", || image.snapshot.restore());
            let got = if setup.kind == Kind::WarmExec {
                let cache = &mut image.cache;
                let (d0, h0) = (cache.decodes(), cache.hits());
                let got = tr.layer("exec.fast_warm", || {
                    let mut m = m;
                    run_fast(&mut m, fuel, cache)
                });
                c.decoded_blocks = cache.decodes() - d0;
                c.block_hits = cache.hits() - h0;
                got
            } else {
                tr.layer("sim.cycle", || {
                    let mut m = m;
                    m.run(fuel)
                })
            };
            let reference = &setup.refs[spec.kernel];
            let other = &image.other_engine;
            tr.layer("bench.check", || {
                check_exit(got, reference, Some(other), &mut c)
            })?;
        }
    }
    Ok(c)
}
