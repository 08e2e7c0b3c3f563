//! The four workloads and everything a run prepares before timing:
//! the job set, the correctness references and, for the workloads that
//! only execute, the compiled and validated images.

use hwst128::compiler::{compile_with_options, CompileOptions, OptLevel, Scheme};
use hwst128::config_for;
use hwst128::exec::{run_fast, BlockCache};
use hwst128::isa::Program;
use hwst128::sim::{ExitStatus, Machine, SafetyConfig, Snapshot};
use hwst128::workloads::{Scale, Workload};

use crate::job::{compile_validate, Counters, FailReason, JobSpec};
use crate::trace::Tracer;

/// Problem size of every kernel in every workload. Test scale keeps a
/// pass short, so each job gets dozens of samples in a run, which is
/// what makes its fastest sample steady on a shared host.
pub const SCALE: Scale = Scale::Test;

/// A benchmark workload: one fixed job set and what each job does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Compile and validate every kernel under every Fig. 4 scheme at
    /// `-O0` and `-O1`; nothing executes.
    ValidateOnly,
    /// Compile, validate, load and run on the fast engine from a cold
    /// block cache: regenerating Fig. 4/5.
    PaperSweep,
    /// Restore a prepared machine and run it on the fast engine over a
    /// warm block cache.
    WarmExec,
    /// Restore a prepared machine and run it on the reference cycle
    /// engine.
    CycleRef,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::ValidateOnly,
        Kind::PaperSweep,
        Kind::WarmExec,
        Kind::CycleRef,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ValidateOnly => "validate_only",
            Kind::PaperSweep => "paper_sweep",
            Kind::WarmExec => "warm_exec",
            Kind::CycleRef => "cycle_ref",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn by_name(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    fn opts(self) -> &'static [OptLevel] {
        match self {
            Kind::ValidateOnly => &[OptLevel::O0, OptLevel::O1],
            _ => &[OptLevel::O1],
        }
    }

    fn executes(self) -> bool {
        self != Kind::ValidateOnly
    }
}

/// Exit code and output of a kernel's uninstrumented `-O0` image on the
/// cycle engine: what every instrumented image of it must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Exit code.
    pub code: u64,
    /// Captured output.
    pub output: Vec<u8>,
}

/// A compiled, validated and loaded image, ready to be restored.
pub struct Image {
    /// The machine right after loading.
    pub snapshot: Snapshot,
    /// Block cache warmed by one fast-engine run (used by
    /// [`Kind::WarmExec`] only).
    pub cache: BlockCache,
    /// The full exit status the *other* engine produced in set-up: the
    /// cycle engine for [`Kind::WarmExec`], the fast engine for
    /// [`Kind::CycleRef`].
    pub other_engine: ExitStatus,
}

/// Everything prepared before the timed phase.
pub struct Setup {
    /// The workload.
    pub kind: Kind,
    /// The kernels, indexed by [`JobSpec::kernel`].
    pub kernels: Vec<Workload>,
    /// The job set, identical on every pass.
    pub jobs: Vec<JobSpec>,
    /// Per kernel: the reference run (empty when nothing executes).
    pub refs: Vec<Reference>,
    /// Per job: the image the library's one-call compile entry point
    /// produces ([`Kind::ValidateOnly`] only).
    pub programs: Vec<Program>,
    /// Per job: the prepared image ([`Kind::WarmExec`] and
    /// [`Kind::CycleRef`] only), or why preparing it failed.
    pub images: Vec<Result<Image, FailReason>>,
}

/// A set-up step that could not complete. Set-up failures abort the run
/// instead of counting as failed jobs, because no job could be timed.
#[derive(Debug)]
pub struct SetupError(pub String);

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SetupError {}

/// The reference run of one kernel.
fn reference(wl: &Workload) -> Result<Reference, SetupError> {
    let err = |e: &dyn std::fmt::Display| SetupError(format!("reference {}: {e}", wl.name));
    let opts = CompileOptions::new(Scheme::None);
    let program = compile_with_options(&wl.module(SCALE), opts)
        .map_err(|e| err(&e))?
        .program;
    let exit = Machine::new(program, SafetyConfig::baseline())
        .run(wl.fuel(SCALE))
        .map_err(|e| err(&e))?;
    Ok(Reference {
        code: exit.code,
        output: exit.output,
    })
}

/// Loads one job's image and records the other engine's run of it.
fn prepare(kind: Kind, wl: &Workload, spec: JobSpec) -> Result<Image, FailReason> {
    let mut tr = Tracer::new(std::time::Instant::now());
    let program = compile_validate(&mut tr, wl, spec.scheme, spec.opt, &mut Counters::default())?;
    let snapshot = Machine::new(program, config_for(spec.scheme)).snapshot();
    let fuel = wl.fuel(SCALE);
    let mut cache = BlockCache::new();
    let fast = run_fast(&mut snapshot.restore(), fuel, &mut cache);
    let other = if kind == Kind::WarmExec {
        snapshot.restore().run(fuel)
    } else {
        cache = BlockCache::new();
        fast
    };
    Ok(Image {
        snapshot,
        cache,
        other_engine: other.map_err(|_| FailReason::Trap)?,
    })
}

impl Setup {
    /// Prepares `kind` over `kernels`: every kernel × the four Fig. 4
    /// schemes × the workload's back-end tiers.
    ///
    /// # Errors
    ///
    /// A reference or canonical compile that fails.
    pub fn new(kind: Kind, kernels: Vec<Workload>) -> Result<Setup, SetupError> {
        let mut jobs = Vec::new();
        for kernel in 0..kernels.len() {
            for &opt in kind.opts() {
                for scheme in Scheme::ALL {
                    jobs.push(JobSpec {
                        kernel,
                        scheme,
                        opt,
                    });
                }
            }
        }
        let refs = if kind.executes() {
            kernels.iter().map(reference).collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        let mut programs = Vec::new();
        let mut images = Vec::new();
        for spec in &jobs {
            let wl = &kernels[spec.kernel];
            match kind {
                Kind::ValidateOnly => {
                    let opts = CompileOptions::new(spec.scheme)
                        .with_bounds()
                        .with_rce()
                        .with_verify()
                        .with_opt(spec.opt);
                    let c = compile_with_options(&wl.module(SCALE), opts).map_err(|e| {
                        SetupError(format!("{} ({}): {e}", wl.name, spec.scheme.label()))
                    })?;
                    programs.push(c.program);
                }
                Kind::PaperSweep => {}
                Kind::WarmExec | Kind::CycleRef => images.push(prepare(kind, wl, *spec)),
            }
        }
        Ok(Setup {
            kind,
            kernels,
            jobs,
            refs,
            programs,
            images,
        })
    }
}
