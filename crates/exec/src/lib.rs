//! # hwst-exec
//!
//! The decoded-block fast execution tier over [`hwst_sim`]: each basic
//! block is decoded **once** into a cache holding its instructions, their
//! pre-classified retire shapes and the prefix sums of their static
//! cycle charges, and subsequent executions dispatch straight over the
//! cached block — no per-step fetch, and the static share of retirement
//! applied once per block.
//!
//! ## The bit-identity contract
//!
//! The fast tier is an *engine*, not a different model: for any program,
//! fuel and [`SafetyConfig`](hwst_sim::SafetyConfig),
//! [`run_fast`] returns exactly what [`Machine::run`] returns — the same
//! [`ExitStatus`] (code, output **and**
//! [`CycleStats`](hwst_pipeline::CycleStats)) or the same
//! [`Trap`] — and leaves the machine in the same architectural state
//! (registers, PC, memory, SRF, pipeline counters). Profiled execution
//! ([`run_profiled_fast`]) attributes the same per-PC cycle breakdown as
//! [`Machine::run_profiled`]. This holds because the tier *shares* the
//! cycle model rather than approximating it:
//!
//! * every instruction retires through [`hwst_pipeline::Pipeline::retire`]
//!   in profiled runs, and through its batched split
//!   (`charge_static` per block, `charge_dyn` per instruction) otherwise,
//!   which charges exactly what `retire` charges;
//! * spatial checks go through [`Machine::spatial_check`] — the same SCU
//!   predicate the cycle engine uses;
//! * telemetry splits go through [`hwst_sim::classify`];
//! * instructions with environment interactions (`ecall`, `csr*`,
//!   `ebreak`) fall back to [`Machine::step`] itself.
//!
//! ## Invalidation
//!
//! A [`BlockCache`] is valid for one program image. It stamps itself
//! with `(program epoch, base, len)` and flushes when the stamp no
//! longer matches — [`Machine::reload_image`] bumps the epoch, and that
//! is the **only** invalidation event, because the instruction image is
//! immutable between reloads.
//!
//! ## Example
//!
//! ```
//! use hwst_exec::{run_fast, BlockCache};
//! use hwst_isa::{AluImmOp, Instr, Program, Reg};
//! use hwst_sim::{Machine, SafetyConfig};
//!
//! let prog = Program::from_instrs(0x1_0000, vec![
//!     Instr::AluImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::Zero, imm: 7 },
//!     Instr::AluImm { op: AluImmOp::Addi, rd: Reg::A7, rs1: Reg::Zero, imm: 93 },
//!     Instr::Ecall,
//! ]);
//! let mut cycle = Machine::new(prog.clone(), SafetyConfig::default());
//! let mut fast = Machine::new(prog, SafetyConfig::default());
//! let mut cache = BlockCache::new();
//! let want = cycle.run(1_000);
//! assert_eq!(run_fast(&mut fast, 1_000, &mut cache), want);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod run;

pub use block::BlockCache;
pub use run::{run_fast, run_profiled_fast};

use hwst_sim::{ExitStatus, Machine, Trap};
use hwst_telemetry::Profiler;

/// Which execution engine drives a [`Machine`].
///
/// Both engines produce bit-identical results (state, traps, stats,
/// telemetry); the choice only changes wall-clock time. `Cycle` is the
/// reference interpreter ([`Machine::run`]); `Fast` is the decoded-block
/// tier and the default for sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The reference cycle interpreter: fetch/decode/execute per step.
    Cycle,
    /// The decoded-block tier.
    #[default]
    Fast,
}

impl Engine {
    /// Both engines, cycle first (the reference).
    pub const ALL: [Engine; 2] = [Engine::Cycle, Engine::Fast];

    /// The CLI name (`cycle` / `fast`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Cycle => "cycle",
            Engine::Fast => "fast",
        }
    }

    /// Runs `m` for `fuel` instructions under this engine. The `cache`
    /// is only consulted by `Fast`; passing a warm cache skips
    /// re-decoding.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Machine::run`].
    pub fn run(
        self,
        m: &mut Machine,
        fuel: u64,
        cache: &mut BlockCache,
    ) -> Result<ExitStatus, Trap> {
        match self {
            Engine::Cycle => m.run(fuel),
            Engine::Fast => run_fast(m, fuel, cache),
        }
    }

    /// [`Self::run`] with per-PC cycle attribution into `prof`.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Machine::run_profiled`].
    pub fn run_profiled(
        self,
        m: &mut Machine,
        fuel: u64,
        prof: &mut Profiler,
        cache: &mut BlockCache,
    ) -> Result<ExitStatus, Trap> {
        match self {
            Engine::Cycle => m.run_profiled(fuel, prof),
            Engine::Fast => run_profiled_fast(m, fuel, prof, cache),
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cycle" => Ok(Engine::Cycle),
            "fast" => Ok(Engine::Fast),
            other => Err(format!(
                "unknown engine `{other}` (expected `fast` or `cycle`)"
            )),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
