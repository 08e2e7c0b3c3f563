//! Per-instruction cycle accounting for the 5-stage in-order core.

use crate::{Cache, CacheConfig, CycleStats, KeyBuffer};
use hwst_isa::{Instr, Reg};
use hwst_telemetry::{CounterId, Counters};

/// How metadata is located in shadow storage — the §2 trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShadowLayout {
    /// The paper's linear map: the SMAC computes the address in zero
    /// cycles (Eq. 1).
    #[default]
    Linear,
    /// A two-level trie (the SoftBoundCETS layout): every metadata access
    /// first walks the directory — one extra dependent D-cache access.
    Trie,
}

/// Timing parameters of the core model.
///
/// Defaults approximate the Rocket in-order core the paper builds on:
/// single-issue, 1-cycle ALU, 2-cycle redirect on taken control flow,
/// pipelined multiplier, iterative divider, blocking D-cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// D-cache geometry/latency.
    pub dcache: CacheConfig,
    /// Extra cycles when a branch is taken or a jump redirects fetch.
    pub control_penalty: u64,
    /// Extra cycles for a multiply.
    pub mul_latency: u64,
    /// Extra cycles for a divide/remainder.
    pub div_latency: u64,
    /// Stall cycles when an instruction consumes the result of the
    /// immediately preceding load.
    pub load_use_stall: u64,
    /// Keybuffer entries (0 disables the keybuffer).
    pub keybuffer_entries: usize,
    /// Shadow-storage layout (linear map vs trie).
    pub shadow_layout: ShadowLayout,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            dcache: CacheConfig::default(),
            control_penalty: 2,
            mul_latency: 3,
            div_latency: 16,
            load_use_stall: 1,
            keybuffer_entries: 8,
            shadow_layout: ShadowLayout::Linear,
        }
    }
}

/// Dynamic facts about one executed instruction that the timing model
/// needs but cannot derive from the opcode alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecEvents {
    /// Effective user-memory address of a load/store.
    pub mem_addr: Option<u64>,
    /// Effective shadow-memory address of a metadata access.
    pub shadow_addr: Option<u64>,
    /// A conditional branch resolved taken.
    pub branch_taken: bool,
    /// For `tchk`: the pointer's lock address and the key that lives at
    /// it (for keybuffer fill on miss).
    pub tchk: Option<(u64, u64)>,
}

/// The timing-relevant shape of an instruction: the [`Pipeline::retire`]
/// match arm it takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetireClass {
    /// A load (plain or checked) writing `rd`.
    Load {
        /// Destination register (arms the load-use interlock).
        rd: Reg,
        /// Whether the SCU checks the access.
        checked: bool,
    },
    /// A store (plain or checked).
    Store {
        /// Whether the SCU checks the access.
        checked: bool,
    },
    /// A conditional branch (pays the redirect only when taken).
    Branch,
    /// An unconditional jump (`jal`/`jalr`).
    Jump,
    /// A multiply-class ALU op.
    Mul,
    /// A divide/remainder-class ALU op.
    Div,
    /// A metadata store (`sbdl`/`sbdu`).
    ShadowStore,
    /// A metadata load (`lbdls`/`lbdus`/`lbas`/`lbnd`/`lkey`/`lloc`)
    /// writing `rd`.
    ShadowLoad {
        /// Destination register (arms the load-use interlock).
        rd: Reg,
    },
    /// A temporal check.
    Tchk,
    /// Everything else: single-cycle, no side effects on timing state.
    Other,
}

/// Pre-resolved retire facts for one instruction: source registers
/// (for the load-use interlock), HWST membership and timing class.
///
/// A decoded block sums these into [`StaticCharges`] prefixes and reads
/// the interlock facts at its seams; together with
/// [`Pipeline::charge_dyn`] that charges exactly what
/// [`Pipeline::retire`] charges for the instruction it was built from —
/// the equivalence the decoded-block engine's bit-identity guarantee
/// rests on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireInfo {
    srcs: [Reg; 2],
    nsrcs: u8,
    is_hwst: bool,
    class: RetireClass,
}

impl RetireInfo {
    /// Pre-resolves `instr`: its source list, [`Instr::is_hwst`] and the
    /// [`Pipeline::retire`] match arms. The source list is derived here
    /// on its own, not through [`Instr::reads_gpr`], so the two
    /// derivations check each other.
    pub fn of(instr: &Instr) -> Self {
        let mut srcs = [Reg::Zero; 2];
        let mut nsrcs = 0u8;
        let mut push = |r: Reg| {
            // x0 always reads zero, so it can never carry a load-use
            // dependence.
            if !r.is_zero() {
                srcs[nsrcs as usize] = r;
                nsrcs += 1;
            }
        };
        match *instr {
            Instr::Jalr { rs1, .. }
            | Instr::Load { rs1, .. }
            | Instr::AluImm { rs1, .. }
            | Instr::Csr { rs1, .. }
            | Instr::Lbdls { rs1, .. }
            | Instr::Lbdus { rs1, .. }
            | Instr::Lbas { rs1, .. }
            | Instr::Lbnd { rs1, .. }
            | Instr::Lkey { rs1, .. }
            | Instr::Lloc { rs1, .. }
            | Instr::Tchk { rs1 } => push(rs1),
            Instr::Branch { rs1, rs2, .. }
            | Instr::Store { rs1, rs2, .. }
            | Instr::Alu { rs1, rs2, .. }
            | Instr::Bndrs { rs1, rs2, .. }
            | Instr::Bndrt { rs1, rs2, .. } => {
                push(rs1);
                push(rs2);
            }
            // The metadata stores read only the container pointer: the
            // SRF entry travels the metadata path, not the GPR path.
            Instr::Sbdl { rs1, .. } | Instr::Sbdu { rs1, .. } => push(rs1),
            _ => {}
        }
        let class = match *instr {
            Instr::Load { rd, checked, .. } => RetireClass::Load { rd, checked },
            Instr::Store { checked, .. } => RetireClass::Store { checked },
            Instr::Branch { .. } => RetireClass::Branch,
            Instr::Jal { .. } | Instr::Jalr { .. } => RetireClass::Jump,
            Instr::Alu { op, .. } if op.is_muldiv() => {
                if matches!(
                    op,
                    hwst_isa::AluOp::Mul
                        | hwst_isa::AluOp::Mulh
                        | hwst_isa::AluOp::Mulhsu
                        | hwst_isa::AluOp::Mulhu
                        | hwst_isa::AluOp::Mulw
                ) {
                    RetireClass::Mul
                } else {
                    RetireClass::Div
                }
            }
            Instr::Sbdl { .. } | Instr::Sbdu { .. } => RetireClass::ShadowStore,
            Instr::Lbdls { rd, .. }
            | Instr::Lbdus { rd, .. }
            | Instr::Lbas { rd, .. }
            | Instr::Lbnd { rd, .. }
            | Instr::Lkey { rd, .. }
            | Instr::Lloc { rd, .. } => RetireClass::ShadowLoad { rd },
            Instr::Tchk { .. } => RetireClass::Tchk,
            _ => RetireClass::Other,
        };
        RetireInfo {
            srcs,
            nsrcs,
            is_hwst: instr.is_hwst(),
            class,
        }
    }

    /// Whether the instruction reads GPR `r` (x0 is never a
    /// dependence).
    #[inline]
    pub fn reads(&self, r: Reg) -> bool {
        self.srcs[..self.nsrcs as usize].contains(&r)
    }

    /// The destination this instruction arms the load-use interlock
    /// with, if any — i.e. the value [`Pipeline::retire`] leaves in
    /// `prev_load_dest` after retiring it.
    #[inline]
    pub fn load_dest(&self) -> Option<Reg> {
        match self.class {
            RetireClass::Load { rd, .. } | RetireClass::ShadowLoad { rd } => Some(rd),
            _ => None,
        }
    }
}

/// The statically-determined portion of a run of retires: everything
/// [`Pipeline::retire`] charges that depends only on the instructions
/// themselves, not on addresses or cache state. A decoded block
/// precomputes prefix sums of these, so the unprofiled fast engine
/// applies one `charge_static` per block instead of the arithmetic part
/// of one `retire` per instruction.
///
/// Fields are counts (latency multipliers are applied by
/// [`Pipeline::charge_static`] against the live config), sized `u16`:
/// a block holds at most 64 instructions, so no count can overflow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticCharges {
    /// Retired components: `instret` and `base_cycles` each advance by
    /// this much.
    pub comps: u16,
    /// HWST instructions (the `hwst_instrs` counter).
    pub hwst: u16,
    /// Checked loads/stores (the `checked_mem` counter).
    pub checked_mem: u16,
    /// Multiplies (charged `mul_latency` each).
    pub muls: u16,
    /// Divides (charged `div_latency` each).
    pub divs: u16,
    /// Unconditional jumps (charged `control_penalty` each; taken
    /// branches are dynamic).
    pub jumps: u16,
    /// Load-use interlock hits between adjacent components of the same
    /// block (charged `load_use_stall` each). Pairs straddling a block
    /// entry or an environment instruction are dynamic.
    pub load_use: u16,
    /// Shadow-memory operations (the `meta_mem` count).
    pub meta_mem: u16,
}

impl StaticCharges {
    /// Accumulates one component's static facts (the load-use pair
    /// count is the caller's job: it needs the *previous* component).
    pub fn add_component(&mut self, info: &RetireInfo) {
        self.comps += 1;
        self.hwst += info.is_hwst as u16;
        match info.class {
            RetireClass::Load { checked, .. } | RetireClass::Store { checked } => {
                self.checked_mem += checked as u16;
            }
            RetireClass::Mul => self.muls += 1,
            RetireClass::Div => self.divs += 1,
            RetireClass::Jump => self.jumps += 1,
            RetireClass::ShadowStore | RetireClass::ShadowLoad { .. } => self.meta_mem += 1,
            _ => {}
        }
    }
}

impl std::ops::Sub for StaticCharges {
    type Output = StaticCharges;

    /// Prefix-sum difference: the charges of components `[rhs, self)`.
    fn sub(self, rhs: StaticCharges) -> StaticCharges {
        StaticCharges {
            comps: self.comps - rhs.comps,
            hwst: self.hwst - rhs.hwst,
            checked_mem: self.checked_mem - rhs.checked_mem,
            muls: self.muls - rhs.muls,
            divs: self.divs - rhs.divs,
            jumps: self.jumps - rhs.jumps,
            load_use: self.load_use - rhs.load_use,
            meta_mem: self.meta_mem - rhs.meta_mem,
        }
    }
}

/// The cycle-accounting engine. Owns the D-cache and keybuffer state and
/// accumulates a [`CycleStats`] breakdown as the simulator retires
/// instructions through it.
///
/// # Example
///
/// ```
/// use hwst_pipeline::{Pipeline, PipelineConfig, ExecEvents};
/// use hwst_isa::{Instr, Reg, LoadWidth};
///
/// let mut p = Pipeline::new(PipelineConfig::default());
/// let ld = Instr::Load { width: LoadWidth::D, rd: Reg::A0, rs1: Reg::Sp, offset: 0, checked: false };
/// let ev = ExecEvents { mem_addr: Some(0x1000), ..Default::default() };
/// let cold = p.retire(&ld, &ev);
/// let warm = p.retire(&ld, &ev);
/// assert!(cold > warm, "second access hits the D-cache");
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    cfg: PipelineConfig,
    dcache: Cache,
    keybuffer: KeyBuffer,
    /// Cycle categories only. The event-style counters (keybuffer
    /// hits/misses, `hwst_instrs`, `checked_mem`) live in the telemetry
    /// registry and are merged back in [`Self::stats`], so pipeline
    /// accounting and profile tables share one source of truth.
    stats: CycleStats,
    counters: Counters,
    ids: EventCounterIds,
    /// Destination of the previous instruction if it was a load (for the
    /// load-use interlock).
    prev_load_dest: Option<Reg>,
}

/// Handles of the event counters the retire loop increments.
#[derive(Debug, Clone, Copy)]
struct EventCounterIds {
    keybuffer_hits: CounterId,
    keybuffer_misses: CounterId,
    hwst_instrs: CounterId,
    checked_mem: CounterId,
}

impl Pipeline {
    /// Creates a cold pipeline.
    pub fn new(cfg: PipelineConfig) -> Self {
        let mut counters = Counters::new();
        let ids = EventCounterIds {
            keybuffer_hits: counters.register("keybuffer_hits"),
            keybuffer_misses: counters.register("keybuffer_misses"),
            hwst_instrs: counters.register("hwst_instrs"),
            checked_mem: counters.register("checked_mem"),
        };
        Pipeline {
            cfg,
            dcache: Cache::new(cfg.dcache),
            keybuffer: KeyBuffer::new(cfg.keybuffer_entries),
            stats: CycleStats::default(),
            counters,
            ids,
            prev_load_dest: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> PipelineConfig {
        self.cfg
    }

    /// Accumulated statistics: the cycle categories the retire loop
    /// charges plus the event counters read back from the telemetry
    /// registry.
    pub fn stats(&self) -> CycleStats {
        let mut s = self.stats;
        s.keybuffer_hits = self.counters.get(self.ids.keybuffer_hits);
        s.keybuffer_misses = self.counters.get(self.ids.keybuffer_misses);
        s.hwst_instrs = self.counters.get(self.ids.hwst_instrs);
        s.checked_mem = self.counters.get(self.ids.checked_mem);
        s
    }

    /// The telemetry counter registry backing the event-style counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The keybuffer (for diagnostics).
    pub fn keybuffer(&self) -> &KeyBuffer {
        &self.keybuffer
    }

    /// The D-cache (for diagnostics).
    pub fn dcache(&self) -> &Cache {
        &self.dcache
    }

    /// Notifies the pipeline that a pointer was freed: the keybuffer is
    /// cleared so it never serves a stale key (paper §3.5).
    pub fn notify_free(&mut self) {
        self.keybuffer.clear();
    }

    /// Fault-injection hook: plants a stale/wrong `lock → key` entry in
    /// the keybuffer (see [`KeyBuffer::poison`]).
    pub fn poison_keybuffer(&mut self, lock: u64, key: u64) {
        self.keybuffer.poison(lock, key);
    }

    /// Charges cycles for environment/runtime work performed on behalf of
    /// the program (the proxy-kernel allocator model).
    pub fn charge_runtime(&mut self, cycles: u64) {
        self.stats.runtime_stalls += cycles;
    }

    /// Trie layout only: the dependent directory access that precedes
    /// every shadow lookup (1 cycle serialization + cache behaviour of
    /// the directory line).
    fn shadow_dir_walk(&mut self, saddr: u64) -> u64 {
        match self.cfg.shadow_layout {
            ShadowLayout::Linear => 0,
            ShadowLayout::Trie => {
                // Directory entries live in their own region; one entry
                // covers a 128 KiB leaf's worth of shadow.
                let dir_addr = 0xD000_0000_0000u64 | ((saddr >> 17) << 3);
                1 + self.dcache.access(dir_addr)
            }
        }
    }

    /// Retires one instruction, charging its cycles; returns the cycles
    /// charged.
    pub fn retire(&mut self, instr: &Instr, ev: &ExecEvents) -> u64 {
        self.stats.instret += 1;
        self.stats.base_cycles += 1;
        let mut cycles = 1;
        if instr.is_hwst() {
            self.counters.incr(self.ids.hwst_instrs);
        }

        // Load-use interlock against the previous instruction.
        if let Some(dest) = self.prev_load_dest.take() {
            if instr.reads_gpr(dest) {
                self.stats.load_use_stalls += self.cfg.load_use_stall;
                cycles += self.cfg.load_use_stall;
            }
        }

        match *instr {
            Instr::Load { rd, checked, .. } => {
                cycles += self.mem_access(ev.mem_addr.unwrap_or_default());
                self.counters.add(self.ids.checked_mem, checked as u64);
                self.prev_load_dest = Some(rd);
            }
            Instr::Store { checked, .. } => {
                cycles += self.mem_access(ev.mem_addr.unwrap_or_default());
                self.counters.add(self.ids.checked_mem, checked as u64);
            }
            Instr::Branch { .. } if ev.branch_taken => {
                self.stats.control_stalls += self.cfg.control_penalty;
                cycles += self.cfg.control_penalty;
            }
            Instr::Jal { .. } | Instr::Jalr { .. } => {
                self.stats.control_stalls += self.cfg.control_penalty;
                cycles += self.cfg.control_penalty;
            }
            Instr::Alu { op, .. } if op.is_muldiv() => {
                let lat = if matches!(
                    op,
                    hwst_isa::AluOp::Mul
                        | hwst_isa::AluOp::Mulh
                        | hwst_isa::AluOp::Mulhsu
                        | hwst_isa::AluOp::Mulhu
                        | hwst_isa::AluOp::Mulw
                ) {
                    self.cfg.mul_latency
                } else {
                    self.cfg.div_latency
                };
                self.stats.muldiv_stalls += lat;
                cycles += lat;
            }
            Instr::Sbdl { .. } | Instr::Sbdu { .. } => {
                cycles += self.shadow_access(ev.shadow_addr.unwrap_or_default());
                self.stats.meta_mem += 1;
            }
            Instr::Lbdls { rd, .. }
            | Instr::Lbdus { rd, .. }
            | Instr::Lbas { rd, .. }
            | Instr::Lbnd { rd, .. }
            | Instr::Lkey { rd, .. }
            | Instr::Lloc { rd, .. } => {
                cycles += self.shadow_access(ev.shadow_addr.unwrap_or_default());
                self.stats.meta_mem += 1;
                self.prev_load_dest = Some(rd);
            }
            Instr::Tchk { .. } => {
                if let Some((lock, key)) = ev.tchk {
                    cycles += self.tchk_access(lock, key);
                }
            }
            _ => {}
        }
        cycles
    }

    /// The D-cache access of a load/store; returns its stall cycles.
    #[inline(always)]
    fn mem_access(&mut self, addr: u64) -> u64 {
        let extra = self.dcache.access(addr);
        self.stats.mem_stalls += extra;
        extra
    }

    /// Metadata stores/loads go through the D-cache at the shadow
    /// address; COMP/DECOMP is folded into the pipe stages (paper: the
    /// compression adds critical-path latency, not extra cycles).
    /// Returns the stall cycles.
    #[inline(always)]
    fn shadow_access(&mut self, saddr: u64) -> u64 {
        let extra = self.shadow_dir_walk(saddr) + self.dcache.access(saddr);
        self.stats.shadow_stalls += extra;
        extra
    }

    /// The keybuffer lookup of a `tchk`, and on a miss the key fetch
    /// through the D-cache plus the fill; returns the stall cycles.
    #[inline(always)]
    fn tchk_access(&mut self, lock: u64, key: u64) -> u64 {
        match self.keybuffer.lookup(lock) {
            Some(_) => {
                // Keybuffer hit: the key load is bypassed by "modifying
                // the valid signal in the DCache module" — zero extra
                // cycles.
                self.counters.incr(self.ids.keybuffer_hits);
                0
            }
            None => {
                self.counters.incr(self.ids.keybuffer_misses);
                // The key must be fetched from the lock_location through
                // the D-cache; tchk is a two-memory-access pattern so it
                // cannot fuse with the load/store (paper §3.5).
                let extra = 1 + self.dcache.access(lock);
                self.stats.tchk_stalls += extra;
                self.keybuffer.fill(lock, key);
                extra
            }
        }
    }

    // ------------------------------------------------------------------
    // Batched retirement: the fast engine splits `retire` into a
    // per-block `charge_static` (its arithmetic, summed at decode time)
    // and a per-instruction `charge_dyn` (the parts that touch the
    // D-cache/keybuffer, whose access *order* must match the cycle
    // engine exactly for LRU state to stay bit-identical).
    // ------------------------------------------------------------------

    /// Applies a block's (or block prefix's) statically-summed charges.
    /// Together with [`Self::charge_dyn`] per instruction and
    /// [`Self::interlock_seam`] / [`Self::set_prev_load_dest`] at the
    /// seams, the result is bit-identical to having called
    /// [`Self::retire`] per instruction.
    #[inline]
    pub fn charge_static(&mut self, c: StaticCharges) {
        self.stats.instret += c.comps as u64;
        self.stats.base_cycles += c.comps as u64;
        self.counters.add(self.ids.hwst_instrs, c.hwst as u64);
        self.counters
            .add(self.ids.checked_mem, c.checked_mem as u64);
        self.stats.muldiv_stalls +=
            c.muls as u64 * self.cfg.mul_latency + c.divs as u64 * self.cfg.div_latency;
        self.stats.control_stalls += c.jumps as u64 * self.cfg.control_penalty;
        self.stats.load_use_stalls += c.load_use as u64 * self.cfg.load_use_stall;
        self.stats.meta_mem += c.meta_mem as u64;
    }

    /// Dynamic half of one retire: the D-cache access of a load/store,
    /// the directory walk and D-cache access of a metadata access, the
    /// keybuffer lookup (and fill) of a `tchk`, and the redirect of a
    /// taken branch — each issued when its event is present.
    #[inline(always)]
    pub fn charge_dyn(&mut self, ev: &ExecEvents) {
        if let Some(addr) = ev.mem_addr {
            self.mem_access(addr);
        }
        if let Some(saddr) = ev.shadow_addr {
            self.shadow_access(saddr);
        }
        if let Some((lock, key)) = ev.tchk {
            self.tchk_access(lock, key);
        }
        if ev.branch_taken {
            self.stats.control_stalls += self.cfg.control_penalty;
        }
    }

    /// Load-use interlock check at a batching seam (block entry or the
    /// instruction after an environment instruction), where the previous
    /// instruction is not known statically. Consumes `prev_load_dest`
    /// exactly as [`Self::retire`] does.
    #[inline]
    pub fn interlock_seam(&mut self, info: &RetireInfo) {
        if let Some(dest) = self.prev_load_dest.take() {
            if info.reads(dest) {
                self.stats.load_use_stalls += self.cfg.load_use_stall;
            }
        }
    }

    /// Restores the interlock state at a batching seam: called when the
    /// fast engine leaves a run of statically-accounted instructions,
    /// with the `load_dest` of the last instruction executed (the value
    /// per-instruction retirement would have left behind).
    #[inline]
    pub fn set_prev_load_dest(&mut self, dest: Option<Reg>) {
        self.prev_load_dest = dest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwst_isa::{AluOp, BranchCond, LoadWidth, StoreWidth};

    fn pipe() -> Pipeline {
        Pipeline::new(PipelineConfig::default())
    }

    fn load(rd: Reg, rs1: Reg) -> Instr {
        Instr::Load {
            width: LoadWidth::D,
            rd,
            rs1,
            offset: 0,
            checked: false,
        }
    }

    #[test]
    fn alu_is_single_cycle() {
        let mut p = pipe();
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(p.retire(&i, &ExecEvents::default()), 1);
        assert_eq!(p.stats().total_cycles(), 1);
    }

    #[test]
    fn load_use_interlock_fires_only_on_dependence() {
        let mut p = pipe();
        let ev = ExecEvents {
            mem_addr: Some(0x100),
            ..Default::default()
        };
        p.retire(&load(Reg::A0, Reg::Sp), &ev);
        // Dependent consumer stalls one cycle.
        let dep = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::A1,
            rs1: Reg::A0,
            rs2: Reg::Zero,
        };
        assert_eq!(p.retire(&dep, &ExecEvents::default()), 2);
        // Independent consumer does not.
        p.retire(&load(Reg::A2, Reg::Sp), &ev);
        let indep = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::A3,
            rs1: Reg::A4,
            rs2: Reg::Zero,
        };
        assert_eq!(p.retire(&indep, &ExecEvents::default()), 1);
        assert_eq!(p.stats().load_use_stalls, 1);
    }

    #[test]
    fn taken_branch_pays_redirect() {
        let mut p = pipe();
        let br = Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: 8,
        };
        let not_taken = p.retire(&br, &ExecEvents::default());
        let taken = p.retire(
            &br,
            &ExecEvents {
                branch_taken: true,
                ..Default::default()
            },
        );
        assert_eq!(not_taken, 1);
        assert_eq!(taken, 1 + p.config().control_penalty);
    }

    #[test]
    fn divide_is_slow() {
        let mut p = pipe();
        let div = Instr::Alu {
            op: AluOp::Div,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        let mul = Instr::Alu {
            op: AluOp::Mul,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(p.retire(&div, &ExecEvents::default()), 17);
        assert_eq!(p.retire(&mul, &ExecEvents::default()), 4);
    }

    #[test]
    fn tchk_keybuffer_hit_is_free() {
        let mut p = pipe();
        let tchk = Instr::Tchk { rs1: Reg::A0 };
        let ev = ExecEvents {
            tchk: Some((0x9000, 42)),
            ..Default::default()
        };
        let miss = p.retire(&tchk, &ev);
        let hit = p.retire(&tchk, &ev);
        assert!(
            miss > hit,
            "first tchk loads the key, second hits the buffer"
        );
        assert_eq!(hit, 1);
        assert_eq!(p.stats().keybuffer_hits, 1);
        assert_eq!(p.stats().keybuffer_misses, 1);
    }

    #[test]
    fn poisoned_entry_only_bypasses_timing_and_dies_on_free() {
        let mut p = pipe();
        let tchk = Instr::Tchk { rs1: Reg::A0 };
        let ev = ExecEvents {
            tchk: Some((0x9000, 42)),
            ..Default::default()
        };
        // A poisoned (stale) entry makes the next tchk a keybuffer hit —
        // it changes cycles, never the (lock, key) the simulator checks.
        p.poison_keybuffer(0x9000, 0xdead);
        assert_eq!(p.retire(&tchk, &ev), 1);
        assert_eq!(p.stats().keybuffer_hits, 1);
        // The free-coherence rule flushes poison like any entry.
        p.notify_free();
        p.retire(&tchk, &ev);
        assert_eq!(p.stats().keybuffer_misses, 1);
    }

    #[test]
    fn free_clears_keybuffer() {
        let mut p = pipe();
        let tchk = Instr::Tchk { rs1: Reg::A0 };
        let ev = ExecEvents {
            tchk: Some((0x9000, 42)),
            ..Default::default()
        };
        p.retire(&tchk, &ev);
        p.notify_free();
        p.retire(&tchk, &ev);
        assert_eq!(p.stats().keybuffer_misses, 2);
    }

    #[test]
    fn checked_and_unchecked_memops_cost_the_same() {
        // The SCU runs in EX in parallel with address generation: a
        // bounded load costs the same cycles as a plain load.
        let mut a = pipe();
        let mut b = pipe();
        let ev = ExecEvents {
            mem_addr: Some(0x40),
            ..Default::default()
        };
        let plain = Instr::Load {
            width: LoadWidth::D,
            rd: Reg::A0,
            rs1: Reg::A1,
            offset: 0,
            checked: false,
        };
        let checked = Instr::Load {
            width: LoadWidth::D,
            rd: Reg::A0,
            rs1: Reg::A1,
            offset: 0,
            checked: true,
        };
        assert_eq!(a.retire(&plain, &ev), b.retire(&checked, &ev));
        let evs = ExecEvents {
            mem_addr: Some(0x80),
            ..Default::default()
        };
        let ps = Instr::Store {
            width: StoreWidth::D,
            rs1: Reg::A1,
            rs2: Reg::A0,
            offset: 0,
            checked: false,
        };
        let cs = Instr::Store {
            width: StoreWidth::D,
            rs1: Reg::A1,
            rs2: Reg::A0,
            offset: 0,
            checked: true,
        };
        assert_eq!(a.retire(&ps, &evs), b.retire(&cs, &evs));
    }

    #[test]
    fn event_counters_come_from_the_telemetry_registry() {
        // The stats() snapshot and the registry must agree — they are
        // the same storage, read two ways.
        let mut p = pipe();
        let tchk = Instr::Tchk { rs1: Reg::A0 };
        let ev = ExecEvents {
            tchk: Some((0x9000, 42)),
            ..Default::default()
        };
        p.retire(&tchk, &ev); // miss
        p.retire(&tchk, &ev); // hit
        let checked = Instr::Load {
            width: LoadWidth::D,
            rd: Reg::A0,
            rs1: Reg::A1,
            offset: 0,
            checked: true,
        };
        p.retire(
            &checked,
            &ExecEvents {
                mem_addr: Some(0x40),
                ..Default::default()
            },
        );
        let s = p.stats();
        let c = p.counters();
        assert_eq!(c.get_named("keybuffer_hits"), Some(s.keybuffer_hits));
        assert_eq!(c.get_named("keybuffer_misses"), Some(s.keybuffer_misses));
        assert_eq!(c.get_named("hwst_instrs"), Some(s.hwst_instrs));
        assert_eq!(c.get_named("checked_mem"), Some(s.checked_mem));
        assert_eq!(s.keybuffer_hits, 1);
        assert_eq!(s.keybuffer_misses, 1);
        // Two tchk retires plus the checked load (checked memops are
        // HWST instructions too).
        assert_eq!(s.hwst_instrs, 3);
        assert_eq!(s.checked_mem, 1);
    }

    /// Every instruction form × representative events, in the order the
    /// batched-retirement tests replay them.
    fn retire_sequence() -> Vec<(Instr, ExecEvents)> {
        let mem = |a| ExecEvents {
            mem_addr: Some(a),
            ..Default::default()
        };
        let shadow = |a| ExecEvents {
            shadow_addr: Some(a),
            ..Default::default()
        };
        let tchk_ev = |lock, key| ExecEvents {
            tchk: Some((lock, key)),
            ..Default::default()
        };
        let taken = ExecEvents {
            branch_taken: true,
            ..Default::default()
        };
        let none = ExecEvents::default();
        let alu = |op, rd, rs1, rs2| Instr::Alu { op, rd, rs1, rs2 };
        vec![
            (
                Instr::Lui {
                    rd: Reg::A0,
                    imm: 4096,
                },
                none,
            ),
            (
                Instr::Auipc {
                    rd: Reg::A1,
                    imm: 0,
                },
                none,
            ),
            (load(Reg::A0, Reg::Sp), mem(0x40)),
            // Dependent consumer: interlock must fire identically.
            (alu(AluOp::Add, Reg::A1, Reg::A0, Reg::Zero), none),
            (load(Reg::A2, Reg::Sp), mem(0x80)),
            // Independent consumer: no interlock.
            (alu(AluOp::Add, Reg::A3, Reg::A4, Reg::A5), none),
            // x0 sources never carry a dependence.
            (load(Reg::A6, Reg::Sp), mem(0xc0)),
            (alu(AluOp::Add, Reg::A7, Reg::Zero, Reg::Zero), none),
            (
                Instr::Load {
                    width: LoadWidth::W,
                    rd: Reg::S0,
                    rs1: Reg::A0,
                    offset: 8,
                    checked: true,
                },
                mem(0x40),
            ),
            (
                Instr::Store {
                    width: StoreWidth::D,
                    rs1: Reg::A0,
                    rs2: Reg::A1,
                    offset: 0,
                    checked: true,
                },
                mem(0x48),
            ),
            (
                Instr::Branch {
                    cond: BranchCond::Eq,
                    rs1: Reg::A0,
                    rs2: Reg::A1,
                    offset: 8,
                },
                none,
            ),
            (
                Instr::Branch {
                    cond: BranchCond::Ne,
                    rs1: Reg::A0,
                    rs2: Reg::A1,
                    offset: -8,
                },
                taken,
            ),
            (
                Instr::Jal {
                    rd: Reg::Ra,
                    offset: 16,
                },
                none,
            ),
            (
                Instr::Jalr {
                    rd: Reg::Zero,
                    rs1: Reg::Ra,
                    offset: 0,
                },
                none,
            ),
            (alu(AluOp::Mul, Reg::A0, Reg::A1, Reg::A2), none),
            (alu(AluOp::Div, Reg::A0, Reg::A1, Reg::A2), none),
            (alu(AluOp::Remu, Reg::A0, Reg::A1, Reg::A2), none),
            (
                Instr::Csr {
                    op: hwst_isa::CsrOp::Rw,
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    csr: 0x8c0,
                },
                none,
            ),
            (Instr::Fence, none),
            (
                Instr::Bndrs {
                    rd: Reg::A0,
                    rs1: Reg::A0,
                    rs2: Reg::A1,
                },
                none,
            ),
            (
                Instr::Bndrt {
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    rs2: Reg::A2,
                },
                none,
            ),
            (
                Instr::Sbdl {
                    rs1: Reg::A0,
                    rs2: Reg::A0,
                    offset: 0,
                },
                shadow(0x4000_0000),
            ),
            (
                Instr::Sbdu {
                    rs1: Reg::A0,
                    rs2: Reg::A0,
                    offset: 0,
                },
                shadow(0x4000_0008),
            ),
            (
                Instr::Lbdls {
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    offset: 0,
                },
                shadow(0x4000_0000),
            ),
            // Shadow loads arm the interlock too.
            (alu(AluOp::Add, Reg::A2, Reg::A0, Reg::Zero), none),
            (
                Instr::Lbas {
                    rd: Reg::A3,
                    rs1: Reg::A1,
                    offset: 0,
                },
                shadow(0x4000_0000),
            ),
            (Instr::Tchk { rs1: Reg::A0 }, tchk_ev(0x9000, 42)),
            (Instr::Tchk { rs1: Reg::A0 }, tchk_ev(0x9000, 42)),
            (Instr::Tchk { rs1: Reg::A0 }, none),
            (
                Instr::SrfMv {
                    rd: Reg::A0,
                    rs1: Reg::A1,
                },
                none,
            ),
            (Instr::SrfClr { rd: Reg::A0 }, none),
            (Instr::Ecall, none),
            (Instr::Ebreak, none),
            // A shadow access in another trie directory entry.
            (
                Instr::Sbdu {
                    rs1: Reg::A0,
                    rs2: Reg::A0,
                    offset: 0,
                },
                shadow(0x4800_0000),
            ),
            // A load right before a seam-crossing consumer.
            (load(Reg::T0, Reg::Sp), mem(0x40)),
            (alu(AluOp::Add, Reg::T1, Reg::T0, Reg::Zero), none),
        ]
    }

    /// Replays `seq` through `retire` one instruction at a time, and
    /// through the fast engine's batched decomposition cut into runs of
    /// at most `run` instructions: `charge_dyn` per instruction, then per
    /// run a seam `interlock_seam` on its first instruction, one
    /// `charge_static` of the run's `StaticCharges` (its in-run load-use
    /// pairs counted) and `set_prev_load_dest`. Environment instructions
    /// retire through `retire` itself and end a run, as they do in the
    /// engine. After every run, both pipelines must hold the same stats
    /// and the same interlock arming. Returns the per-instruction one.
    fn assert_batched_matches_retire(
        cfg: PipelineConfig,
        seq: &[(Instr, ExecEvents)],
        run: usize,
    ) -> Pipeline {
        let is_env = |i: &Instr| matches!(i, Instr::Ecall | Instr::Ebreak | Instr::Csr { .. });
        let mut by_instr = Pipeline::new(cfg);
        let mut batched = Pipeline::new(cfg);
        let mut start = 0;
        while start < seq.len() {
            let end = if is_env(&seq[start].0) {
                batched.retire(&seq[start].0, &seq[start].1);
                start + 1
            } else {
                let mut end = start;
                let mut acc = StaticCharges::default();
                let mut prev: Option<Reg> = None;
                while end < seq.len() && end - start < run && !is_env(&seq[end].0) {
                    let (i, ev) = &seq[end];
                    let info = RetireInfo::of(i);
                    batched.charge_dyn(ev);
                    if prev.is_some_and(|d| info.reads(d)) {
                        acc.load_use += 1;
                    }
                    acc.add_component(&info);
                    prev = info.load_dest();
                    end += 1;
                }
                batched.interlock_seam(&RetireInfo::of(&seq[start].0));
                batched.charge_static(acc);
                batched.set_prev_load_dest(prev);
                end
            };
            for (i, ev) in &seq[start..end] {
                by_instr.retire(i, ev);
            }
            assert_eq!(
                batched.stats(),
                by_instr.stats(),
                "stats diverged after {end} (runs of {run})"
            );
            assert_eq!(
                batched.prev_load_dest, by_instr.prev_load_dest,
                "interlock arming diverged after {end} (runs of {run})"
            );
            start = end;
        }
        by_instr
    }

    /// Batched retirement over `RetireInfo::of` charges exactly what
    /// `retire` does, for every instruction form and with a seam at
    /// every position.
    #[test]
    fn batched_retirement_is_equivalent_to_retire() {
        let seq = retire_sequence();
        for run in 1..=seq.len() {
            let p = assert_batched_matches_retire(PipelineConfig::default(), &seq, run);
            let s = p.stats();
            assert!(s.load_use_stalls > 0, "interlock exercised");
            assert!(s.control_stalls > 0 && s.muldiv_stalls > 0 && s.shadow_stalls > 0);
            assert_eq!(s.keybuffer_hits, 1);
            assert_eq!(s.keybuffer_misses, 1);
        }
    }

    /// Every `Instr` shape, in one operand pattern per variant.
    fn every_shape(rd: Reg, rs1: Reg, rs2: Reg) -> Vec<Instr> {
        use hwst_isa::{AluImmOp, CsrOp};
        vec![
            Instr::Lui { rd, imm: 4096 },
            Instr::Auipc { rd, imm: 0 },
            Instr::Jal { rd, offset: 8 },
            Instr::Jalr { rd, rs1, offset: 0 },
            Instr::Branch {
                cond: BranchCond::Ltu,
                rs1,
                rs2,
                offset: -8,
            },
            Instr::Load {
                width: LoadWidth::W,
                rd,
                rs1,
                offset: 4,
                checked: true,
            },
            Instr::Store {
                width: StoreWidth::H,
                rs1,
                rs2,
                offset: 2,
                checked: false,
            },
            Instr::AluImm {
                op: AluImmOp::Addi,
                rd,
                rs1,
                imm: 1,
            },
            Instr::Alu {
                op: AluOp::Mulhu,
                rd,
                rs1,
                rs2,
            },
            Instr::Csr {
                op: CsrOp::Rs,
                rd,
                rs1,
                csr: 0x8c3,
            },
            Instr::Ecall,
            Instr::Ebreak,
            Instr::Fence,
            Instr::Bndrs { rd, rs1, rs2 },
            Instr::Bndrt { rd, rs1, rs2 },
            Instr::Sbdl {
                rs1,
                rs2,
                offset: 0,
            },
            Instr::Sbdu {
                rs1,
                rs2,
                offset: 8,
            },
            Instr::Lbdls { rd, rs1, offset: 0 },
            Instr::Lbdus { rd, rs1, offset: 0 },
            Instr::Lbas { rd, rs1, offset: 0 },
            Instr::Lbnd { rd, rs1, offset: 0 },
            Instr::Lkey { rd, rs1, offset: 0 },
            Instr::Lloc { rd, rs1, offset: 0 },
            Instr::Tchk { rs1 },
            Instr::SrfMv { rd, rs1 },
            Instr::SrfClr { rd },
        ]
    }

    /// The variant's position in `every_shape`. The match has no
    /// wildcard, so a new `Instr` variant fails to compile here until it
    /// is added to the list.
    fn shape_index(i: &Instr) -> usize {
        match i {
            Instr::Lui { .. } => 0,
            Instr::Auipc { .. } => 1,
            Instr::Jal { .. } => 2,
            Instr::Jalr { .. } => 3,
            Instr::Branch { .. } => 4,
            Instr::Load { .. } => 5,
            Instr::Store { .. } => 6,
            Instr::AluImm { .. } => 7,
            Instr::Alu { .. } => 8,
            Instr::Csr { .. } => 9,
            Instr::Ecall => 10,
            Instr::Ebreak => 11,
            Instr::Fence => 12,
            Instr::Bndrs { .. } => 13,
            Instr::Bndrt { .. } => 14,
            Instr::Sbdl { .. } => 15,
            Instr::Sbdu { .. } => 16,
            Instr::Lbdls { .. } => 17,
            Instr::Lbdus { .. } => 18,
            Instr::Lbas { .. } => 19,
            Instr::Lbnd { .. } => 20,
            Instr::Lkey { .. } => 21,
            Instr::Lloc { .. } => 22,
            Instr::Tchk { .. } => 23,
            Instr::SrfMv { .. } => 24,
            Instr::SrfClr { .. } => 25,
        }
    }

    /// `Instr::reads_gpr` (what `retire` consults) and
    /// `RetireInfo::reads` (what batched retirement consults) derive the
    /// source registers independently. They must agree for every
    /// instruction shape, every HWST128 one included, on all 32
    /// registers, with distinct, aliased and x0 operands.
    #[test]
    fn source_register_derivations_agree() {
        let operands = [
            (Reg::A0, Reg::A1, Reg::S2),
            (Reg::A1, Reg::A1, Reg::A1),
            (Reg::A0, Reg::Zero, Reg::T6),
            (Reg::T6, Reg::S11, Reg::Zero),
            (Reg::Zero, Reg::Zero, Reg::Zero),
        ];
        let mut seen = [false; 26];
        for (rd, rs1, rs2) in operands {
            for (k, i) in every_shape(rd, rs1, rs2).iter().enumerate() {
                assert_eq!(shape_index(i), k, "every_shape order");
                seen[k] = true;
                let info = RetireInfo::of(i);
                for r in Reg::ALL {
                    assert_eq!(i.reads_gpr(r), info.reads(r), "{i:?} reading {r:?}");
                }
                assert!(!i.reads_gpr(Reg::Zero), "{i:?}: x0 is never a source");
            }
        }
        assert!(seen.iter().all(|&s| s), "every shape covered");
        // Spot-check the sets themselves, not only their agreement.
        let st = &every_shape(Reg::A0, Reg::A1, Reg::S2)[6];
        assert!(st.reads_gpr(Reg::A1) && st.reads_gpr(Reg::S2) && !st.reads_gpr(Reg::A0));
        let sbdl = &every_shape(Reg::A0, Reg::A1, Reg::S2)[15];
        assert!(
            sbdl.reads_gpr(Reg::A1) && !sbdl.reads_gpr(Reg::S2),
            "SRF operand"
        );
    }

    /// The trie layout's directory walk goes through the same path in
    /// both retire flavours.
    #[test]
    fn batched_retirement_matches_under_trie_layout() {
        let cfg = PipelineConfig {
            shadow_layout: ShadowLayout::Trie,
            ..PipelineConfig::default()
        };
        let seq = retire_sequence();
        let linear = assert_batched_matches_retire(PipelineConfig::default(), &seq, seq.len());
        for run in 1..=seq.len() {
            let trie = assert_batched_matches_retire(cfg, &seq, run);
            assert!(
                trie.stats().shadow_stalls > linear.stats().shadow_stalls,
                "the directory walk is charged"
            );
        }
    }

    #[test]
    fn stats_balance() {
        let mut p = pipe();
        let ev = ExecEvents {
            mem_addr: Some(0),
            ..Default::default()
        };
        let mut sum = 0;
        sum += p.retire(&load(Reg::A0, Reg::Sp), &ev);
        let dep = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::A1,
            rs1: Reg::A0,
            rs2: Reg::Zero,
        };
        sum += p.retire(&dep, &ExecEvents::default());
        sum += p.retire(
            &Instr::Jal {
                rd: Reg::Ra,
                offset: 16,
            },
            &ExecEvents::default(),
        );
        assert_eq!(p.stats().total_cycles(), sum);
        assert_eq!(p.stats().instret, 3);
    }
}
