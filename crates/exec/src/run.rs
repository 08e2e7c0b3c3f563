//! The fast run loop: executes decoded blocks bit-identically to
//! [`Machine::run`] / [`Machine::run_profiled`].
//!
//! Every structural rule of the cycle engine's loop is replicated
//! exactly:
//!
//! * the exit latch is checked before the fuel budget, and once more
//!   after it, so exit-on-the-last-fuel-unit still reports `Ok`;
//! * [`Trap::BadFetch`] is only raised when fuel remains (fetch happens
//!   inside a fueled step);
//! * a trapping instruction does **not** advance the PC, and — except
//!   `tchk`, which charges its cycles before trapping — does not
//!   retire.
//!
//! `ecall`/`csr*`/`ebreak` execute through [`Machine::step`] (or
//! [`Machine::step_profiled`]) itself.
//!
//! Unprofiled runs *batch* retirement: the purely static charges of a
//! block (instret, base cycles, counter bumps, fixed latencies,
//! statically-known load-use pairs) were prefix-summed at decode time,
//! so per instruction only the dynamic work runs — D-cache and
//! keybuffer accesses, in exactly the order the cycle engine would
//! issue them — and one `charge_static` is applied per block, or per
//! block prefix at every early exit (trap, fuel exhaustion, environment
//! fallback). Profiled runs retire every instruction through
//! [`Pipeline::retire`]: they observe stats around every instruction,
//! so there is nothing to batch.
//!
//! [`Pipeline::retire`]: hwst_pipeline::Pipeline::retire

use crate::block::{is_fallback, BlockCache};
use hwst_isa::Instr;
use hwst_pipeline::{CycleStats, ExecEvents};
use hwst_sim::{classify, ExitStatus, Machine, Trap};
use hwst_telemetry::Profiler;

/// Per-instruction observation. An enabled observer sees stats around
/// every instruction, so its runs retire each one in full; a disabled
/// one compiles away and lets the loop batch retirement.
trait Observer {
    /// Whether stats snapshots must be taken around every instruction.
    const ENABLED: bool;
    fn record(&mut self, pc: u64, instr: &Instr, before: &CycleStats, after: &CycleStats);
    fn fallback(&mut self, m: &mut Machine) -> Result<(), Trap>;
}

struct NoObserver;

impl Observer for NoObserver {
    const ENABLED: bool = false;

    #[inline]
    fn record(&mut self, _: u64, _: &Instr, _: &CycleStats, _: &CycleStats) {}

    #[inline]
    fn fallback(&mut self, m: &mut Machine) -> Result<(), Trap> {
        m.step()
    }
}

struct WithProfiler<'a>(&'a mut Profiler);

impl Observer for WithProfiler<'_> {
    const ENABLED: bool = true;

    #[inline]
    fn record(&mut self, pc: u64, instr: &Instr, before: &CycleStats, after: &CycleStats) {
        self.0
            .record_step(pc, classify(instr, before, after), before.total_cycles());
    }

    #[inline]
    fn fallback(&mut self, m: &mut Machine) -> Result<(), Trap> {
        m.step_profiled(self.0)
    }
}

/// Runs `m` for at most `fuel` instructions through the decoded-block
/// tier, decoding blocks into `cache` on first touch.
///
/// Bit-identical to [`Machine::run`]: same result, same final machine
/// state. A warm `cache` (from a previous run of the same image) skips
/// re-decoding entirely; the cache revalidates its `(epoch, base, len)`
/// stamp first, so a mismatched cache flushes rather than misexecutes.
///
/// # Errors
///
/// Exactly those of [`Machine::run`].
pub fn run_fast(m: &mut Machine, fuel: u64, cache: &mut BlockCache) -> Result<ExitStatus, Trap> {
    run_blocks(m, fuel, cache, &mut NoObserver)
}

/// [`run_fast`] with per-PC cycle attribution into `prof` — the fast
/// counterpart of [`Machine::run_profiled`], attributing through the
/// same [`classify`] split (and through [`Machine::step_profiled`] for
/// environment instructions, so allocator spans are preserved).
///
/// # Errors
///
/// Exactly those of [`Machine::run_profiled`].
pub fn run_profiled_fast(
    m: &mut Machine,
    fuel: u64,
    prof: &mut Profiler,
    cache: &mut BlockCache,
) -> Result<ExitStatus, Trap> {
    run_blocks(m, fuel, cache, &mut WithProfiler(prof))
}

fn exit_status(m: &Machine, code: u64) -> ExitStatus {
    ExitStatus {
        code,
        stats: m.stats(),
        output: m.output().to_vec(),
    }
}

/// The run loop. Without an observer, retirement is batched: dynamic
/// charges per instruction, and one flush per run of instructions
/// between *seams* (block entry and post-fallback) — or per executed
/// prefix of such a run at early exits.
///
/// [`StaticCharges`]: hwst_pipeline::StaticCharges
fn run_blocks<O: Observer>(
    m: &mut Machine,
    fuel: u64,
    cache: &mut BlockCache,
    obs: &mut O,
) -> Result<ExitStatus, Trap> {
    cache.revalidate(m);
    let mut executed: u64 = 0;

    loop {
        if let Some(code) = m.exit_code() {
            return Ok(exit_status(m, code));
        }
        if executed >= fuel {
            return Err(Trap::OutOfFuel { executed: fuel });
        }
        let entry = m.pc();
        let block = cache.block_for(m, entry)?;
        // The instructions the remaining fuel pays for.
        let n = (block.instrs.len() as u64).min(fuel - executed) as usize;
        let mut pc = entry;
        // First instruction of the current unflushed run. Flushing the
        // run up to `end` checks the load-use pair across its seam (the
        // instruction before `seg` is not known at decode time), applies
        // the static prefix difference and restores the interlock arming
        // per-instruction retirement would have left, so any exit point
        // — and any resumption after `OutOfFuel` — sees exactly the cycle
        // engine's state.
        let mut seg: usize = 0;
        macro_rules! flush {
            ($end:expr) => {
                let end: usize = $end;
                if !O::ENABLED && end > seg {
                    let p = m.pipeline_mut();
                    p.interlock_seam(&block.info[seg]);
                    p.charge_static(block.prefix[end] - block.prefix[seg]);
                    p.set_prev_load_dest(block.load_dest[end]);
                }
            };
        }

        for (k, instr) in block.instrs[..n].iter().enumerate() {
            if is_fallback(instr) {
                flush!(k);
                m.set_pc(pc);
                obs.fallback(m)?;
                if let Some(code) = m.exit_code() {
                    return Ok(exit_status(m, code));
                }
                pc = m.pc();
                seg = k + 1;
                continue;
            }
            let before = if O::ENABLED {
                m.stats()
            } else {
                CycleStats::default()
            };
            let r = exec_one::<O>(m, instr, pc);
            if O::ENABLED {
                let after = m.stats();
                obs.record(pc, instr, &before, &after);
            }
            match r {
                Ok(next) => pc = next,
                Err(t) => {
                    // A trapping instruction does not retire — except
                    // tchk, which charges its cycles (and its static
                    // share) before raising the temporal violation.
                    let retired = matches!(t, Trap::TemporalViolation { .. });
                    flush!(k + retired as usize);
                    m.set_pc(pc);
                    return Err(t);
                }
            }
        }
        flush!(n);
        m.set_pc(pc);
        executed += n as u64;
    }
}

/// Executes one non-fallback instruction, mirroring [`Machine::step`]
/// arm by arm. Returns the next PC; on a trap the caller leaves the
/// machine PC at `pc`.
///
/// With an enabled observer the instruction retires in full through
/// [`Pipeline::retire`]; otherwise only its dynamic charges are issued
/// ([`Pipeline::charge_dyn`]), with the static share owed by the
/// caller's block-prefix accounting.
///
/// [`Pipeline::retire`]: hwst_pipeline::Pipeline::retire
/// [`Pipeline::charge_dyn`]: hwst_pipeline::Pipeline::charge_dyn
#[inline(always)]
fn exec_one<O: Observer>(m: &mut Machine, instr: &Instr, pc: u64) -> Result<u64, Trap> {
    let mut ev = ExecEvents::default();
    let mut next = pc.wrapping_add(4);
    match *instr {
        Instr::Lui { rd, imm } => {
            m.set_reg(rd, imm as u64);
            m.srf_mut().clear(rd);
        }
        Instr::Auipc { rd, imm } => {
            m.set_reg(rd, pc.wrapping_add(imm as u64));
            m.srf_mut().clear(rd);
        }
        Instr::Jal { rd, offset } => {
            m.set_reg(rd, pc.wrapping_add(4));
            m.srf_mut().clear(rd);
            next = pc.wrapping_add(offset as u64);
        }
        Instr::Jalr { rd, rs1, offset } => {
            // Read rs1 before the link write: rd may alias rs1.
            let target = m.reg(rs1).wrapping_add(offset as u64) & !1u64;
            m.set_reg(rd, pc.wrapping_add(4));
            m.srf_mut().clear(rd);
            next = target;
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => {
            if cond.eval(m.reg(rs1), m.reg(rs2)) {
                next = pc.wrapping_add(offset as u64);
                ev.branch_taken = true;
            }
        }
        Instr::Load {
            width,
            rd,
            rs1,
            offset,
            checked,
        } => {
            let addr = m.reg(rs1).wrapping_add(offset as u64);
            if checked && m.spatial_enabled() {
                m.spatial_check(pc, rs1, addr, width.bytes())?;
            }
            let raw = m.mem().read_le(addr, width.bytes());
            m.set_reg(rd, width.extend(raw));
            m.srf_mut().clear(rd);
            ev.mem_addr = Some(addr);
        }
        Instr::Store {
            width,
            rs1,
            rs2,
            offset,
            checked,
        } => {
            let addr = m.reg(rs1).wrapping_add(offset as u64);
            if checked && m.spatial_enabled() {
                m.spatial_check(pc, rs1, addr, width.bytes())?;
            }
            let val = m.reg(rs2);
            m.mem_mut().write_le(addr, width.bytes(), val);
            ev.mem_addr = Some(addr);
        }
        Instr::AluImm { op, rd, rs1, imm } => {
            m.set_reg(rd, op.eval(m.reg(rs1), imm));
            m.srf_mut().propagate(rd, Some(rs1), None);
        }
        Instr::Alu { op, rd, rs1, rs2 } => {
            m.set_reg(rd, op.eval(m.reg(rs1), m.reg(rs2)));
            m.srf_mut().propagate(rd, Some(rs1), Some(rs2));
        }
        Instr::Fence => {}
        Instr::Bndrs { rd, rs1, rs2 } => {
            let (base, bound) = (m.reg(rs1), m.reg(rs2));
            let lower = m
                .codec()
                .compress_spatial(base, bound)
                .map_err(|_| Trap::Environment {
                    pc,
                    what: "bndrs: metadata not representable under compcfg",
                })?;
            m.srf_mut().write_lower(rd, lower);
        }
        Instr::Bndrt { rd, rs1, rs2 } => {
            let (key, lock) = (m.reg(rs1), m.reg(rs2));
            let upper = m
                .codec()
                .compress_temporal(key, lock)
                .map_err(|_| Trap::Environment {
                    pc,
                    what: "bndrt: metadata not representable under compcfg",
                })?;
            m.srf_mut().write_upper(rd, upper);
        }
        Instr::SrfMv { rd, rs1 } => m.srf_mut().mv(rd, rs1),
        Instr::SrfClr { rd } => m.srf_mut().clear(rd),
        Instr::Sbdl { rs1, rs2, offset } => {
            let container = m.reg(rs1).wrapping_add(offset as u64);
            let s = m.shadow().shadow_addr(container);
            let lower = m.srf().read(rs2).map(|c| c.lower).unwrap_or(0);
            m.mem_mut().write_le(s, 8, lower);
            ev.shadow_addr = Some(s);
        }
        Instr::Sbdu { rs1, rs2, offset } => {
            let container = m.reg(rs1).wrapping_add(offset as u64);
            let s = m.shadow().upper_addr(container);
            let upper = m.srf().read(rs2).map(|c| c.upper).unwrap_or(0);
            m.mem_mut().write_le(s, 8, upper);
            ev.shadow_addr = Some(s);
        }
        Instr::Lbdls { rd, rs1, offset } => {
            let container = m.reg(rs1).wrapping_add(offset as u64);
            let s = m.shadow().shadow_addr(container);
            let v = m.mem().read_le(s, 8);
            m.srf_mut().write_lower(rd, v);
            ev.shadow_addr = Some(s);
        }
        Instr::Lbdus { rd, rs1, offset } => {
            let container = m.reg(rs1).wrapping_add(offset as u64);
            let s = m.shadow().upper_addr(container);
            let v = m.mem().read_le(s, 8);
            m.srf_mut().write_upper(rd, v);
            ev.shadow_addr = Some(s);
        }
        Instr::Lbas { rd, rs1, offset }
        | Instr::Lbnd { rd, rs1, offset }
        | Instr::Lkey { rd, rs1, offset }
        | Instr::Lloc { rd, rs1, offset } => {
            let container = m.reg(rs1).wrapping_add(offset as u64);
            let spatial = matches!(instr, Instr::Lbas { .. } | Instr::Lbnd { .. });
            let s = if spatial {
                m.shadow().shadow_addr(container)
            } else {
                m.shadow().upper_addr(container)
            };
            let word = m.mem().read_le(s, 8);
            let v = match instr {
                Instr::Lbas { .. } => m.codec().decompress_spatial(word).0,
                Instr::Lbnd { .. } => m.codec().decompress_spatial(word).1,
                Instr::Lkey { .. } => m.codec().decompress_temporal(word).0,
                _ => m.codec().decompress_temporal(word).1,
            };
            m.set_reg(rd, v);
            m.srf_mut().clear(rd);
            ev.shadow_addr = Some(s);
        }
        Instr::Tchk { rs1 } => {
            if m.temporal_enabled() {
                if let Some(c) = m.srf().read(rs1) {
                    let (key, lock) = m.codec().decompress_temporal(c.upper);
                    if lock != 0 {
                        let stored = m.mem().read_le(lock, 8);
                        ev.tchk = Some((lock, stored));
                        if stored != key {
                            // Charge the cycles before trapping, as the
                            // cycle engine does (batched runs count this
                            // instruction into their flush for the
                            // static share).
                            retire::<O>(m, instr, &ev);
                            return Err(Trap::TemporalViolation {
                                pc,
                                key,
                                lock,
                                stored_key: stored,
                            });
                        }
                    }
                }
            }
        }
        // Executed through Machine::step by the caller; unreachable here.
        Instr::Csr { .. } | Instr::Ecall | Instr::Ebreak => {
            return Err(Trap::MachineFault {
                pc,
                what: "decoded-block dispatch error",
            })
        }
    }
    retire::<O>(m, instr, &ev);
    Ok(next)
}

/// Retires `instr` with its dynamic events: in full when the observer
/// records every instruction, otherwise its dynamic half only.
#[inline(always)]
fn retire<O: Observer>(m: &mut Machine, instr: &Instr, ev: &ExecEvents) {
    if O::ENABLED {
        m.pipeline_mut().retire(instr, ev);
    } else {
        m.pipeline_mut().charge_dyn(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use hwst_isa::asm::assemble;
    use hwst_isa::Reg;
    use hwst_sim::SafetyConfig;
    use hwst_telemetry::Breakdown;
    use std::collections::BTreeMap;

    const BASE: u64 = 0x1_0000;

    fn machines(src: &str, cfg: SafetyConfig) -> (Machine, Machine) {
        let prog = assemble(BASE, src).unwrap();
        (Machine::new(prog.clone(), cfg), Machine::new(prog, cfg))
    }

    /// Full architectural-state comparison: pc, registers, SRF, exit
    /// latch, pipeline stats, output, runtime events and every resident
    /// nonzero memory word.
    fn assert_same_state(cycle: &Machine, fast: &Machine) {
        assert_eq!(cycle.pc(), fast.pc(), "pc");
        for r in Reg::ALL {
            assert_eq!(cycle.reg(r), fast.reg(r), "reg {r:?}");
            assert_eq!(cycle.srf().read(r), fast.srf().read(r), "srf {r:?}");
        }
        assert_eq!(cycle.exit_code(), fast.exit_code(), "exit code");
        assert_eq!(cycle.stats(), fast.stats(), "stats");
        assert_eq!(cycle.output(), fast.output(), "output");
        assert_eq!(cycle.events(), fast.events(), "events");
        let cw = cycle.mem().nonzero_word_addrs_in(0, u64::MAX);
        let fw = fast.mem().nonzero_word_addrs_in(0, u64::MAX);
        assert_eq!(cw, fw, "nonzero memory words");
        for a in cw {
            assert_eq!(
                cycle.mem().read_u64(a),
                fast.mem().read_u64(a),
                "memory word at {a:#x}"
            );
        }
    }

    /// Runs `src` under both engines at the given fuel and asserts the
    /// results and final machine states are bit-identical. Returns the
    /// warm cache for follow-up assertions.
    fn assert_same_run(src: &str, cfg: SafetyConfig, fuel: u64) -> BlockCache {
        let (mut cycle, mut fast) = machines(src, cfg);
        let mut cache = BlockCache::new();
        let want = cycle.run(fuel);
        let got = run_fast(&mut fast, fuel, &mut cache);
        assert_eq!(want, got, "run result at fuel {fuel}");
        assert_same_state(&cycle, &fast);
        cache
    }

    /// Exercises the HWST metadata idioms, muldiv/branch loops, calls and
    /// syscalls in one program.
    const MIXED: &str = "
        li   a0, 64
        li   a7, 1000
        ecall                  # malloc: a0=base a1=key a2=lock
        mv   t0, a0
        addi t1, a0, 64
        bndrs t0, a0, t1
        bndrt t0, a1, a2
        csd  t1, 0(t0)         # checked store, in bounds
        cld  t2, 0(t0)         # checked load, in bounds
        tchk t0                # keybuffer miss
        tchk t0                # keybuffer hit
        sd   t0, 8(a0)
        sbdl t0, 8(a0)         # metadata store pair
        sbdu t0, 8(a0)
        ld   t3, 8(a0)
        lbdls t3, 8(a0)        # metadata load, then the checked load
        cld  t4, 0(t3)
        lbdls t5, 8(a0)        # metadata load pair
        lbdus t5, 8(a0)
        lbas s0, 8(a0)
        lbnd s1, 8(a0)
        lkey s2, 8(a0)
        lloc s3, 8(a0)
        srfmv s4, t0
        srfclr s4
        li   s5, 5
        li   s6, 0
    loop:
        addi s6, s6, 3
        mul  s7, s6, s6
        div  s8, s7, s5
        addi s5, s5, -1
        bnez s5, loop
        sd   s7, -8(sp)
        ld   s9, -8(sp)
        jal  ra, func
        mv   a0, s7
        li   a7, 1020
        ecall                  # print_u64
        li   a0, 72
        li   a7, 64
        ecall                  # putchar
        li   a0, 0
        li   a7, 93
        ecall                  # exit
    func:
        lui  s10, 4
        auipc s11, 0
        ret
    ";

    #[test]
    fn mixed_program_is_bit_identical() {
        let cache = assert_same_run(MIXED, SafetyConfig::default(), 10_000);
        assert!(cache.decodes() > 0);
    }

    #[test]
    fn mixed_program_matches_under_every_config() {
        for cfg in [
            SafetyConfig::baseline(),
            SafetyConfig::hwst128_no_tchk(),
            SafetyConfig::default(),
        ] {
            assert_same_run(MIXED, cfg, 10_000);
        }
    }

    /// Every fuel value from 0 to completion: out-of-fuel boundaries —
    /// including exhaustion *between* the halves of a metadata pair —
    /// must leave both engines in identical states.
    #[test]
    fn every_fuel_boundary_is_bit_identical() {
        for fuel in 0..280 {
            assert_same_run(MIXED, SafetyConfig::default(), fuel);
        }
    }

    #[test]
    fn spatial_violation_is_bit_identical() {
        let src = "
            li   a0, 16
            li   a7, 1000
            ecall
            mv   t0, a0
            addi t1, a0, 16
            bndrs t0, a0, t1
            cld  t2, 16(t0)     # one past the bound
        ";
        let (mut cycle, mut fast) = machines(src, SafetyConfig::default());
        let mut cache = BlockCache::new();
        let want = cycle.run(1_000);
        let got = run_fast(&mut fast, 1_000, &mut cache);
        assert!(
            matches!(want, Err(Trap::SpatialViolation { .. })),
            "{want:?}"
        );
        assert_eq!(want, got);
        assert_same_state(&cycle, &fast);
    }

    #[test]
    fn checked_load_after_metadata_load_violation_is_bit_identical() {
        // The violating access follows its lbdls in the same block: the
        // metadata load must retire, the load must trap without
        // retiring, and the pc must stay on the load.
        let src = "
            li   a0, 16
            li   a7, 1000
            ecall
            mv   t0, a0
            addi t1, a0, 16
            bndrs t0, a0, t1
            bndrt t0, a1, a2
            sd   t0, 0(a0)
            sbdl t0, 0(a0)
            sbdu t0, 0(a0)
            ld   t3, 0(a0)
            lbdls t3, 0(a0)
            cld  t4, 24(t3)     # out of bounds
        ";
        let (mut cycle, mut fast) = machines(src, SafetyConfig::default());
        let mut cache = BlockCache::new();
        let want = cycle.run(1_000);
        let got = run_fast(&mut fast, 1_000, &mut cache);
        assert!(
            matches!(want, Err(Trap::SpatialViolation { .. })),
            "{want:?}"
        );
        assert_eq!(want, got);
        assert_same_state(&cycle, &fast);
    }

    #[test]
    fn temporal_violation_is_bit_identical() {
        let src = "
            li   a0, 32
            li   a7, 1000
            ecall
            mv   t0, a0
            addi t1, a0, 32
            bndrs t0, a0, t1
            bndrt t0, a1, a2
            mv   a0, t0
            mv   a1, a2
            li   a7, 1001
            ecall               # free: key at the lock location is cleared
            tchk t0
        ";
        let (mut cycle, mut fast) = machines(src, SafetyConfig::default());
        let mut cache = BlockCache::new();
        let want = cycle.run(1_000);
        let got = run_fast(&mut fast, 1_000, &mut cache);
        assert!(
            matches!(want, Err(Trap::TemporalViolation { .. })),
            "{want:?}"
        );
        assert_eq!(want, got);
        assert_same_state(&cycle, &fast);
    }

    #[test]
    fn csr_write_disables_later_checked_accesses() {
        // Disabling hwst.status through a fallback instruction must be
        // visible to subsequent decoded checked accesses: the same
        // out-of-bounds load that would trap now passes in both engines.
        let src = "
            li   a0, 16
            li   a7, 1000
            ecall
            mv   t0, a0
            addi t1, a0, 16
            bndrs t0, a0, t1
            csrrw zero, hwst.status, zero
            cld  t2, 64(t0)     # far out of bounds, but checks are off
            li   a0, 0
            li   a7, 93
            ecall
        ";
        let (mut cycle, mut fast) = machines(src, SafetyConfig::default());
        let mut cache = BlockCache::new();
        let want = cycle.run(1_000);
        let got = run_fast(&mut fast, 1_000, &mut cache);
        assert!(want.is_ok(), "{want:?}");
        assert_eq!(want, got);
        assert_same_state(&cycle, &fast);
    }

    #[test]
    fn bad_fetch_and_breakpoint_are_bit_identical() {
        for src in [
            "   li  t0, 0x500000\n   jalr zero, 0(t0)\n",
            "   addi t0, zero, 1\n   ebreak\n",
        ] {
            let (mut cycle, mut fast) = machines(src, SafetyConfig::default());
            let mut cache = BlockCache::new();
            let want = cycle.run(1_000);
            let got = run_fast(&mut fast, 1_000, &mut cache);
            assert!(want.is_err());
            assert_eq!(want, got);
            assert_same_state(&cycle, &fast);
        }
    }

    #[test]
    fn environment_trap_from_bndrs_is_bit_identical() {
        // A bound below the base is not representable: both engines must
        // report the same Environment trap without retiring.
        let src = "
            li   a0, 4096
            li   t1, 8
            bndrs t0, a0, t1
        ";
        let (mut cycle, mut fast) = machines(src, SafetyConfig::default());
        let mut cache = BlockCache::new();
        let want = cycle.run(1_000);
        let got = run_fast(&mut fast, 1_000, &mut cache);
        assert!(matches!(want, Err(Trap::Environment { .. })), "{want:?}");
        assert_eq!(want, got);
        assert_same_state(&cycle, &fast);
    }

    #[test]
    fn profiled_run_attributes_identically() {
        let (mut cycle, mut fast) = machines(MIXED, SafetyConfig::default());
        let mut cache = BlockCache::new();
        let mut pc_prof = Profiler::new();
        let mut pf_prof = Profiler::new();
        let want = cycle.run_profiled(10_000, &mut pc_prof);
        let got = run_profiled_fast(&mut fast, 10_000, &mut pf_prof, &mut cache);
        assert_eq!(want, got);
        assert_same_state(&cycle, &fast);
        let c: BTreeMap<u64, Breakdown> =
            pc_prof.profile.iter().map(|(pc, bd)| (pc, *bd)).collect();
        let f: BTreeMap<u64, Breakdown> =
            pf_prof.profile.iter().map(|(pc, bd)| (pc, *bd)).collect();
        assert_eq!(c, f, "per-PC attribution");
        assert_eq!(pc_prof.profile.total(), pf_prof.profile.total());
    }

    #[test]
    fn warm_cache_skips_redecode_and_stays_identical() {
        let prog = assemble(BASE, MIXED).unwrap();
        let mut cache = BlockCache::new();

        let mut first = Machine::new(prog.clone(), SafetyConfig::default());
        let a = run_fast(&mut first, 10_000, &mut cache).unwrap();
        let decodes = cache.decodes();
        assert!(decodes > 0);

        let mut second = Machine::new(prog.clone(), SafetyConfig::default());
        let b = run_fast(&mut second, 10_000, &mut cache).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.decodes(), decodes, "warm run must not re-decode");
        assert!(cache.hits() > 0);

        let mut reference = Machine::new(prog, SafetyConfig::default());
        assert_eq!(reference.run(10_000).unwrap(), b);
    }

    #[test]
    fn reload_image_flushes_and_reexecutes_correctly() {
        let exit7 = assemble(BASE, "  li a0, 7\n  li a7, 93\n  ecall\n").unwrap();
        let exit9 = assemble(BASE, "  li a0, 9\n  li a7, 93\n  ecall\n").unwrap();
        let mut m = Machine::new(exit7, SafetyConfig::default());
        let mut cache = BlockCache::new();
        assert_eq!(run_fast(&mut m, 100, &mut cache).unwrap().code, 7);
        m.reload_image(BASE, &exit9.to_image()).unwrap();
        assert_eq!(run_fast(&mut m, 100, &mut cache).unwrap().code, 9);
        assert_eq!(cache.len(), 1, "stale blocks must be flushed");
    }

    #[test]
    fn engine_parses_and_displays() {
        assert_eq!("fast".parse::<Engine>(), Ok(Engine::Fast));
        assert_eq!("cycle".parse::<Engine>(), Ok(Engine::Cycle));
        assert!("turbo".parse::<Engine>().is_err());
        assert_eq!(Engine::Fast.to_string(), "fast");
        assert_eq!(Engine::Cycle.to_string(), "cycle");
        assert_eq!(Engine::default(), Engine::Fast);
    }

    #[test]
    fn engine_dispatch_matches_direct_calls() {
        let prog = assemble(BASE, MIXED).unwrap();
        let mut results = Vec::new();
        for engine in Engine::ALL {
            let mut m = Machine::new(prog.clone(), SafetyConfig::default());
            let mut cache = BlockCache::new();
            results.push(engine.run(&mut m, 10_000, &mut cache).unwrap());
        }
        assert_eq!(results[0], results[1]);
    }
}
