//! Coherence of the `hwst.status` CSR on the cycle engine: what the
//! `csrr*` instructions write is what `csr()` reads back, what the
//! spatial and temporal checks obey, and what snapshots and clones carry.

use hwst_isa::csr::{HWST_STATUS, STATUS_KEYBUFFER, STATUS_SPATIAL, STATUS_TEMPORAL};
use hwst_isa::{AluImmOp, CsrOp, Instr, LoadWidth, Program, Reg};
use hwst_sim::{syscall, Machine, SafetyConfig, Trap};

const BASE: u64 = 0x1_0000;

/// Every combination of the two check-enable bits.
const CHECK_BITS: [u64; 4] = [
    0,
    STATUS_SPATIAL,
    STATUS_TEMPORAL,
    STATUS_SPATIAL | STATUS_TEMPORAL,
];

fn li(rd: Reg, v: i64) -> Instr {
    Instr::AluImm {
        op: AluImmOp::Addi,
        rd,
        rs1: Reg::Zero,
        imm: v,
    }
}

fn mv(rd: Reg, rs1: Reg) -> Instr {
    Instr::AluImm {
        op: AluImmOp::Addi,
        rd,
        rs1,
        imm: 0,
    }
}

fn exit_seq() -> [Instr; 3] {
    [
        li(Reg::A7, syscall::EXIT as i64),
        li(Reg::A0, 0),
        Instr::Ecall,
    ]
}

/// `t0 = src; csr<op> t1, hwst.status, t0`.
fn csr_write(op: CsrOp, src: u64) -> [Instr; 2] {
    [
        li(Reg::T0, src as i64),
        Instr::Csr {
            op,
            rd: Reg::T1,
            rs1: Reg::T0,
            csr: HWST_STATUS,
        },
    ]
}

/// A 64-byte heap block in a0 with its spatial and temporal metadata
/// bound in SRF[a0]; the lock address is left in a2.
fn malloc_and_bind() -> Vec<Instr> {
    vec![
        li(Reg::A0, 64),
        li(Reg::A7, syscall::MALLOC as i64),
        Instr::Ecall,
        Instr::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::T0,
            rs1: Reg::A0,
            imm: 64,
        },
        Instr::Bndrs {
            rd: Reg::A0,
            rs1: Reg::A0,
            rs2: Reg::T0,
        },
        Instr::Bndrt {
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        },
    ]
}

fn oob_checked_load() -> Instr {
    Instr::Load {
        width: LoadWidth::D,
        rd: Reg::T2,
        rs1: Reg::A0,
        offset: 1000,
        checked: true,
    }
}

fn machine(body: Vec<Instr>, cfg: SafetyConfig) -> Machine {
    let mut body = body;
    body.extend(exit_seq());
    Machine::new(Program::from_instrs(BASE, body), cfg)
}

#[test]
fn csr_ops_set_clear_and_read_back_each_status_bit() {
    let all = STATUS_SPATIAL | STATUS_TEMPORAL | STATUS_KEYBUFFER;
    for cfg in [SafetyConfig::default(), SafetyConfig::baseline()] {
        let initial = Machine::new(Program::from_instrs(BASE, vec![]), cfg).csr(HWST_STATUS);
        assert_eq!(initial, if cfg.spatial { all } else { 0 });
        for bit in [STATUS_SPATIAL, STATUS_TEMPORAL] {
            let cases = [
                (CsrOp::Rw, initial | bit, true),
                (CsrOp::Rw, initial & !bit, false),
                (CsrOp::Rs, bit, true),
                (CsrOp::Rc, bit, false),
            ];
            for (op, src, set) in cases {
                let mut m = machine(csr_write(op, src).to_vec(), cfg);
                m.run(100).expect("exits");
                let want = op.apply(initial, src);
                let what = format!("{op:?} {src:#x} from {initial:#x}");
                assert_eq!(m.reg(Reg::T1), initial, "{what}: old value");
                assert_eq!(m.csr(HWST_STATUS), want, "{what}: read back");
                assert_eq!(want & bit != 0, set, "{what}: bit");
                assert_eq!(m.spatial_enabled(), want & STATUS_SPATIAL != 0, "{what}");
                assert_eq!(m.temporal_enabled(), want & STATUS_TEMPORAL != 0, "{what}");
            }
        }
    }
}

#[test]
fn out_of_bounds_load_traps_exactly_when_spatial_is_on() {
    for status in CHECK_BITS {
        let mut body = malloc_and_bind();
        body.extend(csr_write(CsrOp::Rw, status));
        body.push(oob_checked_load());
        let got = machine(body, SafetyConfig::default()).run(1_000);
        if status & STATUS_SPATIAL != 0 {
            assert!(
                matches!(got, Err(Trap::SpatialViolation { .. })),
                "status {status:#x}: {got:?}"
            );
        } else {
            assert!(got.is_ok(), "status {status:#x}: {got:?}");
        }
    }
}

#[test]
fn stale_tchk_traps_exactly_when_temporal_is_on() {
    for status in CHECK_BITS {
        let mut body = malloc_and_bind();
        body.extend([
            mv(Reg::S1, Reg::A0),
            mv(Reg::A1, Reg::A2),
            li(Reg::A7, syscall::FREE as i64),
            Instr::Ecall,
        ]);
        body.extend(csr_write(CsrOp::Rw, status));
        body.push(Instr::Tchk { rs1: Reg::S1 });
        let got = machine(body, SafetyConfig::default()).run(1_000);
        if status & STATUS_TEMPORAL != 0 {
            assert!(
                matches!(got, Err(Trap::TemporalViolation { .. })),
                "status {status:#x}: {got:?}"
            );
        } else {
            assert!(got.is_ok(), "status {status:#x}: {got:?}");
        }
    }
}

#[test]
fn status_survives_snapshot_restore_and_clone() {
    let bind = malloc_and_bind();
    let bind_len = bind.len();
    let mut body = bind;
    body.extend(csr_write(CsrOp::Rc, STATUS_SPATIAL));
    body.push(oob_checked_load());
    let mut m = machine(body, SafetyConfig::default());
    for _ in 0..bind_len {
        m.step().expect("bind");
    }
    let armed = m.snapshot();
    m.step().expect("li");
    m.step().expect("csrrc");
    let disarmed = STATUS_TEMPORAL | STATUS_KEYBUFFER;
    let snap = m.snapshot();
    let mut copies = [snap.restore(), m.clone()];
    for c in &copies {
        assert_eq!(c.csr(HWST_STATUS), disarmed);
        assert!(!c.spatial_enabled() && c.temporal_enabled());
    }
    let want = m.run(1_000).expect("spatial checks are off");
    for c in &mut copies {
        assert_eq!(c.run(1_000), Ok(want.clone()));
    }
    // The earlier snapshot kept the armed status through the later
    // write, and replays that write to the same exit.
    let mut early = armed.restore();
    assert_eq!(early.csr(HWST_STATUS), STATUS_SPATIAL | disarmed);
    assert!(early.spatial_enabled());
    assert_eq!(early.run(1_000), Ok(want));
}
