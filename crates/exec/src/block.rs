//! Decoded basic blocks and the epoch-stamped block cache.

use std::sync::Arc;

use hwst_isa::{Instr, Program, Reg};
use hwst_pipeline::{RetireInfo, StaticCharges};
use hwst_sim::{Machine, Trap};

/// Blocks are capped so a straight-line megablock cannot make one
/// decode arbitrarily expensive; the tail simply continues in the next
/// block.
pub(crate) const MAX_BLOCK_OPS: usize = 64;

/// Whether `instr` executes through [`Machine::step`] itself:
/// environment interactions (`ecall`/`csr*`/`ebreak`), so syscall,
/// CSR-reconfiguration and breakpoint semantics can never drift from
/// the cycle engine.
#[inline]
pub(crate) fn is_fallback(instr: &Instr) -> bool {
    matches!(instr, Instr::Ecall | Instr::Csr { .. } | Instr::Ebreak)
}

/// A decoded basic block: the instructions from the entry PC up to (and
/// including) the first control transfer, the end of the program, or
/// the size cap — plus the decode-time prefix sums the batched
/// retirement consumes.
#[derive(Debug)]
pub(crate) struct Block {
    pub(crate) instrs: Vec<Instr>,
    /// `info[k]`: the retire shape of `instrs[k]`.
    pub(crate) info: Vec<RetireInfo>,
    /// `prefix[k]`: summed static charges of the first `k` instructions.
    /// Fallback instructions contribute nothing — they retire inside
    /// [`Machine::step`] itself. Length `instrs.len() + 1`.
    pub(crate) prefix: Vec<StaticCharges>,
    /// `load_dest[k]`: the load-use interlock arming
    /// (`Pipeline::prev_load_dest`) after `k` instructions have retired
    /// — what per-instruction retirement would have left behind. Length
    /// `instrs.len() + 1`; index 0 is never consulted (a flush at a seam
    /// with nothing executed leaves live state untouched).
    pub(crate) load_dest: Vec<Option<Reg>>,
}

/// Decodes the block starting at `entry` (`None` when `entry` does not
/// fetch — below base, misaligned or past the end).
fn decode_block(program: &Program, entry: u64) -> Option<Block> {
    program.fetch(entry)?;
    let mut instrs = Vec::with_capacity(8);
    let mut pc = entry;
    while instrs.len() < MAX_BLOCK_OPS {
        let Some(&instr) = program.fetch(pc) else {
            break;
        };
        instrs.push(instr);
        pc = pc.wrapping_add(4);
        if matches!(
            instr,
            Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Branch { .. }
        ) {
            break;
        }
    }

    // Static-charge prefix sums. A load-use pair is static when both
    // halves are ordinary instructions of this block; it is charged with
    // the *consuming* instruction, so `prefix[k]` holds exactly what
    // retiring the first k instructions would have charged. Pairs
    // straddling a seam (block entry, or the instruction after an
    // environment instruction) stay dynamic — the previous load there is
    // not known at decode time.
    let info: Vec<RetireInfo> = instrs.iter().map(RetireInfo::of).collect();
    let mut prefix = Vec::with_capacity(instrs.len() + 1);
    let mut load_dest = Vec::with_capacity(instrs.len() + 1);
    let mut acc = StaticCharges::default();
    prefix.push(acc);
    load_dest.push(None);
    let mut prev_dest: Option<Reg> = None;
    for (instr, info) in instrs.iter().zip(&info) {
        if is_fallback(instr) {
            // Retires inside Machine::step: no static contribution, and
            // an environment instruction never arms the interlock.
            prev_dest = None;
        } else {
            if prev_dest.is_some_and(|d| info.reads(d)) {
                acc.load_use += 1;
            }
            acc.add_component(info);
            prev_dest = info.load_dest();
        }
        prefix.push(acc);
        load_dest.push(prev_dest);
    }
    Some(Block {
        instrs,
        info,
        prefix,
        load_dest,
    })
}

/// The validity stamp: a cache serves blocks only for the exact program
/// image it decoded them from.
type Stamp = (u64, u64, usize);

/// A cache of decoded blocks keyed by entry PC.
///
/// Storage is a slot vector direct-indexed by `(pc - base) / 4`: block
/// transitions are the hottest operation in the fast tier (every loop
/// iteration crosses one), so the lookup is a bounds check and an array
/// load — no hashing, no refcount traffic.
///
/// The cache is stamped with `(program epoch, base, len)` and flushes
/// itself whenever the machine it runs against carries a different
/// stamp — [`Machine::reload_image`] bumping the epoch is the only
/// invalidation event. Blocks are `Arc`-shared, so a cache clones
/// cheaply and crosses threads (the `hwst-serve` warm-start path stores
/// one per cached image).
///
/// Reusing a cache across *different* machines is sound exactly when
/// they run the same program image; the stamp turns a violation of that
/// contract into a flush, never into stale execution.
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    slots: Vec<Option<Arc<Block>>>,
    base: u64,
    stamp: Option<Stamp>,
    decodes: u64,
    hits: u64,
}

impl BlockCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decoded blocks currently resident.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }

    /// Blocks decoded so far (cache misses).
    pub fn decodes(&self) -> u64 {
        self.decodes
    }

    /// Block lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Flushes the cache if `m`'s program stamp differs from the one
    /// the resident blocks were decoded under. Called at the start of
    /// every fast run.
    pub(crate) fn revalidate(&mut self, m: &Machine) {
        let stamp = (m.program_epoch(), m.program().base(), m.program().len());
        if self.stamp != Some(stamp) {
            self.slots.clear();
            self.slots.resize(m.program().len(), None);
            self.base = m.program().base();
            self.stamp = Some(stamp);
        }
    }

    /// The block entered at `pc`, decoding it on a miss.
    ///
    /// # Errors
    ///
    /// [`Trap::BadFetch`] when `pc` does not fetch — the same trap (and
    /// the same timing point: only raised with fuel available) as the
    /// cycle engine's fetch. Below-base and misaligned PCs fail the
    /// index computation, out-of-range PCs fail the bounds check.
    pub(crate) fn block_for<'c>(&'c mut self, m: &Machine, pc: u64) -> Result<&'c Block, Trap> {
        let off = pc.wrapping_sub(self.base);
        let slot = (off >> 2) as usize;
        if off & 3 != 0 || slot >= self.slots.len() {
            return Err(Trap::BadFetch { pc });
        }
        if self.slots[slot].is_some() {
            self.hits += 1;
        } else {
            let block = decode_block(m.program(), pc).ok_or(Trap::BadFetch { pc })?;
            self.decodes += 1;
            self.slots[slot] = Some(Arc::new(block));
        }
        match self.slots[slot].as_deref() {
            Some(b) => Ok(b),
            None => Err(Trap::BadFetch { pc }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwst_isa::AluImmOp;
    use hwst_sim::SafetyConfig;

    #[test]
    fn blocks_end_at_control_transfers() {
        let nop = Instr::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::Zero,
            rs1: Reg::Zero,
            imm: 0,
        };
        let p = Program::from_instrs(
            0x1_0000,
            vec![
                nop,
                Instr::Jal {
                    rd: Reg::Zero,
                    offset: -4,
                },
                nop,
            ],
        );
        let b = decode_block(&p, 0x1_0000).unwrap();
        assert_eq!(b.instrs.len(), 2, "block includes the jump and stops");
        // The jump target starts its own block.
        let b = decode_block(&p, 0x1_0008).unwrap();
        assert_eq!(b.instrs.len(), 1);
    }

    #[test]
    fn decode_fails_off_program() {
        let p = Program::from_instrs(0x1_0000, vec![Instr::Fence]);
        assert!(decode_block(&p, 0x1_0002).is_none(), "misaligned");
        assert!(decode_block(&p, 0x0_8000).is_none(), "below base");
        assert!(decode_block(&p, 0x1_0004).is_none(), "past the end");
    }

    #[test]
    fn revalidate_flushes_on_reload_only() {
        let prog = Program::from_instrs(0x1_0000, vec![Instr::Fence, Instr::Ebreak]);
        let image = prog.to_image();
        let mut m = Machine::new(prog, SafetyConfig::default());
        let mut cache = BlockCache::new();
        cache.revalidate(&m);
        cache.block_for(&m, 0x1_0000).unwrap();
        assert_eq!(cache.len(), 1);

        // Same stamp: nothing flushed, lookups hit.
        cache.revalidate(&m);
        assert_eq!(cache.len(), 1);
        cache.block_for(&m, 0x1_0000).unwrap();
        assert_eq!(cache.hits(), 1);

        // A reload bumps the epoch; the stale blocks must go.
        m.reload_image(0x1_0000, &image).unwrap();
        cache.revalidate(&m);
        assert_eq!(cache.len(), 0, "reload_image invalidates the cache");
        assert_eq!(cache.decodes(), 1);
    }
}
