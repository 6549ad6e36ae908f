//! R10000-style register renaming and the physical register file scoreboard.

use flywheel_isa::{ArchReg, StaticInst, NUM_ARCH_REGS};

/// Identifier of a physical register.
pub type PhysReg = u16;

/// A cycle timestamp meaning "value not available yet".
const NOT_READY: u64 = u64::MAX;

/// The physical register file scoreboard: for every physical register, the back-end
/// cycle at which its value becomes available to consumers (through the bypass
/// network).
#[derive(Debug, Clone)]
pub struct PhysRegFile {
    ready_at: Vec<u64>,
}

impl PhysRegFile {
    /// Creates a scoreboard for `n` physical registers, all ready.
    pub fn new(n: u32) -> Self {
        PhysRegFile {
            ready_at: vec![0; n as usize],
        }
    }

    /// Number of physical registers.
    pub fn len(&self) -> usize {
        self.ready_at.len()
    }

    /// Whether the register file has no registers (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.ready_at.is_empty()
    }

    /// Marks `reg` as produced by an in-flight instruction (not ready).
    pub fn mark_pending(&mut self, reg: PhysReg) {
        self.ready_at[reg as usize] = NOT_READY;
    }

    /// Marks `reg` as available to consumers from `cycle` on.
    pub fn mark_ready(&mut self, reg: PhysReg, cycle: u64) {
        self.ready_at[reg as usize] = cycle;
    }

    /// Whether `reg`'s value is available at `cycle`.
    pub fn is_ready(&self, reg: PhysReg, cycle: u64) -> bool {
        self.ready_at[reg as usize] <= cycle
    }

    /// The cycle `reg` becomes available (``u64::MAX`` if still pending).
    pub fn ready_at(&self, reg: PhysReg) -> u64 {
        self.ready_at[reg as usize]
    }
}

/// Physical source registers of a renamed instruction (at most two), stored
/// inline so renaming never allocates — the rename path runs once per dispatched
/// instruction on the simulator hot loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SrcList {
    regs: [PhysReg; 2],
    len: u8,
}

impl SrcList {
    /// Appends a source register.
    ///
    /// # Panics
    ///
    /// Panics if more than two sources are pushed (the ISA has at most two).
    pub fn push(&mut self, reg: PhysReg) {
        self.regs[self.len as usize] = reg;
        self.len += 1;
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the instruction has no register sources.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sources as a slice.
    pub fn as_slice(&self) -> &[PhysReg] {
        &self.regs[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a SrcList {
    type Item = &'a PhysReg;
    type IntoIter = std::slice::Iter<'a, PhysReg>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<PhysReg> for SrcList {
    fn from_iter<I: IntoIterator<Item = PhysReg>>(iter: I) -> Self {
        let mut list = SrcList::default();
        for reg in iter {
            list.push(reg);
        }
        list
    }
}

/// The result of renaming one instruction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RenameOutcome {
    /// Physical registers of the source operands.
    pub srcs: SrcList,
    /// Physical register allocated to the destination, if the instruction writes one.
    pub dst: Option<PhysReg>,
    /// The previous mapping of the destination architected register (freed when the
    /// instruction retires, restored if it is squashed).
    pub prev: Option<PhysReg>,
    /// Destination architected register, if any.
    pub dst_arch: Option<ArchReg>,
}

/// The register renaming interface the kernel dispatches through
/// ([`crate::kernel::Kernel`] is generic over it).
pub trait Rename {
    /// Renames `inst`. Returns `None` when it cannot allocate a destination;
    /// any state the attempt changes is the renamer's own bookkeeping.
    fn rename(&mut self, inst: &StaticInst, prf: &mut PhysRegFile) -> Option<RenameOutcome>;

    /// Releases what a retiring instruction's rename held.
    fn commit(&mut self, outcome: &RenameOutcome);

    /// Undoes a rename during mispredict recovery. Must be called in reverse
    /// program order (youngest first).
    fn squash(&mut self, outcome: &RenameOutcome);

    /// Whether renaming `inst` provably fails, without side effects, until an
    /// instruction retires. The idle fast-forward then need not wake for a
    /// front-end queue head that waits only on the renamer; `false` is always
    /// safe.
    fn blocks(&self, inst: &StaticInst) -> bool;
}

/// MIPS R10000-style renamer: a map table from architected to physical registers plus
/// a free list.
///
/// * `rename` allocates a fresh physical register for the destination and reads the
///   current mappings for the sources; it fails (returns `None`) when the free list
///   is empty, which stalls dispatch.
/// * `commit` frees the *previous* mapping of the destination once the instruction
///   retires.
/// * `squash` undoes a rename in reverse program order during mispredict recovery.
#[derive(Debug, Clone)]
pub struct Renamer {
    map: [PhysReg; NUM_ARCH_REGS],
    free: Vec<PhysReg>,
    phys_regs: u32,
}

impl Renamer {
    /// Creates a renamer with `phys_regs` physical registers; the first
    /// `NUM_ARCH_REGS` are bound to the architected state and the rest populate the
    /// free list.
    ///
    /// # Panics
    ///
    /// Panics if `phys_regs` does not exceed the architected register count.
    pub fn new(phys_regs: u32) -> Self {
        assert!(
            phys_regs as usize > NUM_ARCH_REGS,
            "need more physical than architected registers"
        );
        let mut map = [0; NUM_ARCH_REGS];
        for (i, m) in map.iter_mut().enumerate() {
            *m = i as PhysReg;
        }
        let free = (NUM_ARCH_REGS as PhysReg..phys_regs as PhysReg)
            .rev()
            .collect();
        Renamer {
            map,
            free,
            phys_regs,
        }
    }

    /// Number of free physical registers.
    pub fn free_regs(&self) -> usize {
        self.free.len()
    }

    /// Total number of physical registers.
    pub fn phys_regs(&self) -> u32 {
        self.phys_regs
    }

    /// Current mapping of an architected register.
    pub fn mapping(&self, reg: ArchReg) -> PhysReg {
        self.map[reg.flat_index()]
    }
}

impl Rename for Renamer {
    /// Returns `None` (and changes nothing) if a destination register is
    /// needed but the free list is empty.
    fn rename(&mut self, inst: &StaticInst, prf: &mut PhysRegFile) -> Option<RenameOutcome> {
        let mut srcs = SrcList::default();
        if let Some(s) = inst.src1() {
            srcs.push(self.map[s.flat_index()]);
        }
        if let Some(s) = inst.src2() {
            srcs.push(self.map[s.flat_index()]);
        }
        let (dst, prev, dst_arch) = if let Some(d) = inst.dst() {
            let phys = self.free.pop()?;
            let prev = self.map[d.flat_index()];
            self.map[d.flat_index()] = phys;
            prf.mark_pending(phys);
            (Some(phys), Some(prev), Some(d))
        } else {
            (None, None, None)
        };
        Some(RenameOutcome {
            srcs,
            dst,
            prev,
            dst_arch,
        })
    }

    /// Frees the previous mapping when an instruction retires.
    fn commit(&mut self, outcome: &RenameOutcome) {
        if let Some(prev) = outcome.prev {
            self.free.push(prev);
        }
    }

    fn squash(&mut self, outcome: &RenameOutcome) {
        if let (Some(dst), Some(prev), Some(arch)) = (outcome.dst, outcome.prev, outcome.dst_arch) {
            debug_assert_eq!(self.map[arch.flat_index()], dst, "squash out of order");
            self.map[arch.flat_index()] = prev;
            self.free.push(dst);
        }
    }

    /// An empty free list fails every rename that writes a register, until
    /// a retirement frees one.
    fn blocks(&self, inst: &StaticInst) -> bool {
        inst.dst().is_some() && self.free.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flywheel_isa::ArchReg;

    fn alu(dst: u8, src: u8) -> StaticInst {
        StaticInst::alu(ArchReg::int(dst), ArchReg::int(src), None)
    }

    #[test]
    fn rename_creates_new_mapping_and_tracks_sources() {
        let mut r = Renamer::new(80);
        let mut prf = PhysRegFile::new(80);
        let before = r.mapping(ArchReg::int(5));
        let out = r.rename(&alu(5, 5), &mut prf).unwrap();
        assert_eq!(
            out.srcs.as_slice(),
            &[before],
            "source reads the old mapping"
        );
        assert_ne!(out.dst.unwrap(), before);
        assert_eq!(out.prev.unwrap(), before);
        assert_eq!(r.mapping(ArchReg::int(5)), out.dst.unwrap());
        assert!(!prf.is_ready(out.dst.unwrap(), 1000));
    }

    #[test]
    fn free_list_exhaustion_stalls_rename() {
        let phys = (NUM_ARCH_REGS + 2) as u32;
        let mut r = Renamer::new(phys);
        let mut prf = PhysRegFile::new(phys);
        assert!(r.rename(&alu(1, 2), &mut prf).is_some());
        assert!(r.rename(&alu(2, 3), &mut prf).is_some());
        assert_eq!(r.free_regs(), 0);
        assert!(r.rename(&alu(3, 4), &mut prf).is_none());
        // Instructions without a destination still rename fine.
        let store = StaticInst::store(ArchReg::int(1), ArchReg::int(2));
        assert!(r.rename(&store, &mut prf).is_some());
    }

    #[test]
    fn commit_frees_previous_mapping() {
        let mut r = Renamer::new(70);
        let mut prf = PhysRegFile::new(70);
        let before = r.free_regs();
        let out = r.rename(&alu(7, 7), &mut prf).unwrap();
        assert_eq!(r.free_regs(), before - 1);
        r.commit(&out);
        assert_eq!(r.free_regs(), before);
    }

    #[test]
    fn squash_restores_previous_mapping() {
        let mut r = Renamer::new(70);
        let mut prf = PhysRegFile::new(70);
        let original = r.mapping(ArchReg::int(9));
        let out1 = r.rename(&alu(9, 1), &mut prf).unwrap();
        let out2 = r.rename(&alu(9, 2), &mut prf).unwrap();
        // Undo youngest-first.
        r.squash(&out2);
        assert_eq!(r.mapping(ArchReg::int(9)), out1.dst.unwrap());
        r.squash(&out1);
        assert_eq!(r.mapping(ArchReg::int(9)), original);
    }

    #[test]
    fn scoreboard_tracks_readiness() {
        let mut prf = PhysRegFile::new(8);
        assert!(prf.is_ready(3, 0));
        prf.mark_pending(3);
        assert!(!prf.is_ready(3, 1_000_000));
        prf.mark_ready(3, 17);
        assert!(!prf.is_ready(3, 16));
        assert!(prf.is_ready(3, 17));
        assert_eq!(prf.ready_at(3), 17);
        assert_eq!(prf.len(), 8);
    }

    #[test]
    fn serial_chain_recycles_registers() {
        // A long chain of writes to the same architected register must work forever
        // as long as commits keep up.
        let mut r = Renamer::new(96);
        let mut prf = PhysRegFile::new(96);
        let mut outstanding = std::collections::VecDeque::new();
        for i in 0..1000 {
            let out = r.rename(&alu(4, 4), &mut prf).unwrap_or_else(|| {
                panic!("rename failed at iteration {i}");
            });
            outstanding.push_back(out);
            if outstanding.len() > 24 {
                r.commit(&outstanding.pop_front().unwrap());
            }
        }
    }

    #[test]
    #[should_panic]
    fn too_few_physical_registers_panics() {
        let _ = Renamer::new(NUM_ARCH_REGS as u32);
    }
}
