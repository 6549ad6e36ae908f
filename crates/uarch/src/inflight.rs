//! Slab/ring-indexed in-flight instruction bookkeeping shared by both simulator
//! kernels.
//!
//! The hot loop of a cycle-accurate simulator touches its in-flight instructions
//! many times per cycle. The original kernels kept them in a
//! `HashMap<u64, Entry>` and rescanned whole structures every cycle; this module
//! replaces that with three dense, allocation-free structures:
//!
//! * [`InflightTable`] — a ring of entries addressed by sequence number. All
//!   in-flight sequence numbers fall inside a window bounded by the ROB and the
//!   front-end queue, so `seq & mask` is a perfect slot index and every lookup is
//!   one array access instead of a hash probe.
//! * [`IssueScheduler`] — a wakeup network plus a ready list. Instructions whose
//!   sources are still being produced register as waiters on those physical
//!   registers; when a producer issues, its consumers are woken. The issue stage
//!   then scans only woken entries (in program order) instead of the whole Issue
//!   Window. Woken loads behind an older unresolved store are parked off the
//!   ready list until that store issues.
//! * [`StoreIndex`] — the earliest unresolved (not yet address-resolved) store
//!   and the set of resolved stores still in the LSQ, so the "is this load
//!   blocked by an older store" and store-to-load forwarding checks no longer
//!   walk the whole LSQ per load.
//!
//! The structures are deliberately policy-free: all scheduling decisions stay in
//! the pipeline drivers (`flywheel-uarch`'s baseline and `flywheel-core`'s
//! Flywheel machine), which keeps the refactor bit-identical with the original
//! HashMap-based kernels (verified with the `golden` binary in
//! `flywheel-bench`).

use crate::regs::{PhysReg, PhysRegFile, RenameOutcome};
use flywheel_isa::{DynInst, OpClass};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Lifecycle of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Fetched, travelling through the front-end pipeline stages.
    FrontEnd,
    /// Dispatched into the Issue Window, waiting for operands / a functional
    /// unit (or, for replayed instructions, the moment before they start
    /// executing).
    Waiting,
    /// Issued to the execution core.
    Issued,
    /// Result produced; waiting to retire.
    Completed,
}

/// One in-flight dynamic instruction, together with the scheduler bookkeeping
/// that lets the issue stage avoid rescanning it while its operands are pending.
#[derive(Debug, Clone)]
pub struct InflightEntry {
    /// The dynamic instruction.
    pub d: DynInst,
    /// Rename outcome (physical sources/destination), set at dispatch.
    pub rename: RenameOutcome,
    /// Pipeline lifecycle state.
    pub state: EntryState,
    /// Front-end time at which the instruction may leave the front-end pipeline.
    pub dispatch_ready_ps: u64,
    /// Back-end time from which the wake-up logic can see the instruction
    /// (dual-clock synchronization).
    pub visible_at_ps: u64,
    /// Back-end cycle at which the instruction completes (valid once issued).
    pub complete_at: u64,
    /// Whether the branch predictor got this control instruction wrong.
    pub mispredicted: bool,
    /// Number of source operands whose producer has not issued yet.
    pub pending_srcs: u8,
    /// Back-end cycle at which all known sources are available (the max of the
    /// producers' wakeup cycles seen so far; only meaningful once
    /// `pending_srcs == 0`).
    pub ready_cycle: u64,
    /// Whether the entry currently occupies an Issue Window slot.
    pub in_iw: bool,
}

impl InflightEntry {
    /// An entry as created at fetch, before rename.
    pub fn new_frontend(d: DynInst, dispatch_ready_ps: u64, mispredicted: bool) -> Self {
        InflightEntry {
            d,
            rename: RenameOutcome::default(),
            state: EntryState::FrontEnd,
            dispatch_ready_ps,
            visible_at_ps: 0,
            complete_at: 0,
            mispredicted,
            pending_srcs: 0,
            ready_cycle: 0,
            in_iw: false,
        }
    }

    /// An entry injected directly into the execution core by trace replay
    /// (bypasses the Issue Window and the wakeup scheduler).
    pub fn new_replay(d: DynInst, rename: RenameOutcome) -> Self {
        InflightEntry {
            d,
            rename,
            state: EntryState::Waiting,
            dispatch_ready_ps: 0,
            visible_at_ps: 0,
            complete_at: 0,
            mispredicted: false,
            pending_srcs: 0,
            ready_cycle: 0,
            in_iw: false,
        }
    }
}

/// A ring of in-flight entries addressed by sequence number.
///
/// Sequence numbers of live entries always fall inside a window bounded by the
/// machine's in-flight capacity (ROB + front-end queue), so a power-of-two ring
/// indexed by `seq & mask` gives collision-free O(1) access. The table grows
/// automatically if a window ever exceeds the initial capacity hint.
///
/// # Example
///
/// ```
/// use flywheel_uarch::{InflightEntry, InflightTable};
/// use flywheel_workloads::{Benchmark, RecordedTrace};
///
/// // Instructions enter in fetch order and are addressed by sequence number.
/// let program = Benchmark::Micro.synthesize(7);
/// let trace = RecordedTrace::record(&program, 7, 32);
/// let mut table = InflightTable::with_capacity(8);
/// for d in trace.cursor().take(4) {
///     table.insert(InflightEntry::new_frontend(d, 0, false));
/// }
/// assert_eq!(table.len(), 4);
/// assert!(table.contains(0) && table.contains(3));
/// // Retirement pops the window head; the freed slot is reusable at once.
/// let retired = table.remove(0).unwrap();
/// assert_eq!(retired.d.seq, 0);
/// assert_eq!(table.len(), 3);
/// assert!(table.get(0).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct InflightTable {
    slots: Vec<Option<InflightEntry>>,
    mask: u64,
    /// Lower bound on every live sequence number.
    head_seq: u64,
    /// One past the largest sequence number ever inserted into the current
    /// window.
    tail_seq: u64,
    live: usize,
}

impl InflightTable {
    /// Creates a table able to hold at least `capacity` simultaneous entries
    /// without reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(16).next_power_of_two();
        InflightTable {
            slots: vec![None; cap],
            mask: cap as u64 - 1,
            head_seq: 0,
            tail_seq: 0,
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no instruction is in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether `seq` is in flight.
    pub fn contains(&self, seq: u64) -> bool {
        seq >= self.head_seq
            && seq < self.tail_seq
            && self.slots[(seq & self.mask) as usize]
                .as_ref()
                .is_some_and(|e| e.d.seq == seq)
    }

    /// The entry for `seq`, if it is in flight.
    pub fn get(&self, seq: u64) -> Option<&InflightEntry> {
        if seq < self.head_seq || seq >= self.tail_seq {
            return None;
        }
        self.slots[(seq & self.mask) as usize]
            .as_ref()
            .filter(|e| e.d.seq == seq)
    }

    /// Mutable access to the entry for `seq`, if it is in flight.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut InflightEntry> {
        if seq < self.head_seq || seq >= self.tail_seq {
            return None;
        }
        self.slots[(seq & self.mask) as usize]
            .as_mut()
            .filter(|e| e.d.seq == seq)
    }

    /// Inserts `entry` (keyed by `entry.d.seq`).
    ///
    /// # Panics
    ///
    /// Panics if the sequence number is older than a live entry's window start
    /// or if its slot is already occupied (which would mean the in-flight window
    /// exceeded the table size — the table grows to prevent this).
    pub fn insert(&mut self, entry: InflightEntry) {
        let seq = entry.d.seq;
        if self.live == 0 {
            // Empty table: restart the window at the new sequence number. This
            // matters after trace-replay hand-backs, where sequence numbers can
            // step backwards relative to a drained window.
            self.head_seq = seq;
            self.tail_seq = seq;
        }
        assert!(
            seq >= self.head_seq,
            "insert of seq {seq} below live window start {}",
            self.head_seq
        );
        while seq - self.head_seq >= self.slots.len() as u64 {
            self.grow();
        }
        let slot = &mut self.slots[(seq & self.mask) as usize];
        assert!(slot.is_none(), "in-flight window overflow at seq {seq}");
        *slot = Some(entry);
        self.live += 1;
        self.tail_seq = self.tail_seq.max(seq + 1);
    }

    /// Removes and returns the entry for `seq`.
    pub fn remove(&mut self, seq: u64) -> Option<InflightEntry> {
        if seq < self.head_seq || seq >= self.tail_seq {
            return None;
        }
        let slot = &mut self.slots[(seq & self.mask) as usize];
        if slot.as_ref().is_some_and(|e| e.d.seq == seq) {
            let e = slot.take();
            self.live -= 1;
            if self.live == 0 {
                self.head_seq = self.tail_seq;
            } else if seq == self.head_seq {
                // Advance the window start past the freed prefix so the ring
                // never appears full just because retired slots linger.
                while self.head_seq < self.tail_seq
                    && self.slots[(self.head_seq & self.mask) as usize].is_none()
                {
                    self.head_seq += 1;
                }
            }
            e
        } else {
            None
        }
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let mut slots = vec![None; new_cap];
        let mask = new_cap as u64 - 1;
        for e in self.slots.drain(..).flatten() {
            let idx = (e.d.seq & mask) as usize;
            debug_assert!(slots[idx].is_none());
            slots[idx] = Some(e);
        }
        self.slots = slots;
        self.mask = mask;
    }
}

impl std::ops::Index<u64> for InflightTable {
    type Output = InflightEntry;

    fn index(&self, seq: u64) -> &InflightEntry {
        self.get(seq)
            .unwrap_or_else(|| panic!("seq {seq} not in flight"))
    }
}

impl std::ops::IndexMut<u64> for InflightTable {
    fn index_mut(&mut self, seq: u64) -> &mut InflightEntry {
        self.get_mut(seq)
            .unwrap_or_else(|| panic!("seq {seq} not in flight"))
    }
}

/// Wakeup network + ready list: the issue stage scans only entries whose source
/// operands have all been produced (or scheduled), in program order.
///
/// Entries whose operands are scheduled but not yet available — a woken
/// consumer's `ready_cycle` is its producer's issue cycle *plus the execution
/// latency*, which for a memory-miss producer lies hundreds of cycles in the
/// future — wait in a time-indexed hold queue instead of the ready list,
/// so the per-cycle issue scan never revisits instructions that provably cannot
/// issue yet. The driver calls [`Self::release_due`] at the top of each issue
/// scan to move entries whose cycle has come into the ready list.
///
/// Released loads that an older unresolved store blocks are parked in a second
/// sorted list instead, and return to the ready list when the stores ahead of
/// them resolve ([`Self::issue_store`]). This is exact: an unresolved store
/// enters the [`StoreIndex`] only at dispatch, in program order, so it is
/// younger than every load already released and can never block one; and a
/// squash that removes a store also removes every load it blocked, since
/// those are younger still.
#[derive(Debug, Clone)]
pub struct IssueScheduler {
    /// Per-physical-register list of waiting consumer sequence numbers.
    /// Squashed consumers are left in place and skipped lazily on wake (their
    /// sequence numbers are never reused, so a stale entry can only miss).
    waiters: Vec<Vec<u64>>,
    /// Sequence numbers with `pending_srcs == 0` whose `ready_cycle` has been
    /// reached and that no older unresolved store blocks, sorted ascending
    /// (= program order, the order the original kernel scanned the Issue
    /// Window in).
    ready: Vec<u64>,
    /// Released loads blocked by an older unresolved store, sorted ascending.
    parked: Vec<u64>,
    /// Entries with `pending_srcs == 0` waiting for their operands to arrive,
    /// as `(ready_cycle + wakeup_extra, seq)`. Squashed entries are skipped
    /// lazily on release.
    held: BinaryHeap<Reverse<(u64, u64)>>,
    /// Extra wake-up latency in cycles (1 with pipelined Wake-up/Select, else
    /// 0), folded into the hold deadline.
    wakeup_extra: u64,
    /// Wakeups deferred while the ready list is being scanned
    /// ([`Self::defer_wake`] / [`Self::drain_wakes`]).
    deferred: Vec<(PhysReg, u64)>,
}

impl IssueScheduler {
    /// Creates a scheduler for a machine with `phys_regs` physical registers
    /// and `wakeup_extra` extra cycles of wake-up latency (pipelined
    /// Wake-up/Select).
    pub fn new(phys_regs: usize, wakeup_extra: u64) -> Self {
        IssueScheduler {
            waiters: vec![Vec::new(); phys_regs],
            ready: Vec::new(),
            parked: Vec::new(),
            held: BinaryHeap::new(),
            wakeup_extra,
            deferred: Vec::new(),
        }
    }

    /// Registers a freshly dispatched entry: counts outstanding producers,
    /// records the ready cycle contributed by already-issued ones, and either
    /// parks the entry on the wakeup lists or queues it in the hold queue (from
    /// where [`Self::release_due`] moves it to the ready list once its operands
    /// arrive).
    pub fn on_dispatch(&mut self, table: &mut InflightTable, seq: u64, prf: &PhysRegFile) {
        let entry = &mut table[seq];
        let mut pending = 0u8;
        let mut ready_cycle = 0u64;
        for &src in &entry.rename.srcs {
            let at = prf.ready_at(src);
            if at == u64::MAX {
                pending += 1;
                self.waiters[src as usize].push(seq);
            } else {
                ready_cycle = ready_cycle.max(at);
            }
        }
        entry.pending_srcs = pending;
        entry.ready_cycle = ready_cycle;
        if pending == 0 {
            self.held.push(Reverse((
                ready_cycle.saturating_add(self.wakeup_extra),
                seq,
            )));
        }
    }

    /// Moves every held entry whose operand-arrival cycle has been reached into
    /// the ready list — or, for a load behind an older unresolved store, into
    /// the parked list. Must run before each issue scan. Stale hold entries
    /// (squashed or re-dispatched instructions) are validated against the live
    /// table and dropped.
    pub fn release_due(&mut self, table: &InflightTable, stores: &StoreIndex, cycle: u64) {
        while let Some(&Reverse((due, seq))) = self.held.peek() {
            if due > cycle {
                break;
            }
            self.held.pop();
            let Some(entry) = table.get(seq) else {
                continue;
            };
            // A re-dispatched instruction (trace-replay hand-back) gets fresh
            // hold entries; only the one matching its current schedule counts.
            if entry.state != EntryState::Waiting
                || !entry.in_iw
                || entry.pending_srcs != 0
                || entry.ready_cycle.saturating_add(self.wakeup_extra) != due
            {
                continue;
            }
            if entry.d.stat.op() == OpClass::Load && stores.blocks_load(seq) {
                insert_sorted(&mut self.parked, seq);
            } else {
                insert_sorted(&mut self.ready, seq);
            }
        }
    }

    /// Resolves the address of the store `seq` (to cache line `line`) in
    /// `stores`, and moves the parked loads that no unresolved store blocks
    /// any more back onto the ready list in program order. Every store issue
    /// goes through here, so the parked list never holds a load that could
    /// issue.
    ///
    /// The unblocked loads are younger than the store, so a store issued
    /// mid-scan puts them behind the scan position: a scan that re-reads
    /// [`Self::ready_len`] on every step still visits them.
    pub fn issue_store(&mut self, stores: &mut StoreIndex, seq: u64, line: u64) {
        stores.on_store_issue(seq, line);
        let cut = match stores.earliest_waiting() {
            Some(store) => self.parked.partition_point(|&load| load < store),
            None => self.parked.len(),
        };
        if cut == 0 {
            return;
        }
        // Merge the two sorted, disjoint lists from the back, in place.
        let (mut r, mut p) = (self.ready.len(), cut);
        self.ready.resize(r + cut, 0);
        while p > 0 {
            let out = r + p - 1;
            debug_assert!(r == 0 || self.ready[r - 1] != self.parked[p - 1]);
            if r > 0 && self.ready[r - 1] > self.parked[p - 1] {
                self.ready[out] = self.ready[r - 1];
                r -= 1;
            } else {
                self.ready[out] = self.parked[p - 1];
                p -= 1;
            }
        }
        self.parked.drain(..cut);
    }

    /// The earliest hold-queue deadline, if any (entries may be stale; the
    /// value is a conservative lower bound for event scheduling).
    pub fn next_due(&self) -> Option<u64> {
        self.held.peek().map(|&Reverse((due, _))| due)
    }

    /// Records a wakeup of `reg`'s consumers to be applied by
    /// [`Self::drain_wakes`] once the current issue scan ends. Woken consumers
    /// could not issue in the same cycle anyway (the value arrives at
    /// `ready_cycle`, which is in the future), and deferring keeps the ready
    /// list stable while the pipeline iterates it.
    pub fn defer_wake(&mut self, reg: PhysReg, ready_cycle: u64) {
        self.deferred.push((reg, ready_cycle));
    }

    /// Applies every wakeup deferred during the issue scan. Must be called at
    /// the end of any scan that issues instructions (both kernels do so at the
    /// end of their issue stages).
    pub fn drain_wakes(&mut self, table: &mut InflightTable) {
        let mut i = 0;
        while i < self.deferred.len() {
            let (reg, ready_cycle) = self.deferred[i];
            self.wake(table, reg, ready_cycle);
            i += 1;
        }
        self.deferred.clear();
    }

    /// Wakes the consumers of `reg`: called when its producer issues and the
    /// scoreboard learns the cycle the value arrives. Fully woken consumers go
    /// to the hold queue keyed by the cycle their last operand arrives.
    fn wake(&mut self, table: &mut InflightTable, reg: PhysReg, ready_cycle: u64) {
        // The list is drained even when some consumers are stale (squashed):
        // a producer issues exactly once per allocation of `reg`, so everything
        // parked here is either woken now or dead.
        let mut waiters = std::mem::take(&mut self.waiters[reg as usize]);
        for seq in waiters.drain(..) {
            let Some(entry) = table.get_mut(seq) else {
                continue;
            };
            debug_assert!(entry.pending_srcs > 0);
            entry.pending_srcs -= 1;
            entry.ready_cycle = entry.ready_cycle.max(ready_cycle);
            if entry.pending_srcs == 0 {
                self.held.push(Reverse((
                    entry.ready_cycle.saturating_add(self.wakeup_extra),
                    seq,
                )));
            }
        }
        // Hand the (empty) buffer back so its capacity is reused.
        self.waiters[reg as usize] = waiters;
    }

    /// Number of ready (woken) entries.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// The `i`-th ready sequence number in program order.
    pub fn ready_seq(&self, i: usize) -> u64 {
        self.ready[i]
    }

    /// The parked (store-blocked) loads, in program order.
    pub fn parked(&self) -> &[u64] {
        &self.parked
    }

    /// Removes issued entries from the ready list. `issued` must be sorted
    /// ascending (it is collected in scan order).
    pub fn remove_issued(&mut self, issued: &[u64]) {
        if issued.is_empty() {
            return;
        }
        let mut k = 0;
        self.ready.retain(|&seq| {
            while k < issued.len() && issued[k] < seq {
                k += 1;
            }
            !(k < issued.len() && issued[k] == seq)
        });
    }

    /// Drops every ready and parked entry younger than `branch_seq`
    /// (mispredict recovery). Stale wakeup registrations are skipped lazily.
    pub fn squash_after(&mut self, branch_seq: u64) {
        let cut = self.ready.partition_point(|&seq| seq <= branch_seq);
        self.ready.truncate(cut);
        let cut = self.parked.partition_point(|&seq| seq <= branch_seq);
        self.parked.truncate(cut);
    }
}

/// Inserts `seq` into the sorted list once. Duplicate hold entries can survive
/// a squash + re-dispatch race with a coinciding deadline; inserting once keeps
/// the list a set.
fn insert_sorted(list: &mut Vec<u64>, seq: u64) {
    if let Err(pos) = list.binary_search(&seq) {
        list.insert(pos, seq);
    }
}

/// Time-indexed queue of executing instructions, replacing the per-cycle scan
/// of the whole executing set with a heap pop of the entries actually due.
///
/// Long-latency instructions (memory misses run for hundreds of back-end
/// cycles) sit in the queue untouched until their completion cycle; the
/// per-cycle cost is a single peek. Squashed instructions leave stale entries
/// that the driver must validate against the live table on pop (entry present,
/// still `Issued`, and `complete_at` matching the popped deadline).
#[derive(Debug, Clone, Default)]
pub struct CompletionQueue {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl CompletionQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CompletionQueue::default()
    }

    /// Schedules `seq` to complete at back-end cycle `at`.
    pub fn push(&mut self, at: u64, seq: u64) {
        self.heap.push(Reverse((at, seq)));
    }

    /// Pops one entry due at or before `cycle`, as `(complete_at, seq)`.
    pub fn pop_due(&mut self, cycle: u64) -> Option<(u64, u64)> {
        match self.heap.peek() {
            Some(&Reverse((at, _))) if at <= cycle => {
                let Reverse(pair) = self.heap.pop().expect("peeked entry exists");
                Some(pair)
            }
            _ => None,
        }
    }

    /// The earliest scheduled completion cycle, if any (entries may be stale;
    /// the value is a conservative lower bound for event scheduling).
    pub fn next_due(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((at, _))| at)
    }

    /// Whether no completion is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Index over the stores resident in the LSQ, replacing per-load walks of the
/// whole queue.
#[derive(Debug, Clone, Default)]
pub struct StoreIndex {
    /// Dispatched stores whose address is not resolved yet (state `Waiting`),
    /// sorted ascending.
    waiting: Vec<u64>,
    /// Issued/completed stores still in the LSQ as `(seq, cache line)`, sorted
    /// ascending by sequence number.
    resolved: Vec<(u64, u64)>,
}

impl StoreIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        StoreIndex::default()
    }

    /// Records a store entering the LSQ at dispatch (address still unresolved).
    pub fn on_dispatch_store(&mut self, seq: u64) {
        debug_assert!(self.waiting.last().is_none_or(|&s| s < seq));
        self.waiting.push(seq);
    }

    /// Moves a store from unresolved to resolved when it issues. Stores that
    /// never dispatched through the Issue Window (trace replay) enter the
    /// resolved set directly. Kernels call [`IssueScheduler::issue_store`],
    /// which also releases the loads the store was blocking.
    pub(crate) fn on_store_issue(&mut self, seq: u64, line: u64) {
        if let Ok(pos) = self.waiting.binary_search(&seq) {
            self.waiting.remove(pos);
        }
        let pos = self.resolved.partition_point(|&(s, _)| s < seq);
        self.resolved.insert(pos, (seq, line));
    }

    /// Removes a store from the index when it retires.
    pub fn on_store_retire(&mut self, seq: u64) {
        if let Ok(pos) = self.resolved.binary_search_by_key(&seq, |&(s, _)| s) {
            self.resolved.remove(pos);
        }
    }

    /// Drops every store younger than `branch_seq` (mispredict recovery).
    pub fn squash_after(&mut self, branch_seq: u64) {
        let cut = self.waiting.partition_point(|&s| s <= branch_seq);
        self.waiting.truncate(cut);
        let cut = self.resolved.partition_point(|&(s, _)| s <= branch_seq);
        self.resolved.truncate(cut);
    }

    /// The oldest store whose address is still unresolved, if any.
    pub fn earliest_waiting(&self) -> Option<u64> {
        self.waiting.first().copied()
    }

    /// Whether a load at `load_seq` must wait for an older unresolved store.
    pub fn blocks_load(&self, load_seq: u64) -> bool {
        self.earliest_waiting().is_some_and(|s| s < load_seq)
    }

    /// Whether an older resolved store to the same cache line can forward its
    /// data to a load at `load_seq`.
    pub fn forwards_to(&self, load_seq: u64, line: u64) -> bool {
        self.resolved
            .iter()
            .take_while(|&&(s, _)| s < load_seq)
            .any(|&(_, l)| l == line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flywheel_isa::{ArchReg, DynInst, Pc, StaticInst};

    fn entry(seq: u64) -> InflightEntry {
        let d = DynInst {
            seq,
            pc: Pc::new(0x1000 + seq * 4),
            stat: StaticInst::alu(ArchReg::int(1), ArchReg::int(2), None),
            taken: false,
            next_pc: Pc::new(0x1000 + seq * 4 + 4),
            mem: None,
        };
        InflightEntry::new_frontend(d, 0, false)
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut t = InflightTable::with_capacity(8);
        assert!(t.is_empty());
        for seq in 10..20 {
            t.insert(entry(seq));
        }
        assert_eq!(t.len(), 10);
        for seq in 10..20 {
            assert!(t.contains(seq));
            assert_eq!(t[seq].d.seq, seq);
        }
        assert!(!t.contains(9));
        assert!(!t.contains(20));
        assert!(t.get(9).is_none());
        let removed = t.remove(15).expect("present");
        assert_eq!(removed.d.seq, 15);
        assert!(!t.contains(15));
        assert!(t.remove(15).is_none());
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn retire_from_head_advances_the_window() {
        let mut t = InflightTable::with_capacity(16);
        for seq in 0..12 {
            t.insert(entry(seq));
        }
        // Retire in program order, refill from the tail: the window slides and
        // the ring keeps wrapping without collisions.
        for round in 0..100u64 {
            t.remove(round).expect("head entry present");
            t.insert(entry(12 + round));
            assert_eq!(t.len(), 12);
        }
        for seq in 100..112 {
            assert!(t.contains(seq));
        }
    }

    #[test]
    fn squash_from_tail_then_reuse_window() {
        let mut t = InflightTable::with_capacity(16);
        for seq in 0..10 {
            t.insert(entry(seq));
        }
        // Squash the five youngest, then insert fresh (younger-than-squashed
        // never recurs; new seqs continue upward).
        for seq in (5..10).rev() {
            t.remove(seq).expect("squashed entry present");
        }
        assert_eq!(t.len(), 5);
        for seq in 10..18 {
            t.insert(entry(seq));
        }
        assert_eq!(t.len(), 13);
        assert!(t.contains(4) && !t.contains(7) && t.contains(17));
    }

    #[test]
    fn ring_wraparound_grows_on_demand() {
        let mut t = InflightTable::with_capacity(4);
        // Window wider than the initial capacity forces growth.
        for seq in 0..100 {
            t.insert(entry(seq));
        }
        assert_eq!(t.len(), 100);
        for seq in 0..100 {
            assert_eq!(t[seq].d.seq, seq);
        }
    }

    #[test]
    fn empty_table_resets_the_window_backwards() {
        let mut t = InflightTable::with_capacity(8);
        for seq in 50..54 {
            t.insert(entry(seq));
        }
        for seq in 50..54 {
            t.remove(seq);
        }
        assert!(t.is_empty());
        // Trace-replay hand-backs can re-inject older sequence numbers once the
        // machine has drained.
        t.insert(entry(40));
        assert!(t.contains(40));
    }

    #[test]
    fn scheduler_wakes_consumers_in_program_order() {
        let mut t = InflightTable::with_capacity(16);
        let mut prf = PhysRegFile::new(8);
        let mut sched = IssueScheduler::new(8, 0);
        prf.mark_pending(3);
        for seq in [5u64, 6, 7] {
            let mut e = entry(seq);
            e.rename.srcs = [3].into_iter().collect();
            e.state = EntryState::Waiting;
            e.in_iw = true;
            t.insert(e);
            sched.on_dispatch(&mut t, seq, &prf);
        }
        assert_eq!(sched.ready_len(), 0, "all parked on the pending producer");
        prf.mark_ready(3, 17);
        sched.defer_wake(3, 17);
        sched.drain_wakes(&mut t);
        // The woken consumers wait in the hold queue until their operand
        // arrives at cycle 17; releasing earlier surfaces nothing.
        assert_eq!(sched.next_due(), Some(17));
        sched.release_due(&t, &StoreIndex::new(), 16);
        assert_eq!(sched.ready_len(), 0, "operands arrive at cycle 17");
        sched.release_due(&t, &StoreIndex::new(), 17);
        assert_eq!(sched.ready_len(), 3);
        assert_eq!(
            (0..3).map(|i| sched.ready_seq(i)).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
        assert_eq!(t[5].ready_cycle, 17);
        sched.remove_issued(&[5, 7]);
        assert_eq!(sched.ready_len(), 1);
        assert_eq!(sched.ready_seq(0), 6);
    }

    #[test]
    fn pipelined_wakeup_delays_the_release_by_one_cycle() {
        let mut t = InflightTable::with_capacity(16);
        let mut prf = PhysRegFile::new(8);
        let mut sched = IssueScheduler::new(8, 1);
        prf.mark_pending(2);
        let mut e = entry(4);
        e.rename.srcs = [2].into_iter().collect();
        e.state = EntryState::Waiting;
        e.in_iw = true;
        t.insert(e);
        sched.on_dispatch(&mut t, 4, &prf);
        prf.mark_ready(2, 10);
        sched.defer_wake(2, 10);
        sched.drain_wakes(&mut t);
        sched.release_due(&t, &StoreIndex::new(), 10);
        assert_eq!(sched.ready_len(), 0, "pipelined wakeup adds one cycle");
        sched.release_due(&t, &StoreIndex::new(), 11);
        assert_eq!(sched.ready_len(), 1);
    }

    #[test]
    fn scheduler_skips_squashed_waiters() {
        let mut t = InflightTable::with_capacity(16);
        let prf_pending = {
            let mut p = PhysRegFile::new(4);
            p.mark_pending(1);
            p
        };
        let mut sched = IssueScheduler::new(4, 0);
        let mut e = entry(8);
        e.rename.srcs = [1].into_iter().collect();
        t.insert(e);
        sched.on_dispatch(&mut t, 8, &prf_pending);
        // Ready entries younger than the branch disappear; the parked waiter is
        // squashed from the table and must be skipped on wake and on release.
        sched.squash_after(7);
        t.remove(8);
        sched.defer_wake(1, 9);
        sched.drain_wakes(&mut t);
        sched.release_due(&t, &StoreIndex::new(), 100);
        assert_eq!(sched.ready_len(), 0);
    }

    #[test]
    fn store_blocked_loads_park_until_the_store_issues() {
        let mut t = InflightTable::with_capacity(16);
        let prf = PhysRegFile::new(64);
        let mut sched = IssueScheduler::new(64, 0);
        let mut stores = StoreIndex::new();
        let (r1, r2) = (ArchReg::int(1), ArchReg::int(2));
        for (seq, stat) in [
            (3, StaticInst::store(r1, r2)),
            (4, StaticInst::load(r1, r2)),
            (5, StaticInst::alu(r1, r2, None)),
            (6, StaticInst::load(r1, r2)),
            (7, StaticInst::load(r1, r2)),
        ] {
            let mut e = entry(seq);
            e.d.stat = stat;
            e.state = EntryState::Waiting;
            e.in_iw = true;
            t.insert(e);
            sched.on_dispatch(&mut t, seq, &prf);
            if stat.op() == OpClass::Store {
                stores.on_dispatch_store(seq);
            }
        }
        sched.release_due(&t, &stores, 0);
        let ready = |s: &IssueScheduler| -> Vec<u64> {
            (0..s.ready_len()).map(|i| s.ready_seq(i)).collect()
        };
        assert_eq!(ready(&sched), vec![3, 5], "loads behind store 3 are parked");
        assert_eq!(sched.parked(), &[4, 6, 7]);
        sched.squash_after(6);
        assert_eq!(sched.parked(), &[4, 6], "squash truncates the parked list");
        sched.issue_store(&mut stores, 3, 0x40);
        assert_eq!(
            ready(&sched),
            vec![3, 4, 5, 6],
            "merged back in program order"
        );
        assert!(sched.parked().is_empty());
    }

    #[test]
    fn completion_queue_pops_in_deadline_order() {
        let mut q = CompletionQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop_due(1000), None);
        q.push(30, 7);
        q.push(10, 9);
        q.push(10, 3);
        assert_eq!(q.next_due(), Some(10));
        assert_eq!(q.pop_due(9), None, "nothing due before cycle 10");
        assert_eq!(q.pop_due(10), Some((10, 3)));
        assert_eq!(q.pop_due(10), Some((10, 9)));
        assert_eq!(q.pop_due(10), None);
        assert_eq!(q.pop_due(u64::MAX), Some((30, 7)));
        assert!(q.is_empty());
    }

    #[test]
    fn store_index_tracks_blocking_and_forwarding() {
        let mut s = StoreIndex::new();
        assert!(!s.blocks_load(100));
        s.on_dispatch_store(10);
        s.on_dispatch_store(20);
        assert!(s.blocks_load(15), "unresolved store 10 blocks load 15");
        assert!(!s.blocks_load(5), "older load unaffected");
        s.on_store_issue(10, 0x40);
        assert!(!s.blocks_load(15), "store 10 resolved");
        assert!(s.blocks_load(25), "store 20 still unresolved");
        assert!(s.forwards_to(15, 0x40));
        assert!(!s.forwards_to(15, 0x80));
        assert!(
            !s.forwards_to(10, 0x40),
            "stores do not forward to older loads"
        );
        s.on_store_retire(10);
        assert!(!s.forwards_to(15, 0x40));
        s.squash_after(12);
        assert!(!s.blocks_load(25), "squash removed store 20");
    }
}
