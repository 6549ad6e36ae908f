//! Bounded, lock-light microarchitectural telemetry: typed events both
//! simulator kernels append to an in-memory queue — but only when armed.
//!
//! The design mirrors [`crate::watchdog`]: a sweep executor arms a
//! [`TelemetrySession`] on the worker thread before running a cell; the
//! kernels snapshot the armed session once at the top of `run()`
//! ([`armed`]) into a [`TelemetryRecorder`] and feed it from their step
//! loops. Cost when disarmed (every non-telemetry caller): one thread-local
//! read per kernel `run()`, zero work per simulated cycle — which is what
//! keeps telemetry-off runs byte-identical to the golden transcript and
//! within noise of the committed throughput numbers.
//!
//! The queue itself ([`TelemetryQueue`]) is bounded: a full queue increments
//! an explicit dropped-events counter instead of growing. Its lock is only
//! held briefly (the drain swaps the buffer out), so `push` waits for it
//! rather than dropping on contention. A background drain thread (owned by
//! `flywheel-bench`, which also owns the on-disk event log) empties the
//! queue concurrently.
//!
//! Telemetry is observational only: a recorder reads kernel state and never
//! writes it, so armed and disarmed runs simulate identical machines.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Clock domain a gating interval belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// The front-end (fetch/dispatch) clock domain.
    FrontEnd,
    /// The back-end (issue/execute) clock domain.
    BackEnd,
}

impl ClockDomain {
    /// Compact wire tag (`fe`/`be`).
    pub fn tag(self) -> &'static str {
        match self {
            ClockDomain::FrontEnd => "fe",
            ClockDomain::BackEnd => "be",
        }
    }

    /// Inverse of [`ClockDomain::tag`].
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "fe" => Some(ClockDomain::FrontEnd),
            "be" => Some(ClockDomain::BackEnd),
            _ => None,
        }
    }
}

/// One typed telemetry event, stamped with kernel cycle counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryEvent {
    /// Periodic pipeline-stage occupancy sample (back-end edge).
    Occupancy {
        /// Back-end cycle of the sample.
        be_cycle: u64,
        /// Issue-window entries in flight.
        iw: u32,
        /// Reorder-buffer entries in flight.
        rob: u32,
        /// Front-end (fetch) queue depth.
        frontend_q: u32,
        /// Load/store queue depth.
        lsq: u32,
    },
    /// The Flywheel kernel switched into Execution-Cache mode.
    EcEnter {
        /// Back-end cycle of the switch.
        be_cycle: u64,
    },
    /// The Flywheel kernel fell back to trace-creation mode.
    EcExit {
        /// Back-end cycle of the switch.
        be_cycle: u64,
    },
    /// Dispatch stalls on an exhausted rename/register pool, aggregated over
    /// one sample interval (per-cycle stall events would flood the bounded
    /// queue on pool-starved workloads).
    PoolStall {
        /// Back-end cycle the aggregate was flushed at.
        be_cycle: u64,
        /// Stall cycles accumulated since the previous flush.
        stalls: u64,
    },
    /// A contiguous interval during which a clock domain was gated.
    GatedInterval {
        /// The gated domain.
        domain: ClockDomain,
        /// First gated cycle (in the domain's own clock).
        start_cycle: u64,
        /// Gated cycles in the interval.
        cycles: u64,
    },
}

impl TelemetryEvent {
    /// Serializes the event into its one-token-kind wire form
    /// (`occ 120 3 14 2 1`, `ec-enter 512`, `gated fe 100 40`, ...).
    pub fn render(&self) -> String {
        match *self {
            TelemetryEvent::Occupancy {
                be_cycle,
                iw,
                rob,
                frontend_q,
                lsq,
            } => format!("occ {be_cycle} {iw} {rob} {frontend_q} {lsq}"),
            TelemetryEvent::EcEnter { be_cycle } => format!("ec-enter {be_cycle}"),
            TelemetryEvent::EcExit { be_cycle } => format!("ec-exit {be_cycle}"),
            TelemetryEvent::PoolStall { be_cycle, stalls } => {
                format!("pool-stall {be_cycle} {stalls}")
            }
            TelemetryEvent::GatedInterval {
                domain,
                start_cycle,
                cycles,
            } => format!("gated {} {start_cycle} {cycles}", domain.tag()),
        }
    }

    /// Parses the wire form back; `None` on any malformed input.
    pub fn parse(text: &str) -> Option<TelemetryEvent> {
        let mut it = text.split(' ');
        let kind = it.next()?;
        let mut num = || it.next()?.parse::<u64>().ok();
        let event = match kind {
            "occ" => TelemetryEvent::Occupancy {
                be_cycle: num()?,
                iw: u32::try_from(num()?).ok()?,
                rob: u32::try_from(num()?).ok()?,
                frontend_q: u32::try_from(num()?).ok()?,
                lsq: u32::try_from(num()?).ok()?,
            },
            "ec-enter" => TelemetryEvent::EcEnter { be_cycle: num()? },
            "ec-exit" => TelemetryEvent::EcExit { be_cycle: num()? },
            "pool-stall" => TelemetryEvent::PoolStall {
                be_cycle: num()?,
                stalls: num()?,
            },
            "gated" => {
                let domain = ClockDomain::from_tag(it.next()?)?;
                let mut num = || it.next()?.parse::<u64>().ok();
                TelemetryEvent::GatedInterval {
                    domain,
                    start_cycle: num()?,
                    cycles: num()?,
                }
            }
            _ => return None,
        };
        if it.next().is_some() {
            return None; // trailing garbage
        }
        Some(event)
    }
}

/// Interior state of a [`TelemetryQueue`], behind its single mutex.
struct QueueInner {
    events: VecDeque<(Arc<str>, TelemetryEvent)>,
    /// Events accepted per tag, kept across drains so cell columns can be
    /// filled in after the queue has been flushed to disk.
    counts: HashMap<Arc<str>, u64>,
}

/// A bounded multi-producer event queue.
///
/// When the queue is at capacity, `push` counts the event as dropped and the
/// simulating thread moves on immediately. Lock holders only do brief,
/// bounded work, so waiting for the lock is never a reason to drop.
pub struct TelemetryQueue {
    capacity: usize,
    inner: Mutex<QueueInner>,
    accepted: AtomicU64,
    dropped: AtomicU64,
}

impl TelemetryQueue {
    /// Default queue bound (events, across all producer threads).
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates a queue bounded at `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TelemetryQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(QueueInner {
                events: VecDeque::new(),
                counts: HashMap::new(),
            }),
            accepted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends one event under `tag`. A full queue drops the event and bumps
    /// the counter.
    pub fn push(&self, tag: &Arc<str>, event: TelemetryEvent) {
        match self.inner.lock() {
            Ok(mut inner) => {
                if inner.events.len() >= self.capacity {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                inner.events.push_back((Arc::clone(tag), event));
                *inner.counts.entry(Arc::clone(tag)).or_insert(0) += 1;
                self.accepted.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Takes every queued event (used by the drain thread), swapping the
    /// buffer out so the lock is only held briefly.
    pub fn drain(&self) -> VecDeque<(Arc<str>, TelemetryEvent)> {
        match self.inner.lock() {
            Ok(mut inner) => std::mem::take(&mut inner.events),
            Err(_) => VecDeque::new(),
        }
    }

    /// Events accepted so far under tags starting with `prefix` (drained or
    /// not) — the per-cell count surfaced in scenario tables.
    pub fn count_matching(&self, prefix: &str) -> u64 {
        match self.inner.lock() {
            Ok(inner) => inner
                .counts
                .iter()
                .filter(|(tag, _)| tag.starts_with(prefix))
                .map(|(_, n)| *n)
                .sum(),
            Err(_) => 0,
        }
    }

    /// Total events accepted into the queue.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Total events dropped (queue full, or its lock poisoned by a panic).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// What a worker thread arms before running a cell: where events go, under
/// which tag, and how densely occupancy is sampled.
#[derive(Clone)]
pub struct TelemetrySession {
    /// Destination queue (shared with the drain thread).
    pub queue: Arc<TelemetryQueue>,
    /// Opaque cell tag every event is attributed to (the bench layer uses
    /// `"<store-key-hex> <cell-label>"`, making the log content-addressed).
    pub tag: Arc<str>,
    /// Back-end cycles between occupancy samples.
    pub sample_interval: u64,
}

/// Default back-end cycles between occupancy samples.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 1024;

thread_local! {
    static ARMED: std::cell::RefCell<Option<TelemetrySession>> =
        const { std::cell::RefCell::new(None) };
}

/// Arms telemetry for the current thread until the returned guard drops.
///
/// Nested arms are allowed; the guard restores the previous session.
pub fn arm(session: TelemetrySession) -> TelemetryGuard {
    let prev = ARMED.with(|a| a.replace(Some(session)));
    TelemetryGuard { prev }
}

/// Disarms telemetry when dropped, restoring whatever was armed before.
pub struct TelemetryGuard {
    prev: Option<TelemetrySession>,
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        ARMED.with(|a| *a.borrow_mut() = self.prev.take());
    }
}

/// Snapshots the armed session into a per-run recorder, or `None` when the
/// thread has no telemetry armed (the common case).
pub fn armed() -> Option<TelemetryRecorder> {
    ARMED.with(|a| a.borrow().clone()).map(|session| {
        let first_sample = session.sample_interval;
        TelemetryRecorder {
            session,
            next_sample: first_sample,
            gated_fe_start: None,
            pending_stalls: 0,
            next_stall_flush: first_sample,
        }
    })
}

/// Per-run recorder a kernel holds for the duration of one `run()`.
///
/// All methods observe; none mutate simulator state.
pub struct TelemetryRecorder {
    session: TelemetrySession,
    next_sample: u64,
    /// Front-end cycle at which the current Execution-Cache (gated) interval
    /// began, when the kernel is in EC mode.
    gated_fe_start: Option<u64>,
    /// Pool-exhaustion stall cycles accumulated since the last flush.
    pending_stalls: u64,
    next_stall_flush: u64,
}

impl TelemetryRecorder {
    fn push(&self, event: TelemetryEvent) {
        self.session.queue.push(&self.session.tag, event);
    }

    /// Emits an occupancy sample when `be_cycle` has reached the next sample
    /// point; robust to bulk cycle skips (`fast_forward`), which simply land
    /// the next sample at the first poll past the interval.
    #[inline]
    pub fn sample_occupancy(
        &mut self,
        be_cycle: u64,
        iw: usize,
        rob: usize,
        feq: usize,
        lsq: usize,
    ) {
        if be_cycle < self.next_sample {
            return;
        }
        self.next_sample = be_cycle.saturating_add(self.session.sample_interval);
        let clamp = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        self.push(TelemetryEvent::Occupancy {
            be_cycle,
            iw: clamp(iw),
            rob: clamp(rob),
            frontend_q: clamp(feq),
            lsq: clamp(lsq),
        });
    }

    /// Records an Execution-Cache mode edge observed by the run loop:
    /// `executing` is the mode after the edge. Entering stamps an `EcEnter`;
    /// leaving stamps an `EcExit` plus the front-end clock-gating interval
    /// the EC residency implied.
    pub fn mode_edge(&mut self, executing: bool, be_cycle: u64, fe_cycle: u64) {
        if executing {
            self.push(TelemetryEvent::EcEnter { be_cycle });
            self.gated_fe_start = Some(fe_cycle);
        } else {
            self.push(TelemetryEvent::EcExit { be_cycle });
            if let Some(start) = self.gated_fe_start.take() {
                self.push(TelemetryEvent::GatedInterval {
                    domain: ClockDomain::FrontEnd,
                    start_cycle: start,
                    cycles: fe_cycle.saturating_sub(start),
                });
            }
        }
    }

    /// Accounts `n` new pool-exhaustion dispatch stalls observed since the
    /// previous poll. Stalls are aggregated and flushed as one counted event
    /// per sample interval: a pool-starved workload can stall on most cycles,
    /// and per-cycle events would overwhelm the bounded queue (the drops
    /// would be honest, but the timeline would be noise).
    pub fn pool_stalls(&mut self, be_cycle: u64, n: u64) {
        self.pending_stalls += n;
        if be_cycle >= self.next_stall_flush {
            self.flush_stalls(be_cycle);
        }
    }

    fn flush_stalls(&mut self, be_cycle: u64) {
        if self.pending_stalls > 0 {
            self.push(TelemetryEvent::PoolStall {
                be_cycle,
                stalls: self.pending_stalls,
            });
            self.pending_stalls = 0;
        }
        self.next_stall_flush = be_cycle.saturating_add(self.session.sample_interval);
    }

    /// Flushes state that only resolves at end of run: pending pool-stall
    /// aggregates, and a trailing gated interval when the kernel finished
    /// while still in EC mode.
    pub fn finish(&mut self, be_cycle: u64, fe_cycle: u64) {
        if self.pending_stalls > 0 {
            self.flush_stalls(be_cycle);
        }
        if let Some(start) = self.gated_fe_start.take() {
            self.push(TelemetryEvent::GatedInterval {
                domain: ClockDomain::FrontEnd,
                start_cycle: start,
                cycles: fe_cycle.saturating_sub(start),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(queue: &Arc<TelemetryQueue>, tag: &str, interval: u64) -> TelemetrySession {
        TelemetrySession {
            queue: Arc::clone(queue),
            tag: Arc::from(tag),
            sample_interval: interval,
        }
    }

    #[test]
    fn disarmed_thread_reports_no_telemetry() {
        assert!(armed().is_none());
    }

    #[test]
    fn guard_restores_previous_session() {
        let q = Arc::new(TelemetryQueue::new(16));
        {
            let _outer = arm(session(&q, "outer", 1));
            {
                let _inner = arm(session(&q, "inner", 1));
                armed().unwrap().sample_occupancy(1, 1, 1, 1, 1);
            }
            armed().unwrap().sample_occupancy(1, 2, 2, 2, 2);
        }
        assert!(armed().is_none());
        assert_eq!(q.count_matching("inner"), 1);
        assert_eq!(q.count_matching("outer"), 1);
    }

    #[test]
    fn full_queue_drops_instead_of_blocking() {
        let q = Arc::new(TelemetryQueue::new(2));
        let tag: Arc<str> = Arc::from("cell");
        for c in 0..5 {
            q.push(&tag, TelemetryEvent::EcEnter { be_cycle: c });
        }
        assert_eq!(q.accepted(), 2);
        assert_eq!(q.dropped(), 3);
        assert_eq!(q.drain().len(), 2);
        // Counts survive the drain; drops are never counted as accepted.
        assert_eq!(q.count_matching("cell"), 2);
    }

    #[test]
    fn events_round_trip_through_wire_form() {
        let events = [
            TelemetryEvent::Occupancy {
                be_cycle: 120,
                iw: 3,
                rob: 14,
                frontend_q: 2,
                lsq: 1,
            },
            TelemetryEvent::EcEnter { be_cycle: 512 },
            TelemetryEvent::EcExit { be_cycle: 1024 },
            TelemetryEvent::PoolStall {
                be_cycle: 7,
                stalls: 190,
            },
            TelemetryEvent::GatedInterval {
                domain: ClockDomain::FrontEnd,
                start_cycle: 100,
                cycles: 40,
            },
            TelemetryEvent::GatedInterval {
                domain: ClockDomain::BackEnd,
                start_cycle: 0,
                cycles: 1,
            },
        ];
        for e in events {
            assert_eq!(TelemetryEvent::parse(&e.render()), Some(e), "{e:?}");
        }
        for bad in [
            "",
            "occ 1 2 3",
            "ec-enter",
            "gated xx 1 2",
            "occ 1 2 3 4 5 6",
            "pool-stall 7",
            "nope 3",
        ] {
            assert_eq!(TelemetryEvent::parse(bad), None, "'{bad}' must not parse");
        }
    }

    #[test]
    fn occupancy_sampling_honours_interval_and_bulk_skips() {
        let q = Arc::new(TelemetryQueue::new(64));
        let _g = arm(session(&q, "cell", 100));
        let mut rec = armed().unwrap();
        for c in 0..250 {
            rec.sample_occupancy(c, 1, 1, 1, 1);
        }
        // Samples at cycles 100 and 200.
        assert_eq!(q.count_matching("cell"), 2);
        rec.sample_occupancy(10_000, 1, 1, 1, 1); // bulk skip lands one sample
        assert_eq!(q.count_matching("cell"), 3);
    }

    #[test]
    fn pool_stalls_aggregate_to_one_counted_event_per_interval() {
        let q = Arc::new(TelemetryQueue::new(64));
        let _g = arm(session(&q, "cell", 100));
        let mut rec = armed().unwrap();
        // Stall on every cycle of the first interval: ONE event, count 100.
        for c in 0..100 {
            rec.pool_stalls(c, 1);
        }
        rec.pool_stalls(100, 1);
        // A stall-free tail leaves nothing pending except the last lone stall.
        rec.finish(250, 0);
        let events: Vec<_> = q.drain().into_iter().map(|(_, e)| e).collect();
        assert_eq!(
            events,
            vec![TelemetryEvent::PoolStall {
                be_cycle: 100,
                stalls: 101,
            },]
        );

        // Pending stalls that never reach the next interval flush at finish.
        let mut rec = armed().unwrap();
        rec.pool_stalls(3, 2);
        rec.finish(9, 0);
        let events: Vec<_> = q.drain().into_iter().map(|(_, e)| e).collect();
        assert_eq!(
            events,
            vec![TelemetryEvent::PoolStall {
                be_cycle: 9,
                stalls: 2,
            }]
        );
    }

    #[test]
    fn mode_edges_emit_gating_intervals() {
        let q = Arc::new(TelemetryQueue::new(64));
        let _g = arm(session(&q, "cell", u64::MAX));
        let mut rec = armed().unwrap();
        rec.mode_edge(true, 10, 5);
        rec.mode_edge(false, 30, 17);
        rec.mode_edge(true, 40, 20);
        rec.finish(50, 26);
        let events: Vec<_> = q.drain().into_iter().map(|(_, e)| e).collect();
        assert_eq!(
            events,
            vec![
                TelemetryEvent::EcEnter { be_cycle: 10 },
                TelemetryEvent::EcExit { be_cycle: 30 },
                TelemetryEvent::GatedInterval {
                    domain: ClockDomain::FrontEnd,
                    start_cycle: 5,
                    cycles: 12,
                },
                TelemetryEvent::EcEnter { be_cycle: 40 },
                TelemetryEvent::GatedInterval {
                    domain: ClockDomain::FrontEnd,
                    start_cycle: 20,
                    cycles: 6,
                },
            ]
        );
    }
}
