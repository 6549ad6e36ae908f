//! Microarchitectural telemetry: typed events both simulator kernels record
//! into a per-run buffer — but only when armed.
//!
//! The design mirrors [`crate::watchdog`]: a sweep executor [`arm`]s the
//! worker thread with a sample interval before running a cell; the kernels
//! take a [`TelemetryRecorder`] once at the top of `run()` ([`armed`]) and
//! feed it from their step loops. The recorder owns the run's event buffer
//! and hands it to the thread's armed slot in [`TelemetryRecorder::finish`],
//! where the executor collects it ([`TelemetryGuard::take_events`]). A run
//! that panics (a simulator bug, a watchdog timeout) never reaches `finish`,
//! so a failed attempt leaves no events behind, and nothing is ever dropped.
//! Cost when disarmed (every non-telemetry caller): one thread-local read per
//! kernel `run()`, zero work per simulated cycle — which is what keeps
//! telemetry-off runs byte-identical to the golden transcript and within
//! noise of the committed throughput numbers.
//!
//! Telemetry is observational only: a recorder reads kernel state and never
//! writes it, so armed and disarmed runs simulate identical machines.

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
    /// one sample interval (per-cycle stall events would flood the log on
    /// pool-starved workloads).
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

/// Default back-end cycles between occupancy samples.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 1024;

/// What a worker thread has armed: the sample interval, and the events of
/// the runs that finished since it was armed.
struct Armed {
    sample_interval: u64,
    events: Vec<TelemetryEvent>,
}

thread_local! {
    static ARMED: std::cell::RefCell<Option<Armed>> =
        const { std::cell::RefCell::new(None) };
}

/// Arms telemetry for the current thread until the returned guard drops:
/// every kernel run on this thread records occupancy every
/// `sample_interval` back-end cycles, plus its mode edges and stalls.
///
/// Nested arms are allowed; the guard restores the previous arming, events
/// included.
pub fn arm(sample_interval: u64) -> TelemetryGuard {
    let prev = ARMED.with(|a| {
        a.replace(Some(Armed {
            sample_interval,
            events: Vec::new(),
        }))
    });
    TelemetryGuard { prev }
}

/// Disarms telemetry when dropped, restoring whatever was armed before.
pub struct TelemetryGuard {
    prev: Option<Armed>,
}

impl TelemetryGuard {
    /// Takes the events of every run that finished on this thread since it
    /// was armed (or since the previous take), in recording order. A run
    /// that panicked contributes nothing.
    pub fn take_events(&self) -> Vec<TelemetryEvent> {
        ARMED.with(|a| {
            a.borrow_mut()
                .as_mut()
                .map(|armed| std::mem::take(&mut armed.events))
                .unwrap_or_default()
        })
    }
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        ARMED.with(|a| *a.borrow_mut() = self.prev.take());
    }
}

/// A fresh per-run recorder at the armed sample interval, or `None` when the
/// thread has no telemetry armed (the common case).
pub fn armed() -> Option<TelemetryRecorder> {
    let sample_interval = ARMED.with(|a| a.borrow().as_ref().map(|armed| armed.sample_interval))?;
    Some(TelemetryRecorder {
        sample_interval,
        events: Vec::new(),
        next_sample: sample_interval,
        gated_fe_start: None,
        pending_stalls: 0,
        next_stall_flush: sample_interval,
    })
}

/// Per-run recorder a kernel holds for the duration of one `run()`: it owns
/// the run's event buffer and hands it to the thread's armed slot in
/// [`TelemetryRecorder::finish`].
///
/// All methods observe; none mutate simulator state.
pub struct TelemetryRecorder {
    sample_interval: u64,
    events: Vec<TelemetryEvent>,
    next_sample: u64,
    /// Front-end cycle at which the current Execution-Cache (gated) interval
    /// began, when the kernel is in EC mode.
    gated_fe_start: Option<u64>,
    /// Pool-exhaustion stall cycles accumulated since the last flush.
    pending_stalls: u64,
    next_stall_flush: u64,
}

impl TelemetryRecorder {
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
        self.next_sample = be_cycle.saturating_add(self.sample_interval);
        let clamp = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        self.events.push(TelemetryEvent::Occupancy {
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
            self.events.push(TelemetryEvent::EcEnter { be_cycle });
            self.gated_fe_start = Some(fe_cycle);
        } else {
            self.events.push(TelemetryEvent::EcExit { be_cycle });
            if let Some(start) = self.gated_fe_start.take() {
                self.events.push(TelemetryEvent::GatedInterval {
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
    /// and per-cycle events would bury the timeline in noise.
    pub fn pool_stalls(&mut self, be_cycle: u64, n: u64) {
        self.pending_stalls += n;
        if be_cycle >= self.next_stall_flush {
            self.flush_stalls(be_cycle);
        }
    }

    fn flush_stalls(&mut self, be_cycle: u64) {
        if self.pending_stalls > 0 {
            self.events.push(TelemetryEvent::PoolStall {
                be_cycle,
                stalls: self.pending_stalls,
            });
            self.pending_stalls = 0;
        }
        self.next_stall_flush = be_cycle.saturating_add(self.sample_interval);
    }

    /// Flushes state that only resolves at end of run (pending pool-stall
    /// aggregates, and a trailing gated interval when the kernel finished
    /// while still in EC mode), then hands the run's events to the thread's
    /// armed slot.
    pub fn finish(&mut self, be_cycle: u64, fe_cycle: u64) {
        if self.pending_stalls > 0 {
            self.flush_stalls(be_cycle);
        }
        if let Some(start) = self.gated_fe_start.take() {
            self.events.push(TelemetryEvent::GatedInterval {
                domain: ClockDomain::FrontEnd,
                start_cycle: start,
                cycles: fe_cycle.saturating_sub(start),
            });
        }
        ARMED.with(|a| {
            if let Some(armed) = a.borrow_mut().as_mut() {
                armed.events.append(&mut self.events);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One run on the armed thread that records a single occupancy sample.
    fn record_one_sample(rob: usize) {
        let mut rec = armed().unwrap();
        rec.sample_occupancy(1, rob, rob, rob, rob);
        rec.finish(1, 0);
    }

    #[test]
    fn disarmed_thread_reports_no_telemetry() {
        assert!(armed().is_none());
    }

    #[test]
    fn guard_restores_previous_session() {
        {
            let outer = arm(1);
            {
                let inner = arm(1);
                record_one_sample(1);
                assert_eq!(inner.take_events().len(), 1);
            }
            record_one_sample(2);
            assert_eq!(outer.take_events().len(), 1);
        }
        assert!(armed().is_none());
    }

    #[test]
    fn a_run_that_never_finishes_hands_back_no_events() {
        let g = arm(1);
        let panicked = std::panic::catch_unwind(|| {
            let mut rec = armed().unwrap();
            rec.mode_edge(true, 1, 1);
            rec.sample_occupancy(5, 1, 1, 1, 1);
            panic!("the run dies before finish");
        });
        assert!(panicked.is_err());
        assert!(g.take_events().is_empty());
        record_one_sample(3);
        assert_eq!(g.take_events().len(), 1, "the next run still records");
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
        let g = arm(100);
        let mut rec = armed().unwrap();
        for c in 0..250 {
            rec.sample_occupancy(c, 1, 1, 1, 1);
        }
        // Samples at cycles 100 and 200.
        assert_eq!(rec.events.len(), 2);
        rec.sample_occupancy(10_000, 1, 1, 1, 1); // bulk skip lands one sample
        assert_eq!(rec.events.len(), 3);
        rec.finish(10_000, 0);
        assert_eq!(g.take_events().len(), 3);
    }

    #[test]
    fn pool_stalls_aggregate_to_one_counted_event_per_interval() {
        let g = arm(100);
        let mut rec = armed().unwrap();
        // Stall on every cycle of the first interval: ONE event, count 100.
        for c in 0..100 {
            rec.pool_stalls(c, 1);
        }
        rec.pool_stalls(100, 1);
        // A stall-free tail leaves nothing pending except the last lone stall.
        rec.finish(250, 0);
        let events = g.take_events();
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
        let events = g.take_events();
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
        let g = arm(u64::MAX);
        let mut rec = armed().unwrap();
        rec.mode_edge(true, 10, 5);
        rec.mode_edge(false, 30, 17);
        rec.mode_edge(true, 40, 20);
        rec.finish(50, 26);
        let events = g.take_events();
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
