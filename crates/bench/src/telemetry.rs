//! The disk half of `flywheel-telemetry`: the process-global sink that
//! appends each simulated cell's kernel events to an append-only,
//! CRC32-framed, content-addressed event log living beside `results.store`.
//!
//! The split mirrors the store/query separation used elsewhere in the repo:
//! `flywheel-uarch` owns the kernel-side recorder and its per-run buffer (so
//! both kernels can record without new dependencies), this module owns
//! persistence, and `flywheel-report` owns querying/rendering.
//!
//! ## Event-log format (`flywheel-telemetry/1`)
//!
//! One plain header line, then one framed line per event, reusing the exact
//! `flywheel-store/3` per-record framing (`<len:08x> <crc:08x> <payload>`,
//! see [`crate::store`]), so the same fsck logic detects torn appends and bit
//! rot in both files. Every payload has one form:
//!
//! ```text
//! <store-key-hex:32> <cell-label> <event wire form>
//! ```
//!
//! The leading store key is the *same* content address the result store files
//! the cell's record under, which is what makes the log content-addressed:
//! events join against `results.store` records by key, and a stale log
//! (written by a different code version) simply stops matching.
//!
//! ## One block per simulated cell
//!
//! [`Executor::simulate`](crate::executor::Executor::simulate) is the one path
//! every cell simulation takes. While a sink is installed it arms the worker
//! thread, runs the kernel, and appends the run's events as one contiguous
//! block with a single write. Blocks land in grid order with one worker and in
//! completion order with more, so readers that need a canonical order group
//! the records by cell. A run that fails (a panic or a watchdog timeout)
//! writes nothing: the log holds exactly the events of the runs that produced
//! a result, and none are ever dropped.

use crate::store::{self, StoreKey};
use flywheel_uarch::telemetry::{self, TelemetryEvent};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// On-disk schema of the telemetry event log.
pub const TELEMETRY_SCHEMA: &str = "flywheel-telemetry/1";

/// The conventional event-log path for a store at `store_path`:
/// `<store>.events`, beside the store itself.
pub fn event_log_path(store_path: &Path) -> PathBuf {
    PathBuf::from(format!("{}.events", store_path.display()))
}

/// One parsed event-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryRecord {
    /// The cell's content address (same key as its `results.store` record).
    pub key: StoreKey,
    /// The cell's human-readable label (whitespace-free).
    pub label: String,
    /// The event itself.
    pub event: TelemetryEvent,
}

impl TelemetryRecord {
    fn render(&self) -> String {
        format!("{} {} {}", self.key.hex(), self.label, self.event.render())
    }

    fn parse(payload: &str) -> Option<TelemetryRecord> {
        let mut parts = payload.splitn(3, ' ');
        let key = StoreKey::from_hex(parts.next()?)?;
        let label = parts.next()?.to_owned();
        let event = TelemetryEvent::parse(parts.next()?)?;
        Some(TelemetryRecord { key, label, event })
    }
}

/// Everything a telemetry event log contained.
#[derive(Debug, Default)]
pub struct TelemetryLog {
    /// Every event record, in file order (one contiguous block per simulated
    /// cell).
    pub records: Vec<TelemetryRecord>,
    /// Lines that failed the framing or payload grammar.
    pub damaged_lines: usize,
}

impl TelemetryLog {
    /// Reads and validates the event log at `path`.
    ///
    /// Damaged lines are counted, not fatal (matching the store's recovery
    /// posture); an unknown header is.
    pub fn read(path: &Path) -> Result<TelemetryLog, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let mut log = TelemetryLog::default();
        let mut lines = bytes.split(|&b| b == b'\n');
        let header = lines.next().unwrap_or_default();
        if header != TELEMETRY_SCHEMA.as_bytes() {
            return Err(format!(
                "{}: not a {TELEMETRY_SCHEMA} event log",
                path.display()
            ));
        }
        for line in lines {
            if line.is_empty() {
                continue;
            }
            match store::unframe_line(line).and_then(TelemetryRecord::parse) {
                Some(r) => log.records.push(r),
                None => log.damaged_lines += 1,
            }
        }
        Ok(log)
    }

    /// Whether every line passed the framing and payload grammar.
    pub fn is_clean(&self) -> bool {
        self.damaged_lines == 0
    }

    /// `fsck`-style one-line verdict over the log's framing and grammar.
    pub fn describe(&self) -> String {
        if self.damaged_lines == 0 {
            format!(
                "clean ({} events, schema {TELEMETRY_SCHEMA})",
                self.records.len()
            )
        } else {
            format!(
                "damaged: {} bad line{} ({} events readable)",
                self.damaged_lines,
                if self.damaged_lines == 1 { "" } else { "s" },
                self.records.len()
            )
        }
    }
}

/// The process-global telemetry sink: the open log and what went into it.
struct GlobalSink {
    file: std::fs::File,
    path: PathBuf,
    /// Events written to the log.
    events: u64,
    /// Events written per cell key (the scenario tables' `telemetry_events`
    /// column).
    cell_events: HashMap<StoreKey, u64>,
}

/// The installed sink's sample interval; 0 while no sink is installed, so
/// the disarmed path of [`record_cell`] is one atomic load.
static SAMPLE_INTERVAL: AtomicU64 = AtomicU64::new(0);

fn global_sink() -> MutexGuard<'static, Option<GlobalSink>> {
    static SINK: Mutex<Option<GlobalSink>> = Mutex::new(None);
    SINK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a finished telemetry sink wrote to disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Events written to the log.
    pub events: u64,
    /// Always 0: every finished run's events are written, so none are
    /// dropped. Kept because the perfbench harness reports it.
    pub dropped: u64,
    /// The log path.
    pub path: PathBuf,
}

/// Installs the process-global telemetry sink: creates the event log at
/// `path` (truncating any previous run's log). Simulations run after this —
/// on any thread — are recorded.
///
/// Errors if a sink is already installed or the log cannot be created.
pub fn install_global_telemetry(path: &Path, sample_interval: u64) -> Result<(), String> {
    let mut slot = global_sink();
    if slot.is_some() {
        return Err("telemetry sink already installed".to_owned());
    }
    let mut file = std::fs::File::create(path)
        .map_err(|e| format!("creating event log {}: {e}", path.display()))?;
    file.write_all(format!("{TELEMETRY_SCHEMA}\n").as_bytes())
        .map_err(|e| format!("writing event log {}: {e}", path.display()))?;
    *slot = Some(GlobalSink {
        file,
        path: path.to_path_buf(),
        events: 0,
        cell_events: HashMap::new(),
    });
    SAMPLE_INTERVAL.store(sample_interval.max(1), Ordering::Release);
    Ok(())
}

/// Whether a global telemetry sink is installed (one atomic load — the
/// disarmed fast path of the simulation choke point).
pub fn telemetry_installed() -> bool {
    SAMPLE_INTERVAL.load(Ordering::Acquire) != 0
}

/// Uninstalls the sink and reports what it wrote. `None` when no sink was
/// installed.
pub fn finish_global_telemetry() -> Option<TelemetrySummary> {
    let sink = {
        let mut slot = global_sink();
        SAMPLE_INTERVAL.store(0, Ordering::Release);
        slot.take()
    }?;
    Some(TelemetrySummary {
        events: sink.events,
        dropped: 0,
        path: sink.path,
    })
}

/// Events the installed sink has logged for the cell at `key`, over every
/// run of that cell since installation. Zero when no sink is installed.
pub fn logged_events(key: &StoreKey) -> u64 {
    global_sink()
        .as_ref()
        .and_then(|sink| sink.cell_events.get(key).copied())
        .unwrap_or(0)
}

/// Runs one cell's simulation `run`. While a sink is installed the thread is
/// armed for it, and the events of a run that returns are appended to the
/// log as one block under the cell's store key and label (`cell`, computed
/// only on this path). A run that panics writes nothing.
pub(crate) fn record_cell<T>(
    cell: impl FnOnce() -> (StoreKey, String),
    run: impl FnOnce() -> T,
) -> T {
    let sample_interval = SAMPLE_INTERVAL.load(Ordering::Acquire);
    if sample_interval == 0 {
        return run();
    }
    let armed = telemetry::arm(sample_interval);
    let out = run();
    let events = armed.take_events();
    drop(armed);
    let (key, label) = cell();
    append_block(key, &label, &events);
    out
}

/// Formats one cell's events outside the lock, then appends them with a
/// single write under it, so the block lands contiguously.
fn append_block(key: StoreKey, label: &str, events: &[TelemetryEvent]) {
    let prefix = format!("{} {label} ", key.hex());
    let mut block = String::new();
    for event in events {
        let payload = format!("{prefix}{}", event.render());
        let _ = writeln!(block, "{}", store::frame_payload(&payload));
    }
    let mut slot = global_sink();
    let Some(sink) = slot.as_mut() else {
        return;
    };
    match sink.file.write_all(block.as_bytes()) {
        Ok(()) => {
            let n = events.len() as u64;
            sink.events += n;
            *sink.cell_events.entry(key).or_default() += n;
        }
        Err(e) => eprintln!(
            "warning: could not append to event log {}: {e}",
            sink.path.display()
        ),
    }
}

/// Folds per-shard event logs (written by supervised sweep workers) into the
/// main log at `main_path`, preserving each record's framing byte-for-byte.
/// Missing shard logs are skipped; the main log is created (with a header)
/// if absent. Returns how many event lines were appended.
pub fn merge_telemetry_logs(main_path: &Path, shard_paths: &[PathBuf]) -> Result<u64, String> {
    let mut appended = 0u64;
    let mut out: Option<std::fs::File> = None;
    for shard in shard_paths {
        let log = match TelemetryLog::read(shard) {
            Ok(l) => l,
            Err(_) if !shard.exists() => continue,
            Err(e) => return Err(e),
        };
        if log.records.is_empty() {
            continue;
        }
        let out = match &mut out {
            Some(f) => f,
            None => {
                let exists = main_path.exists();
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(main_path)
                    .map_err(|e| format!("opening {}: {e}", main_path.display()))?;
                if !exists {
                    f.write_all(format!("{TELEMETRY_SCHEMA}\n").as_bytes())
                        .map_err(|e| format!("writing {}: {e}", main_path.display()))?;
                }
                out.insert(f)
            }
        };
        for r in &log.records {
            writeln!(out, "{}", store::frame_payload(&r.render()))
                .map_err(|e| format!("writing {}: {e}", main_path.display()))?;
            appended += 1;
        }
    }
    if let Some(f) = &mut out {
        f.flush().map_err(|e| e.to_string())?;
    }
    Ok(appended)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fw-tel-{}-{name}", std::process::id()))
    }

    fn sample_record(label: &str, be_cycle: u64) -> TelemetryRecord {
        TelemetryRecord {
            key: StoreKey::of_input(label),
            label: label.to_owned(),
            event: TelemetryEvent::EcEnter { be_cycle },
        }
    }

    #[test]
    fn records_round_trip_through_payload_form() {
        let r = TelemetryRecord {
            key: StoreKey::of_input("cell"),
            label: "flywheel/gzip/s2005".to_owned(),
            event: TelemetryEvent::Occupancy {
                be_cycle: 2048,
                iw: 12,
                rob: 97,
                frontend_q: 4,
                lsq: 31,
            },
        };
        assert_eq!(TelemetryRecord::parse(&r.render()), Some(r.clone()));
        assert_eq!(TelemetryRecord::parse("bogus"), None);
        assert_eq!(
            TelemetryRecord::parse(&format!("{} label", r.key.hex())),
            None
        );
    }

    #[test]
    fn log_reader_detects_damage() {
        let path = tmp("reader.events");
        let mut text = format!("{TELEMETRY_SCHEMA}\n");
        text.push_str(&store::frame_payload(&sample_record("a", 10).render()));
        text.push('\n');
        text.push_str("00000005 deadbeef torn!");
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let log = TelemetryLog::read(&path).unwrap();
        assert_eq!(log.records.len(), 1);
        assert_eq!(log.damaged_lines, 1);
        assert!(log.describe().starts_with("damaged: 1 bad line"));
        std::fs::remove_file(&path).unwrap();

        let bogus = tmp("bogus.events");
        std::fs::write(&bogus, "not-a-log\n").unwrap();
        assert!(TelemetryLog::read(&bogus).is_err());
        std::fs::remove_file(&bogus).unwrap();
    }

    #[test]
    fn shard_logs_merge_into_main_log() {
        let main = tmp("merged.events");
        let _ = std::fs::remove_file(&main);
        let shards: Vec<PathBuf> = (0..3).map(|k| tmp(&format!("shard{k}.events"))).collect();
        // Shards 0 and 2: one record each. Shard 1: missing.
        for (k, path) in shards.iter().enumerate() {
            if k == 1 {
                continue;
            }
            let mut text = format!("{TELEMETRY_SCHEMA}\n");
            text.push_str(&store::frame_payload(
                &sample_record(&format!("cell{k}"), k as u64).render(),
            ));
            text.push('\n');
            std::fs::write(path, text).unwrap();
        }
        let appended = merge_telemetry_logs(&main, &shards).unwrap();
        assert_eq!(appended, 2);
        let log = TelemetryLog::read(&main).unwrap();
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.damaged_lines, 0);
        assert!(log.describe().starts_with("clean (2 events"));
        for p in shards.iter().chain([&main]) {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn event_log_paths_sit_beside_the_store() {
        assert_eq!(
            event_log_path(Path::new("/tmp/results.store")),
            PathBuf::from("/tmp/results.store.events")
        );
    }
}
