//! Multi-process supervised sweeps: a scenario grid run as N worker
//! *processes*, each sweeping a disjoint shard of cells into its own store,
//! under a supervisor that restarts whatever the OS kills.
//!
//! PR 6 made a single process crash-safe (CRC-framed store, watchdog,
//! in-process retries); this module is the layer above it, where the failure
//! unit is the whole process — OOM-kills, SIGKILL, `abort()`, silent hangs.
//! The design splits cleanly along the process boundary:
//!
//! * **Workers** are this same binary re-invoked with a hidden
//!   `__shard-worker` argv ([`maybe_run_shard_worker`]). A worker expands the
//!   scenario spec it is handed, takes the grid cells whose index is
//!   congruent to its shard, and sweeps them *serially* (parallelism is the
//!   supervisor's job) into `<store>.shard-K` — skipping any cell its shard
//!   store already holds, so a restarted worker re-runs only what its dead
//!   predecessor never landed (warm-store healing). After every cell it
//!   atomically rewrites a status file carrying a monotone heartbeat counter,
//!   progress counters and its failed-cell manifest.
//! * **The supervisor** ([`run_supervised`]) spawns one worker per shard and
//!   polls: a worker that exits cleanly with `state=done` finished its shard;
//!   any other exit is a crash; a live worker whose heartbeat stops advancing
//!   for [`SupervisorConfig::stall_timeout`] (or that outlives
//!   [`SupervisorConfig::shard_deadline`]) is killed. Crashed and killed
//!   workers are restarted with capped exponential backoff until the
//!   per-shard restart budget is exhausted, at which point the shard is
//!   declared failed and the sweep *degrades* instead of aborting. Finally
//!   the shard stores are unioned into the main store via
//!   [`ResultStore::merge`] — in shard order, so the merged bytes are a pure
//!   function of the grid — and every grid cell that still has no record is
//!   reported in the outcome's failed-cell manifest with the best known
//!   cause.
//!
//! Process-level fault injection rides the PR 6 plan: the supervisor assigns
//! [`ProcFault`]s to shards ([`crate::fault::assign_shard_faults`]) and hands
//! them to workers as a `--proc-fault kind@index` argv, so a worker kills or
//! wedges itself deterministically mid-shard. Faults are stripped from
//! restarted incarnations unless the plan says `persist-proc=1` — the
//! difference between a transient OOM (healed by one restart) and a
//! persistently bad shard (exhausts the budget, degrades the sweep).

use crate::fault::{self, FaultPlan, ProcFault};
use crate::scenario::{run_cell_with_retries, Scenario};
use crate::spec::{scenario_from_spec, scenario_to_spec};
use crate::store::{MergeError, ResultStore, StoreError};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// The hidden `argv[1]` that turns this binary into a shard worker.
pub const WORKER_ARGV: &str = "__shard-worker";

/// Schema header of a worker status file.
const STATUS_SCHEMA: &str = "flywheel-worker/1";

/// The shard store a worker of shard `k` sweeps into: `<store>.shard-K`.
pub fn shard_store_path(store: &Path, shard: usize) -> PathBuf {
    PathBuf::from(format!("{}.shard-{shard}", store.display()))
}

/// The status file a worker of shard `k` heartbeats into.
pub fn shard_status_path(status_dir: &Path, shard: usize) -> PathBuf {
    status_dir.join(format!("shard-{shard}.status"))
}

/// The telemetry event log a worker of shard `k` writes (merged into the
/// main log after the sweep): `<base>.shard-K`.
pub fn shard_telemetry_path(base: &Path, shard: usize) -> PathBuf {
    PathBuf::from(format!("{}.shard-{shard}", base.display()))
}

// ---------------------------------------------------------------------------
// Worker status files
// ---------------------------------------------------------------------------

/// Why a worker status file could not be parsed.
///
/// Status files are the supervisor's only window into worker health, and they
/// are written by a process the supervisor may have just killed — so the
/// parser is strict: a field that repeats (last-wins would silently mask a
/// torn or doubled write) or a number that does not fit its field's type is a
/// rejection of the whole file, never a silent truncation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatusParseError {
    /// The file exists but could not be read.
    Io {
        /// Path of the status file.
        path: PathBuf,
        /// The underlying OS error.
        message: String,
    },
    /// The first line is not the expected schema header.
    BadSchema {
        /// Path of the status file.
        path: PathBuf,
    },
    /// A line fit neither the `key=value` nor the manifest grammar.
    Malformed {
        /// Path of the status file.
        path: PathBuf,
        /// The offending line.
        line: String,
    },
    /// A `key=value` line carried a key the schema does not define.
    UnknownField {
        /// Path of the status file.
        path: PathBuf,
        /// The unknown key.
        field: String,
    },
    /// A field appeared more than once.
    DuplicateKey {
        /// Path of the status file.
        path: PathBuf,
        /// The repeated key.
        key: String,
    },
    /// A numeric field failed to parse as an unsigned integer.
    BadNumber {
        /// Path of the status file.
        path: PathBuf,
        /// The offending line.
        line: String,
    },
    /// A numeric field parsed but exceeds the range of its target type
    /// (e.g. a `pid` wider than `u32`).
    OutOfRange {
        /// Path of the status file.
        path: PathBuf,
        /// The offending line.
        line: String,
    },
}

impl std::fmt::Display for StatusParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatusParseError::Io { path, message } => {
                write!(f, "reading {}: {message}", path.display())
            }
            StatusParseError::BadSchema { path } => {
                write!(f, "{}: not a {STATUS_SCHEMA} file", path.display())
            }
            StatusParseError::Malformed { path, line } => {
                write!(f, "{}: bad status line '{line}'", path.display())
            }
            StatusParseError::UnknownField { path, field } => {
                write!(f, "{}: unknown status field '{field}'", path.display())
            }
            StatusParseError::DuplicateKey { path, key } => {
                write!(f, "{}: duplicate status field '{key}'", path.display())
            }
            StatusParseError::BadNumber { path, line } => {
                write!(f, "{}: bad number in '{line}'", path.display())
            }
            StatusParseError::OutOfRange { path, line } => {
                write!(f, "{}: number out of range in '{line}'", path.display())
            }
        }
    }
}

impl std::error::Error for StatusParseError {}

/// Whether a worker believes it is mid-sweep or finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Still sweeping cells.
    Running,
    /// Swept every cell of its shard (possibly with failed cells).
    Done,
}

/// One failed cell as recorded in a worker's status manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailedCell {
    /// Attempts made before giving up.
    pub attempts: u32,
    /// Failure kind (`panic` or `timeout`).
    pub kind: String,
    /// The cell's label (whitespace-free by construction).
    pub label: String,
    /// Human-readable failure message.
    pub message: String,
}

/// A worker's heartbeat/progress snapshot, written atomically (temp file +
/// rename) to its status file after every cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStatus {
    /// OS pid of the worker incarnation that wrote the file.
    pub pid: u32,
    /// Shard index.
    pub shard: usize,
    /// Total shard count of the sweep.
    pub shards: usize,
    /// Monotone heartbeat counter; the supervisor's stall detector watches
    /// this, never wall-clock fields, so a paused-and-resumed worker (SIGSTOP,
    /// debugger) is indistinguishable from a slow one until the timeout.
    pub beat: u64,
    /// Cells of the shard completed so far (hit, simulated or failed).
    pub done: usize,
    /// Cells in the shard.
    pub total: usize,
    /// Cells answered from the (warm) shard store.
    pub hits: usize,
    /// Cells simulated by this incarnation.
    pub simulated: usize,
    /// Whether the worker finished its shard.
    pub state: WorkerState,
    /// Failed-cell manifest (cells that exhausted in-process retries).
    pub failed: Vec<WorkerFailedCell>,
}

impl WorkerStatus {
    fn new(shard: usize, shards: usize, total: usize) -> Self {
        WorkerStatus {
            pid: std::process::id(),
            shard,
            shards,
            beat: 0,
            done: 0,
            total,
            hits: 0,
            simulated: 0,
            state: WorkerState::Running,
            failed: Vec::new(),
        }
    }

    /// Serializes the status into its file format.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{STATUS_SCHEMA}\npid={}\nshard={}\nshards={}\nbeat={}\ndone={}\ntotal={}\nhits={}\nsimulated={}\nstate={}\n",
            self.pid,
            self.shard,
            self.shards,
            self.beat,
            self.done,
            self.total,
            self.hits,
            self.simulated,
            match self.state {
                WorkerState::Running => "running",
                WorkerState::Done => "done",
            },
        );
        for f in &self.failed {
            // label is whitespace-free; the message is the tail of the line
            // (newlines flattened so one manifest entry stays one line).
            let msg = f.message.replace(['\n', '\r'], " ");
            out.push_str(&format!(
                "failed {} {} {} {}\n",
                f.attempts, f.kind, f.label, msg
            ));
        }
        out
    }

    /// Writes the status file atomically (temp + rename), so the supervisor
    /// never reads a torn snapshot.
    pub fn write(&self, path: &Path) -> Result<(), StoreError> {
        let tmp = PathBuf::from(format!("{}.tmp", path.display()));
        let io = |op| StoreError::io(op, path);
        let mut f = std::fs::File::create(&tmp).map_err(io("status-write"))?;
        f.write_all(self.render().as_bytes())
            .map_err(io("status-write"))?;
        f.flush().map_err(io("status-write"))?;
        std::fs::rename(&tmp, path).map_err(io("status-rename"))
    }

    /// Reads a status file; `Ok(None)` when it does not exist yet (a worker
    /// that has not completed its first write).
    ///
    /// Duplicate fields and numbers that overflow their field's type are
    /// rejected as [`StatusParseError`]s — a torn, doubled or forged file
    /// must never be mistaken for a healthy heartbeat.
    pub fn read(path: &Path) -> Result<Option<WorkerStatus>, StatusParseError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(StatusParseError::Io {
                    path: path.to_path_buf(),
                    message: e.to_string(),
                })
            }
        };
        let mut lines = text.lines();
        if lines.next() != Some(STATUS_SCHEMA) {
            return Err(StatusParseError::BadSchema {
                path: path.to_path_buf(),
            });
        }
        let mut status = WorkerStatus::new(0, 0, 0);
        status.pid = 0;
        let mut seen: Vec<String> = Vec::new();
        for line in lines {
            if let Some(rest) = line.strip_prefix("failed ") {
                let mut it = rest.splitn(4, ' ');
                let (attempts, kind, label) = match (it.next(), it.next(), it.next()) {
                    (Some(a), Some(k), Some(l)) => (a, k, l),
                    _ => {
                        return Err(StatusParseError::Malformed {
                            path: path.to_path_buf(),
                            line: line.to_owned(),
                        })
                    }
                };
                status.failed.push(WorkerFailedCell {
                    attempts: attempts.parse().map_err(|_| StatusParseError::BadNumber {
                        path: path.to_path_buf(),
                        line: line.to_owned(),
                    })?,
                    kind: kind.to_owned(),
                    label: label.to_owned(),
                    message: it.next().unwrap_or("").to_owned(),
                });
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(StatusParseError::Malformed {
                    path: path.to_path_buf(),
                    line: line.to_owned(),
                });
            };
            if seen.iter().any(|k| k == key) {
                return Err(StatusParseError::DuplicateKey {
                    path: path.to_path_buf(),
                    key: key.to_owned(),
                });
            }
            seen.push(key.to_owned());
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| StatusParseError::BadNumber {
                        path: path.to_path_buf(),
                        line: line.to_owned(),
                    })
            };
            let oor = || StatusParseError::OutOfRange {
                path: path.to_path_buf(),
                line: line.to_owned(),
            };
            match key {
                "pid" => status.pid = u32::try_from(num()?).map_err(|_| oor())?,
                "shard" => status.shard = usize::try_from(num()?).map_err(|_| oor())?,
                "shards" => status.shards = usize::try_from(num()?).map_err(|_| oor())?,
                "beat" => status.beat = num()?,
                "done" => status.done = usize::try_from(num()?).map_err(|_| oor())?,
                "total" => status.total = usize::try_from(num()?).map_err(|_| oor())?,
                "hits" => status.hits = usize::try_from(num()?).map_err(|_| oor())?,
                "simulated" => status.simulated = usize::try_from(num()?).map_err(|_| oor())?,
                "state" => {
                    status.state = match value {
                        "running" => WorkerState::Running,
                        "done" => WorkerState::Done,
                        _ => {
                            return Err(StatusParseError::Malformed {
                                path: path.to_path_buf(),
                                line: line.to_owned(),
                            })
                        }
                    }
                }
                other => {
                    return Err(StatusParseError::UnknownField {
                        path: path.to_path_buf(),
                        field: other.to_owned(),
                    })
                }
            }
        }
        Ok(Some(status))
    }
}

// ---------------------------------------------------------------------------
// Worker entry point
// ---------------------------------------------------------------------------

/// If this process was invoked as a shard worker (`argv[1]` is
/// [`WORKER_ARGV`]), runs the shard sweep and exits; otherwise returns so the
/// caller's normal `main` proceeds. Every binary that acts as a supervisor
/// front end (`scenarios`, `flywheel-serve`) calls this first, so
/// `std::env::current_exe()` doubles as the worker executable.
pub fn maybe_run_shard_worker() {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some(WORKER_ARGV) {
        return;
    }
    let code = match shard_worker_main(&args.collect::<Vec<_>>()) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("shard worker: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Parses `--flag value` pairs from a worker argv tail.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn shard_worker_main(args: &[String]) -> Result<(), String> {
    let spec = flag(args, "--spec").ok_or("missing --spec")?;
    let shard: usize = flag(args, "--shard")
        .ok_or("missing --shard")?
        .parse()
        .map_err(|_| "bad --shard")?;
    let shards: usize = flag(args, "--shards")
        .ok_or("missing --shards")?
        .parse()
        .map_err(|_| "bad --shards")?;
    let store_path = PathBuf::from(flag(args, "--store").ok_or("missing --store")?);
    let status_path = PathBuf::from(flag(args, "--status").ok_or("missing --status")?);
    let telemetry_path = flag(args, "--telemetry").map(PathBuf::from);
    let proc_fault: Option<(ProcFault, usize)> = match flag(args, "--proc-fault") {
        None => None,
        Some(v) => {
            let (kind, idx) = v
                .split_once('@')
                .ok_or("bad --proc-fault (want kind@index)")?;
            Some((
                ProcFault::parse(kind).ok_or_else(|| format!("unknown proc fault '{kind}'"))?,
                idx.parse().map_err(|_| "bad --proc-fault index")?,
            ))
        }
    };
    if shards == 0 || shard >= shards {
        return Err(format!("shard {shard} out of range for {shards} shards"));
    }

    let scenario = scenario_from_spec(spec)?;
    let budget = scenario.budget;
    fault::maybe_install_from_env();
    let grid = scenario.expand();
    if fault::active() {
        // Assign cell-level faults over the *full* grid label set, exactly as
        // a single-process sweep would, so which cells are doomed does not
        // depend on the shard count.
        let labels: Vec<String> = grid.iter().map(|c| c.label()).collect();
        fault::assign_cells(&labels);
    }
    let shard_cells: Vec<_> = grid
        .iter()
        .enumerate()
        .filter(|(i, _)| i % shards == shard)
        .map(|(_, c)| *c)
        .collect();

    // A restarted incarnation truncates its predecessor's shard log: the
    // events of already-landed cells are gone, but the log stays CRC-clean
    // and self-consistent (telemetry is observability, not results).
    if let Some(path) = &telemetry_path {
        crate::telemetry::install_global_telemetry(
            path,
            flywheel_uarch::telemetry::DEFAULT_SAMPLE_INTERVAL,
        )?;
    }

    let (mut store, _report) =
        ResultStore::open_recovering(&store_path).map_err(|e| e.to_string())?;
    let mut status = WorkerStatus::new(shard, shards, shard_cells.len());
    let bump = |status: &mut WorkerStatus| -> Result<(), String> {
        status.beat += 1;
        status.write(&status_path).map_err(|e| e.to_string())
    };
    bump(&mut status)?; // first heartbeat before any (possibly slow) cell

    for (local_idx, cell) in shard_cells.iter().enumerate() {
        if let Some((f, idx)) = proc_fault {
            if local_idx == idx {
                eprintln!(
                    "fault injection: worker shard {shard} triggering {} at cell {idx}",
                    f.name()
                );
                f.trigger();
            }
        }
        let key = cell.key(budget);
        if store.contains(&key) {
            status.hits += 1;
        } else {
            match run_cell_with_retries(cell, budget) {
                Ok(r) => {
                    store
                        .insert(key, &cell.label(), r)
                        .map_err(|e| e.to_string())?;
                    status.simulated += 1;
                }
                Err(f) => status.failed.push(WorkerFailedCell {
                    attempts: f.attempts,
                    kind: f.cause.kind().to_owned(),
                    label: f.cell.label(),
                    message: f.cause.message().to_owned(),
                }),
            }
        }
        status.done += 1;
        bump(&mut status)?;
    }
    status.state = WorkerState::Done;
    bump(&mut status)?;
    if telemetry_path.is_some() {
        crate::telemetry::finish_global_telemetry();
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

/// Policy knobs of a supervised sweep.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker process (= shard) count.
    pub shards: usize,
    /// Restarts allowed per shard before it is declared failed (so a shard
    /// runs at most `max_restarts + 1` incarnations).
    pub max_restarts: u32,
    /// Base restart backoff; incarnation `n` waits `backoff << (n-1)`.
    pub backoff: Duration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Duration,
    /// A live worker whose heartbeat counter does not advance for this long
    /// is considered hung and killed.
    pub stall_timeout: Duration,
    /// Wall-clock budget of one worker incarnation; exceeding it is treated
    /// like a stall (killed, restarted, budget permitting).
    pub shard_deadline: Duration,
    /// The executable spawned as the worker (normally
    /// `std::env::current_exe()`; tests pass the `scenarios` binary).
    pub worker_exe: PathBuf,
    /// Directory for worker status files (created if missing).
    pub status_dir: PathBuf,
    /// Fault plan forwarded to workers (cell/store faults via the
    /// `FLYWHEEL_FAULTS` environment, process faults via `--proc-fault`).
    pub faults: Option<FaultPlan>,
    /// When set, workers arm kernel telemetry and write it to per-shard
    /// event logs (`<base>.shard-K`), merged into the log at this base path
    /// after the sweep. `None` (the default) leaves telemetry disarmed and
    /// the sweep byte-identical to a build without it.
    pub telemetry: Option<PathBuf>,
}

impl SupervisorConfig {
    /// A config with production-shaped defaults for `shards` workers spawned
    /// from `worker_exe`, heartbeating under `status_dir`.
    pub fn new(shards: usize, worker_exe: PathBuf, status_dir: PathBuf) -> Self {
        SupervisorConfig {
            shards,
            max_restarts: 2,
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(2),
            stall_timeout: Duration::from_secs(10),
            shard_deadline: Duration::from_secs(120),
            worker_exe,
            status_dir,
            faults: None,
            telemetry: None,
        }
    }
}

/// One entry of the supervisor's event log. Per shard, the sequence of events
/// is deterministic for a fixed (scenario, config, fault plan); ordering
/// *across* shards depends on OS scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorEvent {
    /// Incarnation `incarnation` (1-based) of the shard's worker started.
    Spawned {
        /// Shard index.
        shard: usize,
        /// 1-based incarnation counter.
        incarnation: u32,
    },
    /// The worker exited without finishing its shard.
    Crashed {
        /// Shard index.
        shard: usize,
        /// Incarnation that died.
        incarnation: u32,
        /// Exit-status description (e.g. `signal: 9 (SIGKILL)`).
        reason: String,
    },
    /// The worker's heartbeat stopped advancing and it was killed.
    Stalled {
        /// Shard index.
        shard: usize,
        /// Incarnation that stalled.
        incarnation: u32,
    },
    /// The worker outlived the per-incarnation wall budget and was killed.
    DeadlineExceeded {
        /// Shard index.
        shard: usize,
        /// Incarnation that was killed.
        incarnation: u32,
    },
    /// A replacement incarnation was scheduled after a backoff.
    Restarting {
        /// Shard index.
        shard: usize,
        /// Incarnation that will be spawned next.
        incarnation: u32,
        /// Backoff waited before the spawn, in milliseconds.
        backoff_ms: u64,
    },
    /// The shard's worker finished the shard.
    ShardDone {
        /// Shard index.
        shard: usize,
        /// Incarnation that finished.
        incarnation: u32,
    },
    /// The shard exhausted its restart budget; the sweep degrades.
    ShardFailed {
        /// Shard index.
        shard: usize,
    },
}

impl SupervisorEvent {
    /// The shard the event belongs to.
    pub fn shard(&self) -> usize {
        match *self {
            SupervisorEvent::Spawned { shard, .. }
            | SupervisorEvent::Crashed { shard, .. }
            | SupervisorEvent::Stalled { shard, .. }
            | SupervisorEvent::DeadlineExceeded { shard, .. }
            | SupervisorEvent::Restarting { shard, .. }
            | SupervisorEvent::ShardDone { shard, .. }
            | SupervisorEvent::ShardFailed { shard } => shard,
        }
    }

    /// Compact `kind` tag (used by logs and the determinism tests, which
    /// compare per-shard kind sequences — crash *reasons* can legitimately
    /// vary in wording across platforms).
    pub fn kind(&self) -> &'static str {
        match self {
            SupervisorEvent::Spawned { .. } => "spawned",
            SupervisorEvent::Crashed { .. } => "crashed",
            SupervisorEvent::Stalled { .. } => "stalled",
            SupervisorEvent::DeadlineExceeded { .. } => "deadline",
            SupervisorEvent::Restarting { .. } => "restarting",
            SupervisorEvent::ShardDone { .. } => "done",
            SupervisorEvent::ShardFailed { .. } => "failed",
        }
    }

    /// One-line human description.
    pub fn describe(&self) -> String {
        match self {
            SupervisorEvent::Spawned { shard, incarnation } => {
                format!("shard {shard}: spawned incarnation {incarnation}")
            }
            SupervisorEvent::Crashed {
                shard,
                incarnation,
                reason,
            } => format!("shard {shard}: incarnation {incarnation} crashed ({reason})"),
            SupervisorEvent::Stalled { shard, incarnation } => {
                format!("shard {shard}: incarnation {incarnation} stalled; killed")
            }
            SupervisorEvent::DeadlineExceeded { shard, incarnation } => {
                format!("shard {shard}: incarnation {incarnation} exceeded its deadline; killed")
            }
            SupervisorEvent::Restarting {
                shard,
                incarnation,
                backoff_ms,
            } => format!(
                "shard {shard}: restarting (incarnation {incarnation}) after {backoff_ms} ms"
            ),
            SupervisorEvent::ShardDone { shard, incarnation } => {
                format!("shard {shard}: done (incarnation {incarnation})")
            }
            SupervisorEvent::ShardFailed { shard } => {
                format!("shard {shard}: restart budget exhausted; degrading")
            }
        }
    }
}

/// A grid cell that has no record in the merged store after the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFailedCell {
    /// Shard the cell belonged to.
    pub shard: usize,
    /// The cell's label.
    pub label: String,
    /// Failure kind: `panic`/`timeout` (from the worker's manifest) or
    /// `shard-failed` when the whole shard exhausted its restart budget.
    pub kind: String,
    /// Human-readable cause.
    pub message: String,
}

/// What a supervised sweep did.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Shard count the grid was split into.
    pub shards: usize,
    /// Grid cells in total.
    pub cells: usize,
    /// Cells already warm in the main store before any worker was spawned.
    pub warm_cells: usize,
    /// Cells recalled from shard stores by workers (healing hits).
    pub hits: usize,
    /// Cells simulated by workers.
    pub simulated: usize,
    /// Total worker restarts across all shards.
    pub restarts: u32,
    /// Shards that exhausted their restart budget.
    pub failed_shards: Vec<usize>,
    /// Cells with no record in the merged store, with best-known causes.
    pub failed_cells: Vec<SweepFailedCell>,
    /// The full supervisor event log (interleaved across shards).
    pub events: Vec<SupervisorEvent>,
    /// Paths of the per-shard stores (kept for post-mortems and fsck).
    pub shard_stores: Vec<PathBuf>,
}

impl SweepOutcome {
    /// Whether every cell of the grid has a record in the merged store.
    pub fn is_complete(&self) -> bool {
        self.failed_cells.is_empty() && self.failed_shards.is_empty()
    }
}

/// Why a supervised sweep could not produce a merged store.
#[derive(Debug)]
pub enum SweepError {
    /// The scenario failed validation or spec round-trip.
    Scenario(String),
    /// Opening/writing a store failed.
    Store(StoreError),
    /// Unioning the shard stores failed (conflict or I/O).
    Merge(MergeError),
    /// Spawning a worker process failed.
    Spawn {
        /// Shard whose worker could not be spawned.
        shard: usize,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// Merging the per-shard telemetry event logs failed.
    Telemetry(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Scenario(e) => write!(f, "invalid scenario: {e}"),
            SweepError::Store(e) => write!(f, "sweep store error: {e}"),
            SweepError::Merge(e) => write!(f, "sweep merge error: {e}"),
            SweepError::Spawn { shard, source } => {
                write!(f, "could not spawn worker for shard {shard}: {source}")
            }
            SweepError::Telemetry(e) => write!(f, "sweep telemetry error: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<StoreError> for SweepError {
    fn from(e: StoreError) -> Self {
        SweepError::Store(e)
    }
}

impl From<MergeError> for SweepError {
    fn from(e: MergeError) -> Self {
        SweepError::Merge(e)
    }
}

/// Book-keeping for one shard's worker lifecycle.
struct ShardState {
    child: Option<Child>,
    incarnation: u32,
    spawned_at: Instant,
    last_beat: u64,
    last_beat_at: Instant,
    next_spawn_at: Option<Instant>,
    done: bool,
    failed: bool,
}

/// Runs `scenario` as a supervised multi-process sharded sweep into the store
/// at `store_path`, healing crashes per `cfg`. `on_event` observes the event
/// log live (the same events are returned in the outcome).
///
/// Cells already present in the store are not re-swept; a fully warm store
/// spawns no workers at all. On completion the shard stores are merged into
/// `store_path` in shard order (byte-deterministic) and left on disk for
/// inspection.
pub fn run_supervised(
    scenario: &Scenario,
    store_path: &Path,
    cfg: &SupervisorConfig,
    mut on_event: impl FnMut(&SupervisorEvent),
) -> Result<SweepOutcome, SweepError> {
    scenario.validate().map_err(SweepError::Scenario)?;
    let shards = cfg.shards.max(1);
    let spec = scenario_to_spec(scenario).map_err(|e| SweepError::Scenario(e.to_string()))?;
    let budget = scenario.budget;
    let grid = scenario.expand();

    let mut main_store = ResultStore::open(store_path)?;
    let keys: Vec<_> = grid.iter().map(|c| c.key(budget)).collect();
    let warm_cells = keys.iter().filter(|k| main_store.contains(k)).count();

    let mut events: Vec<SupervisorEvent> = Vec::new();
    let shard_stores: Vec<PathBuf> = (0..shards)
        .map(|k| shard_store_path(store_path, k))
        .collect();

    let mut outcome = SweepOutcome {
        shards,
        cells: grid.len(),
        warm_cells,
        hits: 0,
        simulated: 0,
        restarts: 0,
        failed_shards: Vec::new(),
        failed_cells: Vec::new(),
        events: Vec::new(),
        shard_stores: shard_stores.clone(),
    };

    if warm_cells < grid.len() {
        std::fs::create_dir_all(&cfg.status_dir)
            .map_err(|e| StoreError::io("status-dir", &cfg.status_dir)(e))?;

        // Pre-seed each shard store with the main store's warm records for
        // that shard, so partially-warm sweeps only simulate what is missing.
        for (k, shard_store) in shard_stores.iter().enumerate() {
            let warm: Vec<usize> = (k..grid.len())
                .step_by(shards)
                .filter(|&i| main_store.contains(&keys[i]))
                .collect();
            if warm.is_empty() {
                continue;
            }
            let mut store = ResultStore::open(shard_store)?;
            for i in warm {
                if !store.contains(&keys[i]) {
                    if let Some(stats) = main_store.get(&keys[i]) {
                        store.insert(keys[i], &grid[i].label(), stats.clone())?;
                    }
                }
            }
        }

        // Cell/store faults travel to workers by environment; process faults
        // are assigned to shards here and travel by argv.
        let cell_fault_env: Option<String> = cfg.faults.as_ref().map(|p| {
            let mut p = p.clone();
            p.abort_shards = 0;
            p.sigkill_shards = 0;
            p.hang_shards = 0;
            p.persist_proc = false;
            p.to_spec()
        });
        let shard_faults: Vec<Option<ProcFault>> = match &cfg.faults {
            Some(plan) => fault::assign_shard_faults(plan, shards),
            None => vec![None; shards],
        };
        let persist_proc = cfg.faults.as_ref().is_some_and(|p| p.persist_proc);
        let shard_len = |k: usize| (k..grid.len()).step_by(shards).count();

        let spawn = |shard: usize, incarnation: u32| -> Result<Child, SweepError> {
            let mut cmd = Command::new(&cfg.worker_exe);
            cmd.arg(WORKER_ARGV)
                .arg("--spec")
                .arg(&spec)
                .arg("--shard")
                .arg(shard.to_string())
                .arg("--shards")
                .arg(shards.to_string())
                .arg("--store")
                .arg(&shard_stores[shard])
                .arg("--status")
                .arg(shard_status_path(&cfg.status_dir, shard));
            if let Some(base) = &cfg.telemetry {
                cmd.arg("--telemetry")
                    .arg(shard_telemetry_path(base, shard));
            }
            // Inject the process fault on the first incarnation only, unless
            // the plan says it persists across restarts.
            if let Some(f) = shard_faults[shard] {
                if incarnation == 1 || persist_proc {
                    cmd.arg("--proc-fault")
                        .arg(format!("{}@{}", f.name(), shard_len(shard) / 2));
                }
            }
            match &cell_fault_env {
                Some(spec) if !spec.is_empty() => {
                    cmd.env("FLYWHEEL_FAULTS", spec);
                }
                _ => {
                    cmd.env_remove("FLYWHEEL_FAULTS");
                }
            }
            cmd.spawn()
                .map_err(|source| SweepError::Spawn { shard, source })
        };

        let now = Instant::now();
        let mut states: Vec<ShardState> = (0..shards)
            .map(|_| ShardState {
                child: None,
                incarnation: 0,
                spawned_at: now,
                last_beat: 0,
                last_beat_at: now,
                next_spawn_at: Some(now),
                done: false,
                failed: false,
            })
            .collect();

        let mut emit = |e: SupervisorEvent, events: &mut Vec<SupervisorEvent>| {
            on_event(&e);
            events.push(e);
        };

        while states.iter().any(|s| !s.done && !s.failed) {
            // Index rather than iter_mut(): the body re-borrows `states[shard]`
            // around process spawns and event emission, so one long &mut over
            // the vector would not borrow-check.
            #[allow(clippy::needless_range_loop)]
            for shard in 0..shards {
                // Split-borrow dance: decide on a copy of the scheduling
                // state, then mutate.
                if states[shard].done || states[shard].failed {
                    continue;
                }
                let now = Instant::now();
                if states[shard].child.is_none() {
                    if states[shard].next_spawn_at.is_some_and(|t| now >= t) {
                        let incarnation = states[shard].incarnation + 1;
                        let child = spawn(shard, incarnation)?;
                        let s = &mut states[shard];
                        s.child = Some(child);
                        s.incarnation = incarnation;
                        s.spawned_at = now;
                        s.last_beat = 0;
                        s.last_beat_at = now;
                        s.next_spawn_at = None;
                        emit(SupervisorEvent::Spawned { shard, incarnation }, &mut events);
                    }
                    continue;
                }

                let incarnation = states[shard].incarnation;
                let status = WorkerStatus::read(&shard_status_path(&cfg.status_dir, shard))
                    .ok()
                    .flatten();
                let exited = states[shard]
                    .child
                    .as_mut()
                    .and_then(|c| c.try_wait().ok().flatten());
                match exited {
                    Some(exit) => {
                        states[shard].child = None;
                        let finished = exit.success()
                            && status
                                .as_ref()
                                .is_some_and(|s| s.state == WorkerState::Done);
                        if finished {
                            states[shard].done = true;
                            emit(
                                SupervisorEvent::ShardDone { shard, incarnation },
                                &mut events,
                            );
                        } else {
                            emit(
                                SupervisorEvent::Crashed {
                                    shard,
                                    incarnation,
                                    reason: exit.to_string(),
                                },
                                &mut events,
                            );
                            schedule_restart(cfg, &mut states[shard], shard, &mut |e| {
                                emit(e, &mut events)
                            });
                        }
                    }
                    None => {
                        if let Some(s) = &status {
                            if s.beat > states[shard].last_beat {
                                states[shard].last_beat = s.beat;
                                states[shard].last_beat_at = now;
                            }
                        }
                        let stalled =
                            now.duration_since(states[shard].last_beat_at) > cfg.stall_timeout;
                        let over_deadline =
                            now.duration_since(states[shard].spawned_at) > cfg.shard_deadline;
                        if stalled || over_deadline {
                            if let Some(child) = &mut states[shard].child {
                                let _ = child.kill();
                                let _ = child.wait();
                            }
                            states[shard].child = None;
                            let event = if stalled {
                                SupervisorEvent::Stalled { shard, incarnation }
                            } else {
                                SupervisorEvent::DeadlineExceeded { shard, incarnation }
                            };
                            emit(event, &mut events);
                            schedule_restart(cfg, &mut states[shard], shard, &mut |e| {
                                emit(e, &mut events)
                            });
                        }
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }

        outcome.restarts = states.iter().map(|s| s.incarnation.saturating_sub(1)).sum();
        outcome.failed_shards = (0..shards).filter(|&k| states[k].failed).collect();
    }

    // Union every shard store that exists — including partial stores of
    // failed shards, so no valid record a dead worker landed is ever lost.
    // Merging in shard order keeps the merged bytes deterministic. A fully
    // warm sweep spawned nothing and merges nothing new.
    for shard_store in &shard_stores {
        if !shard_store.exists() {
            continue;
        }
        let (other, _report) = ResultStore::open_recovering(shard_store)?;
        main_store.merge(&other)?;
    }

    // Fold the per-shard telemetry logs into the main event log, in shard
    // order (missing shard logs — warm shards, dead-before-install workers —
    // are skipped).
    if let Some(base) = &cfg.telemetry {
        let shard_logs: Vec<PathBuf> = (0..shards).map(|k| shard_telemetry_path(base, k)).collect();
        crate::telemetry::merge_telemetry_logs(base, &shard_logs).map_err(SweepError::Telemetry)?;
    }

    // Gather worker progress + failure manifests from the final status files
    // (skipped on the fully-warm path, where any status files on disk are
    // stale leftovers of an earlier sweep).
    let mut manifests: HashMap<String, WorkerFailedCell> = HashMap::new();
    if warm_cells < grid.len() {
        for shard in 0..shards {
            if let Ok(Some(status)) = WorkerStatus::read(&shard_status_path(&cfg.status_dir, shard))
            {
                outcome.hits += status.hits;
                outcome.simulated += status.simulated;
                for f in status.failed {
                    manifests.insert(f.label.clone(), f);
                }
            }
        }
    }

    // Anything still missing from the merged store is a failed cell; report
    // the worker's recorded cause when it has one, otherwise attribute it to
    // the shard's exhausted restart budget.
    for (i, cell) in grid.iter().enumerate() {
        if main_store.contains(&keys[i]) {
            continue;
        }
        let shard = i % shards;
        let label = cell.label();
        let failed = match manifests.get(&label) {
            Some(m) => SweepFailedCell {
                shard,
                label,
                kind: m.kind.clone(),
                message: m.message.clone(),
            },
            None => SweepFailedCell {
                shard,
                label,
                kind: "shard-failed".to_owned(),
                message: format!("shard {shard} exhausted its restart budget"),
            },
        };
        outcome.failed_cells.push(failed);
    }

    outcome.events = events;
    Ok(outcome)
}

/// Schedules the next incarnation of a crashed/stalled shard, or declares the
/// shard failed when the restart budget is exhausted.
fn schedule_restart(
    cfg: &SupervisorConfig,
    state: &mut ShardState,
    shard: usize,
    emit: &mut impl FnMut(SupervisorEvent),
) {
    if state.incarnation > cfg.max_restarts {
        state.failed = true;
        emit(SupervisorEvent::ShardFailed { shard });
        return;
    }
    let backoff = cfg
        .backoff
        .saturating_mul(1 << (state.incarnation.saturating_sub(1)).min(16))
        .min(cfg.backoff_cap);
    state.next_spawn_at = Some(Instant::now() + backoff);
    emit(SupervisorEvent::Restarting {
        shard,
        incarnation: state.incarnation + 1,
        backoff_ms: backoff.as_millis() as u64,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_files_round_trip() {
        let mut s = WorkerStatus::new(2, 4, 10);
        s.beat = 17;
        s.done = 5;
        s.hits = 3;
        s.simulated = 2;
        s.failed.push(WorkerFailedCell {
            attempts: 3,
            kind: "panic".to_owned(),
            label: "flywheel/gzip/s1/130nm/FE0+BE0/iw128rob128/ec128K/mem100".to_owned(),
            message: "fault injection: forced panic in cell x (attempt 2)".to_owned(),
        });
        let dir = std::env::temp_dir().join(format!("fw-status-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-2.status");
        s.write(&path).unwrap();
        let back = WorkerStatus::read(&path).unwrap().unwrap();
        assert_eq!(back, s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn write_status(tag: &str, body: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fw-status-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.status");
        std::fs::write(&path, format!("{STATUS_SCHEMA}\n{body}")).unwrap();
        path
    }

    #[test]
    fn duplicate_status_keys_are_rejected() {
        // Last-wins would let a doubled write smuggle in a stale heartbeat.
        let path = write_status("dup", "pid=1\nshard=0\nshards=1\nbeat=5\nbeat=900\n");
        let err = WorkerStatus::read(&path).unwrap_err();
        assert_eq!(
            err,
            StatusParseError::DuplicateKey {
                path: path.clone(),
                key: "beat".to_owned()
            },
            "{err}"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn out_of_range_status_numbers_are_rejected() {
        // 2^32 does not fit a u32 pid; `as u32` would silently wrap it to 0.
        let path = write_status("oor", "pid=4294967296\n");
        let err = WorkerStatus::read(&path).unwrap_err();
        assert!(
            matches!(err, StatusParseError::OutOfRange { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("out of range"), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn unparseable_status_numbers_are_rejected() {
        let path = write_status("nan", "beat=soon\n");
        let err = WorkerStatus::read(&path).unwrap_err();
        assert!(matches!(err, StatusParseError::BadNumber { .. }), "{err:?}");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn unknown_status_fields_are_rejected() {
        let path = write_status("unk", "pid=1\nmood=great\n");
        let err = WorkerStatus::read(&path).unwrap_err();
        assert_eq!(
            err,
            StatusParseError::UnknownField {
                path: path.clone(),
                field: "mood".to_owned()
            }
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn repeated_manifest_lines_are_allowed() {
        // `failed` lines are a list, not a key: several must coexist while
        // the scalar fields stay single-shot.
        let path = write_status(
            "manifest",
            "pid=1\nfailed 3 panic cell/a boom\nfailed 2 timeout cell/b wedged\n",
        );
        let status = WorkerStatus::read(&path).unwrap().unwrap();
        assert_eq!(status.failed.len(), 2);
        assert_eq!(status.failed[1].kind, "timeout");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn missing_status_file_reads_as_none() {
        assert_eq!(
            WorkerStatus::read(Path::new("/nonexistent/shard-0.status")).unwrap(),
            None
        );
    }

    #[test]
    fn shard_paths_are_stable() {
        assert_eq!(
            shard_store_path(Path::new("/tmp/results.store"), 3),
            PathBuf::from("/tmp/results.store.shard-3")
        );
        assert_eq!(
            shard_status_path(Path::new("/tmp/status"), 3),
            PathBuf::from("/tmp/status/shard-3.status")
        );
    }
}
