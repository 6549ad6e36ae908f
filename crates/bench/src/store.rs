//! Persistent, content-addressed store of simulation results.
//!
//! Every evaluation cell — one (machine configuration, workload, seed, budget)
//! simulation — is fully deterministic, so its result is a pure function of its
//! inputs. This module gives that function a durable memo table:
//!
//! * [`StoreKey`] — a 128-bit FNV-1a hash of the cell's *complete* input: the
//!   simulator, the full machine configuration (via its canonical `Debug`
//!   rendering, which covers every structural/clocking knob), the workload and
//!   seed, the instruction budget, and a code-version salt derived from the
//!   committed `golden.txt` digest. Touch any input — or change simulator
//!   behaviour (which regenerates `golden.txt`) — and the key changes, so stale
//!   records can never be served.
//! * [`RunStats`] — the serializable record of one run: the full [`SimResult`]
//!   plus the [`FlywheelStats`] when the cell ran a Flywheel-family machine.
//!   Floats are stored as IEEE-754 bit patterns, so a record read back from
//!   disk is *bit-identical* to the freshly simulated result.
//! * [`ResultStore`] — an append-only, line-oriented on-disk store
//!   (hand-rolled serialization; the build container has no registry access
//!   for serde, mirroring `flywheel-rng`'s approach to `rand`).
//!
//! Every cell reaches the store through
//! [`Scenario::run_with_store`](crate::scenario::Scenario::run_with_store),
//! keyed by [`Executor::key`](crate::executor::Executor::key). The
//! `scenarios` and `experiments` binaries take `--store PATH`, so a re-run
//! after touching one workload only simulates the affected cells; the
//! `flywheel-report` crate renders the Markdown figure tables from the same
//! records through the same scenario presets.

use flywheel_core::{FlywheelResult, FlywheelStats};
use flywheel_uarch::{SimBudget, SimResult};
use flywheel_workloads::Benchmark;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a store operation failed. Every fallible store entry point returns this
/// instead of panicking (or leaking a bare [`std::io::Error`]), so a bad disk
/// surfaces to sweep executors and workers as a recoverable, reportable value —
/// a worker process can degrade or retry instead of dying.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation on the backing file failed.
    Io {
        /// What the store was doing (`open`, `append`, `rewrite`, …).
        op: &'static str,
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file carries a schema header this build does not understand — a
    /// foreign file that should be noticed, never repaired or overwritten.
    UnknownSchema {
        /// The offending file.
        path: PathBuf,
        /// The header line that was found.
        found: String,
    },
}

impl StoreError {
    pub(crate) fn io(op: &'static str, path: &Path) -> impl FnOnce(std::io::Error) -> StoreError {
        let path = path.to_path_buf();
        move |source| StoreError::Io { op, path, source }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "store {} failed on {}: {source}", op, path.display())
            }
            StoreError::UnknownSchema { path, found } => write!(
                f,
                "store {}: unknown schema '{found}' (expected '{STORE_SCHEMA}')",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::UnknownSchema { .. } => None,
        }
    }
}

/// On-disk schema version. Bump when the record line format changes; a store
/// written by an unknown schema is rejected at [`ResultStore::open`] time
/// (the immediately preceding version is migrated in place instead).
///
/// v2: `EnergyBreakdown` leakage is attributed — the single `leakage_pj` field
/// became three per-category components (front-end, back-end, Flywheel-only).
///
/// v3: per-record framing — every record line carries its payload length and
/// CRC32 (`<len:08x> <crc:08x> <payload>`), so a torn append or a flipped bit
/// is detected at open time and quarantined instead of poisoning the store.
pub const STORE_SCHEMA: &str = "flywheel-store/3";

/// The previous schema, accepted read-only: a v2 store is migrated to v3 (an
/// atomic full rewrite) the first time it is opened. The v2 record payload is
/// byte-identical to v3's, so migration only adds the framing prefix.
const STORE_SCHEMA_V2: &str = "flywheel-store/2";

/// The committed golden digest, compiled in so the code-version salt tracks
/// simulator behaviour: regenerating `golden.txt` (the required step whenever
/// simulation results legitimately change) automatically invalidates every
/// stored key.
const GOLDEN_DIGEST: &str = include_str!("../../../golden.txt");

/// The code-version salt mixed into every [`StoreKey`]: an FNV-1a hash of the
/// committed `golden.txt`. Two builds whose simulators behave differently
/// cannot share store records.
pub fn code_version_salt() -> u64 {
    static SALT: AtomicU64 = AtomicU64::new(0);
    let cached = SALT.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let salt = fnv1a64(FNV_OFFSET, GOLDEN_DIGEST.as_bytes()) | 1;
    SALT.store(salt, Ordering::Relaxed);
    salt
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a with a caller-supplied seed folded into the offset basis; the fault
/// harness uses it to rank cell labels deterministically per plan seed.
pub(crate) fn fnv1a64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    fnv1a64(FNV_OFFSET ^ seed, bytes)
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), hand-rolled like the
/// rest of the serialization because the build container has no registry
/// access. Matches the ubiquitous zlib/`cksum -o3` definition, so a store can
/// be checked with external tooling too.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Wraps a record payload in the v3 per-record framing:
/// `<payload-len:08x> <payload-crc32:08x> <payload>`.
///
/// Shared with the telemetry event log ([`crate::telemetry`]), which frames
/// its lines identically so one fsck routine understands both files.
pub(crate) fn frame_payload(payload: &str) -> String {
    format!(
        "{:08x} {:08x} {payload}",
        payload.len(),
        crc32(payload.as_bytes())
    )
}

/// Validates and strips the v3 framing from one record line (without its
/// newline), returning the payload. `None` means the line is damaged: too
/// short, malformed hex, a length mismatch (torn write) or a CRC mismatch
/// (bit rot / flipped bits).
pub(crate) fn unframe_line(line: &[u8]) -> Option<&str> {
    if line.len() < 18 || line[8] != b' ' || line[17] != b' ' {
        return None;
    }
    let len = u32::from_str_radix(std::str::from_utf8(&line[..8]).ok()?, 16).ok()?;
    let crc = u32::from_str_radix(std::str::from_utf8(&line[9..17]).ok()?, 16).ok()?;
    let payload = &line[18..];
    if payload.len() as u32 != len || crc32(payload) != crc {
        return None;
    }
    std::str::from_utf8(payload).ok()
}

/// Parses a record payload (`<key-hex> <label> <fields…>`) common to v2 lines
/// and v3 payloads.
fn parse_payload(payload: &str) -> Option<(StoreKey, &str, RunStats)> {
    let mut fields = payload.split_whitespace();
    let key = StoreKey::from_hex(fields.next()?)?;
    let label = fields.next()?;
    let stats = RunStats::parse_fields(&mut fields)?;
    Some((key, label, stats))
}

/// A 128-bit content address of one simulation's complete input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreKey(pub u64, pub u64);

impl StoreKey {
    /// Hashes a canonical input string into a key (two independent FNV-1a
    /// streams; 128 bits make collisions implausible at any realistic store
    /// size).
    pub fn of_input(input: &str) -> StoreKey {
        let lo = fnv1a64(FNV_OFFSET, input.as_bytes());
        // Second lane: different offset basis (the first lane's output folded
        // in) so the two halves are independent functions of the input.
        let hi = fnv1a64(
            FNV_OFFSET ^ lo.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15,
            input.as_bytes(),
        );
        StoreKey(hi, lo)
    }

    /// The key as fixed-width hex (32 characters).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }

    /// Parses a key from its [`StoreKey::hex`] form.
    pub fn from_hex(s: &str) -> Option<StoreKey> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(StoreKey(hi, lo))
    }
}

/// The canonical input string hashed into a cell key for any machine family.
///
/// `simulator` is the [simulator name](crate::executor::Executor::simulator) and
/// `config_debug` the `Debug` rendering of the machine configuration. The
/// configuration enters through its `Debug` rendering because it is
/// exhaustive (every public knob appears), deterministic, and changes
/// whenever the config structure itself changes — exactly the invalidation
/// behaviour a content-addressed key needs.
pub fn family_input(
    simulator: &str,
    config_debug: &str,
    bench: Benchmark,
    seed: u64,
    budget: SimBudget,
) -> String {
    format!(
        "salt={:016x}\nmachine={simulator}\nconfig={config_debug}\nbench={}\nseed={seed}\nwarmup={}\nmeasured={}\n",
        code_version_salt(),
        bench.name(),
        budget.warmup_instructions,
        budget.measured_instructions,
    )
}

/// The content address of a cell for any machine family (see [`family_input`]).
pub fn family_key(
    simulator: &str,
    config_debug: &str,
    bench: Benchmark,
    seed: u64,
    budget: SimBudget,
) -> StoreKey {
    StoreKey::of_input(&family_input(simulator, config_debug, bench, seed, budget))
}

/// One stored simulation record: the machine-independent result plus the
/// Flywheel statistics when the run was a Flywheel-family machine.
///
/// Round-trips through the store bit-identically (floats are serialized as
/// their IEEE-754 bit patterns).
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Performance/energy/pipeline statistics.
    pub sim: SimResult,
    /// Flywheel-specific statistics (`None` for baseline-family machines).
    pub flywheel: Option<FlywheelStats>,
}

impl RunStats {
    /// Wraps a baseline result.
    pub fn from_baseline(sim: SimResult) -> Self {
        RunStats {
            sim,
            flywheel: None,
        }
    }

    /// Wraps a Flywheel result.
    pub fn from_flywheel(r: &FlywheelResult) -> Self {
        RunStats {
            sim: r.sim.clone(),
            flywheel: Some(r.flywheel),
        }
    }

    /// Reassembles a [`FlywheelResult`] (when the record holds Flywheel stats).
    pub fn to_flywheel_result(&self) -> Option<FlywheelResult> {
        self.flywheel.as_ref().map(|f| FlywheelResult {
            sim: self.sim.clone(),
            flywheel: *f,
        })
    }

    fn serialize_into(&self, out: &mut String) {
        let s = &self.sim;
        let u = |out: &mut String, v: u64| {
            let _ = write!(out, " {v}");
        };
        let f = |out: &mut String, v: f64| {
            let _ = write!(out, " f{:016x}", v.to_bits());
        };
        u(out, s.instructions);
        u(out, s.be_cycles);
        u(out, s.fe_cycles);
        u(out, s.elapsed_ps);
        u(out, s.squashed);
        u(out, s.bpred.cond_predictions);
        u(out, s.bpred.cond_mispredicts);
        u(out, s.bpred.target_mispredicts);
        u(out, s.bpred.total_ctrl);
        u(out, s.caches.l1i.0);
        u(out, s.caches.l1i.1);
        u(out, s.caches.l1d.0);
        u(out, s.caches.l1d.1);
        u(out, s.caches.l2.0);
        u(out, s.caches.l2.1);
        f(out, s.energy.frontend_pj);
        f(out, s.energy.backend_pj);
        f(out, s.energy.flywheel_pj);
        f(out, s.energy.clock_pj);
        f(out, s.energy.leakage_frontend_pj);
        f(out, s.energy.leakage_backend_pj);
        f(out, s.energy.leakage_flywheel_pj);
        u(out, s.energy.elapsed_ps);
        f(out, s.gated_frontend_fraction);
        if let Some(w) = &self.flywheel {
            out.push_str(" F");
            u(out, w.exec_mode_ps);
            u(out, w.creation_mode_ps);
            f(out, w.ec_residency);
            u(out, w.ec_lookups);
            u(out, w.ec_hits);
            u(out, w.traces_stored);
            f(out, w.ec_utilization);
            u(out, w.trace_switches);
            u(out, w.trace_divergences);
            u(out, w.pool_stalls);
            u(out, w.redistributions);
        } else {
            out.push_str(" B");
        }
    }

    fn parse_fields(fields: &mut std::str::SplitWhitespace<'_>) -> Option<RunStats> {
        fn u(fields: &mut std::str::SplitWhitespace<'_>) -> Option<u64> {
            fields.next()?.parse().ok()
        }
        fn f(fields: &mut std::str::SplitWhitespace<'_>) -> Option<f64> {
            let s = fields.next()?.strip_prefix('f')?;
            Some(f64::from_bits(u64::from_str_radix(s, 16).ok()?))
        }
        let mut sim = SimResult {
            instructions: u(fields)?,
            be_cycles: u(fields)?,
            fe_cycles: u(fields)?,
            elapsed_ps: u(fields)?,
            squashed: u(fields)?,
            bpred: Default::default(),
            caches: Default::default(),
            energy: Default::default(),
            gated_frontend_fraction: 0.0,
        };
        sim.bpred.cond_predictions = u(fields)?;
        sim.bpred.cond_mispredicts = u(fields)?;
        sim.bpred.target_mispredicts = u(fields)?;
        sim.bpred.total_ctrl = u(fields)?;
        sim.caches.l1i = (u(fields)?, u(fields)?);
        sim.caches.l1d = (u(fields)?, u(fields)?);
        sim.caches.l2 = (u(fields)?, u(fields)?);
        sim.energy.frontend_pj = f(fields)?;
        sim.energy.backend_pj = f(fields)?;
        sim.energy.flywheel_pj = f(fields)?;
        sim.energy.clock_pj = f(fields)?;
        sim.energy.leakage_frontend_pj = f(fields)?;
        sim.energy.leakage_backend_pj = f(fields)?;
        sim.energy.leakage_flywheel_pj = f(fields)?;
        sim.energy.elapsed_ps = u(fields)?;
        sim.gated_frontend_fraction = f(fields)?;
        let flywheel = match fields.next()? {
            "B" => None,
            "F" => Some(FlywheelStats {
                exec_mode_ps: u(fields)?,
                creation_mode_ps: u(fields)?,
                ec_residency: f(fields)?,
                ec_lookups: u(fields)?,
                ec_hits: u(fields)?,
                traces_stored: u(fields)?,
                ec_utilization: f(fields)?,
                trace_switches: u(fields)?,
                trace_divergences: u(fields)?,
                pool_stalls: u(fields)?,
                redistributions: u(fields)?,
            }),
            _ => return None,
        };
        if fields.next().is_some() {
            return None; // trailing garbage
        }
        Some(RunStats { sim, flywheel })
    }
}

/// A persistent, append-only map from [`StoreKey`] to [`RunStats`].
///
/// The on-disk format is one header line ([`STORE_SCHEMA`]) followed by one
/// framed record per line: `<len:08x> <crc:08x> <key-hex> <label> <fields…>`,
/// where the length and CRC32 cover the payload after them. The label is
/// informational only (a human-readable cell description); lookups go by key.
/// Records are only ever appended — a re-run with changed inputs appends new
/// keys and the old records simply stop being addressed. Damage (torn
/// appends, flipped bits) is detected by the framing at open time and
/// recovered, not fatal; see [`ResultStore::open_recovering`].
///
/// ```
/// use flywheel_bench::store::{ResultStore, RunStats, StoreKey};
/// # use flywheel_uarch::SimResult;
/// let mut store = ResultStore::in_memory();
/// let key = StoreKey::of_input("example");
/// assert!(store.get(&key).is_none());
/// let stats = RunStats::from_baseline(SimResult {
///     instructions: 1, be_cycles: 1, fe_cycles: 1, elapsed_ps: 1, squashed: 0,
///     bpred: Default::default(), caches: Default::default(),
///     energy: Default::default(), gated_frontend_fraction: 0.0,
/// });
/// store.insert(key, "doc/example", stats.clone()).unwrap();
/// assert_eq!(store.get(&key), Some(&stats));
/// ```
#[derive(Debug)]
pub struct ResultStore {
    records: HashMap<StoreKey, RunStats>,
    /// The (sanitized) label each key was last stored under — informational,
    /// preserved across reopen so merges and fsck can name records.
    labels: HashMap<StoreKey, String>,
    /// Opened lazily on the first insert, so read-only users (the `report
    /// --check` gate) never create or touch the backing file.
    appender: Option<BufWriter<File>>,
    /// Set when fault injection simulated an appender crash (torn write); the
    /// store keeps answering from memory but writes nothing further to disk.
    appender_dead: bool,
    /// Whether the schema header still has to be written before the first
    /// appended record (the backing file was absent or empty at open).
    needs_header: bool,
    path: Option<PathBuf>,
}

/// What [`ResultStore::open_recovering`] found and did. A healthy store
/// reports [`RecoveryReport::is_clean`] and guarantees no file was written.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Addressable records after the open (duplicates collapsed, latest wins).
    pub records: usize,
    /// Record lines that passed framing and parsed.
    pub valid_lines: usize,
    /// Damaged lines moved to the `.quarantine` file.
    pub quarantined_lines: usize,
    /// Total bytes of the quarantined lines.
    pub quarantined_bytes: usize,
    /// The store carried the previous schema and was rewritten as v3.
    pub migrated: bool,
    /// The backing file was rewritten (migration, quarantine, or torn tail).
    pub repaired: bool,
}

impl RecoveryReport {
    /// Whether the store was healthy: nothing quarantined, nothing rewritten.
    pub fn is_clean(&self) -> bool {
        self.quarantined_lines == 0 && !self.repaired
    }

    /// One-line human-readable summary (used by `fsck` and open warnings).
    pub fn describe(&self) -> String {
        if self.is_clean() {
            return format!("clean ({} records, schema {STORE_SCHEMA})", self.records);
        }
        let mut s = format!(
            "repaired: kept {} records ({} valid lines)",
            self.records, self.valid_lines
        );
        if self.quarantined_lines > 0 {
            let _ = write!(
                s,
                ", quarantined {} damaged line{} ({} bytes)",
                self.quarantined_lines,
                if self.quarantined_lines == 1 { "" } else { "s" },
                self.quarantined_bytes
            );
        }
        if self.migrated {
            let _ = write!(s, ", migrated from {STORE_SCHEMA_V2}");
        }
        s
    }
}

impl ResultStore {
    /// An unbacked store: lookups and inserts work, nothing touches the disk.
    /// Useful for tests and for running with memoization but no persistence.
    pub fn in_memory() -> Self {
        ResultStore {
            records: HashMap::new(),
            labels: HashMap::new(),
            appender: None,
            appender_dead: false,
            needs_header: false,
            path: None,
        }
    }

    /// Opens the store at `path`, recovering from damage instead of failing;
    /// prints a one-line notice to stderr when recovery had to act. See
    /// [`ResultStore::open_recovering`] for the exact semantics.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let (store, report) = Self::open_recovering(&path)?;
        if !report.is_clean() {
            eprintln!("store {}: {}", path.as_ref().display(), report.describe());
        }
        Ok(store)
    }

    /// Opens the store at `path` and loads every record, reporting what
    /// recovery (if any) was performed. A missing file is an empty store;
    /// nothing is created or written until the first [`ResultStore::insert`],
    /// so read-only use of a *healthy* store has no side effects.
    ///
    /// A damaged store is repaired rather than rejected — the normal failure
    /// mode of an append-only file is a crash mid-append, and losing every
    /// warm record to one torn line would defeat the store's purpose:
    ///
    /// * Record lines that fail their length/CRC framing (torn tail, flipped
    ///   bits) are appended verbatim to `<path>.quarantine` for post-mortems,
    ///   and the store is atomically rewritten (write temp, then rename) with
    ///   only the valid lines — equivalent to truncating to the last valid
    ///   record when the damage is a torn tail.
    /// * A previous-schema (`flywheel-store/2`) store is migrated: same
    ///   payloads, v3 framing.
    /// * A file that is a bare torn prefix of a schema header (a crash before
    ///   the first record of a brand-new store) recovers to an empty store.
    ///
    /// Only an unknown schema header or a real I/O error still fails (as a
    /// typed [`StoreError`]): a foreign file should be noticed, not destroyed.
    pub fn open_recovering(path: impl AsRef<Path>) -> Result<(Self, RecoveryReport), StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut report = RecoveryReport::default();
        let mut records = HashMap::new();
        let mut labels = HashMap::new();
        if !path.exists() {
            let store = ResultStore {
                records,
                labels,
                appender: None,
                appender_dead: false,
                needs_header: true,
                path: Some(path),
            };
            return Ok((store, report));
        }

        let data = std::fs::read(&path).map_err(StoreError::io("read", &path))?;
        // Valid record payloads in original file order (append-only history,
        // duplicates included) and damaged raw lines, for the rewrite.
        let mut kept: Vec<&str> = Vec::new();
        let mut damaged: Vec<&[u8]> = Vec::new();
        let mut fresh = data.is_empty();
        if let Some(header_chunk) = data.split_inclusive(|&b| b == b'\n').next() {
            let chunks = data.split_inclusive(|&b| b == b'\n').skip(1);
            let header_complete = header_chunk.ends_with(b"\n");
            let header_len = header_chunk.len() - usize::from(header_complete);
            let header = std::str::from_utf8(&header_chunk[..header_len]).ok();
            let v2 = match header {
                Some(STORE_SCHEMA) if header_complete => false,
                Some(STORE_SCHEMA_V2) if header_complete => {
                    report.migrated = true;
                    true
                }
                // A torn prefix of a header (necessarily the file's only
                // line: no newline means no further chunks) is a crash while
                // creating a brand-new store — recover to empty.
                Some(h)
                    if !header_complete
                        && (STORE_SCHEMA.starts_with(h) || STORE_SCHEMA_V2.starts_with(h)) =>
                {
                    report.quarantined_lines += 1;
                    report.quarantined_bytes += header_len;
                    damaged.push(&header_chunk[..header_len]);
                    report.repaired = true;
                    fresh = true;
                    false
                }
                _ => {
                    return Err(StoreError::UnknownSchema {
                        path,
                        found: header.unwrap_or("<non-utf8>").to_owned(),
                    });
                }
            };
            for chunk in chunks {
                let complete = chunk.ends_with(b"\n");
                let line = &chunk[..chunk.len() - usize::from(complete)];
                if line.is_empty() {
                    continue;
                }
                // A line without its newline is a torn append even if its
                // payload happens to check out: the writer emits the record
                // and its newline in one write.
                let payload = if !complete {
                    None
                } else if v2 {
                    std::str::from_utf8(line).ok()
                } else {
                    unframe_line(line)
                };
                match payload.and_then(|p| parse_payload(p).map(|r| (p, r))) {
                    Some((payload, (key, label, stats))) => {
                        report.valid_lines += 1;
                        kept.push(payload);
                        // Append-only updates: the latest record for a key wins.
                        records.insert(key, stats);
                        labels.insert(key, label.to_owned());
                    }
                    None => {
                        report.quarantined_lines += 1;
                        report.quarantined_bytes += line.len();
                        damaged.push(line);
                    }
                }
            }
        }

        report.records = records.len();
        if report.quarantined_lines > 0 || report.migrated {
            report.repaired = true;
            // Preserve the damaged bytes first, then atomically replace the
            // store, so no interleaving of crashes can lose information. (A
            // pure migration has nothing to quarantine and creates no file.)
            if !damaged.is_empty() {
                let quarantine_path = PathBuf::from(format!("{}.quarantine", path.display()));
                let q_err = |e| StoreError::io("quarantine", &quarantine_path)(e);
                let mut quarantine = BufWriter::new(
                    OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&quarantine_path)
                        .map_err(q_err)?,
                );
                for line in &damaged {
                    quarantine.write_all(line).map_err(q_err)?;
                    quarantine.write_all(b"\n").map_err(q_err)?;
                }
                quarantine.flush().map_err(q_err)?;
            }
            let tmp_path = PathBuf::from(format!("{}.tmp", path.display()));
            {
                let w_err = |e| StoreError::io("rewrite", &tmp_path)(e);
                let mut tmp = BufWriter::new(File::create(&tmp_path).map_err(w_err)?);
                writeln!(tmp, "{STORE_SCHEMA}").map_err(w_err)?;
                for payload in &kept {
                    writeln!(tmp, "{}", frame_payload(payload)).map_err(w_err)?;
                }
                tmp.flush().map_err(w_err)?;
                tmp.get_ref().sync_all().map_err(w_err)?;
            }
            std::fs::rename(&tmp_path, &path).map_err(StoreError::io("rename", &path))?;
            fresh = false;
        }

        let store = ResultStore {
            records,
            labels,
            appender: None,
            appender_dead: false,
            needs_header: fresh,
            path: Some(path),
        };
        Ok((store, report))
    }

    /// The backing file, if the store is disk-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of addressable records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record stored under `key`, if present.
    pub fn get(&self, key: &StoreKey) -> Option<&RunStats> {
        self.records.get(key)
    }

    /// Whether a record is stored under `key`.
    pub fn contains(&self, key: &StoreKey) -> bool {
        self.records.contains_key(key)
    }

    /// Inserts (and, when disk-backed, durably appends) a record.
    ///
    /// `label` is a human-readable cell description written next to the key
    /// for store debugging; whitespace is replaced (and an empty label gets a
    /// `-` placeholder) so the line always parses back as one field.
    pub fn insert(
        &mut self,
        key: StoreKey,
        label: &str,
        stats: RunStats,
    ) -> Result<(), StoreError> {
        let label = if label.is_empty() {
            "-".to_owned()
        } else {
            label
                .chars()
                .map(|c| if c.is_whitespace() { '_' } else { c })
                .collect()
        };
        if let Some(path) = &self.path {
            let a_err = StoreError::io("append", path);
            if self.appender.is_none() && !self.appender_dead {
                let mut appender = BufWriter::new(
                    OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(path)
                        .map_err(a_err)?,
                );
                if self.needs_header {
                    writeln!(appender, "{STORE_SCHEMA}").map_err(StoreError::io("append", path))?;
                    self.needs_header = false;
                }
                self.appender = Some(appender);
            }
        }
        if let (Some(appender), Some(path)) = (&mut self.appender, &self.path) {
            let a_err = |e| StoreError::io("append", path)(e);
            let mut payload = key.hex();
            payload.push(' ');
            payload.push_str(&label);
            stats.serialize_into(&mut payload);
            let line = frame_payload(&payload);
            match crate::fault::store_insert_fault() {
                Some(crate::fault::InsertFault::Torn) => {
                    // Simulate a crash mid-append: half a line hits the disk
                    // and nothing ever again (as after a real process death).
                    appender
                        .write_all(&line.as_bytes()[..line.len() / 2])
                        .map_err(a_err)?;
                    appender.flush().map_err(a_err)?;
                    self.appender = None;
                    self.appender_dead = true;
                    eprintln!(
                        "fault injection: tore the store append for '{label}' and crashed the appender"
                    );
                }
                Some(crate::fault::InsertFault::BitFlip) => {
                    // Flip one payload bit *after* the CRC was computed, so
                    // the record reads back damaged. Avoid manufacturing a
                    // newline, which would split the line in two.
                    let mut bytes = line.into_bytes();
                    let idx = 18 + (bytes.len() - 18) / 2;
                    let flip = if bytes[idx] ^ 1 == b'\n' { 2 } else { 1 };
                    bytes[idx] ^= flip;
                    appender.write_all(&bytes).map_err(a_err)?;
                    appender.write_all(b"\n").map_err(a_err)?;
                    appender.flush().map_err(a_err)?;
                    eprintln!("fault injection: flipped a bit in the stored record for '{label}'");
                }
                None => {
                    writeln!(appender, "{line}").map_err(a_err)?;
                    appender.flush().map_err(a_err)?;
                }
            }
        }
        self.records.insert(key, stats);
        self.labels.insert(key, label);
        Ok(())
    }

    /// The label `key` was last stored under, or `-` when unknown.
    pub fn label_of(&self, key: &StoreKey) -> &str {
        self.labels.get(key).map(String::as_str).unwrap_or("-")
    }

    /// Merges every record of `other` into this store.
    ///
    /// All-or-nothing: conflicts are detected before anything is written. Two
    /// stores conflict when they hold the *same key with different stats* —
    /// since a key content-addresses the complete simulation input (including
    /// the code-version salt), a conflict means one side's records are wrong
    /// (or hand-edited) and silently picking a winner would hide it. Mirrors
    /// `EnergyAccumulator::merge`'s typed-conflict contract.
    pub fn merge(&mut self, other: &ResultStore) -> Result<MergeOutcome, MergeError> {
        let mut keys: Vec<&StoreKey> = other.records.keys().collect();
        keys.sort();
        let mut conflicts = Vec::new();
        for key in &keys {
            if let Some(mine) = self.records.get(key) {
                if mine != &other.records[*key] {
                    conflicts.push(MergeConflict {
                        key: **key,
                        label: other.label_of(key).to_owned(),
                    });
                }
            }
        }
        if !conflicts.is_empty() {
            return Err(MergeError::Conflict { conflicts });
        }
        let mut outcome = MergeOutcome::default();
        for key in keys {
            if self.records.contains_key(key) {
                outcome.identical += 1;
            } else {
                self.insert(*key, other.label_of(key), other.records[key].clone())
                    .map_err(MergeError::Store)?;
                outcome.added += 1;
            }
        }
        Ok(outcome)
    }
}

/// The human-readable label written next to a cell's telemetry events.
pub fn cell_label(family: &str, bench: Benchmark, seed: u64) -> String {
    format!("{family}/{}/s{seed}", bench.name())
}

/// What a conflict-free [`ResultStore::merge`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeOutcome {
    /// Records the other store had and this one did not.
    pub added: usize,
    /// Records both stores held bit-identically.
    pub identical: usize,
}

/// One key both sides of a refused [`ResultStore::merge`] hold with
/// different stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeConflict {
    /// The conflicting content address.
    pub key: StoreKey,
    /// The incoming store's label for the record.
    pub label: String,
}

/// Why a [`ResultStore::merge`] was refused or failed.
#[derive(Debug)]
pub enum MergeError {
    /// Both stores hold at least one same key with different stats. Keys
    /// address the complete simulation input, so this means at least one
    /// side's record does not come from the deterministic simulator it claims
    /// to. Carries *every* conflicting key (sorted) so callers can report the
    /// full damage in one pass.
    Conflict {
        /// All conflicting keys, in sorted key order.
        conflicts: Vec<MergeConflict>,
    },
    /// Appending a merged record to the backing file failed.
    Store(StoreError),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Conflict { conflicts } => {
                write!(
                    f,
                    "merge conflict: {} key(s) exist in both stores with different stats",
                    conflicts.len()
                )?;
                for c in conflicts {
                    write!(f, "\n  {} ('{}')", c.key.hex(), c.label)?;
                }
                Ok(())
            }
            MergeError::Store(e) => write!(f, "merge failed to append: {e}"),
        }
    }
}

impl std::error::Error for MergeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MergeError::Conflict { .. } => None,
            MergeError::Store(e) => Some(e),
        }
    }
}

/// Outcome of running a sweep against a store: how many cells were served
/// from memo records and how many had to be simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreSummary {
    /// Cells answered from the store without simulating.
    pub hits: usize,
    /// Cells simulated (and inserted into the store).
    pub simulated: usize,
}

impl std::ops::AddAssign for StoreSummary {
    fn add_assign(&mut self, other: StoreSummary) {
        self.hits += other.hits;
        self.simulated += other.simulated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(instructions: u64, fly: bool) -> RunStats {
        let mut sim = SimResult {
            instructions,
            be_cycles: instructions / 2 + 1,
            fe_cycles: instructions / 3 + 1,
            elapsed_ps: instructions * 250,
            squashed: 7,
            bpred: Default::default(),
            caches: Default::default(),
            energy: Default::default(),
            gated_frontend_fraction: 0.25,
        };
        sim.bpred.total_ctrl = 11;
        sim.caches.l1d = (100, 3);
        sim.energy.frontend_pj = 1.5e7 + 0.1; // not exactly representable in decimal
        sim.energy.leakage_backend_pj = f64::MIN_POSITIVE; // subnormal-adjacent round-trip
        sim.energy.leakage_flywheel_pj = 0.25;
        sim.energy.elapsed_ps = sim.elapsed_ps;
        RunStats {
            sim,
            flywheel: fly.then_some(FlywheelStats {
                exec_mode_ps: 5,
                creation_mode_ps: 9,
                ec_residency: 0.1 + 0.2, // 0.30000000000000004
                ec_lookups: 4,
                ec_hits: 2,
                traces_stored: 1,
                ec_utilization: 0.875,
                trace_switches: 3,
                trace_divergences: 1,
                pool_stalls: 0,
                redistributions: 2,
            }),
        }
    }

    #[test]
    fn record_lines_round_trip_bit_exactly() {
        for fly in [false, true] {
            let original = stats(1000, fly);
            let mut line = String::new();
            original.serialize_into(&mut line);
            let parsed = RunStats::parse_fields(&mut line.split_whitespace()).unwrap();
            assert_eq!(parsed, original);
            assert_eq!(
                parsed.sim.energy.frontend_pj.to_bits(),
                original.sim.energy.frontend_pj.to_bits()
            );
        }
    }

    #[test]
    fn parse_rejects_truncated_and_trailing_input() {
        let mut line = String::new();
        stats(10, true).serialize_into(&mut line);
        let truncated = &line[..line.len() - 2];
        assert!(RunStats::parse_fields(&mut truncated.split_whitespace()).is_none());
        let extended = format!("{line} 9");
        assert!(RunStats::parse_fields(&mut extended.split_whitespace()).is_none());
    }

    #[test]
    fn keys_are_stable_hex_round_trips() {
        let k = StoreKey::of_input("hello");
        assert_eq!(StoreKey::from_hex(&k.hex()), Some(k));
        assert_eq!(StoreKey::from_hex("zz"), None);
        assert_ne!(StoreKey::of_input("hello"), StoreKey::of_input("hello!"));
        // The two 64-bit lanes must not be copies of each other.
        assert_ne!(k.0, k.1);
    }

    #[test]
    fn in_memory_store_inserts_and_overwrites() {
        let mut s = ResultStore::in_memory();
        let k = StoreKey::of_input("a");
        assert!(s.is_empty());
        s.insert(k, "label with spaces", stats(5, false)).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.contains(&k));
        s.insert(k, "l", stats(6, true)).unwrap();
        assert_eq!(s.len(), 1, "same key overwrites");
        assert_eq!(s.get(&k).unwrap().sim.instructions, 6);
        assert!(s.path().is_none());
    }

    #[test]
    fn salt_is_nonzero_and_stable() {
        assert_ne!(code_version_salt(), 0);
        assert_eq!(code_version_salt(), code_version_salt());
    }

    #[test]
    fn family_inputs_pin_the_legacy_key_derivation() {
        // The canonical input is the exact text every committed key hashes;
        // any change to it silently moves every stored key.
        use flywheel_timing::TechNode;
        let budget = SimBudget::new(5_000, 40_000);
        let bench = flywheel_workloads::Benchmark::Micro;
        let fly = format!(
            "{:?}",
            flywheel_core::FlywheelConfig::paper(TechNode::N130, 50, 50)
        );
        assert_eq!(
            family_input("flywheel", &fly, bench, 42, budget),
            format!(
                "salt={:016x}\nmachine=flywheel\nconfig={fly}\nbench=micro\nseed=42\n\
                 warmup=5000\nmeasured=40000\n",
                code_version_salt()
            ),
        );
        assert_eq!(
            family_key("flywheel", &fly, bench, 42, budget),
            StoreKey::of_input(&family_input("flywheel", &fly, bench, 42, budget)),
        );
        // Distinct simulators with identical configs must not collide.
        let dbg = format!(
            "{:?}",
            flywheel_uarch::BaselineConfig::paper(TechNode::N130)
        );
        assert_ne!(
            family_key("baseline", &dbg, bench, 42, budget),
            family_key("multidomain", &dbg, bench, 42, budget),
        );
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn framing_round_trips_and_rejects_damage() {
        let payload = "deadbeef a-label 1 2 3";
        let line = frame_payload(payload);
        assert_eq!(unframe_line(line.as_bytes()), Some(payload));
        // Torn tail: any strict prefix fails the length check.
        for cut in 0..line.len() {
            assert_eq!(unframe_line(&line.as_bytes()[..cut]), None, "cut at {cut}");
        }
        // Single flipped bit anywhere: caught by CRC (or the hex framing).
        for i in 0..line.len() {
            let mut bytes = line.clone().into_bytes();
            bytes[i] ^= 1;
            assert_eq!(unframe_line(&bytes), None, "flip at byte {i}");
        }
    }

    #[test]
    fn merge_adds_missing_detects_identical_and_refuses_conflicts() {
        let mut a = ResultStore::in_memory();
        let mut b = ResultStore::in_memory();
        let shared = StoreKey::of_input("shared");
        let only_b = StoreKey::of_input("only-b");
        a.insert(shared, "shared", stats(10, false)).unwrap();
        b.insert(shared, "shared", stats(10, false)).unwrap();
        b.insert(only_b, "extra cell", stats(20, true)).unwrap();

        let outcome = a.merge(&b).unwrap();
        assert_eq!(
            outcome,
            MergeOutcome {
                added: 1,
                identical: 1
            }
        );
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(&only_b), b.get(&only_b));
        assert_eq!(
            a.label_of(&only_b),
            "extra_cell",
            "labels travel (sanitized)"
        );

        // Same key, different stats: typed conflict (reporting every bad
        // key), nothing merged.
        let mut c = ResultStore::in_memory();
        c.insert(shared, "shared", stats(11, false)).unwrap();
        c.insert(only_b, "extra cell", stats(21, true)).unwrap();
        let before = a.len();
        match a.merge(&c) {
            Err(MergeError::Conflict { conflicts }) => {
                let mut expected = vec![
                    MergeConflict {
                        key: shared,
                        label: "shared".to_owned(),
                    },
                    MergeConflict {
                        key: only_b,
                        label: "extra_cell".to_owned(),
                    },
                ];
                expected.sort_by_key(|c| c.key);
                assert_eq!(conflicts, expected, "every conflicting key reported");
            }
            other => panic!("expected a conflict, got {other:?}"),
        }
        assert_eq!(a.len(), before, "a failed merge must not mutate the store");
    }

    #[test]
    fn merge_is_idempotent() {
        let mut a = ResultStore::in_memory();
        let mut b = ResultStore::in_memory();
        b.insert(StoreKey::of_input("x"), "x", stats(5, true))
            .unwrap();
        a.merge(&b).unwrap();
        let again = a.merge(&b).unwrap();
        assert_eq!(
            again,
            MergeOutcome {
                added: 0,
                identical: 1
            }
        );
    }
}
