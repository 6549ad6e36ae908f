//! `flywheel-serve` — a crash-tolerant sweep daemon.
//!
//! Serves a small JSON-over-HTTP surface on a local TCP port:
//!
//! * `POST /sweep` — body is a scenario spec (`preset=smoke` or the full
//!   `key=value;...` grammar of `flywheel_bench::spec`). Fully warm scenarios
//!   answer straight from the store (`200`, `"warm":true`); anything else is
//!   queued as a job (`202`) and run as a supervised multi-process sharded
//!   sweep. The body may also carry `telemetry=on|off` to toggle per-job
//!   kernel telemetry when the daemon was started with `--telemetry`.
//! * `GET /status` — queue depth, job table and, while a sweep is running,
//!   the live per-shard worker heartbeats.
//! * `GET /healthz` — cheap liveness probe.
//! * `POST /shutdown` — same as SIGTERM, for clients that cannot signal.
//!
//! SIGTERM/SIGINT (or `POST /shutdown`) triggers a *drain*: queued jobs are
//! cancelled, the in-flight sweep and its worker processes run to completion,
//! the store is flushed by the supervisor's merge, and the daemon exits 0.
//!
//! The daemon is its own worker executable: re-invoked with the hidden
//! `__shard-worker` argv it becomes a shard worker, which is why `main`
//! dispatches through [`supervisor::maybe_run_shard_worker`] first.

use flywheel_bench::fault::FaultPlan;
use flywheel_bench::supervisor::{self, SupervisorConfig};
use flywheel_server::http::{json_escape, read_request, respond, RequestError};
use flywheel_server::service::{ServeConfig, Submitted, SweepService};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the signal handler (and `POST /shutdown`); the accept loop polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn request_shutdown(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

// The one `unsafe` surface of the server crate: the POSIX signal(2) binding
// used to install the drain flag (no external crates in this environment).
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

fn usage() -> ! {
    eprintln!(
        "usage: flywheel-serve [options]\n\
         \n\
         options:\n\
           --addr HOST:PORT        listen address (default 127.0.0.1:7877; port 0 picks one)\n\
           --store PATH            result store swept into (default results.store)\n\
           --shards N              worker processes per sweep (default: cores, capped at 8)\n\
           --status-dir DIR        worker status files (default <store>.status)\n\
           --max-restarts N        restarts per shard before degrading (default 2)\n\
           --backoff-ms MS         base restart backoff (default 100)\n\
           --stall-timeout-ms MS   heartbeat stall kill threshold (default 10000)\n\
           --deadline-ms MS        per-incarnation wall budget (default 120000)\n\
           --faults SPEC           fault-injection plan forwarded to workers\n\
           --telemetry PATH        arm kernel telemetry per sweep; workers write to\n\
                                   per-shard event logs merged at PATH (jobs can opt\n\
                                   out with telemetry=off in the POST /sweep body)\n\
         \n\
         endpoints: POST /sweep, GET /status, GET /healthz, POST /shutdown"
    );
    exit(1);
}

fn main() {
    supervisor::maybe_run_shard_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut addr = "127.0.0.1:7877".to_owned();
    let mut store = PathBuf::from("results.store");
    let mut shards = std::thread::available_parallelism().map_or(2, |n| n.get().min(8));
    let mut status_dir: Option<PathBuf> = None;
    let mut max_restarts: Option<u32> = None;
    let mut backoff_ms: Option<u64> = None;
    let mut stall_timeout_ms: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut faults: Option<FaultPlan> = None;
    let mut telemetry: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("flywheel-serve: {flag} needs a value");
                usage();
            })
        };
        let num = |flag: &str, v: String| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("flywheel-serve: {flag} wants a number, got '{v}'");
                usage();
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--store" => store = PathBuf::from(value("--store")),
            "--shards" => shards = (num("--shards", value("--shards")) as usize).max(1),
            "--status-dir" => status_dir = Some(PathBuf::from(value("--status-dir"))),
            "--max-restarts" => {
                max_restarts = Some(num("--max-restarts", value("--max-restarts")) as u32)
            }
            "--backoff-ms" => backoff_ms = Some(num("--backoff-ms", value("--backoff-ms"))),
            "--stall-timeout-ms" => {
                stall_timeout_ms = Some(num("--stall-timeout-ms", value("--stall-timeout-ms")))
            }
            "--deadline-ms" => deadline_ms = Some(num("--deadline-ms", value("--deadline-ms"))),
            "--faults" => {
                let spec = value("--faults");
                faults = Some(FaultPlan::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("flywheel-serve: bad --faults: {e}");
                    usage();
                }))
            }
            "--telemetry" => telemetry = Some(PathBuf::from(value("--telemetry"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("flywheel-serve: unknown option '{other}'");
                usage();
            }
        }
    }

    let worker_exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("flywheel-serve: cannot resolve own executable: {e}");
        exit(1);
    });
    let status_dir =
        status_dir.unwrap_or_else(|| PathBuf::from(format!("{}.status", store.display())));
    let mut cfg = SupervisorConfig::new(shards, worker_exe, status_dir);
    if let Some(n) = max_restarts {
        cfg.max_restarts = n;
    }
    if let Some(ms) = backoff_ms {
        cfg.backoff = Duration::from_millis(ms);
    }
    if let Some(ms) = stall_timeout_ms {
        cfg.stall_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = deadline_ms {
        cfg.shard_deadline = Duration::from_millis(ms);
    }
    cfg.faults = faults;
    cfg.telemetry = telemetry;

    unsafe {
        signal(SIGTERM, request_shutdown);
        signal(SIGINT, request_shutdown);
    }

    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("flywheel-serve: cannot bind {addr}: {e}");
        exit(1);
    });
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("flywheel-serve: cannot set nonblocking accept: {e}");
        exit(1);
    }
    let local = listener
        .local_addr()
        .map_or(addr.clone(), |a| a.to_string());
    // The tests parse this line to discover an ephemeral --addr :0 port.
    println!("flywheel-serve listening on http://{local}");

    let service = SweepService::start(ServeConfig {
        store,
        supervisor: cfg,
    });

    while !SHUTDOWN.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _peer)) => handle(&mut stream, &service),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("flywheel-serve: accept: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }

    eprintln!("flywheel-serve: shutdown requested; draining in-flight sweep");
    service.shutdown();
    eprintln!("flywheel-serve: drained; exiting");
}

/// Serves one connection (one request — every response is
/// `Connection: close`).
fn handle(stream: &mut TcpStream, service: &SweepService) {
    // Accepted sockets do not inherit the listener's O_NONBLOCK on Linux,
    // but make the contract explicit rather than rely on it.
    let _ = stream.set_nonblocking(false);
    let request = match read_request(stream) {
        Ok(r) => r,
        Err(e) => {
            // A stalled client is not a malformed one: timeouts answer 408,
            // only actually-bad requests answer 400.
            let (status, reason) = match &e {
                RequestError::Timeout => (408, "Request Timeout"),
                RequestError::Bad(_) => (400, "Bad Request"),
            };
            let body = format!("{{\"error\":\"{}\"}}", json_escape(&e.to_string()));
            let _ = respond(stream, status, reason, &body);
            return;
        }
    };
    let (status, reason, body) = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, "OK", service.healthz_json()),
        ("GET", "/status") => (200, "OK", service.status_json()),
        ("POST", "/sweep") => match service.submit(request.body.trim()) {
            Ok(Submitted::Warm { cells }) => (
                200,
                "OK",
                format!("{{\"warm\":true,\"cells\":{cells},\"queued\":false}}"),
            ),
            Ok(Submitted::Queued {
                id,
                cells,
                position,
            }) => (
                202,
                "Accepted",
                format!(
                    "{{\"warm\":false,\"queued\":true,\"job\":{id},\"cells\":{cells},\"position\":{position}}}"
                ),
            ),
            Err(e) => (
                400,
                "Bad Request",
                format!("{{\"error\":\"{}\"}}", json_escape(&e)),
            ),
        },
        ("POST", "/shutdown") => {
            SHUTDOWN.store(true, Ordering::SeqCst);
            (200, "OK", "{\"draining\":true}".to_owned())
        }
        (_, path) => (
            404,
            "Not Found",
            format!("{{\"error\":\"no such endpoint: {}\"}}", json_escape(path)),
        ),
    };
    if let Err(e) = respond(stream, status, reason, &body) {
        eprintln!("flywheel-serve: writing response: {e}");
    }
}
