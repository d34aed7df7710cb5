//! Long-running replay server: accepts batches of newline-delimited
//! JSON job requests, shards each batch across the work-stealing cell
//! scheduler, and streams per-job `RunResult` summaries back — the
//! "heavy traffic" deployment shape, where many concurrent request
//! streams amortize one shared pool of precomputed workloads.
//!
//! The protocol and batching engine live in [`grp_bench::serve`]; this
//! binary owns only transport (stdin vs unix socket, accept retry with
//! bounded backoff) and process-exit policy.
//!
//! ```text
//! cargo run --release -p grp-bench --bin serve -- [--scale test|small|paper]
//!     [--jobs N]            worker count (default: available parallelism)
//!     [--trace-cache <dir>] reuse packed pre-interpreted traces
//!                           across batches, connections, and processes
//!                           (hits replay the packed trace; --selfcheck
//!                           re-runs each reply from a fresh build and
//!                           so doubles as a per-reply cache gate)
//!     [--socket <path>]     accept connections on a unix socket instead
//!                           of stdin (one client at a time)
//!     [--once]              with --socket: exit after the first client
//!     [--selfcheck]         re-run every reply serially on a freshly
//!                           built workload and exit nonzero on any
//!                           bit-difference (the verify.sh gate)
//!     [--perf-out <path>]   append a fleet-shaped entry aggregated over
//!                           the whole session on shutdown
//!     [--label <name>]      entry label for --perf-out (default "serve")
//!     [--metrics-out <path>] write the metrics registry as Prometheus
//!                           text (+ `<path>.json` twin) after each
//!                           client session (sockets) / at shutdown;
//!                           on startup an existing `<path>.json` seeds
//!                           the registry so scrapes stay monotone
//!                           across a restart
//!     [--request-deadline-ms <N>] wall-clock deadline per job, stamped
//!                           at admission: a job still queued when it
//!                           expires gets a named `deadline_exceeded`
//!                           error reply instead of running (composes
//!                           with the in-sim --max-cycles watchdog)
//!     [--max-inflight <N>]  bounded admission: at most N jobs batched
//!                           per session; excess jobs are shed with a
//!                           named `overloaded` error reply (default:
//!                           workers x 8)
//!     [--log-level <lvl>]   error|warn|info|debug|trace (or GRP_LOG)
//! cargo run -p grp-bench --bin serve -- --check-replies <path>
//!     validate a saved reply stream (shape + ok status) and exit
//! ```
//!
//! Request lines: `{"kernel":…,"scheme":…}` jobs batched until a blank
//! line, plus the in-band `{"stats":true}` probe answered immediately
//! with a snapshot of the session's metrics registry and the
//! `{"drain":true}` probe that flushes everything in flight,
//! acknowledges, and exits 0 — see the [`grp_bench::serve`] module docs
//! for the full protocol.
//!
//! Startup is the recovery path (crash-only): before serving, the
//! process sweeps orphaned staging files and stale locks next to every
//! artifact it will write, and quarantines invalid trace-cache entries
//! — so a kill -9 at any instant costs at most one in-flight write,
//! never a torn artifact.

use std::io::BufReader;
use std::path::Path;
use std::time::Duration;

use grp_bench::args::{jobs_from_args, parse_replay_args, strict_flag, strict_u64};
use grp_bench::obs_export::flag_value;
use grp_bench::serve::{
    check_replies, seed_counters_from_json, AcceptBackoff, Server, ServerOpts, SessionEnd,
};
use grp_bench::suite::scale_from_args;
use grp_bench::telemetry::log::{self, Level};
use grp_bench::{artifact, telemetry, traj};
use grp_core::{Scheme, SimConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();

    if let Some(path) = flag_value(&args, "--check-replies") {
        match check_replies(&path) {
            Ok(n) => println!("{path}: OK ({n} replies)"),
            Err(e) => {
                log::error("serve", &format!("{path}: {e}"));
                std::process::exit(1);
            }
        }
        return;
    }

    let fail = |e: String| -> ! {
        log::error("serve", &e);
        std::process::exit(2);
    };
    log::init_from_args(&args).unwrap_or_else(|e| fail(e));
    let scale = scale_from_args();
    let workers = jobs_from_args().unwrap_or_else(grp_bench::args::default_jobs);
    let selfcheck = strict_flag(&args, "--selfcheck").unwrap_or_else(|e| fail(e));
    let once = strict_flag(&args, "--once").unwrap_or_else(|e| fail(e));
    let socket = flag_value(&args, "--socket");
    let perf_out = flag_value(&args, "--perf-out");
    let metrics_out = flag_value(&args, "--metrics-out");
    let label = flag_value(&args, "--label").unwrap_or_else(|| "serve".to_string());
    let deadline_ms = strict_u64(&args, "--request-deadline-ms", "milliseconds, e.g. 5000")
        .unwrap_or_else(|e| fail(e));
    let max_inflight =
        strict_u64(&args, "--max-inflight", "a positive job count").unwrap_or_else(|e| fail(e));
    if max_inflight == Some(0) {
        fail("--max-inflight must be at least 1".to_string());
    }
    let mode = parse_replay_args(&args).unwrap_or_else(|e| fail(e));

    // Crash-only startup: recovery is the normal path, not an error
    // path. Sweep staging orphans and stale locks (dead owners only)
    // next to every artifact this process will write, and quarantine
    // trace-cache entries that no longer validate.
    let mut recovered = artifact::RecoveryReport::default();
    let mut quarantined = 0usize;
    for out in [perf_out.as_deref(), metrics_out.as_deref()]
        .into_iter()
        .flatten()
    {
        let parent = Path::new(out)
            .parent()
            .filter(|p| !p.as_os_str().is_empty());
        let dir = parent.unwrap_or_else(|| Path::new("."));
        match artifact::recover_dir(dir, Duration::ZERO) {
            Ok(r) => recovered.absorb(r),
            Err(e) => log::warn(
                "serve",
                &format!("recovery scan of {} failed: {e}", dir.display()),
            ),
        }
    }
    if let Some(cache) = &mode.trace_cache {
        match cache.recover(Duration::ZERO) {
            Ok((r, q)) => {
                recovered.absorb(r);
                quarantined += q;
            }
            Err(e) => log::warn("serve", &format!("trace-cache recovery failed: {e}")),
        }
    }
    log::log_kv(
        Level::Info,
        "serve",
        "startup recovery scan complete",
        &[
            ("swept_tmp", (recovered.swept_tmp as u64).into()),
            ("swept_lock", (recovered.swept_lock as u64).into()),
            ("quarantined", (quarantined as u64).into()),
        ],
    );

    // The process-global registry, so trace-cache counters (which
    // record globally) appear in the same scrape.
    let registry = telemetry::registry().clone();
    // Restart carryover: seed counters from the previous process's
    // last scrape so the series stays monotone across a crash.
    if let Some(path) = &metrics_out {
        let twin = format!("{path}.json");
        if Path::new(&twin).exists() {
            match seed_counters_from_json(&registry, &twin) {
                Ok(n) => log::info("serve", &format!("carried {n} counters over from {twin}")),
                Err(e) => log::warn(
                    "serve",
                    &format!("metrics carryover from {twin} skipped: {e}"),
                ),
            }
        }
    }

    let mut server = Server::new(ServerOpts {
        workers,
        default_scale: scale,
        cfg: SimConfig::paper(),
        mode,
        selfcheck,
        registry,
        request_deadline: deadline_ms.map(Duration::from_millis),
        max_inflight: max_inflight.map(|n| n as usize),
    });
    let export = |server: &Server| {
        if let Some(path) = &metrics_out {
            if let Err(e) = server.write_metrics(path) {
                log::warn("serve", &format!("metrics export to {path} failed: {e}"));
            }
        }
    };

    match socket {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            // EOF, drain, and client-gone all end the lone stdin
            // session; the shared shutdown tail below flushes
            // everything through the atomic layer either way.
            let _ = server.session(stdin.lock(), &mut stdout.lock());
            export(&server);
        }
        Some(path) => {
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path)
                .unwrap_or_else(|e| fail(format!("cannot bind {path}: {e}")));
            log::log_kv(
                Level::Info,
                "serve",
                "listening",
                &[
                    ("socket", path.as_str().into()),
                    ("workers", (workers as u64).into()),
                ],
            );
            // Accept failures back off exponentially and become
            // terminal after an unbroken run — a dead listener must
            // not spin the process at 100% CPU.
            let mut backoff = AcceptBackoff::new();
            for stream in listener.incoming() {
                let stream = match stream {
                    Ok(s) => {
                        backoff.on_success();
                        s
                    }
                    Err(e) => match backoff.on_failure() {
                        Some(delay) => {
                            log::log_kv(
                                Level::Warn,
                                "serve",
                                "accept failed; backing off",
                                &[
                                    ("error", e.to_string().into()),
                                    ("retry_ms", (delay.as_millis() as u64).into()),
                                ],
                            );
                            std::thread::sleep(delay);
                            continue;
                        }
                        None => {
                            // The terminal give-up leaves a structured
                            // last word (count + errno), then falls
                            // through to the shared shutdown tail.
                            backoff.log_terminal(&e);
                            break;
                        }
                    },
                };
                let reader = BufReader::new(match stream.try_clone() {
                    Ok(s) => s,
                    Err(e) => {
                        log::warn("serve", &format!("cannot clone stream: {e}"));
                        continue;
                    }
                });
                let mut writer = stream;
                let end = server.session(reader, &mut writer);
                export(&server);
                if end == SessionEnd::Drain {
                    log::info("serve", "drain requested; flushed and exiting");
                    break;
                }
                if once {
                    break;
                }
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    if let Some(out) = perf_out {
        if server.totals().is_some() {
            let scheme_labels: Vec<&str> = Scheme::ALL.map(|s| s.label()).to_vec();
            let rows = server.take_rows();
            let stats = server.totals().expect("checked above");
            let entry = traj::fleet_entry(
                &label,
                &format!("{:?}", server.default_scale()).to_lowercase(),
                &scheme_labels,
                stats,
                rows,
            );
            traj::append_entry(&out, entry).unwrap_or_else(|e| {
                log::error("serve", &e.to_string());
                std::process::exit(1);
            });
            log::info("serve", &format!("appended entry '{label}' to {out}"));
        } else {
            log::info("serve", &format!("no jobs ran, nothing appended to {out}"));
        }
    }
    if server.mismatches() > 0 {
        log::error(
            "serve",
            &format!(
                "SELFCHECK FAILED — {} repl(y/ies) differ from the serial path",
                server.mismatches()
            ),
        );
        std::process::exit(1);
    }
}
