//! Chaos/soak gate (`check --chaos`): drives the **real** `serve`
//! binary as a subprocess through a seeded storm of injected I/O
//! faults, mid-batch client disconnects, and a kill -9 timed into a
//! cache write, then restarts it and asserts the crash-only contract
//! end to end:
//!
//! * **No torn artifact anywhere** — after the kill, every published
//!   metrics exposition parses and every trace-cache entry validates
//!   (quarantine count zero). The `--inject torn-rename` teeth mode
//!   deliberately publishes half-written artifacts and must make this
//!   gate exit nonzero.
//! * **Counters monotone across restart** — the restarted process
//!   seeds its registry from the dead one's last scrape, so no counter
//!   ever reads lower than before the crash.
//! * **Replies bit-identical** — every job reply (including re-issued
//!   jobs after the restart) carries exactly the `RunResult` a serial
//!   in-process reference computes.
//! * **No staging litter** — once the dust settles, no `*.tmp` or
//!   `*.lock` file survives anywhere under the scratch directory.
//!
//! Every fault is seeded (`GRP_IOFAULT=seed:<n>` per round), so a
//! failing storm reproduces from its printed seed.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use grp_core::{Scheme, SimConfig};
use grp_workloads::Scale;

use crate::json::{run_result_json, Json};
use crate::telemetry::exposition;
use crate::tracecache::TraceCache;

/// Configuration for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOpts {
    /// Path to the built `serve` binary (next to `check` in the target
    /// dir, or `CARGO_BIN_EXE_serve` in integration tests).
    pub serve_bin: PathBuf,
    /// Scratch directory (created; artifacts left behind for autopsy).
    pub dir: PathBuf,
    /// Base seed; round `r` storms with `seed + r`.
    pub seed: u64,
    /// Storm rounds before the kill-9 phase.
    pub rounds: u64,
    /// Teeth mode: arm `GRP_IOFAULT=torn-rename` on the subprocess so
    /// it publishes torn artifacts — the gate must then fail.
    pub torn_rename: bool,
}

/// The storm batch: jobs replayed under injected I/O faults.
const STORM_JOBS: &[(&str, &str)] = &[("gzip", "SRP"), ("mcf", "none"), ("twolf", "GRP/Var")];

/// Jobs primed before the kill and re-issued after the restart.
const RESTART_JOBS: &[(&str, &str)] = &[("crafty", "SRP"), ("gzip", "GRP/Var")];

/// The job sent right before the kill -9 (uncached, so the child is
/// mid-cache-write when the signal lands).
const KILL_JOBS: &[(&str, &str)] = &[("bzip2", "SRP")];

/// How long the kill-phase child holds a staged write before renaming
/// (widens the kill window without changing any observable behavior).
const HOLD_MS: u64 = 400;

/// Runs the whole gate; `Ok` carries a one-line summary.
///
/// # Errors
///
/// The first violated invariant, naming the phase and artifact.
pub fn run_chaos(opts: &ChaosOpts) -> Result<String, String> {
    std::fs::create_dir_all(&opts.dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.dir.display()))?;
    if !opts.serve_bin.exists() {
        return Err(format!(
            "serve binary not found at {} (build it first)",
            opts.serve_bin.display()
        ));
    }
    let reference = reference_results()?;

    // Phase A: seeded I/O-fault storms with disconnects and drains.
    let cache_a = opts.dir.join("cache");
    let metrics_a = opts.dir.join("metrics.prom");
    let mut prev: Option<BTreeMap<String, u64>> = None;
    for round in 0..opts.rounds {
        let fault_seed = opts.seed.wrapping_add(round);
        println!(
            "chaos: storm round {} (GRP_IOFAULT seed {fault_seed:#x})",
            round + 1
        );
        let sock = opts.dir.join(format!("storm-{round}.sock"));
        let envs = [("GRP_IOFAULT", format!("seed:{fault_seed}"))];
        let mut child = spawn_serve(opts, &sock, &cache_a, &metrics_a, None, &envs)?;
        let result = storm_round(&sock, &mut child, &reference);
        if result.is_err() {
            let _ = child.kill();
            let _ = child.wait();
        }
        result.map_err(|e| format!("storm round {} (seed {fault_seed:#x}): {e}", round + 1))?;
        let cur = scrape_counters(&twin_path(&metrics_a))?;
        if let (Some(p), Some(c)) = (&prev, &cur) {
            check_monotone_counters(p, c)
                .map_err(|e| format!("storm round {}: counters not monotone: {e}", round + 1))?;
        }
        if cur.is_some() {
            prev = cur;
        }
    }

    // Phase B: kill -9 timed into a cache write, then restart.
    println!("chaos: kill -9 mid-cache-write, then restart");
    let cache_b = opts.dir.join("cache-b");
    let metrics_b = opts.dir.join("metrics-b.prom");
    let perf_b = opts.dir.join("perf-b.ndjson");
    let sock_b = opts.dir.join("kill.sock");
    let mut envs: Vec<(&str, String)> = vec![("GRP_IOFAULT_HOLD_MS", HOLD_MS.to_string())];
    if opts.torn_rename {
        envs.push(("GRP_IOFAULT", "torn-rename".to_string()));
    }
    let mut child = spawn_serve(opts, &sock_b, &cache_b, &metrics_b, Some(&perf_b), &envs)?;
    let kill_result = kill_phase(&sock_b, &mut child, &reference);
    if kill_result.is_err() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let before = kill_result?;

    // Pre-restart autopsy: everything published must be whole. This is
    // where `--inject torn-rename` must trip the gate.
    validate_artifacts(&cache_b, &metrics_b)?;

    // Restart: recovery is the normal startup path. Re-issued jobs
    // must be bit-identical, counters must carry over, and the drain
    // must exit 0.
    let sock_r = opts.dir.join("restart.sock");
    let mut child = spawn_serve(opts, &sock_r, &cache_b, &metrics_b, Some(&perf_b), &[])?;
    let restart_result = restart_phase(&sock_r, &mut child, &reference);
    if restart_result.is_err() {
        let _ = child.kill();
        let _ = child.wait();
    }
    restart_result?;
    let after = scrape_counters(&twin_path(&metrics_b))?
        .ok_or("no metrics scrape after restart".to_string())?;
    if let Some(before) = &before {
        check_monotone_counters(before, &after)
            .map_err(|e| format!("counters not monotone across kill -9 restart: {e}"))?;
    }
    let entries = crate::traj::load_entries(perf_b.to_str().expect("utf8 path"))
        .map_err(|e| format!("perf trajectory after drain: {e}"))?;
    if entries.is_empty() {
        return Err("drain flushed no perf entry".to_string());
    }

    // Final sweep: the whole scratch tree must be free of staging
    // litter once every process has exited.
    let mut stale = Vec::new();
    find_stale(&opts.dir, &mut stale);
    if !stale.is_empty() {
        return Err(format!(
            "stale staging files survived the run: {}",
            stale
                .iter()
                .map(|p| p.display().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }

    Ok(format!(
        "{} storm round(s) + kill -9 restart: replies bit-identical, artifacts whole, \
         counters monotone, {} perf entr(y/ies), no staging litter",
        opts.rounds,
        entries.len()
    ))
}

/// One storm round: identical replies under faults, a mid-batch
/// disconnect that must not kill the process, a stats liveness probe,
/// and a drain that must exit 0.
fn storm_round(
    sock: &Path,
    child: &mut Child,
    reference: &BTreeMap<(String, String), String>,
) -> Result<(), String> {
    await_socket(sock, child)?;

    // Connection 1: the storm batch must answer bit-identically — an
    // injected cache fault is a named miss that rebuilds, never a
    // wrong (or lost) reply.
    let mut conn = connect(sock)?;
    send_jobs(&mut conn, STORM_JOBS)?;
    let replies = read_replies(&conn, STORM_JOBS.len())?;
    check_job_replies(&replies, STORM_JOBS, reference)?;
    drop(conn);

    // Connection 2: vanish mid-batch. The server must cancel that
    // batch's remaining work and keep serving everyone else.
    let mut conn = connect(sock)?;
    send_jobs(&mut conn, STORM_JOBS)?;
    drop(conn);

    // Connection 3: liveness probe — the disconnect above must not
    // have taken the process down.
    if child
        .try_wait()
        .map_err(|e| format!("try_wait: {e}"))?
        .is_some()
    {
        return Err("server died after a mid-batch client disconnect".to_string());
    }
    let mut conn = connect(sock)?;
    writeln!(conn, r#"{{"stats":true,"id":500}}"#).map_err(|e| format!("stats write: {e}"))?;
    let replies = read_replies(&conn, 1)?;
    let stats = &replies[0];
    if stats.get("ok").and_then(|v| v.as_bool()) != Some(true)
        || stats.get("stats").and_then(|s| s.get("counters")).is_none()
    {
        return Err(format!(
            "bad stats reply after disconnect: {}",
            stats.render()
        ));
    }
    drop(conn);

    // Connection 4: drain. The ack must land and the process must
    // flush its artifacts and exit 0.
    drain_and_wait(sock, child)
}

/// The kill phase: prime the cache and a first scrape, then send an
/// uncached job and SIGKILL the child while it is (probably) holding a
/// staged cache write. Returns the last scrape before the kill.
fn kill_phase(
    sock: &Path,
    child: &mut Child,
    reference: &BTreeMap<(String, String), String>,
) -> Result<Option<BTreeMap<String, u64>>, String> {
    await_socket(sock, child)?;
    let mut conn = connect(sock)?;
    send_jobs(&mut conn, RESTART_JOBS)?;
    let replies = read_replies(&conn, RESTART_JOBS.len())?;
    check_job_replies(&replies, RESTART_JOBS, reference)?;
    // EOF ends the session, which exports a scrape we snapshot as the
    // monotonicity baseline for the post-restart comparison.
    drop(conn);
    let metrics_twin = sock
        .parent()
        .expect("socket has a parent")
        .join("metrics-b.prom.json");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !metrics_twin.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let before = scrape_counters(&metrics_twin)?;

    let mut conn = connect(sock)?;
    send_jobs(&mut conn, KILL_JOBS)?;
    // The uncached kernel forces a cache store; the staged write holds
    // for HOLD_MS before renaming, so this sleep lands the SIGKILL
    // inside the write window often — and the invariants must hold for
    // *any* landing point.
    std::thread::sleep(Duration::from_millis(HOLD_MS / 2));
    child.kill().map_err(|e| format!("kill -9: {e}"))?;
    child.wait().map_err(|e| format!("wait after kill: {e}"))?;
    Ok(before)
}

/// Post-restart phase: re-issued jobs answer bit-identically, then a
/// drain must flush and exit 0.
fn restart_phase(
    sock: &Path,
    child: &mut Child,
    reference: &BTreeMap<(String, String), String>,
) -> Result<(), String> {
    await_socket(sock, child)?;
    let mut conn = connect(sock)?;
    send_jobs(&mut conn, KILL_JOBS)?;
    let replies = read_replies(&conn, KILL_JOBS.len())?;
    check_job_replies(&replies, KILL_JOBS, reference)
        .map_err(|e| format!("re-issued jobs after restart: {e}"))?;
    drop(conn);
    drain_and_wait(sock, child)
}

/// Sends the drain probe, checks the ack, and requires exit status 0.
fn drain_and_wait(sock: &Path, child: &mut Child) -> Result<(), String> {
    let mut conn = connect(sock)?;
    writeln!(conn, r#"{{"drain":true,"id":9000}}"#).map_err(|e| format!("drain write: {e}"))?;
    let replies = read_replies(&conn, 1)?;
    let ack = &replies[0];
    if ack.get("ok").and_then(|v| v.as_bool()) != Some(true)
        || ack.get("drain").and_then(|v| v.as_bool()) != Some(true)
    {
        return Err(format!("bad drain ack: {}", ack.render()));
    }
    drop(conn);
    let status = wait_exit(child, Duration::from_secs(60))?;
    if !status.success() {
        return Err(format!("serve did not exit 0 after drain: {status}"));
    }
    Ok(())
}

/// Spawns the serve binary with the chaos-standard flags.
fn spawn_serve(
    opts: &ChaosOpts,
    sock: &Path,
    cache: &Path,
    metrics: &Path,
    perf: Option<&Path>,
    envs: &[(&str, String)],
) -> Result<Child, String> {
    let mut cmd = Command::new(&opts.serve_bin);
    cmd.arg("--scale")
        .arg("test")
        .arg("--jobs")
        .arg("2")
        .arg("--trace-cache")
        .arg(cache)
        .arg("--socket")
        .arg(sock)
        .arg("--metrics-out")
        .arg(metrics)
        .arg("--request-deadline-ms")
        .arg("60000")
        .arg("--max-inflight")
        .arg("64")
        .arg("--log-level")
        .arg("error")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(p) = perf {
        cmd.arg("--perf-out").arg(p).arg("--label").arg("chaos");
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", opts.serve_bin.display()))
}

/// Waits for the socket to become connectable (and the child to stay
/// alive while we wait).
fn await_socket(sock: &Path, child: &mut Child) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if UnixStream::connect(sock).is_ok() {
            return Ok(());
        }
        if let Some(status) = child.try_wait().map_err(|e| format!("try_wait: {e}"))? {
            return Err(format!("serve exited before listening: {status}"));
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "socket {} never became connectable",
                sock.display()
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A connection with a generous read timeout (a hung reply must fail
/// the gate, not hang it).
fn connect(sock: &Path) -> Result<UnixStream, String> {
    let stream =
        UnixStream::connect(sock).map_err(|e| format!("cannot connect {}: {e}", sock.display()))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    Ok(stream)
}

/// Writes one batch (ids are 1-based indexes into `jobs`) and the
/// blank-line flush.
fn send_jobs(conn: &mut UnixStream, jobs: &[(&str, &str)]) -> Result<(), String> {
    for (i, (kernel, scheme)) in jobs.iter().enumerate() {
        writeln!(
            conn,
            r#"{{"id":{},"kernel":"{kernel}","scheme":"{scheme}"}}"#,
            i + 1
        )
        .map_err(|e| format!("job write: {e}"))?;
    }
    writeln!(conn).map_err(|e| format!("flush write: {e}"))?;
    conn.flush().map_err(|e| format!("flush: {e}"))?;
    Ok(())
}

/// Reads exactly `n` reply lines.
fn read_replies(conn: &UnixStream, n: usize) -> Result<Vec<Json>, String> {
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| format!("clone stream: {e}"))?);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut line = String::new();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| format!("reply read: {e}"))?;
        if read == 0 {
            return Err(format!(
                "connection closed after {} of {n} replies",
                out.len()
            ));
        }
        out.push(Json::parse(line.trim()).map_err(|e| format!("malformed reply: {e}"))?);
    }
    Ok(out)
}

/// Every reply must be `ok:true` and its `result` must render
/// byte-identically to the serial in-process reference.
fn check_job_replies(
    replies: &[Json],
    jobs: &[(&str, &str)],
    reference: &BTreeMap<(String, String), String>,
) -> Result<(), String> {
    for reply in replies {
        let id = reply
            .get("id")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("reply without id: {}", reply.render()))?;
        let (kernel, scheme) = jobs
            .get((id as usize).wrapping_sub(1))
            .ok_or_else(|| format!("reply for unknown id {id}"))?;
        if reply.get("ok").and_then(|v| v.as_bool()) != Some(true) {
            return Err(format!(
                "{kernel}/{scheme}: failed reply: {}",
                reply.render()
            ));
        }
        let got = reply
            .get("result")
            .ok_or_else(|| format!("{kernel}/{scheme}: reply missing result"))?
            .render();
        let want = &reference[&(kernel.to_string(), scheme.to_string())];
        if got != *want {
            return Err(format!(
                "{kernel}/{scheme}: reply diverges from the serial reference\n  got:  {got}\n  want: {want}"
            ));
        }
    }
    Ok(())
}

/// Serial in-process reference results for every job this gate issues.
fn reference_results() -> Result<BTreeMap<(String, String), String>, String> {
    let cfg = SimConfig::paper();
    let mut out = BTreeMap::new();
    for (kernel, scheme_label) in STORM_JOBS.iter().chain(RESTART_JOBS).chain(KILL_JOBS) {
        let scheme = Scheme::by_label(scheme_label)
            .ok_or_else(|| format!("unknown scheme label {scheme_label}"))?;
        let w = grp_workloads::by_name(kernel).ok_or_else(|| format!("unknown kernel {kernel}"))?;
        let r = w.build(Scale::Test).run(scheme, &cfg);
        out.insert(
            (kernel.to_string(), scheme_label.to_string()),
            run_result_json(&r, None).render(),
        );
    }
    Ok(out)
}

/// The JSON twin `serve --metrics-out` writes next to the exposition.
fn twin_path(metrics: &Path) -> PathBuf {
    PathBuf::from(format!("{}.json", metrics.display()))
}

/// Counter values from a scrape's JSON twin (`None` when no scrape has
/// landed yet).
fn scrape_counters(path: &Path) -> Result<Option<BTreeMap<String, u64>>, String> {
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: malformed: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    if let Some(entries) = doc.get("counters").and_then(|c| c.entries()) {
        for (k, v) in entries {
            if let Some(n) = v.as_u64() {
                out.insert(k.clone(), n);
            }
        }
    }
    Ok(Some(out))
}

/// Every counter in `prev` must read at least as high in `cur`.
fn check_monotone_counters(
    prev: &BTreeMap<String, u64>,
    cur: &BTreeMap<String, u64>,
) -> Result<(), String> {
    for (id, v) in prev {
        let now = cur.get(id).copied().unwrap_or(0);
        if now < *v {
            return Err(format!("{id}: {v} -> {now}"));
        }
    }
    Ok(())
}

/// Post-kill autopsy: every *published* artifact must be one complete
/// payload — the metrics exposition re-parses, the JSON twin parses,
/// and no trace-cache entry fails validation (quarantine count zero).
fn validate_artifacts(cache_dir: &Path, metrics: &Path) -> Result<(), String> {
    if metrics.exists() {
        let text = std::fs::read_to_string(metrics)
            .map_err(|e| format!("cannot read {}: {e}", metrics.display()))?;
        exposition::validate_text(&text)
            .map_err(|e| format!("torn/invalid metrics exposition {}: {e}", metrics.display()))?;
    }
    let twin = twin_path(metrics);
    if twin.exists() {
        let text = std::fs::read_to_string(&twin)
            .map_err(|e| format!("cannot read {}: {e}", twin.display()))?;
        Json::parse(&text)
            .map_err(|e| format!("torn metrics JSON twin {}: {e}", twin.display()))?;
    }
    let (_, quarantined) = TraceCache::new(cache_dir)
        .recover(Duration::ZERO)
        .map_err(|e| format!("trace-cache scan of {}: {e}", cache_dir.display()))?;
    if quarantined > 0 {
        return Err(format!(
            "{quarantined} torn/corrupt trace-cache entr(y/ies) found in {} after kill -9",
            cache_dir.display()
        ));
    }
    Ok(())
}

/// Recursively collects surviving `*.tmp` / `*.lock` staging files.
fn find_stale(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            find_stale(&path, out);
            continue;
        }
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".tmp") || name.ends_with(".lock") {
            out.push(path);
        }
    }
}

/// Polls for exit up to `timeout`, killing a hung child.
fn wait_exit(child: &mut Child, timeout: Duration) -> Result<std::process::ExitStatus, String> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("try_wait: {e}"))? {
            return Ok(status);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err("serve did not exit within the drain timeout".to_string());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
