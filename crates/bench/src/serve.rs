//! Replay-server engine behind the `serve` binary: request parsing,
//! batch scheduling, reply rendering, selfcheck, session accounting —
//! and the live telemetry surface.
//!
//! The binary owns only transport (stdin vs unix socket, accept retry)
//! and process-exit policy; everything protocol-shaped lives here so
//! tests can drive whole sessions through in-memory readers/writers.
//!
//! # Protocol
//!
//! One JSON object per line; a blank line (or EOF) flushes the current
//! batch through the work-stealing fleet and writes one reply line per
//! job in completion order (correlate by `id`). Two request forms:
//!
//! * Job: `{"kernel":"bzip2","scheme":"SRP"}` with optional `"id"`
//!   (defaults to the 1-based line number) and `"scale"`. Unknown
//!   fields are rejected — a typo'd field must not be silently
//!   ignored.
//! * Stats: `{"stats":true}` with optional `"id"` — answered
//!   **immediately** (not batched) with
//!   `{"id":…,"ok":true,"stats":{…}}`, a snapshot of the server's
//!   metrics registry at that instant: requests, batches, replies,
//!   per-cell fleet counters, trace-cache hits/misses, worker
//!   utilization. This is the in-band "what has this session actually
//!   done" probe; scraping it does not perturb the counters it reads
//!   (beyond counting the stats request itself).
//!
//! Every session records into an externally supplied
//! [`Registry`](crate::telemetry::Registry) (`grp_serve_*` families;
//! the fleet and trace-cache families land in the same registry), and
//! [`Server::write_metrics`] exports the whole registry as Prometheus
//! text plus a JSON twin for `--metrics-out`.

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grp_core::{Scheme, SimConfig};
use grp_workloads::Scale;

use crate::json::{run_result_json, Json};
use crate::sched::{self, BatchCtl, CellJob, CellResult, FleetStats, ReplayMode, WorkloadCache};
use crate::suite::SuiteScale;
use crate::telemetry::exposition;
use crate::telemetry::log::{self, Level};
use crate::telemetry::registry::{Registry, Shard};

/// Construction-time configuration for a [`Server`].
#[derive(Debug)]
pub struct ServerOpts {
    /// Fleet worker count per batch.
    pub workers: usize,
    /// Scale for requests that don't name one.
    pub default_scale: SuiteScale,
    /// Platform configuration for every cell.
    pub cfg: SimConfig,
    /// Replay tier + optional trace cache; its `telemetry` field is
    /// overwritten with [`ServerOpts::registry`] so fleet counters
    /// land in the server's registry.
    pub mode: ReplayMode,
    /// Re-run every successful reply serially and count mismatches.
    pub selfcheck: bool,
    /// The metrics registry this server records into (the binary
    /// passes the process-global one; tests pass a fresh one).
    pub registry: Arc<Registry>,
    /// Per-request wall-clock deadline (`--request-deadline-ms`),
    /// stamped at admission: a job still queued when it expires yields
    /// a named `deadline_exceeded` error reply instead of running.
    /// `None` never expires. Composes with the in-simulation
    /// `--max-cycles` watchdog (which bounds a cell already running).
    pub request_deadline: Option<Duration>,
    /// Bounded admission (`--max-inflight`): at most this many
    /// not-yet-flushed jobs per session; excess jobs are shed with a
    /// named `overloaded` error reply instead of queueing unboundedly.
    /// `None` sizes the bound from the worker count (workers × 8).
    pub max_inflight: Option<usize>,
}

impl ServerOpts {
    /// The effective admission bound ([`ServerOpts::max_inflight`] or
    /// the worker-derived default).
    pub fn effective_max_inflight(workers: usize, max_inflight: Option<usize>) -> usize {
        max_inflight.unwrap_or_else(|| workers.max(1) * 8).max(1)
    }
}

/// Why a [`Server::session`] ended — the binary's exit policy hinges
/// on which.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The request stream reached EOF (stdin closed / socket closed).
    Eof,
    /// The client sent the in-band `{"drain":true}` probe: the session
    /// flushed everything in flight and acknowledged; the process
    /// should export artifacts and exit 0.
    Drain,
    /// The client vanished mid-reply (broken pipe): the batch's
    /// remaining cells were cancelled; the session is over but the
    /// process (and other connections) live on.
    ClientGone,
}

/// The replay server: batching, scheduling, replies, telemetry.
#[derive(Debug)]
pub struct Server {
    workers: usize,
    default_scale: SuiteScale,
    cfg: SimConfig,
    cache: WorkloadCache,
    mode: ReplayMode,
    selfcheck: bool,
    registry: Arc<Registry>,
    shard: Arc<Shard>,
    request_deadline: Option<Duration>,
    max_inflight: usize,
    batches: u64,
    /// Session-lifetime aggregate for `--perf-out` (fleet entry shape).
    totals: Option<FleetStats>,
    /// Per-cell rows for the fleet entry's `kernels` array.
    rows: Vec<Json>,
    mismatches: u64,
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// A simulation job for the next batch.
    Job(CellJob),
    /// An in-band metrics probe, answered immediately.
    Stats {
        /// Echoed reply id.
        id: u64,
    },
    /// An in-band graceful-drain probe (`{"drain":true}`): flush the
    /// pending batch, acknowledge, end the session as
    /// [`SessionEnd::Drain`].
    Drain {
        /// Echoed reply id.
        id: u64,
    },
}

impl Server {
    /// A server recording into `opts.registry`.
    pub fn new(opts: ServerOpts) -> Self {
        let shard = opts.registry.shard();
        let mode = opts.mode.with_telemetry(opts.registry.clone());
        let max_inflight = ServerOpts::effective_max_inflight(opts.workers, opts.max_inflight);
        Server {
            workers: opts.workers,
            default_scale: opts.default_scale,
            cfg: opts.cfg,
            cache: WorkloadCache::new(),
            mode,
            selfcheck: opts.selfcheck,
            registry: opts.registry,
            shard,
            request_deadline: opts.request_deadline,
            max_inflight,
            batches: 0,
            totals: None,
            rows: Vec::new(),
            mismatches: 0,
        }
    }

    /// Selfcheck mismatches recorded so far (the binary's exit gate).
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// Session-lifetime fleet totals, if any batch ran.
    pub fn totals(&self) -> Option<&FleetStats> {
        self.totals.as_ref()
    }

    /// Takes the accumulated per-cell rows (for the `--perf-out`
    /// trajectory entry).
    pub fn take_rows(&mut self) -> Vec<Json> {
        std::mem::take(&mut self.rows)
    }

    /// The registry this server records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The default scale requests inherit.
    pub fn default_scale(&self) -> SuiteScale {
        self.default_scale
    }

    /// Reads one client's request stream, flushing a batch at every
    /// blank line and answering stats probes inline, until EOF, an
    /// in-band drain probe, or the client disappears. A broken pipe
    /// cancels the current batch's remaining cells and ends only this
    /// session — the server object (and any other connection) lives on.
    pub fn session<R: BufRead, W: Write>(&mut self, reader: R, out: &mut W) -> SessionEnd {
        let session_id = log::next_id();
        self.shard.counter("grp_serve_sessions_total", &[]).inc();
        log::log_kv(
            Level::Info,
            "serve",
            "session started",
            &[("session", session_id.into())],
        );
        let mut batch: Vec<Result<CellJob, (u64, String)>> = Vec::new();
        let mut lineno = 0u64;
        let mut end: Option<SessionEnd> = None;
        for line in reader.lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    log::log_kv(
                        Level::Error,
                        "serve",
                        "read failed; closing session",
                        &[
                            ("session", session_id.into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                    end = Some(SessionEnd::ClientGone);
                    break;
                }
            };
            lineno += 1;
            if line.trim().is_empty() {
                if !self.flush_batch(&mut batch, out) {
                    end = Some(SessionEnd::ClientGone);
                    break;
                }
                continue;
            }
            self.shard.counter("grp_serve_requests_total", &[]).inc();
            match parse_request(&line, lineno, self.default_scale) {
                Ok(Request::Job(mut job)) => {
                    let pending = batch.iter().filter(|r| r.is_ok()).count();
                    if pending >= self.max_inflight {
                        // Bounded admission: shed with a named reply
                        // instead of queueing unboundedly.
                        self.shard.counter("grp_serve_shed_total", &[]).inc();
                        batch.push(Err((
                            job.id,
                            format!(
                                "overloaded: batch already holds {} jobs (--max-inflight); request shed",
                                self.max_inflight
                            ),
                        )));
                    } else {
                        // The deadline clock starts at admission, so
                        // queueing time counts against it.
                        if let Some(d) = self.request_deadline {
                            job.deadline = Some(Instant::now() + d);
                        }
                        batch.push(Ok(job));
                    }
                }
                Ok(Request::Stats { id }) => {
                    self.shard
                        .counter("grp_serve_stats_requests_total", &[])
                        .inc();
                    // Count the reply before snapshotting so the probe
                    // sees itself — every reply on the wire is counted
                    // in the snapshot it carries.
                    self.shard
                        .counter("grp_serve_replies_total", &[("ok", "true")])
                        .inc();
                    let reply = self.stats_reply(id);
                    if let Err(e) = writeln!(out, "{}", reply.render()).and_then(|()| out.flush()) {
                        self.note_client_gone(&e);
                        end = Some(SessionEnd::ClientGone);
                        break;
                    }
                }
                Ok(Request::Drain { id }) => {
                    self.shard
                        .counter("grp_serve_drain_requests_total", &[])
                        .inc();
                    // Finish everything already admitted before
                    // acknowledging — the ack promises nothing is lost.
                    if !self.flush_batch(&mut batch, out) {
                        end = Some(SessionEnd::ClientGone);
                        break;
                    }
                    let reply = Json::object()
                        .set("id", id)
                        .set("ok", true)
                        .set("drain", true)
                        .set("batches", self.batches);
                    end = Some(
                        match writeln!(out, "{}", reply.render()).and_then(|()| out.flush()) {
                            Ok(()) => {
                                self.shard
                                    .counter("grp_serve_replies_total", &[("ok", "true")])
                                    .inc();
                                SessionEnd::Drain
                            }
                            Err(e) => {
                                self.note_client_gone(&e);
                                SessionEnd::ClientGone
                            }
                        },
                    );
                    break;
                }
                Err((id, e)) => {
                    self.shard
                        .counter("grp_serve_request_errors_total", &[])
                        .inc();
                    batch.push(Err((id, e)));
                }
            }
        }
        let end = match end {
            Some(e) => e,
            None => {
                if self.flush_batch(&mut batch, out) {
                    SessionEnd::Eof
                } else {
                    SessionEnd::ClientGone
                }
            }
        };
        log::log_kv(
            Level::Info,
            "serve",
            "session ended",
            &[
                ("session", session_id.into()),
                ("lines", lineno.into()),
                ("end", format!("{end:?}").into()),
            ],
        );
        end
    }

    /// The reply for one in-band stats probe: a full registry snapshot
    /// (counters, gauges, histograms) as of this instant.
    fn stats_reply(&self, id: u64) -> Json {
        let snap = self.registry.snapshot();
        Json::object()
            .set("id", id)
            .set("ok", true)
            .set("stats", exposition::snapshot_json(&snap, None))
    }

    /// Writes one reply line; `false` means the client is gone (the
    /// write or flush failed) and the caller must stop writing.
    fn write_reply<W: Write>(&self, out: &mut W, ok: bool, reply: Json) -> bool {
        if let Err(e) = writeln!(out, "{}", reply.render()).and_then(|()| out.flush()) {
            self.note_client_gone(&e);
            return false;
        }
        self.shard
            .counter(
                "grp_serve_replies_total",
                &[("ok", if ok { "true" } else { "false" })],
            )
            .inc();
        true
    }

    /// Records one client disappearance (broken pipe mid-reply).
    fn note_client_gone(&self, e: &std::io::Error) {
        self.shard
            .counter("grp_serve_client_disconnects_total", &[])
            .inc();
        log::log_kv(
            Level::Warn,
            "serve",
            "client disconnected mid-reply; dropping this batch's remaining work",
            &[("error", e.to_string().into())],
        );
    }

    /// Schedules the accumulated batch across the fleet and writes one
    /// reply line per job as its cell completes. Returns `false` when
    /// the client disappeared mid-batch: the batch's not-yet-started
    /// cells are cancelled (named [`sched::CANCELLED`] errors, never
    /// run) and further writes are suppressed — the session ends, the
    /// process does not.
    fn flush_batch<W: Write>(
        &mut self,
        batch: &mut Vec<Result<CellJob, (u64, String)>>,
        out: &mut W,
    ) -> bool {
        if batch.is_empty() {
            return true;
        }
        let mut jobs: Vec<CellJob> = Vec::new();
        for req in batch.drain(..) {
            match req {
                Ok(job) => jobs.push(job),
                Err((id, e)) => {
                    let reply = Json::object()
                        .set("id", id)
                        .set("ok", false)
                        .set("error", e);
                    if !self.write_reply(out, false, reply) {
                        // Client gone before the batch even started:
                        // the admitted jobs are dropped, not run.
                        return false;
                    }
                }
            }
        }
        if jobs.is_empty() {
            return true;
        }
        self.batches += 1;
        self.shard.counter("grp_serve_batches_total", &[]).inc();
        let mut completed: Vec<CellResult> = Vec::new();
        let ctl = BatchCtl::new();
        let gone = std::cell::Cell::new(false);
        // Workers record into their own registry shards inside
        // run_cells_ctl (mode.telemetry is this server's registry);
        // only serve-protocol counters go through self.shard here.
        let shard = self.shard.clone();
        let stats = sched::run_cells_ctl(
            &jobs,
            self.workers,
            &self.cache,
            &self.mode,
            Some(&ctl),
            |cell| {
                if !gone.get() {
                    let (ok, reply) = match &cell.outcome {
                        Ok(r) => (
                            true,
                            Json::object()
                                .set("id", cell.id)
                                .set("ok", true)
                                .set("bench", cell.kernel)
                                .set("scheme", cell.scheme.label())
                                .set("scale", scale_label(cell.scale))
                                .set("worker", cell.worker as u64)
                                .set("events", cell.events)
                                .set("replay_seconds", cell.replay_seconds)
                                .set("result", run_result_json(r, None)),
                        ),
                        Err(e) => (
                            false,
                            Json::object()
                                .set("id", cell.id)
                                .set("ok", false)
                                .set("error", e.as_str()),
                        ),
                    };
                    match writeln!(out, "{}", reply.render()).and_then(|()| out.flush()) {
                        Ok(()) => {
                            shard
                                .counter(
                                    "grp_serve_replies_total",
                                    &[("ok", if ok { "true" } else { "false" })],
                                )
                                .inc();
                        }
                        Err(e) => {
                            gone.set(true);
                            ctl.cancel();
                            shard
                                .counter("grp_serve_client_disconnects_total", &[])
                                .inc();
                            log::log_kv(
                                Level::Warn,
                                "serve",
                                "client disconnected mid-batch; cancelling remaining cells",
                                &[("error", e.to_string().into())],
                            );
                        }
                    }
                }
                completed.push(cell);
            },
        );
        self.shard
            .hist("grp_serve_batch_wall_micros", &[])
            .record((stats.wall_seconds * 1e6) as u64);
        self.shard
            .gauge("grp_serve_cached_workloads", &[])
            .set(self.cache.built_count() as f64);
        log::log_kv(
            Level::Info,
            "serve",
            "batch complete",
            &[
                ("batch", self.batches.into()),
                ("jobs", (stats.cells as u64).into()),
                ("errors", (stats.errors as u64).into()),
                ("wall_seconds", stats.wall_seconds.into()),
                ("events_per_sec", stats.events_per_sec().into()),
                ("cached_workloads", (self.cache.built_count() as u64).into()),
            ],
        );
        for cell in &completed {
            if let Ok(r) = &cell.outcome {
                self.rows.push(
                    Json::object()
                        .set("bench", cell.kernel)
                        .set("scheme", cell.scheme.label())
                        .set("events", cell.events)
                        .set("sim_cycles", r.cycles)
                        .set("replay_seconds", cell.replay_seconds)
                        .set(
                            "events_per_sec",
                            cell.events as f64 / cell.replay_seconds.max(1e-9),
                        )
                        .set(
                            "sim_cycles_per_sec",
                            r.cycles as f64 / cell.replay_seconds.max(1e-9),
                        )
                        .set("worker", cell.worker as u64),
                );
            }
        }
        self.absorb(stats);
        if self.selfcheck {
            self.selfcheck_batch(&completed);
        }
        !gone.get()
    }

    /// Folds one batch's fleet stats into the session totals.
    fn absorb(&mut self, s: FleetStats) {
        match &mut self.totals {
            None => self.totals = Some(s),
            Some(t) => {
                t.cells += s.cells;
                t.errors += s.errors;
                t.wall_seconds += s.wall_seconds;
                t.events += s.events;
                t.sim_cycles += s.sim_cycles;
                t.replay_seconds += s.replay_seconds;
                t.setup_seconds += s.setup_seconds;
                t.traces_interpreted += s.traces_interpreted;
                t.traces_loaded += s.traces_loaded;
                t.steals += s.steals;
                t.queue_wait_micros.absorb(&s.queue_wait_micros);
                // Worker count is fixed for the session (--jobs), but a
                // tiny batch can spawn fewer workers than configured —
                // fold per-worker columns index-wise.
                for w in 0..s.workers.min(t.workers) {
                    t.busy_seconds[w] += s.busy_seconds[w];
                    t.cells_per_worker[w] += s.cells_per_worker[w];
                }
            }
        }
    }

    /// Re-runs every completed cell serially on a **freshly built**
    /// workload (no shared cache — full independence from the fleet
    /// path) and records any bit-difference. The serial side always
    /// interprets afresh, so under `--trace-cache` (hits replay the
    /// packed trace) this is also a per-reply cache identity gate.
    fn selfcheck_batch(&mut self, completed: &[CellResult]) {
        for cell in completed {
            let Ok(got) = &cell.outcome else { continue };
            let Some(w) = grp_workloads::by_name(cell.kernel) else {
                continue;
            };
            let want = w.build(cell.scale).run(cell.scheme, &self.cfg);
            if *got != want {
                log::log_kv(
                    Level::Error,
                    "serve",
                    "selfcheck mismatch: fleet result differs from serial path",
                    &[
                        ("bench", cell.kernel.into()),
                        ("scheme", cell.scheme.label().into()),
                        ("scale", scale_label(cell.scale).into()),
                        ("fleet_cycles", got.cycles.into()),
                        ("serial_cycles", want.cycles.into()),
                    ],
                );
                self.mismatches += 1;
                self.shard
                    .counter("grp_serve_selfcheck_mismatches_total", &[])
                    .inc();
            }
        }
    }

    /// Writes the registry as Prometheus-style text to `path` and as
    /// JSON (with the explicitly wall-clock `scraped_at_unix_micros`
    /// field) to `<path>.json`, both atomically — see
    /// [`exposition::write_registry`], which this delegates to.
    ///
    /// # Errors
    ///
    /// Any staged-write I/O error; metrics export is best-effort, so
    /// callers typically warn and continue.
    pub fn write_metrics(&self, path: &str) -> std::io::Result<()> {
        exposition::write_registry(&self.registry, path)
    }
}

/// Seeds `registry` with the counter values from a previous scrape's
/// JSON twin (`--metrics-out <path>.json`), so counters stay monotone
/// across a process restart: the new process's scrapes start where the
/// dead one's ended instead of snapping back to zero. Returns how many
/// counters were carried over.
///
/// # Errors
///
/// The file is unreadable, unparsable, or has no `counters` object —
/// callers warn and start from zero (losing monotonicity, not data).
pub fn seed_counters_from_json(registry: &Registry, path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("malformed: {e}"))?;
    let counters = doc
        .get("counters")
        .ok_or_else(|| "no 'counters' object".to_string())?;
    let entries = counters
        .entries()
        .ok_or_else(|| "'counters' is not an object".to_string())?;
    let shard = registry.shard();
    let mut n = 0usize;
    for (id, value) in entries {
        let Some(v) = value.as_u64() else { continue };
        if v > 0 {
            shard.counter_id(id).add(v);
            n += 1;
        }
    }
    Ok(n)
}

/// Bounded exponential backoff for socket accept failures: 10ms
/// doubling to a 1.28s cap, giving up (terminal `None`) after 8
/// consecutive failures. One success resets the schedule — only an
/// unbroken failure run is treated as a dead listener.
#[derive(Debug, Default)]
pub struct AcceptBackoff {
    consecutive: u32,
}

impl AcceptBackoff {
    /// Consecutive failures tolerated before giving up.
    pub const MAX_FAILURES: u32 = 8;

    /// A fresh schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one failure: the delay to sleep before retrying, or
    /// `None` when the failure run is terminal and the caller should
    /// stop accepting.
    pub fn on_failure(&mut self) -> Option<Duration> {
        self.consecutive += 1;
        if self.consecutive > Self::MAX_FAILURES {
            return None;
        }
        // 10ms, 20ms, 40ms, … capped at 1280ms.
        Some(Duration::from_millis(
            10u64 << (self.consecutive - 1).min(7),
        ))
    }

    /// Registers a successful accept, resetting the schedule.
    pub fn on_success(&mut self) {
        self.consecutive = 0;
    }

    /// Consecutive failures registered so far (including the terminal
    /// one), for the give-up log line.
    pub fn failures(&self) -> u32 {
        self.consecutive
    }

    /// Emits the terminal give-up line through the structured logger —
    /// level `error`, naming the failure count and the last OS error —
    /// so a dying listener leaves a machine-readable last word instead
    /// of a silent exit.
    pub fn log_terminal(&self, last_error: &std::io::Error) {
        log::log_kv(
            Level::Error,
            "serve",
            "accept failing terminally; giving up",
            &[
                ("failures", u64::from(self.consecutive).into()),
                ("last_error", last_error.to_string().into()),
                (
                    "errno",
                    last_error
                        .raw_os_error()
                        .map_or("none".to_string(), |e| e.to_string())
                        .into(),
                ),
            ],
        );
    }
}

/// The trajectory/scale tag for a workload scale.
pub fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// Parses one request line into a job or stats probe; errors carry the
/// reply id.
///
/// # Errors
///
/// `(id, message)` naming the malformed field; the reply id is the
/// request's own `id` when present and well-formed, else the 1-based
/// line number.
pub fn parse_request(
    line: &str,
    lineno: u64,
    default_scale: SuiteScale,
) -> Result<Request, (u64, String)> {
    let doc = Json::parse(line).map_err(|e| (lineno, format!("malformed request: {e}")))?;
    let fields = doc
        .entries()
        .ok_or((lineno, "request must be a JSON object".to_string()))?;
    // The id (when present and well-formed) tags even the errors below.
    let id = doc.get("id").and_then(|v| v.as_u64()).unwrap_or(lineno);
    if doc.get("stats").is_some() {
        for (key, value) in fields {
            match key.as_str() {
                "stats" => {
                    if value.as_bool() != Some(true) {
                        return Err((id, "'stats' must be true".to_string()));
                    }
                }
                "id" => {
                    value
                        .as_u64()
                        .ok_or((id, "'id' must be a non-negative integer".to_string()))?;
                }
                other => {
                    return Err((
                        id,
                        format!("unknown stats-request field '{other}' (valid: stats, id)"),
                    ))
                }
            }
        }
        return Ok(Request::Stats { id });
    }
    if doc.get("drain").is_some() {
        for (key, value) in fields {
            match key.as_str() {
                "drain" => {
                    if value.as_bool() != Some(true) {
                        return Err((id, "'drain' must be true".to_string()));
                    }
                }
                "id" => {
                    value
                        .as_u64()
                        .ok_or((id, "'id' must be a non-negative integer".to_string()))?;
                }
                other => {
                    return Err((
                        id,
                        format!("unknown drain-request field '{other}' (valid: drain, id)"),
                    ))
                }
            }
        }
        return Ok(Request::Drain { id });
    }
    let mut kernel: Option<&'static str> = None;
    let mut scheme: Option<Scheme> = None;
    let mut scale: Scale = default_scale.workload_scale();
    for (key, value) in fields {
        match key.as_str() {
            "id" => {
                value
                    .as_u64()
                    .ok_or((id, "'id' must be a non-negative integer".to_string()))?;
            }
            "kernel" => {
                let name = value
                    .as_str()
                    .ok_or((id, "'kernel' must be a string".to_string()))?;
                kernel = Some(
                    grp_workloads::by_name(name)
                        .map(|w| w.name)
                        .ok_or_else(|| {
                            (id, format!("unknown kernel '{name}' (valid: registry names, e.g. gzip, mcf, bzip2)"))
                        })?,
                );
            }
            "scheme" => {
                let label = value
                    .as_str()
                    .ok_or((id, "'scheme' must be a string".to_string()))?;
                scheme = Some(Scheme::by_label(label).ok_or_else(|| {
                    (
                        id,
                        format!(
                            "unknown scheme '{label}' (valid: {})",
                            Scheme::ALL.map(|s| s.label()).join(", ")
                        ),
                    )
                })?);
            }
            "scale" => {
                let s = value
                    .as_str()
                    .ok_or((id, "'scale' must be a string".to_string()))?;
                scale = SuiteScale::parse(s)
                    .ok_or_else(|| (id, format!("unknown scale '{s}' (valid: test, small, paper)")))?
                    .workload_scale();
            }
            other => {
                return Err((
                    id,
                    format!(
                        "unknown request field '{other}' (valid: id, kernel, scheme, scale, stats, drain)"
                    ),
                ))
            }
        }
    }
    Ok(Request::Job(CellJob {
        id,
        kernel: kernel.ok_or((id, "request missing 'kernel'".to_string()))?,
        scheme: scheme.ok_or((id, "request missing 'scheme'".to_string()))?,
        scale,
        cfg: SimConfig::paper(),
        // Stamped at admission when the server has a deadline policy.
        deadline: None,
    }))
}

/// Validates a saved reply stream: every line parses, has a boolean
/// `ok`, and successful replies carry the summary fields (stats
/// replies carry their snapshot object instead; drain acks carry
/// `drain: true`). Any `ok: false` line is reported as a failure.
///
/// # Errors
///
/// The first malformed or failed line, or an empty file.
pub fn check_replies(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let mut n = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: malformed: {e}", i + 1))?;
        let ok = doc
            .get("ok")
            .and_then(|v| v.as_bool())
            .ok_or(format!("line {}: missing boolean 'ok'", i + 1))?;
        doc.get("id")
            .and_then(|v| v.as_u64())
            .ok_or(format!("line {}: missing 'id'", i + 1))?;
        if !ok {
            let e = doc
                .get("error")
                .and_then(|v| v.as_str())
                .unwrap_or("<no error field>");
            return Err(format!("line {}: reply failed: {e}", i + 1));
        }
        if let Some(stats) = doc.get("stats") {
            if stats.get("counters").is_none() {
                return Err(format!("line {}: stats reply missing 'counters'", i + 1));
            }
            n += 1;
            continue;
        }
        if doc.get("drain").and_then(|v| v.as_bool()) == Some(true) {
            n += 1;
            continue;
        }
        for key in ["bench", "scheme", "scale"] {
            doc.get(key)
                .and_then(|v| v.as_str())
                .ok_or(format!("line {}: missing string '{key}'", i + 1))?;
        }
        let cycles = doc
            .get("result")
            .and_then(|r| r.get("cycles"))
            .and_then(|v| v.as_u64())
            .ok_or(format!("line {}: missing result.cycles", i + 1))?;
        if cycles == 0 {
            return Err(format!("line {}: zero-cycle result", i + 1));
        }
        n += 1;
    }
    if n == 0 {
        return Err("no replies in file".to_string());
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_server(workers: usize) -> Server {
        test_server_opts(workers, None, None)
    }

    fn test_server_opts(
        workers: usize,
        request_deadline: Option<Duration>,
        max_inflight: Option<usize>,
    ) -> Server {
        Server::new(ServerOpts {
            workers,
            default_scale: SuiteScale::Test,
            cfg: SimConfig::paper(),
            mode: ReplayMode::default(),
            selfcheck: false,
            registry: Arc::new(Registry::new()),
            request_deadline,
            max_inflight,
        })
    }

    fn run_session(server: &mut Server, input: &str) -> Vec<Json> {
        let mut out = Vec::new();
        server.session(std::io::Cursor::new(input.to_string()), &mut out);
        String::from_utf8(out)
            .expect("utf8 replies")
            .lines()
            .map(|l| Json::parse(l).expect("reply parses"))
            .collect()
    }

    /// A writer that reports `BrokenPipe` once a byte budget is spent —
    /// a client that hangs up mid-reply.
    struct FailAfter {
        written: Vec<u8>,
        budget: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.written.len() + buf.len() > self.budget {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "peer closed",
                ));
            }
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn reply_by_id(replies: &[Json], id: u64) -> &Json {
        replies
            .iter()
            .find(|r| r.get("id").and_then(|v| v.as_u64()) == Some(id))
            .unwrap_or_else(|| panic!("no reply with id {id}"))
    }

    fn reply_ok(reply: &Json) -> Option<bool> {
        reply.get("ok").and_then(|v| v.as_bool())
    }

    #[test]
    fn broken_pipe_mid_batch_cancels_without_killing_the_server() {
        let mut server = test_server(2);
        let input = concat!(
            r#"{"kernel":"twolf","scheme":"SRP","id":1}"#,
            "\n",
            r#"{"kernel":"gzip","scheme":"SRP","id":2}"#,
            "\n",
            r#"{"kernel":"mcf","scheme":"SRP","id":3}"#,
            "\n",
            "\n",
        );
        let mut out = FailAfter {
            written: Vec::new(),
            budget: 0,
        };
        let end = server.session(std::io::Cursor::new(input.to_string()), &mut out);
        assert_eq!(end, SessionEnd::ClientGone);
        assert!(out.written.is_empty(), "nothing landed on the dead pipe");
        let snap = server.registry().snapshot();
        assert_eq!(snap.counter("grp_serve_client_disconnects_total"), 1);
        // The server object survives the disconnect: a fresh session on
        // the same server still answers.
        let replies = run_session(
            &mut server,
            "{\"kernel\":\"twolf\",\"scheme\":\"none\",\"id\":9}\n\n",
        );
        assert_eq!(replies.len(), 1);
        assert_eq!(reply_ok(&replies[0]), Some(true));
    }

    #[test]
    fn eof_mid_request_line_fails_only_that_request() {
        let mut server = test_server(1);
        // A valid job, then a half-written line with no trailing
        // newline (the client died mid-send).
        let input = concat!(
            r#"{"kernel":"twolf","scheme":"none","id":1}"#,
            "\n",
            r#"{"kernel":"gzip","scheme":"SR"#,
        );
        let replies = run_session(&mut server, input);
        assert_eq!(replies.len(), 2, "both lines get a reply at EOF flush");
        assert_eq!(reply_ok(reply_by_id(&replies, 1)), Some(true));
        let half = reply_by_id(&replies, 2); // falls back to the line number
        assert_eq!(reply_ok(half), Some(false));
        let e = half.get("error").and_then(|v| v.as_str()).unwrap();
        assert!(e.contains("malformed request"), "{e}");
    }

    #[test]
    fn truncated_json_mid_batch_fails_only_that_request() {
        let mut server = test_server(1);
        let input = concat!(
            r#"{"kernel":"twolf","scheme":"none","id":1}"#,
            "\n",
            r#"{"kernel":"gzip","#,
            "\n",
            r#"{"kernel":"mcf","scheme":"SRP","id":3}"#,
            "\n",
            "\n",
        );
        let replies = run_session(&mut server, input);
        assert_eq!(replies.len(), 3);
        assert_eq!(reply_ok(reply_by_id(&replies, 1)), Some(true));
        assert_eq!(reply_ok(reply_by_id(&replies, 3)), Some(true));
        assert_eq!(reply_ok(reply_by_id(&replies, 2)), Some(false));
    }

    #[test]
    fn expired_request_deadline_returns_named_error_reply() {
        let mut server = test_server_opts(2, Some(Duration::ZERO), None);
        let replies = run_session(
            &mut server,
            "{\"kernel\":\"twolf\",\"scheme\":\"SRP\",\"id\":5}\n\n",
        );
        assert_eq!(replies.len(), 1, "an expired job still gets its reply");
        assert_eq!(reply_ok(&replies[0]), Some(false));
        let e = replies[0].get("error").and_then(|v| v.as_str()).unwrap();
        assert!(e.starts_with(sched::DEADLINE_EXCEEDED), "{e}");
    }

    #[test]
    fn overload_sheds_excess_jobs_with_named_replies() {
        let mut server = test_server_opts(1, None, Some(1));
        let input = concat!(
            r#"{"kernel":"twolf","scheme":"none","id":1}"#,
            "\n",
            r#"{"kernel":"twolf","scheme":"SRP","id":2}"#,
            "\n",
            r#"{"kernel":"gzip","scheme":"SRP","id":3}"#,
            "\n",
            "\n",
        );
        let replies = run_session(&mut server, input);
        assert_eq!(replies.len(), 3, "shed jobs still get replies");
        assert_eq!(reply_ok(reply_by_id(&replies, 1)), Some(true));
        for id in [2u64, 3] {
            let r = reply_by_id(&replies, id);
            assert_eq!(reply_ok(r), Some(false));
            let e = r.get("error").and_then(|v| v.as_str()).unwrap();
            assert!(e.starts_with("overloaded"), "{e}");
        }
        let snap = server.registry().snapshot();
        assert_eq!(snap.counter("grp_serve_shed_total"), 2);
    }

    #[test]
    fn drain_probe_flushes_and_ends_the_session() {
        let mut server = test_server(1);
        // The drain arrives with a job still batched (no blank line):
        // the ack must come after that job's reply, and the line after
        // the drain must never be read.
        let input = concat!(
            r#"{"kernel":"twolf","scheme":"none","id":1}"#,
            "\n",
            r#"{"drain":true,"id":42}"#,
            "\n",
            r#"{"kernel":"gzip","scheme":"SRP","id":9}"#,
            "\n",
        );
        let mut out = Vec::new();
        let end = server.session(std::io::Cursor::new(input.to_string()), &mut out);
        assert_eq!(end, SessionEnd::Drain);
        let replies: Vec<Json> = String::from_utf8(out.clone())
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(
            replies.len(),
            2,
            "flushed job reply + drain ack, nothing after"
        );
        assert_eq!(replies[0].get("id").and_then(|v| v.as_u64()), Some(1));
        let ack = &replies[1];
        assert_eq!(ack.get("id").and_then(|v| v.as_u64()), Some(42));
        assert_eq!(reply_ok(ack), Some(true));
        assert_eq!(ack.get("drain").and_then(|v| v.as_bool()), Some(true));
        // The ack'd stream validates end to end.
        let dir = std::env::temp_dir().join(format!("grp-serve-drain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replies.ndjson");
        std::fs::write(&path, &out).unwrap();
        assert_eq!(check_replies(path.to_str().unwrap()), Ok(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_request_handles_drain_probes() {
        match parse_request(r#"{"drain":true,"id":7}"#, 1, SuiteScale::Test).expect("drain") {
            Request::Drain { id } => assert_eq!(id, 7),
            other => panic!("expected drain, got {other:?}"),
        }
        let (_, e) = parse_request(r#"{"drain":false}"#, 2, SuiteScale::Test).unwrap_err();
        assert!(e.contains("'drain' must be true"), "{e}");
        let (_, e) =
            parse_request(r#"{"drain":true,"kernel":"gzip"}"#, 3, SuiteScale::Test).unwrap_err();
        assert!(e.contains("unknown drain-request field 'kernel'"), "{e}");
    }

    #[test]
    fn accept_backoff_terminal_boundary_logs_through_the_logger() {
        let mut b = AcceptBackoff::new();
        for i in 1..=AcceptBackoff::MAX_FAILURES {
            assert!(b.on_failure().is_some(), "failure {i} still retries");
        }
        assert_eq!(b.failures(), AcceptBackoff::MAX_FAILURES);
        assert_eq!(b.on_failure(), None, "one past MAX_FAILURES is terminal");
        assert_eq!(b.failures(), AcceptBackoff::MAX_FAILURES + 1);
        // The terminal line goes through the structured logger (must
        // not panic even with an errno-less error).
        b.log_terminal(&std::io::Error::from_raw_os_error(98));
        b.log_terminal(&std::io::Error::new(std::io::ErrorKind::Other, "synthetic"));
    }

    #[test]
    fn accept_backoff_schedule_is_exact() {
        let mut b = AcceptBackoff::new();
        let mut delays = Vec::new();
        loop {
            match b.on_failure() {
                Some(d) => delays.push(d.as_millis() as u64),
                None => break,
            }
        }
        assert_eq!(delays, [10, 20, 40, 80, 160, 320, 640, 1280]);
        // A success resets the schedule back to the first step.
        b.on_success();
        assert_eq!(b.on_failure(), Some(Duration::from_millis(10)));
    }

    #[test]
    fn parse_request_handles_jobs_stats_and_rejections() {
        let job = parse_request(
            r#"{"kernel":"twolf","scheme":"SRP","id":9}"#,
            1,
            SuiteScale::Test,
        )
        .expect("job parses");
        match job {
            Request::Job(j) => {
                assert_eq!(j.id, 9);
                assert_eq!(j.kernel, "twolf");
            }
            other => panic!("expected job, got {other:?}"),
        }
        match parse_request(r#"{"stats":true,"id":3}"#, 2, SuiteScale::Test).expect("stats") {
            Request::Stats { id } => assert_eq!(id, 3),
            other => panic!("expected stats, got {other:?}"),
        }
        let (_, e) = parse_request(r#"{"stats":false}"#, 3, SuiteScale::Test).unwrap_err();
        assert!(e.contains("'stats' must be true"), "{e}");
        let (_, e) =
            parse_request(r#"{"stats":true,"kernel":"gzip"}"#, 4, SuiteScale::Test).unwrap_err();
        assert!(e.contains("unknown stats-request field 'kernel'"), "{e}");
        let (_, e) = parse_request(r#"{"kernel":"twolf"}"#, 5, SuiteScale::Test).unwrap_err();
        assert!(e.contains("missing 'scheme'"), "{e}");
    }

    #[test]
    fn stats_reply_counts_match_session_activity() {
        let mut server = test_server(2);
        // 3 job requests (one bad scheme), a flush, then a stats probe.
        let input = concat!(
            r#"{"kernel":"twolf","scheme":"none","id":1}"#,
            "\n",
            r#"{"kernel":"crafty","scheme":"SRP","id":2}"#,
            "\n",
            r#"{"kernel":"twolf","scheme":"SPR","id":3}"#,
            "\n",
            "\n",
            r#"{"stats":true,"id":99}"#,
            "\n",
        );
        let replies = run_session(&mut server, input);
        assert_eq!(replies.len(), 4, "3 job replies + 1 stats reply");
        let stats = replies
            .iter()
            .find(|r| r.get("id").and_then(|v| v.as_u64()) == Some(99))
            .and_then(|r| r.get("stats"))
            .expect("stats reply present");
        let counter = |name: &str| {
            stats
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
        };
        // 4 non-blank request lines: 3 jobs + the stats probe itself.
        assert_eq!(counter("grp_serve_requests_total"), 4);
        assert_eq!(counter("grp_serve_stats_requests_total"), 1);
        assert_eq!(counter("grp_serve_request_errors_total"), 1);
        assert_eq!(counter("grp_serve_batches_total"), 1);
        // The batch replayed exactly the two valid cells.
        assert_eq!(
            counter("grp_fleet_cells_total{bench=\"twolf\",scheme=\"none\"}"),
            1
        );
        assert_eq!(
            counter("grp_fleet_cells_total{bench=\"crafty\",scheme=\"SRP\"}"),
            1
        );
        // Replies at stats time: 2 ok cells + 1 error + the stats
        // reply itself (counted before rendering the snapshot).
        assert_eq!(counter("grp_serve_replies_total{ok=\"true\"}"), 3);
        assert_eq!(counter("grp_serve_replies_total{ok=\"false\"}"), 1);
        // Session totals track the successful cells.
        let totals = server.totals().expect("batch ran");
        assert_eq!(totals.cells, 2);
        assert_eq!(totals.errors, 0);
        assert_eq!(server.mismatches(), 0);
    }

    #[test]
    fn selfcheck_passes_on_identical_paths_and_metrics_export_roundtrips() {
        let dir = std::env::temp_dir().join(format!("grp-serve-metrics-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache = Arc::new(crate::tracecache::TraceCache::new(dir.join("tc")));
        let mut server = Server::new(ServerOpts {
            workers: 2,
            default_scale: SuiteScale::Test,
            cfg: SimConfig::paper(),
            mode: ReplayMode {
                trace_cache: Some(cache),
                ..ReplayMode::default()
            },
            selfcheck: true,
            registry: Arc::new(Registry::new()),
            request_deadline: None,
            max_inflight: None,
        });
        let input = concat!(
            r#"{"kernel":"gzip","scheme":"SRP"}"#,
            "\n",
            r#"{"kernel":"mcf","scheme":"none"}"#,
            "\n",
        );
        // The first session fills the trace cache; the second is served
        // from it, replaying the packed traces.
        for _ in 0..2 {
            let replies = run_session(&mut server, input);
            assert_eq!(replies.len(), 2);
            assert!(replies
                .iter()
                .all(|r| r.get("ok").and_then(|v| v.as_bool()) == Some(true)));
        }
        assert_eq!(
            server.mismatches(),
            0,
            "cached fleet path matches serial replay"
        );

        let path = dir.join("metrics.prom");
        server
            .write_metrics(path.to_str().unwrap())
            .expect("export");
        let text = std::fs::read_to_string(&path).expect("text exists");
        let parsed = exposition::validate_text(&text).expect("exposition validates");
        assert!(parsed.counters.contains_key("grp_serve_batches_total"));
        let twin = std::fs::read_to_string(format!("{}.json", path.display())).expect("json twin");
        let doc = Json::parse(&twin).expect("twin parses");
        assert!(doc
            .get("scraped_at_unix_micros")
            .and_then(|v| v.as_u64())
            .is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counter_carryover_keeps_scrapes_monotone_across_restart() {
        let mut server = test_server(1);
        let _ = run_session(
            &mut server,
            "{\"kernel\":\"twolf\",\"scheme\":\"none\"}\n\n",
        );
        let dir = std::env::temp_dir().join(format!("grp-serve-carry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        server
            .write_metrics(path.to_str().unwrap())
            .expect("export");
        let before = server.registry().snapshot();
        // "Restart": a fresh registry seeded from the scrape's JSON
        // twin must never read below the dead process's last values.
        let reg = Registry::new();
        let n = seed_counters_from_json(&reg, &format!("{}.json", path.display())).expect("seed");
        assert!(n > 0, "something was carried over");
        let after = reg.snapshot();
        for (id, v) in &before.counters {
            assert!(after.counter(id) >= *v, "{id} went backwards after restart");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reply_stream_with_stats_passes_check_replies() {
        let mut server = test_server(1);
        let input = concat!(
            r#"{"kernel":"twolf","scheme":"none"}"#,
            "\n",
            "\n",
            r#"{"stats":true}"#,
            "\n",
        );
        let mut out = Vec::new();
        server.session(std::io::Cursor::new(input.to_string()), &mut out);
        let dir = std::env::temp_dir().join(format!("grp-serve-replies-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replies.ndjson");
        std::fs::write(&path, &out).unwrap();
        let n = check_replies(path.to_str().unwrap()).expect("replies validate");
        assert_eq!(n, 2, "one job reply + one stats reply");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
