//! Tracer of the perfbench benchmark.
//!
//! Sends the cells of one benchmark workload through each layer's
//! public functions from this crate's own code, recording one span per
//! layer call (name, start, end, owning cell or request id, worker).
//! Spans stay in memory and are written as a Chrome trace file at the
//! end. The last stdout line is one JSON object with per-layer times,
//! exact operation counts, scheduler accounting and every cell's result,
//! which `perfbench/run.py` checks against `results_small.json`.
//!
//! ```text
//! tracer paper-cold --workers N --spans <path>
//! tracer serve-warm --workers N --spans <path> --cache-dir <empty dir>
//!        --warm <requests> --timed <requests>
//! ```
//!
//! `paper-cold` runs the 18 x 12 grid of `all --scale small` three
//! ways: through the layers (build, analyze, interpret, replay) on a
//! pool of N workers, through `sched::run_cells`, and through a filled
//! `Suite` and the `experiments` functions. `serve-warm` reads the
//! request files the benchmark sends to `serve`: blank-line separated
//! batches of job lines. It runs the warm batches through the layers
//! (misses: build, analyze, interpret, pack, store; hits: load, unpack),
//! the timed batches through the layers, and then the timed batches
//! through `sched::run_cells_mode` and `Server::session` in turn.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use grp_bench::experiments;
use grp_bench::json::{run_result_json, Json};
use grp_bench::sched::{self, CellJob, CellResult, FleetStats, ReplayMode, WorkloadCache};
use grp_bench::serve::{parse_request, Request, Server, ServerOpts};
use grp_bench::telemetry::registry::Registry;
use grp_bench::tracecache::TraceCache;
use grp_bench::{Suite, SuiteScale};
use grp_core::{run_trace, RunResult, Scheme, SimConfig};
use grp_cpu::PackedTrace;
use grp_ir::HintMap;
use grp_workloads::{BenchClass, BuiltWorkload, Scale};

static T0: OnceLock<Instant> = OnceLock::new();

/// Seconds since the tracer started.
fn now() -> f64 {
    T0.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// One layer call.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    /// The cell or request id the call worked for.
    owner: u64,
    worker: usize,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Worker id of spans recorded outside the cell workers.
const MAIN: usize = 99;

/// Span recorder of one worker.
struct Rec {
    worker: usize,
    owner: u64,
    spans: Vec<Span>,
}

impl Rec {
    fn new(worker: usize) -> Self {
        Rec {
            worker,
            owner: 0,
            spans: Vec::new(),
        }
    }

    fn push(&mut self, name: &'static str, start: f64) {
        let (owner, worker) = (self.owner, self.worker);
        self.spans.push(Span {
            name,
            start,
            end: now(),
            owner,
            worker,
        });
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = now();
        let v = f();
        self.push(name, start);
        v
    }
}

/// One cell's outcome in a layer pass.
struct CellOut {
    id: u64,
    kernel: &'static str,
    scheme: Scheme,
    events: u64,
    /// Trace-cache outcome; `None` when no cache is configured.
    hit: Option<bool>,
    replay_s: f64,
    result: RunResult,
}

/// Shared state of a layer pass: built workloads (each built once, on
/// first use, by whichever worker needs it first) and the trace cache.
struct Ctx {
    cfg: SimConfig,
    scale: Scale,
    cache: Option<TraceCache>,
    builds: Mutex<HashMap<&'static str, Arc<OnceLock<Arc<BuiltWorkload>>>>>,
}

impl Ctx {
    /// The built workload; the worker that builds records a
    /// `workloads.build` span, one that blocks on another worker's
    /// build a `workloads.wait` span.
    fn built(&self, kernel: &'static str, rec: &mut Rec) -> Arc<BuiltWorkload> {
        let slot = self
            .builds
            .lock()
            .expect("build table")
            .entry(kernel)
            .or_default()
            .clone();
        if let Some(b) = slot.get() {
            return b.clone();
        }
        let start = now();
        let mut built_here = false;
        let b = slot
            .get_or_init(|| {
                built_here = true;
                let w = grp_workloads::by_name(kernel).expect("registered kernel");
                Arc::new(w.build(self.scale))
            })
            .clone();
        rec.push(
            if built_here {
                "workloads.build"
            } else {
                "workloads.wait"
            },
            start,
        );
        b
    }

    /// One cell through the layers, in the order `sched::run_cell` calls
    /// them: a cache hit loads, unpacks and replays; a miss builds,
    /// analyzes, interprets, packs and stores (with a cache), and replays.
    fn cell(&self, job: &CellJob, rec: &mut Rec) -> CellOut {
        let cc = job.scheme.compiler_config();
        let out = |events, hit, replay_s, result| CellOut {
            id: job.id,
            kernel: job.kernel,
            scheme: job.scheme,
            events,
            hit,
            replay_s,
            result,
        };
        if let Some(tc) = &self.cache {
            let hit = rec.span("tracecache.load", || {
                tc.load(job.kernel, job.scale, cc.as_ref())
            });
            if let Some((pt, mem, heap)) = hit {
                let events = pt.event_count();
                let trace = rec.span("cpu.unpack", || pt.unpack());
                let t = now();
                let result = rec.span("core.replay", || {
                    run_trace(&trace, &mem, heap, job.scheme, &self.cfg)
                });
                let replay_s = now() - t;
                rec.span("cpu.free", || drop((trace, pt, mem)));
                return out(events, Some(true), replay_s, result);
            }
        }
        let built = self.built(job.kernel, rec);
        let hints = match &cc {
            Some(c) => rec.span("compiler.analyze", || {
                grp_compiler::analyze(&built.program, c)
            }),
            None => HintMap::empty(),
        };
        let (trace, mem) = rec.span("ir.interpret", || built.trace_with_hints(&hints));
        let events = trace.events().len() as u64;
        if let Some(tc) = &self.cache {
            let pt = rec.span("cpu.pack", || {
                PackedTrace::pack(&trace).expect("trace packs")
            });
            rec.span("tracecache.store", || {
                tc.store(job.kernel, job.scale, cc.as_ref(), &pt, &mem, built.heap)
            })
            .expect("trace-cache store");
            rec.span("cpu.free", || drop(pt));
        }
        let t = now();
        let result = rec.span("core.replay", || {
            run_trace(&trace, &mem, built.heap, job.scheme, &self.cfg)
        });
        let replay_s = now() - t;
        rec.span("ir.free", || drop((trace, mem)));
        out(events, self.cache.as_ref().map(|_| false), replay_s, result)
    }
}

/// The outcome of a layer pass.
#[derive(Default)]
struct Pass {
    cells: Vec<CellOut>,
    spans: Vec<Span>,
    wall: f64,
}

/// Runs every batch through the layers on `workers` threads, one batch
/// at a time (a new pool per batch, as the scheduler does). Within a
/// batch cells start largest-first by `sched::cell_weight`.
fn layer_pass(batches: &[Vec<CellJob>], workers: usize, ctx: &Ctx) -> Pass {
    let mut pass = Pass::default();
    let start = now();
    for batch in batches {
        let mut ordered = batch.clone();
        ordered.sort_by_key(|j| std::cmp::Reverse(sched::cell_weight(j.kernel, j.scheme)));
        let queue = Mutex::new(VecDeque::from(ordered));
        let n = workers.max(1).min(batch.len().max(1));
        let results: Vec<(Vec<Span>, Vec<CellOut>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|w| {
                    let queue = &queue;
                    s.spawn(move || {
                        let mut rec = Rec::new(w);
                        let mut outs = Vec::new();
                        loop {
                            let Some(job) = queue.lock().expect("queue").pop_front() else {
                                break;
                            };
                            rec.owner = job.id;
                            let t = now();
                            outs.push(ctx.cell(&job, &mut rec));
                            rec.push("cell", t);
                        }
                        (rec.spans, outs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("layer worker"))
                .collect()
        });
        for (spans, outs) in results {
            pass.spans.extend(spans);
            pass.cells.extend(outs);
        }
    }
    pass.wall = now() - start;
    pass
}

/// Scheduler accounting folded over the `run_cells` calls of a pass.
#[derive(Default)]
struct SchedAcc {
    busy: f64,
    capacity: f64,
    idle: f64,
    steals: u64,
    queue_micros: Vec<u64>,
    cells: usize,
    errors: usize,
    mismatches: usize,
}

impl SchedAcc {
    fn absorb(
        &mut self,
        stats: &FleetStats,
        cells: &[CellResult],
        want: &HashMap<u64, &RunResult>,
    ) {
        self.capacity += stats.wall_seconds * stats.workers as f64;
        for &b in &stats.busy_seconds {
            self.busy += b;
            self.idle += (stats.wall_seconds - b).max(0.0);
        }
        self.steals += stats.steals;
        self.cells += stats.cells;
        self.errors += stats.errors;
        for c in cells {
            self.queue_micros.push(c.queue_micros);
            let same = match (&c.outcome, want.get(&c.id)) {
                (Ok(got), Some(w)) => got == *w,
                _ => false,
            };
            if !same {
                self.mismatches += 1;
            }
        }
    }

    fn queue_wait_p50_ms(&self) -> f64 {
        let mut q = self.queue_micros.clone();
        q.sort_unstable();
        match q.len() {
            0 => 0.0,
            n if n % 2 == 1 => q[n / 2] as f64 / 1e3,
            n => (q[n / 2 - 1] + q[n / 2]) as f64 / 2e3,
        }
    }

    fn json(&self) -> Json {
        Json::object()
            .set("utilization", self.busy / self.capacity.max(1e-9))
            .set("tail_idle_s", self.idle)
            .set("queue_wait_p50_ms", self.queue_wait_p50_ms())
            .set("steals", self.steals)
            .set("cells", self.cells as u64)
            .set("errors", self.errors as u64)
            .set("mismatches", self.mismatches as u64)
    }
}

/// One batch of a request file: its jobs and its text as sent to `serve`.
struct Batch {
    jobs: Vec<CellJob>,
    text: String,
}

/// Reads a request file: blank-line separated batches of job lines,
/// parsed by the serve layer's own request parser.
fn read_batches(path: &str) -> Vec<Batch> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    let mut batches = Vec::new();
    for (b, chunk) in text
        .split("\n\n")
        .filter(|c| !c.trim().is_empty())
        .enumerate()
    {
        let jobs = chunk
            .lines()
            .map(|line| match parse_request(line, 0, SuiteScale::Small) {
                Ok(Request::Job(job)) => job,
                Ok(_) => fail(&format!("{path}: batch {b}: not a job line: {line}")),
                Err((_, e)) => fail(&format!("{path}: batch {b}: {e}")),
            })
            .collect();
        batches.push(Batch {
            jobs,
            text: format!("{chunk}\n\n"),
        });
    }
    batches
}

/// The timed batches through the two layers above the cells, taking
/// turns so both see the whole phase in half the time: even batches
/// through `sched::run_cells_mode`, odd ones through `Server::session` on
/// an in-memory reader and writer. Returns the scheduler accounting, the
/// serve layer's own milliseconds per request (session wall minus the wall
/// the server's scheduler calls report), and the count of replies that
/// differ from the layer pass.
fn sched_and_serve(
    batches: &[Batch],
    workers: usize,
    cache: &TraceCache,
    want: &HashMap<u64, &RunResult>,
    spans: &mut Vec<Span>,
) -> (SchedAcc, f64, usize) {
    let mode = ReplayMode {
        packed: false,
        trace_cache: Some(Arc::new(cache.clone())),
        telemetry: None,
    };
    let mut server = Server::new(ServerOpts {
        workers,
        default_scale: SuiteScale::Small,
        cfg: SimConfig::paper(),
        mode: mode.clone(),
        selfcheck: false,
        registry: Arc::new(Registry::new()),
        request_deadline: None,
        max_inflight: None,
    });
    let workloads = WorkloadCache::new();
    let mut acc = SchedAcc::default();
    let (mut session_wall, mut served, mut bad_replies) = (0.0, 0usize, 0usize);
    let mut rec = Rec::new(MAIN);
    for (b, batch) in batches.iter().enumerate() {
        if b % 2 == 0 {
            let mut cells = Vec::new();
            let stats = rec.span("sched.run_cells", || {
                sched::run_cells_mode(&batch.jobs, workers, &workloads, &mode, |c| cells.push(c))
            });
            acc.absorb(&stats, &cells, want);
            continue;
        }
        let mut out: Vec<u8> = Vec::new();
        let t = now();
        rec.span("serve.session", || {
            server.session(batch.text.as_bytes(), &mut out)
        });
        session_wall += now() - t;
        served += batch.jobs.len();
        let replies = String::from_utf8(out).expect("utf-8 replies");
        let mut ok = 0usize;
        for line in replies.lines() {
            let reply = Json::parse(line).expect("reply parses");
            let id = reply.get("id").and_then(Json::as_u64);
            let got = reply.get("result").map(Json::render);
            let want = id
                .and_then(|id| want.get(&id))
                .map(|r| run_result_json(r, None).render());
            if got.is_some() && got == want {
                ok += 1;
            }
        }
        bad_replies += batch.jobs.len() - ok.min(batch.jobs.len());
    }
    spans.extend(rec.spans);
    let fleet_wall = server.totals().map_or(0.0, |t| t.wall_seconds);
    let self_ms = (session_wall - fleet_wall) * 1e3 / served.max(1) as f64;
    (acc, self_ms, bad_replies)
}

/// The 216-cell grid through `sched::run_cells`.
fn sched_grid(
    jobs: &[CellJob],
    workers: usize,
    want: &HashMap<u64, &RunResult>,
    spans: &mut Vec<Span>,
) -> SchedAcc {
    let mut rec = Rec::new(MAIN);
    let mut cells = Vec::new();
    let stats = rec.span("sched.run_cells", || {
        sched::run_cells(jobs, workers, &WorkloadCache::new(), |c| cells.push(c))
    });
    spans.extend(rec.spans);
    let mut acc = SchedAcc::default();
    acc.absorb(&stats, &cells, want);
    acc
}

/// Fills a `Suite` over the grid, then times the `experiments`
/// functions `all` prints after the grid.
fn experiments_pass(workers: usize, spans: &mut Vec<Span>) -> Json {
    let mut rec = Rec::new(MAIN);
    let mut suite = Suite::new(SuiteScale::Small);
    let names = suite.all_names();
    rec.span("experiments.fill", || {
        suite.precompute_cells(&names, &Scheme::ALL, Some(workers))
    })
    .unwrap_or_else(|e| fail(&e));
    let mut text = String::new();
    let t = now();
    rec.span("experiments.tables", || {
        text.push_str(&experiments::figure1(&mut suite));
        text.push_str(&experiments::table1(&mut suite).1);
        text.push_str(&experiments::table2());
        text.push_str(&experiments::table3(&mut suite));
        text.push_str(&experiments::figure9(&mut suite));
        for class in [BenchClass::Int, BenchClass::App, BenchClass::Fp] {
            text.push_str(&experiments::figure_perf(&mut suite, class));
        }
        text.push_str(&experiments::figure12(&mut suite));
        text.push_str(&experiments::table4(&mut suite));
        text.push_str(&experiments::table5(&mut suite));
        text.push_str(&experiments::table6(&mut suite));
    });
    let tables = now() - t;
    let t = now();
    rec.span("experiments.sensitivity", || {
        text.push_str(&experiments::sensitivity(&mut suite))
    });
    let sensitivity = now() - t;
    let t = now();
    rec.span("experiments.bandwidth", || {
        text.push_str(&experiments::bandwidth_study(SuiteScale::Small))
    });
    let bandwidth = now() - t;
    std::hint::black_box(text);
    spans.extend(rec.spans);
    Json::object()
        .set("tables_s", tables)
        .set("sensitivity_s", sensitivity)
        .set("bandwidth_s", bandwidth)
}

/// Per-span-name totals, and the share of busy cell time the layer
/// spans cover. Layer spans inside a cell are leaves, so a layer's
/// self time is its spans' summed duration; a cell's self time is what
/// its layer spans leave uncovered.
fn layer_table(spans: &[Span]) -> (Json, f64) {
    let mut by_name: Vec<(&'static str, u64, f64)> = Vec::new();
    let (mut busy, mut covered) = (0.0, 0.0);
    for s in spans {
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += s.secs();
            }
            None => by_name.push((s.name, 1, s.secs())),
        }
        if s.worker != MAIN {
            if s.name == "cell" {
                busy += s.secs();
            } else {
                covered += s.secs();
            }
        }
    }
    by_name.sort_by(|a, b| a.0.cmp(b.0));
    let rows = by_name
        .into_iter()
        .map(|(n, calls, secs)| {
            let self_s = if n == "cell" { secs - covered } else { secs };
            Json::object()
                .set("name", n)
                .set("calls", calls)
                .set("total_s", secs)
                .set("self_s", self_s)
        })
        .collect::<Vec<_>>();
    (Json::Array(rows), covered / busy.max(1e-9))
}

/// Writes the spans as a Chrome trace-event file.
fn write_spans(path: &str, spans: &[Span]) {
    let events: Vec<Json> = spans
        .iter()
        .map(|s| {
            Json::object()
                .set("name", s.name)
                .set("ph", "X")
                .set("ts", s.start * 1e6)
                .set("dur", s.secs() * 1e6)
                .set("pid", 1u64)
                .set("tid", s.worker as u64)
                .set("args", Json::object().set("owner", s.owner))
        })
        .collect();
    std::fs::write(path, Json::Array(events).render())
        .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
}

fn cells_json(cells: &[CellOut]) -> Json {
    let rows = cells
        .iter()
        .map(|c| {
            let mut j = Json::object()
                .set("id", c.id)
                .set("kernel", c.kernel)
                .set("scheme", c.scheme.label())
                .set("events", c.events)
                .set("replay_s", c.replay_s)
                .set("result", run_result_json(&c.result, None));
            if let Some(hit) = c.hit {
                j = j.set("hit", hit);
            }
            j
        })
        .collect();
    Json::Array(rows)
}

fn fail(msg: &str) -> ! {
    eprintln!("tracer: {msg}");
    std::process::exit(2);
}

fn flag(args: &[String], name: &str) -> String {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| fail(&format!("missing {name} <value>")))
}

fn main() {
    now();
    let args: Vec<String> = std::env::args().collect();
    let workload = args.get(1).cloned().unwrap_or_default();
    let workers: usize = flag(&args, "--workers")
        .parse()
        .unwrap_or_else(|_| fail("--workers takes a count"));
    let spans_path = flag(&args, "--spans");
    let cfg = SimConfig::paper();
    let mut ctx = Ctx {
        cfg,
        scale: Scale::Small,
        cache: None,
        builds: Mutex::new(HashMap::new()),
    };
    let mut spans: Vec<Span> = Vec::new();
    let mut out = Json::object();
    let cells: Vec<CellOut> = match workload.as_str() {
        "paper-cold" => {
            let names: Vec<&'static str> = grp_workloads::all().iter().map(|w| w.name).collect();
            let jobs = sched::grid_jobs(&names, &Scheme::ALL, Scale::Small, cfg);
            let pass = layer_pass(std::slice::from_ref(&jobs), workers, &ctx);
            spans.extend(pass.spans);
            let want: HashMap<u64, &RunResult> =
                pass.cells.iter().map(|c| (c.id, &c.result)).collect();
            let acc = sched_grid(&jobs, workers, &want, &mut spans);
            out = out
                .set("grid_wall_s", pass.wall)
                .set("sched", acc.json())
                .set("experiments", experiments_pass(workers, &mut spans));
            pass.cells
        }
        "serve-warm" => {
            let dir = flag(&args, "--cache-dir");
            let tc = TraceCache::new(&dir);
            ctx.cache = Some(tc.clone());
            let warm = read_batches(&flag(&args, "--warm"));
            let timed = read_batches(&flag(&args, "--timed"));
            let jobs = |bs: &[Batch]| bs.iter().map(|b| b.jobs.clone()).collect::<Vec<_>>();
            let w = layer_pass(&jobs(&warm), workers, &ctx);
            let t = layer_pass(&jobs(&timed), workers, &ctx);
            let want: HashMap<u64, &RunResult> =
                t.cells.iter().map(|c| (c.id, &c.result)).collect();
            let (acc, serve_self_ms, bad_replies) =
                sched_and_serve(&timed, workers, &tc, &want, &mut spans);
            out = out
                .set("timed_wall_s", t.wall)
                .set("sched", acc.json())
                .set("serve_self_ms_per_req", serve_self_ms)
                .set("serve_bad_replies", bad_replies as u64);
            spans.extend(w.spans);
            spans.extend(t.spans);
            w.cells.into_iter().chain(t.cells).collect()
        }
        other => fail(&format!(
            "unknown workload '{other}' (paper-cold, serve-warm)"
        )),
    };
    let (layers, coverage) = layer_table(&spans);
    write_spans(&spans_path, &spans);
    out = out
        .set("coverage", coverage)
        .set("layers", layers)
        .set("cells", cells_json(&cells));
    println!("{}", out.render());
}
