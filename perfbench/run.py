#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the GRP reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

  paper-cold  `all --scale small --json <tmp> --jobs W`, the command
              EXPERIMENTS.md tells users to run, from a fresh process with
              no trace cache.
  serve-warm  `serve --socket <p> --scale small --jobs W --trace-cache
              <empty dir>`, one client in a closed loop. Set-up is server
              start plus one warm pass over all 72 distinct cells; the
              timed phase is seeded batches of 8 jobs, all cache hits.

W is the number of CPUs this process may run on. The script builds the
release binaries first (`cargo build`, into $CARGO_TARGET_DIR, default
`.bench_build`), checks every result against `results_small.json`, and
prints every metric by name with its unit. `--trace 0` reports the
end-to-end metrics; `--trace 1` makes one untraced timed run plus a traced
run of the same cells through each layer's public functions
(perfbench/tracer) and reports the per-layer metrics. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The
exit code is 0 only when every result matched.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import socket
import subprocess
import sys
import time
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKERS = len(os.sched_getaffinity(0))
# Below serve's default admission limit of workers x 8, so no job is shed.
BATCH = 8
SERVE_SCHEMES = ("none", "stride", "SRP", "GRP/Var")
# Timed serve-warm requests per second of --seconds, and the paper-cold
# grid's wall: both as measured on a 2-vCPU host in its slower stretches,
# so that a run measures for at least about --seconds.
SERVE_RATE = 8.0
GRID_SECONDS = 20.0
# paper-cold set-up is process start, about a millisecond: it is sampled
# this many times (spawn, read the first line, kill) before each grid and
# after the last, so the samples span the run, and the median reported.
# serve-warm sets up this many servers per run.
ALL_SETUP_PROBES = 40
SERVE_SETUPS = 2
TAIL_BEYOND = 10

children = []


def die(msg, log=None):
    """Exits 2 without a result; `log` is a program's stderr file, whose
    tail is shown because the work directory is removed on exit."""
    print(f"perfbench: {msg}", file=sys.stderr)
    if log and os.path.exists(log):
        with open(log, "rb") as f:
            f.seek(max(0, os.path.getsize(log) - 4000))
            sys.stderr.write(f.read().decode(errors="replace"))
    sys.exit(2)


now = time.perf_counter


def spawn(argv, **kw):
    p = subprocess.Popen(argv, cwd=ROOT, **kw)
    children.append(p)
    return p


def reap(p):
    """Waits for `p`; returns its exit code and resource usage."""
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    children.remove(p)
    return p.returncode, ru


def stop_children():
    for p in list(children):
        if p.poll() is None:
            p.kill()
        p.wait()
        children.remove(p)


# ---------------------------------------------------------------- build

def build():
    for f in ("Cargo.toml", "results_small.json", "crates/bench/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, f)):
            die(f"{f} is missing: run from a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "grp-bench",
         "--bin", "all", "--bin", "serve", "--bin", "perf"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/tracer/Cargo.toml"],
    ):
        r = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            die(f"build failed: {' '.join(argv)}")
    rel = os.path.join(target, "release")
    bins = {b: os.path.join(ROOT, rel, b) for b in ("all", "serve", "perf", "perfbench-tracer")}
    for path in bins.values():
        if not os.access(path, os.X_OK):
            die(f"build produced no {path}")
    return bins


# ------------------------------------------------------------ reference

class Reference:
    """`results_small.json`: its bytes and one result per (kernel, scheme)."""

    def __init__(self):
        with open(os.path.join(ROOT, "results_small.json"), "rb") as f:
            self.raw = f.read()
        doc = json.loads(self.raw)
        self.kernels = [b["bench"] for b in doc["benchmarks"]]
        self.schemes = [r["scheme"] for r in doc["benchmarks"][0]["runs"]]
        self.runs = {(b["bench"], r["scheme"]): r for b in doc["benchmarks"] for r in b["runs"]}
        with open(os.path.join(BENCH_DIR, "reference.json")) as f:
            ref = json.load(f)
        self.events = ref["cell_events"]
        self.serve_cache_bytes = ref["serve_warm_cache_bytes"]

    def grid_fingerprint(self):
        """paper-cold's reference fingerprint."""
        return {"instructions": sum(r["instructions"] for r in self.runs.values()),
                "sim_cycles": sum(r["cycles"] for r in self.runs.values()),
                "events": sum(self.events.values()), "tracecache_bytes": 0,
                "distinct_cells": len(self.runs), "repeat_share": 0.0}

    def matches(self, kernel, scheme, result):
        """True when `result` equals the reference on every field it carries."""
        want = self.runs.get((kernel, scheme))
        return want is not None and isinstance(result, dict) and all(
            k in want and want[k] == v for k, v in result.items())


def fingerprint(name, instructions, cycles, events, cache_bytes, distinct, repeat_share, expect):
    fp = {"instructions": instructions, "sim_cycles": cycles, "events": events,
          "tracecache_bytes": cache_bytes, "distinct_cells": distinct,
          "repeat_share": repeat_share}
    digest = hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:12]
    print(f"fingerprint {name}/{digest}: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    diff = [k for k, v in expect.items() if fp[k] is not None and fp[k] != v]
    if diff:
        print(f"fingerprint: DIFFERENT WORKLOAD ({', '.join(diff)} differ from the reference "
              f"{expect}); compare no metric of this run with runs of the reference workload")
    else:
        print("fingerprint: matches the reference workload")


# ----------------------------------------------------------- paper-cold

def all_argv(bins, out):
    return [bins["all"], "--scale", "small", "--json", out, "--jobs", str(WORKERS)]


def probe_all_setup(bins, work):
    """Seconds from spawning `all` to its first output line, which it prints
    just before the grid starts; the process is then killed."""
    t0 = now()
    p = spawn(all_argv(bins, os.path.join(work, "probe.json")),
              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    line = p.stdout.readline()
    t = now() - t0
    p.kill()
    reap(p)
    p.stdout.close()
    if not line.startswith(b"GRP reproduction"):
        die(f"unexpected first line from all: {line!r}")
    return t


def run_all(bins, work, ref, rep):
    """One timed `all` run: set-up until its header line, grid until the
    first table line after it, wall until exit."""
    out = os.path.join(work, f"results-{rep}.json")
    with open(os.path.join(work, "all.err"), "wb") as err:
        t0 = now()
        p = spawn(all_argv(bins, out), stdout=subprocess.PIPE, stderr=err)
        header = p.stdout.readline()
        t_setup = now()
        t_grid = None
        for line in p.stdout:
            if t_grid is None and line.strip():
                t_grid = now()
        code, ru = reap(p)
        t_exit = now()
    p.stdout.close()
    if code != 0 or not header.startswith(b"GRP reproduction") or t_grid is None:
        die(f"all exited {code}", os.path.join(work, "all.err"))
    raw = open(out, "rb").read() if os.path.exists(out) else b""
    try:
        got = json.loads(raw)["benchmarks"]
    except (ValueError, KeyError, TypeError):
        got = []
    seen, instructions, cycles = set(), 0, 0
    for b in got:
        for r in b.get("runs", []):
            key = (b.get("bench"), r.get("scheme"))
            if key not in seen and ref.runs.get(key) == r:
                seen.add(key)
                instructions += r["instructions"]
                cycles += r["cycles"]
    ok = len(seen)
    failed = len(ref.runs) - ok
    if raw != ref.raw:
        print(f"MISMATCH: all --json output differs from results_small.json "
              f"({failed} of {len(ref.runs)} cells differ)")
        failed = max(failed, 1)
        ok = min(ok, len(ref.runs) - 1)
    return {
        "setup_s": t_setup - t0, "grid_s": t_grid - t_setup, "wall_s": t_exit - t0,
        "rss_mb": ru.ru_maxrss / 1024.0, "user_s": ru.ru_utime, "sys_s": ru.ru_stime,
        "minflt": ru.ru_minflt, "ok": ok, "failed": failed, "instructions": instructions,
        "cycles": cycles, "cells": len(ref.runs),
    }


def paper_cold_timed(bins, work, ref, seconds):
    setups, runs = [], []
    for i in range(max(1, math.ceil(seconds / GRID_SECONDS))):
        setups += [probe_all_setup(bins, work) for _ in range(ALL_SETUP_PROBES)]
        runs.append(run_all(bins, work, ref, i))
        setups.append(runs[-1]["setup_s"])
    setups += [probe_all_setup(bins, work) for _ in range(ALL_SETUP_PROBES)]
    walls = [r["wall_s"] for r in runs]
    grids = [r["grid_s"] for r in runs]
    cells = runs[0]["cells"]
    instr = sum(r["instructions"] for r in runs) / len(runs)
    metrics = {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setups), "s"),
        "sim_minstr_per_s": (instr / 1e6 / median(grids), "Minstr/s"),
        "jobs_per_s": (cells / median(grids), "1/s"),
        "req_p50_ms": (median(walls) * 1e3, "ms"),
        "req_tail_ms": (max(walls) * 1e3, "ms"),
        "peak_rss_mb": (median(r["rss_mb"] for r in runs), "MB"),
        "ops_ok_ratio": (sum(r["ok"] for r in runs) / (cells * len(runs)), "ratio"),
    }
    print(f"paper-cold: {len(runs)} run(s) of the {cells}-cell grid; one request is one "
          f"`all` command, so the tail is the maximum of {len(walls)} sample(s) "
          f"(fewer than {TAIL_BEYOND + 1}); setup_s is the median of {len(setups)} spawns")
    fingerprint("paper-cold", runs[0]["instructions"], runs[0]["cycles"], None, 0, cells, 0.0,
                ref.grid_fingerprint())
    attempted = cells * len(runs)
    failed = sum(r["failed"] for r in runs)
    return metrics, attempted, failed, runs


# ----------------------------------------------------------- serve-warm

def serve_requests(ref, seed, seconds):
    """(warm batches, timed batches) of (id, kernel, scheme). The warm pass
    first asks for one cell per trace-cache key (none, stride and SRP share
    a key), then the rest, so its misses and hits do not depend on timing.
    The timed phase asks for every one of the 72 cells equally often. Its
    requests, ranked by trace length, are cut into BATCH strata; `seed`
    shuffles each stratum and batch i takes the i-th request of every
    stratum. So the seed changes which cells share a batch, but neither the
    work the phase holds nor how evenly it spreads over the batches."""
    cells = [(k, s) for k in ref.kernels for s in SERVE_SCHEMES]
    warm = [(k, s) for k in ref.kernels for s in ("none", "GRP/Var")]
    warm += [(k, s) for k in ref.kernels for s in ("stride", "SRP")]
    pool = cells * max(1, round(seconds * SERVE_RATE / len(cells)))
    pool.sort(key=lambda c: ref.events[f"{c[0]}/{c[1]}"])
    rng = random.Random(seed)
    per = len(pool) // BATCH
    strata = [pool[i * per:(i + 1) * per] for i in range(BATCH)]
    for stratum in strata:
        rng.shuffle(stratum)
    timed = [stratum[i] for i in range(per) for stratum in strata]
    ids = iter(range(1, len(warm) + len(timed) + 1))

    def batches(seq):
        jobs = [(next(ids), k, s) for k, s in seq]
        return [jobs[i:i + BATCH] for i in range(0, len(jobs), BATCH)]

    return batches(warm), batches(timed)


def batch_text(batch):
    lines = [json.dumps({"id": i, "kernel": k, "scheme": s}, separators=(",", ":"))
             for i, k, s in batch]
    return "\n".join(lines) + "\n\n"


class Server:
    """One `serve` process with a fresh, empty trace-cache directory and
    one client connection."""

    def __init__(self, bins, work, k):
        self.cache = os.path.join(work, f"cache-{k}")
        os.mkdir(self.cache)
        sock_path = os.path.relpath(os.path.join(work, f"serve-{k}.sock"), ROOT)
        self.err_path = os.path.join(work, f"serve-{k}.err")
        self.err = open(self.err_path, "wb")
        self.t0 = now()
        self.proc = spawn([bins["serve"], "--socket", sock_path, "--scale", "small",
                           "--jobs", str(WORKERS), "--trace-cache",
                           os.path.relpath(self.cache, ROOT)],
                          stdout=subprocess.DEVNULL, stderr=self.err)
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        while True:
            try:
                self.sock.connect(sock_path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None or now() - self.t0 > 60:
                    die("serve did not start", self.err_path)
                time.sleep(0.0005)
        self.replies = self.sock.makefile("rb")

    def exchange(self, batch, ref):
        """Sends one batch; returns per job (latency seconds, ok, reply)."""
        want = {i: (k, s) for i, k, s in batch}
        t0 = now()
        self.sock.sendall(batch_text(batch).encode())
        out = []
        for _ in batch:
            line = self.replies.readline()
            t = now() - t0
            if not line:
                break
            reply = json.loads(line)
            cell = want.pop(reply.get("id"), None)
            ok = (cell is not None and reply.get("ok") is True
                  and (reply.get("bench"), reply.get("scheme")) == cell
                  and ref.matches(*cell, reply.get("result")))
            out.append((t, ok, reply))
        # Missing replies count as failures.
        out += [(None, False, None)] * (len(batch) - len(out))
        return out

    def drain(self):
        """Asks the server to drain and exit; returns (seconds since spawn
        at exit, resource usage)."""
        self.sock.sendall(b'{"drain":true,"id":0}\n')
        ack = self.replies.readline()
        code, ru = reap(self.proc)
        t = now() - self.t0
        self.replies.close()
        self.sock.close()
        self.err.close()
        if code != 0 or b'"drain":true' not in ack:
            die(f"serve did not drain cleanly (exit {code})", self.err_path)
        return t, ru


def dir_bytes(d):
    return sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d))


def serve_timed(bins, work, ref, warm, timed, setups):
    setup_s, ok, attempted = [], 0, 0
    for k in range(setups):
        srv = Server(bins, work, k)
        for b in warm:
            replies = srv.exchange(b, ref)
            ok += sum(r[1] for r in replies)
            attempted += len(replies)
        setup_s.append(now() - srv.t0)
        if k < setups - 1:
            srv.drain()
            shutil.rmtree(srv.cache)
    cache_bytes = dir_bytes(srv.cache)
    lat, instr, cycles, events = [], 0, 0, 0
    t0 = now()
    for b in timed:
        for t, good, reply in srv.exchange(b, ref):
            attempted += 1
            if good:
                ok += 1
                lat.append(t)
                instr += reply["result"]["instructions"]
                cycles += reply["result"]["cycles"]
                events += reply["events"]
    timed_s = now() - t0
    wall_s, ru = srv.drain()
    shutil.rmtree(srv.cache)
    return {"setup_s": setup_s, "timed_s": timed_s, "wall_s": wall_s, "lat": lat,
            "instructions": instr, "cycles": cycles, "events": events, "ok": ok,
            "attempted": attempted, "cache_bytes": cache_bytes, "rss_mb": ru.ru_maxrss / 1024.0,
            "user_s": ru.ru_utime, "sys_s": ru.ru_stime, "minflt": ru.ru_minflt}


def tail(lat):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples), or the maximum when there are too few."""
    xs = sorted(lat)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n


def serve_warm_timed(bins, work, ref, seed, seconds, setups):
    warm, timed = serve_requests(ref, seed, seconds)
    r = serve_timed(bins, work, ref, warm, timed, setups)
    jobs = [(k, s) for b in timed for _, k, s in b]
    n = len(jobs)
    if not r["lat"]:
        die("no timed request succeeded")
    tail_v, tail_p, samples = tail(r["lat"])
    metrics = {
        "wall_s": (r["wall_s"], "s"),
        "setup_s": (median(r["setup_s"]), "s"),
        "sim_minstr_per_s": (r["instructions"] / 1e6 / r["timed_s"], "Minstr/s"),
        "jobs_per_s": (n / r["timed_s"], "1/s"),
        "req_p50_ms": (median(r["lat"]) * 1e3, "ms"),
        "req_tail_ms": (tail_v * 1e3, "ms"),
        "peak_rss_mb": (r["rss_mb"], "MB"),
        "ops_ok_ratio": (r["ok"] / r["attempted"], "ratio"),
    }
    print(f"serve-warm: {len(warm)} warm and {len(timed)} timed batches of {BATCH}; "
          f"req_tail_ms is p{tail_p:.1f} of {samples} samples ({TAIL_BEYOND} beyond it); "
          f"setup_s is the median of {len(r['setup_s'])} set-ups")
    seen, repeats = set(), 0
    for c in jobs:
        repeats += c in seen
        seen.add(c)
    good = r["ok"] == r["attempted"]
    distinct = len(SERVE_SCHEMES) * len(ref.kernels)
    fingerprint(
        "serve-warm", *((r["instructions"], r["cycles"], r["events"]) if good else (None,) * 3),
        r["cache_bytes"], len(seen), repeats / n,
        {"instructions": sum(ref.runs[c]["instructions"] for c in jobs),
         "sim_cycles": sum(ref.runs[c]["cycles"] for c in jobs),
         "events": sum(ref.events[f"{k}/{s}"] for k, s in jobs),
         "tracecache_bytes": ref.serve_cache_bytes, "distinct_cells": distinct,
         "repeat_share": (n - distinct) / n})
    return metrics, r["attempted"], r["attempted"] - r["ok"], r, (warm, timed)


# ---------------------------------------------------------------- trace

PROFILE_LINE = re.compile(rb"^\s+(\w+)\s+([0-9.]+)s\s")


def perf_split(bins, work):
    """interpret / (interpret + replay) from `perf --fleet --profile` on the
    same grid and worker count."""
    with open(os.path.join(work, "perf.err"), "wb") as err:
        p = spawn([bins["perf"], "--scale", "small", "--fleet", "--profile", "--jobs",
                   str(WORKERS), "--no-write"], stdout=subprocess.PIPE, stderr=err)
        out = p.stdout.read()
        p.stdout.close()
        code, _ = reap(p)
    if code != 0:
        die(f"perf exited {code}", os.path.join(work, "perf.err"))
    phases = {}
    in_profile = False
    for line in out.splitlines():
        if line.startswith(b"profile: phase breakdown"):
            in_profile = True
        elif in_profile and (m := PROFILE_LINE.match(line)):
            phases[m.group(1).decode()] = float(m.group(2))
    if "interpret" not in phases or "replay" not in phases:
        die("perf --profile printed no interpret/replay phases")
    return phases["interpret"] / (phases["interpret"] + phases["replay"]), phases


def run_tracer(bins, work, argv):
    """Runs the tracer; its spans stay in .bench_work/ after the run,
    as a Chrome trace file."""
    spans = os.path.join(os.path.dirname(work), f"{argv[0]}.trace.json")
    with open(os.path.join(work, "tracer.err"), "wb") as err:
        p = spawn([bins["perfbench-tracer"], *argv, "--workers", str(WORKERS),
                   "--spans", spans], stdout=subprocess.PIPE, stderr=err)
        out = p.stdout.read()
        p.stdout.close()
        code, _ = reap(p)
    if code != 0:
        die(f"tracer exited {code}", os.path.join(work, "tracer.err"))
    print(f"spans: {os.path.relpath(spans, ROOT)}")
    return json.loads(out.splitlines()[-1])


def layer_metrics(t, ref, host, untraced_wall, traced_wall, cache_bytes):
    """Per-layer metrics from the tracer's output `t`, the untraced run's
    resource usage `host`, and the size of the tracer's trace cache."""
    layers = {row["name"]: row for row in t["layers"]}

    def tot(name):
        return layers[name]["total_s"] if name in layers else 0.0

    cells = t["cells"]
    res = [c["result"] for c in cells]
    interpreted = sum(c["events"] for c in cells if not c.get("hit"))
    replayed = sum(c["events"] for c in cells)
    loads = [c["hit"] for c in cells if "hit" in c]
    issued = sum(r["prefetches_issued"] for r in res)
    sched = t["sched"]
    exps = t.get("experiments", {})
    m = {
        "workloads.build_s": (tot("workloads.build"), "s"),
        "compiler.analyze_s": (tot("compiler.analyze"), "s"),
        "ir.interpret_s": (tot("ir.interpret"), "s"),
        "ir.events": (interpreted, "count"),
        "ir.events_per_s": (interpreted / max(tot("ir.interpret"), 1e-9), "1/s"),
        "cpu.pack_s": (tot("cpu.pack"), "s"),
        "cpu.unpack_s": (tot("cpu.unpack"), "s"),
        "tracecache.store_s": (tot("tracecache.store"), "s"),
        "tracecache.load_s": (tot("tracecache.load"), "s"),
        "tracecache.bytes": (cache_bytes, "bytes"),
        "tracecache.hit_ratio": (sum(loads) / len(loads) if loads else 0.0, "ratio"),
        "core.replay_s": (tot("core.replay"), "s"),
        "core.replay_ns_per_event": (tot("core.replay") * 1e9 / max(replayed, 1), "ns"),
    }
    for scheme in ref.schemes:
        name = scheme.lower().replace("/", "-").replace("+", "-")
        m[f"core.replay.{name}_s"] = (sum(c["replay_s"] for c in cells if c["scheme"] == scheme), "s")
    m.update({
        "core.instructions": (sum(r["instructions"] for r in res), "count"),
        "core.sim_cycles": (sum(r["cycles"] for r in res), "count"),
        "mem.l2_demand_accesses": (sum(r["l2_demand_accesses"] for r in res), "count"),
        "mem.l2_demand_misses": (sum(r["l2_demand_misses"] for r in res), "count"),
        "mem.traffic_blocks": (sum(r["traffic_blocks"]["total"] for r in res), "count"),
        "core.prefetches_issued": (issued, "count"),
        "core.prefetch_useful_ratio": (sum(r["useful_prefetches"] for r in res) / max(issued, 1), "ratio"),
        "sched.utilization": (sched["utilization"], "ratio"),
        "sched.tail_idle_s": (sched["tail_idle_s"], "s"),
        "sched.queue_wait_p50_ms": (sched["queue_wait_p50_ms"], "ms"),
        "sched.steals": (sched["steals"], "count"),
        "serve.self_ms_per_req": (t.get("serve_self_ms_per_req", 0.0), "ms"),
        "experiments.tables_s": (exps.get("tables_s", 0.0), "s"),
        "experiments.sensitivity_s": (exps.get("sensitivity_s", 0.0), "s"),
        "experiments.bandwidth_s": (exps.get("bandwidth_s", 0.0), "s"),
        "host.user_s": (host["user_s"], "s"),
        "host.sys_s": (host["sys_s"], "s"),
        "host.minor_faults": (host["minflt"], "count"),
        "trace.coverage": (t["coverage"], "ratio"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    print("layer spans (self time):")
    for row in t["layers"]:
        print(f"  {row['name']:<24} {row['calls']:>6} calls {row['self_s']:>10.3f} s")
    print(f"traced busy time covered by layer spans: {100 * t['coverage']:.1f}% (gate: 95%)")
    print(f"tracing overhead: traced {traced_wall:.3f} s - untraced {untraced_wall:.3f} s "
          f"= {traced_wall - untraced_wall:.3f} s")
    return m


def check_tracer(t, ref):
    """(attempted, failed) over the tracer's cells, scheduler and serve passes."""
    failed = 0
    for c in t["cells"]:
        if not ref.matches(c["kernel"], c["scheme"], c["result"]):
            print(f"MISMATCH: traced {c['kernel']}/{c['scheme']} differs from results_small.json")
            failed += 1
    sched = t["sched"]
    failed += sched["mismatches"] + sched["errors"] + t.get("serve_bad_replies", 0)
    if t["coverage"] < 0.95:
        print(f"FAIL: layer spans cover {100 * t['coverage']:.1f}% of traced busy time (< 95%)")
        failed += 1
    return len(t["cells"]) + sched["cells"], failed


def paper_cold_traced(bins, work, ref):
    host = run_all(bins, work, ref, 0)
    t = run_tracer(bins, work, ["paper-cold"])
    attempted, failed = check_tracer(t, ref)
    attempted += host["cells"]
    failed += host["failed"]
    events = sum(c["events"] for c in t["cells"])
    res = [c["result"] for c in t["cells"]]
    fingerprint("paper-cold", sum(r["instructions"] for r in res), sum(r["cycles"] for r in res),
                events, 0, len(t["cells"]), 0.0, ref.grid_fingerprint())
    m = layer_metrics(t, ref, host, host["grid_s"], t["grid_wall_s"], 0)
    traced = m["ir.interpret_s"][0] / (m["ir.interpret_s"][0] + m["core.replay_s"][0])
    share, phases = perf_split(bins, work)
    gap = abs(traced - share) * 100
    print(f"interpret share of interpret+replay: traced {100 * traced:.1f}%, "
          f"perf --fleet --profile {100 * share:.1f}% "
          f"(interpret {phases['interpret']:.3f} s, replay {phases['replay']:.3f} s)")
    if gap > 5:
        print(f"FLAG: the traced split and perf's disagree by {gap:.1f} points (> 5)")
    m["trace.split_gap_pts"] = (gap, "pts")
    return m, attempted, failed


def serve_warm_traced(bins, work, ref, seed, seconds):
    metrics, attempted, failed, host, (warm, timed) = serve_warm_timed(
        bins, work, ref, seed, seconds, 1)
    paths = []
    for name, batches in (("warm", warm), ("timed", timed)):
        path = os.path.join(work, f"{name}.requests")
        with open(path, "w") as f:
            f.write("".join(batch_text(b) for b in batches))
        paths.append(path)
    cache = os.path.join(work, "trace-cache")
    os.mkdir(cache)
    t = run_tracer(bins, work, ["serve-warm", "--cache-dir", cache,
                                "--warm", paths[0], "--timed", paths[1]])
    a, f = check_tracer(t, ref)
    m = layer_metrics(t, ref, host, host["timed_s"], t["timed_wall_s"], dir_bytes(cache))
    m["trace.split_gap_pts"] = (0.0, "pts")
    return m, attempted + a, failed + f


# ----------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["paper-cold", "serve-warm"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    os.chdir(ROOT)
    bins = build()
    ref = Reference()
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} workers={WORKERS}")
    try:
        if args.workload == "paper-cold":
            if args.trace:
                metrics, attempted, failed = paper_cold_traced(bins, work, ref)
            else:
                metrics, attempted, failed, _ = paper_cold_timed(bins, work, ref, args.seconds)
        elif args.trace:
            metrics, attempted, failed = serve_warm_traced(bins, work, ref, args.seed, args.seconds)
        else:
            metrics, attempted, failed, _, _ = serve_warm_timed(
                bins, work, ref, args.seed, args.seconds, SERVE_SETUPS)
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>16.6f} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
