#!/usr/bin/env bash
# Tier-1 verification gate, run fully offline to prove the workspace is
# hermetic: no registry index, no network, no external crates. A clean
# checkout must pass this on a machine with no crates.io access at all.
#
#   scripts/verify.sh            # build + examples + tests, offline
#
# CARGO_NET_OFFLINE plus --offline is belt-and-braces: either alone
# forbids network access; together they also guard against cargo
# wrappers/aliases dropping one of them.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== formatting: cargo fmt --check (workspace members) =="
cargo fmt --all -- --check

echo "== tier-1: release build (offline) =="
cargo build --release --offline

echo "== examples build (offline) =="
cargo build --examples --offline

echo "== benches build (offline) =="
cargo build --benches --offline

echo "== tier-1: test suite (offline) =="
cargo test -q --offline

echo "== examples run at test scale (offline) =="
for ex in quickstart pointer_chasing indirect_arrays matrix_stencil traffic_study; do
    echo "  -- $ex"
    cargo run --release -q --offline --example "$ex" -- --scale test > /dev/null
done

# Scratch space for every smoke below, so CI runs never touch the
# committed BENCH_perf.json history.
PERF_TMP="$(mktemp)"
TRACE_TMP="$(mktemp -d)"
trap 'rm -f "$PERF_TMP"; rm -rf "$TRACE_TMP"' EXIT
# The harness expects either a valid trajectory or no file at all, so
# drop mktemp's empty placeholder and let the run create it.
rm -f "$PERF_TMP"

echo "== bench smoke: full suite at test scale + registry export (offline) =="
# --registry-out scrapes the process-global harness registry at exit;
# the exposition must re-validate and carry the fleet families the
# precompute phase recorded through the cell scheduler.
cargo run --release -q --offline -p grp-bench --bin all -- --scale test \
    --registry-out "$TRACE_TMP/all_registry.prom" > /dev/null
cargo run --release -q --offline -p grp-bench --bin check -- \
    --metrics "$TRACE_TMP/all_registry.prom" \
    --metrics-require grp_fleet_cells_total,grp_fleet_runs_total,grp_fleet_traces_total
# `all` fills every cell it reads in one scheduler batch: the 18 x 12
# grid plus the bandwidth study's off-default cells (art, swim, mcf
# under GRP/Var at 2 and 8 DRAM channels). Every cell of a kernel
# replays one interpretation (the 7 hint-free schemes its trace, the 5
# GRP compiler configurations and the other channel counts views or
# replays of it), so the run interprets exactly once per kernel — 18 —
# in exactly one batch.
grep -qx 'grp_fleet_traces_total{source="interpret"} 18' "$TRACE_TMP/all_registry.prom" || {
    echo "ERROR: all --scale test must interpret exactly 18 traces (one per kernel):" >&2
    grep 'grp_fleet_traces_total' "$TRACE_TMP/all_registry.prom" >&2 || true
    exit 1
}
grep -qx 'grp_fleet_runs_total 1' "$TRACE_TMP/all_registry.prom" || {
    echo "ERROR: all --scale test must run exactly one cell batch:" >&2
    grep 'grp_fleet_runs_total' "$TRACE_TMP/all_registry.prom" >&2 || true
    exit 1
}

echo "== determinism gate: all --scale test twice, byte-identical, every section =="
# `all` is the one command that prints the evaluation: two runs must
# print the same bytes, and the output must carry every table and
# figure of the paper's section 5.
cargo run --release -q --offline -p grp-bench --bin all -- --scale test \
    > "$TRACE_TMP/all_a.txt" 2> /dev/null
cargo run --release -q --offline -p grp-bench --bin all -- --scale test \
    > "$TRACE_TMP/all_b.txt" 2> /dev/null
cmp "$TRACE_TMP/all_a.txt" "$TRACE_TMP/all_b.txt" || {
    echo "ERROR: two all --scale test runs printed different output" >&2
    exit 1
}
for header in 'Figure 1:' 'Table 1:' 'Table 2:' 'Table 3:' 'Table 4:' 'Table 5:' \
    'Table 6:' 'Figure 9:' 'Figure 10 ' 'Figure 11 ' 'Figure 12:' 'Section 5.4:' \
    'Section 5.5 bandwidth study:'; do
    grep -q "^$header" "$TRACE_TMP/all_a.txt" || {
        echo "ERROR: all --scale test output lacks the '$header' section" >&2
        exit 1
    }
done

echo "== flag gate has teeth: all --json without a value must exit 2 =="
# A trailing --json used to run the whole evaluation and write nothing;
# it must be a usage error before any cell runs.
rc=0
cargo run --release -q --offline -p grp-bench --bin all -- --scale test --json \
    > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || {
    echo "ERROR: all --scale test --json exited $rc, want 2" >&2
    exit 1
}
echo "  -- trailing --json: rejected"

echo "== perf smoke: harness at test scale (offline) =="
cargo run --release -q --offline -p grp-bench --bin perf -- \
    --scale test --label verify-smoke --out "$PERF_TMP"
cargo run --release -q --offline -p grp-bench --bin perf -- --check "$PERF_TMP"

echo "== trace-cache smoke: cached perf run appends a checkable trajectory entry =="
# A cold run fills the cache (misses replay the interpreted trace), a
# warm run replays the cached packed traces; both entries must go
# through the same writer and validate.
CACHED_TMP="$TRACE_TMP/cached_perf.json"
for leg in cold warm; do
    cargo run --release -q --offline -p grp-bench --bin perf -- \
        --scale test --label "verify-cache-$leg" --out "$CACHED_TMP" \
        --trace-cache "$TRACE_TMP/tc" > /dev/null
done
cargo run --release -q --offline -p grp-bench --bin perf -- --check "$CACHED_TMP"

echo "== cache identity gate: cached == materialized over the full grid =="
# With --trace-cache, check phase 0 runs every kernel x scheme cell
# through the cache warmed above (hits replay the packed trace) and
# compares it with a fresh materialized run, failing on any
# bit-difference; the reduced case count keeps the later phases short.
cargo run --release -q --offline -p grp-bench --bin check -- \
    --trace-cache "$TRACE_TMP/tc" \
    --scale test --cases 2 --seed 0x5eedc4ec00000000 > /dev/null
# Teeth for the cache-hit path: with --trace-cache, phase 1 runs the
# oracle differential on each kernel's cached packed trace, so a
# planted evict-MRU bug must fail the gate there, not only in fuzzing.
if CACHE_TEETH="$(cargo run --release -q --offline -p grp-bench --bin check -- \
        --scale test --cases 2 --trace-cache "$TRACE_TMP/tc" --inject mru-evict 2>&1)"; then
    echo "ERROR: check --trace-cache --inject mru-evict passed but must fail" >&2
    exit 1
fi
grep -q "cached packed traces" <<< "$CACHE_TEETH" && grep -q "DIVERGED" <<< "$CACHE_TEETH" || {
    echo "ERROR: the packed-trace differential did not catch mru-evict" >&2
    exit 1
}
echo "  -- mru-evict on cached packed traces: caught"

echo "== trace-cache gate: corrupt + stale entries rebuild, never crash =="
# Flip a byte in the middle of every cached entry, then truncate one
# and plant pure garbage in another: the next cached run must treat
# each as a named miss, rebuild, and still validate — a corrupt cache
# can degrade warmth, never correctness.
for f in "$TRACE_TMP"/tc/*.grpt; do
    printf '\xff' | dd of="$f" bs=1 seek=100 count=1 conv=notrunc status=none
done
first="$(ls "$TRACE_TMP"/tc/*.grpt | head -1)"
head -c 40 "$first" > "$first.tmp" && mv "$first.tmp" "$first"
printf 'not a cache entry' > "$(ls "$TRACE_TMP"/tc/*.grpt | tail -1)"
cargo run --release -q --offline -p grp-bench --bin perf -- \
    --scale test --no-write --trace-cache "$TRACE_TMP/tc" \
    > /dev/null 2> /dev/null
echo "  -- corrupted cache: rebuilt"

echo "== fleet smoke: cell scheduler grid + fleet entry shape (offline) =="
# Shard the full kernel x scheme grid across two workers through the
# work-stealing cell scheduler; --check validates the appended
# fleet-shaped entry (per-worker utilization, queue-wait percentiles,
# per-cell worker attribution). The streamed partial artifact must also
# parse and report a complete grid.
FLEET_TMP="$TRACE_TMP/fleet_perf.json"
cargo run --release -q --offline -p grp-bench --bin perf -- \
    --fleet --scale test --jobs 2 --label verify-fleet --out "$FLEET_TMP" \
    --stream-out "$TRACE_TMP/fleet_cells.json" > /dev/null
cargo run --release -q --offline -p grp-bench --bin perf -- --check "$FLEET_TMP"
grep -q '"complete":216,"total":216' "$TRACE_TMP/fleet_cells.json" || {
    echo "ERROR: streamed fleet artifact is not a complete grid" >&2
    exit 1
}

echo "== serve smoke: stdin batch replies match the serial path =="
# Three-job batch over stdin; --selfcheck re-runs every reply serially
# on a freshly built workload and exits nonzero on any bit-difference,
# so a pass proves the server's scheduled results equal
# BuiltWorkload::run.
# --check-replies then re-parses the saved reply stream shape, and
# perf --check validates the session's --perf-out fleet entry.
SERVE_TMP="$TRACE_TMP/serve.replies"
SERVE_PERF="$TRACE_TMP/serve_perf.json"
printf '%s\n' \
    '{"kernel":"gzip","scheme":"SRP","id":1}' \
    '{"kernel":"mcf","scheme":"none","id":2}' \
    '{"kernel":"gzip","scheme":"GRP/Var","id":3}' \
    | cargo run --release -q --offline -p grp-bench --bin serve -- \
        --scale test --jobs 2 --selfcheck --perf-out "$SERVE_PERF" \
        > "$SERVE_TMP" 2> /dev/null
cargo run --release -q --offline -p grp-bench --bin serve -- --check-replies "$SERVE_TMP"
cargo run --release -q --offline -p grp-bench --bin perf -- --check "$SERVE_PERF"

echo "== serve gate has teeth: a bad request must be a flagged reply =="
if printf '{"kernel":"gzip","scheme":"not-a-scheme","id":1}\n' \
    | cargo run --release -q --offline -p grp-bench --bin serve -- \
        --scale test 2> /dev/null \
    | cargo run --release -q --offline -p grp-bench --bin serve -- \
        --check-replies /dev/stdin > /dev/null 2>&1; then
    echo "ERROR: serve --check-replies accepted a failed reply" >&2
    exit 1
fi
echo "  -- bad scheme: flagged"

echo "== telemetry smoke: metrics exposition valid, monotone across sessions =="
# One serve process on a unix socket, scraped after each client session:
# the second scrape must re-validate (declared families, histogram
# bucket invariants) and be counter-monotone against the first — the
# same registry accumulating, never resetting. The JSON twin must carry
# its wall-clock in exactly one marked field.
METRICS="$TRACE_TMP/serve_metrics.prom"
SOCK="$TRACE_TMP/serve.sock"
cargo run --release -q --offline -p grp-bench --bin serve -- \
    --scale test --jobs 2 --socket "$SOCK" --metrics-out "$METRICS" \
    2> /dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "ERROR: serve socket never appeared" >&2; exit 1; }
send_session() {
    python3 - "$SOCK" "$1" <<'PYEOF'
import socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall(sys.argv[2].encode())
s.shutdown(socket.SHUT_WR)
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    sys.stdout.write(chunk.decode())
PYEOF
}
send_session $'{"kernel":"gzip","scheme":"SRP","id":1}\n\n' > /dev/null
for _ in $(seq 1 100); do [ -s "$METRICS" ] && break; sleep 0.1; done
cp "$METRICS" "$METRICS.prev"
# Session 2 is a superset (two jobs + an in-band stats probe), so every
# cumulative series must strictly not regress in the second scrape.
send_session $'{"kernel":"gzip","scheme":"SRP","id":2}\n{"kernel":"mcf","scheme":"none","id":3}\n{"stats":true,"id":4}\n\n' \
    > "$TRACE_TMP/serve_stats.replies"
for _ in $(seq 1 100); do
    grep -q 'grp_serve_sessions_total 2' "$METRICS" 2>/dev/null && break
    sleep 0.1
done
kill "$SERVE_PID" 2> /dev/null; wait "$SERVE_PID" 2> /dev/null || true
grep -q '"stats":{' "$TRACE_TMP/serve_stats.replies" || {
    echo "ERROR: serve did not answer the in-band stats probe" >&2
    exit 1
}
cargo run --release -q --offline -p grp-bench --bin check -- \
    --metrics "$METRICS" --metrics-prev "$METRICS.prev" \
    --metrics-require grp_serve_requests_total,grp_serve_batches_total,grp_serve_stats_requests_total,grp_fleet_cells_total
grep -q '"scraped_at_unix_micros":' "$METRICS.json" || {
    echo "ERROR: metrics JSON twin is missing its scrape timestamp" >&2
    exit 1
}

echo "== metrics gate has teeth: a broken exposition must be rejected =="
printf 'orphan_total 3\n' > "$TRACE_TMP/broken.prom"
if cargo run --release -q --offline -p grp-bench --bin check -- \
    --metrics "$TRACE_TMP/broken.prom" > /dev/null 2>&1; then
    echo "ERROR: check --metrics accepted an undeclared sample" >&2
    exit 1
fi
echo "  -- undeclared sample: rejected"

echo "== chaos gate: seeded I/O-fault storm + kill -9 restart (DESIGN.md §15) =="
# Drives the real serve binary as a subprocess: per-round GRP_IOFAULT
# seeds over a shared trace cache, a client vanishing mid-batch, an
# in-band drain, then kill -9 mid-cache-write with a widened publish
# window. The restart must show bit-identical replies, whole
# artifacts, counters monotone across the kill, and zero staging
# litter anywhere in the tree.
cargo run --release -q --offline -p grp-bench --bin check -- \
    --chaos --chaos-rounds 1 --chaos-dir "$TRACE_TMP/chaos"

echo "== chaos gate has teeth: torn renames must fail it =="
# --inject torn-rename publishes half of every staged payload on
# purpose; a gate that cannot catch that is a tautology.
if cargo run --release -q --offline -p grp-bench --bin check -- \
    --chaos --chaos-rounds 1 --inject torn-rename \
    --chaos-dir "$TRACE_TMP/chaos-teeth" > /dev/null 2>&1; then
    echo "ERROR: check --chaos accepted torn artifacts" >&2
    exit 1
fi
echo "  -- torn-rename: caught"

echo "== profile smoke: perf --profile phases cover the wall clock =="
# The binary itself enforces >= 95% serial coverage (nonzero exit
# otherwise); the trajectory entry must embed the breakdown and still
# validate through --check.
PROFILE_TMP="$TRACE_TMP/profile_perf.json"
cargo run --release -q --offline -p grp-bench --bin perf -- \
    --scale test --profile --label verify-profile --out "$PROFILE_TMP" > /dev/null
cargo run --release -q --offline -p grp-bench --bin perf -- --check "$PROFILE_TMP"
grep -q '"profile":{' "$PROFILE_TMP" || {
    echo "ERROR: perf --profile entry does not embed its phase breakdown" >&2
    exit 1
}
# Fleet mode folds the same per-cell stage record. perfbench/run.py's
# perf_split parses its interpret and replay lines with the regex
# ^\s+(\w+)\s+([0-9.]+)s\s inside the breakdown block, so both must
# print in exactly that shape.
FLEET_PROFILE=$(cargo run --release -q --offline -p grp-bench --bin perf -- \
    --scale test --fleet --profile --jobs 2 --no-write)
for phase in interpret replay; do
    printf '%s\n' "$FLEET_PROFILE" | sed -n '/^profile: phase breakdown/,$p' |
        grep -E "^[[:space:]]+$phase[[:space:]]+[0-9.]+s[[:space:]]" > /dev/null || {
        echo "ERROR: fleet perf --profile printed no '$phase' phase line" >&2
        exit 1
    }
done

echo "== trace smoke: lifecycle artifacts round-trip (offline) =="
# The trace bin self-checks conservation + bit-exact metrics before
# writing; --check re-parses the written artifacts with the in-tree
# JSON reader and re-asserts conservation from the files alone.
cargo run --release -q --offline -p grp-bench --bin trace -- \
    gzip --scale test --trace-out "$TRACE_TMP/gzip" > /dev/null
cargo run --release -q --offline -p grp-bench --bin trace -- \
    --check "$TRACE_TMP/gzip"
# The other inspection sections print, and exit 0, at test scale.
for section in schemes hints workloads; do
    cargo run --release -q --offline -p grp-bench --bin trace -- \
        mcf --section "$section" --scale test > /dev/null
done

echo "== correctness gate: oracle differential + seeded fuzzing (offline) =="
# Fixed seed and a reduced case count keep the smoke fast and fully
# deterministic; the full 64-case default runs the same binary.
cargo run --release -q --offline -p grp-bench --bin check -- \
    --scale test --cases 8 --seed 0x5eedc4ec00000000 > /dev/null

echo "== fault gate: zero-fault identity + builtin sweep + faulted fuzzing =="
# --faults arms the sweep over every builtin fault plan plus seeded
# (access-plan, fault-plan) pair fuzzing; demand correctness, lifecycle
# conservation, and the no-panic contract must all hold under faults.
cargo run --release -q --offline -p grp-bench --bin check -- \
    --scale test --cases 8 --faults --seed 0x5eedc4ec00000000 > /dev/null

echo "== correctness gate has teeth: injected bugs must be caught =="
# Each injection plants a deliberate bug (bad replacement victim /
# unbounded engine queue / dropped fill leaking its MSHR entry);
# the gate must exit nonzero on every one. drop-leak needs no extra
# flags: it auto-enables --faults so the dropped-fill path is exercised.
for inject in mru-evict unbounded-queue drop-leak; do
    if cargo run --release -q --offline -p grp-bench --bin check -- \
        --scale test --cases 2 --inject "$inject" > /dev/null 2>&1; then
        echo "ERROR: check --inject $inject passed but must fail" >&2
        exit 1
    fi
    echo "  -- $inject: caught"
done

echo "== artifact gate: interrupted write must be flagged, not crash =="
# Simulate a process killed mid-write by truncating a copy of the
# committed trajectory; --check must exit nonzero with a readable
# error naming the path instead of panicking.
TRUNC="$TRACE_TMP/BENCH_perf.truncated.json"
head -c 64 BENCH_perf.json > "$TRUNC"
if cargo run --release -q --offline -p grp-bench --bin perf -- \
    --check "$TRUNC" > /dev/null 2>&1; then
    echo "ERROR: perf --check accepted a truncated trajectory" >&2
    exit 1
fi
echo "  -- truncated trajectory: flagged"

echo "== perf trajectory: committed BENCH_perf.json parses =="
if [ ! -f BENCH_perf.json ]; then
    echo "ERROR: BENCH_perf.json missing from repo root" >&2
    exit 1
fi
cargo run --release -q --offline -p grp-bench --bin perf -- --check BENCH_perf.json

echo "== log lint: eprintln! is banned in grp-bench (structured logger only) =="
# Every diagnostic must go through grp_bench::telemetry::log so it
# carries a level, a target, and machine-readable fields. The logger's
# own module doc is the single allowed mention.
if grep -rn 'eprintln!' crates/bench/src --include='*.rs' \
    | grep -v 'telemetry/log\.rs'; then
    echo "ERROR: raw eprintln! found in grp-bench — use telemetry::log" >&2
    exit 1
fi

echo "== hermeticity: no external registry dependencies =="
if grep -rn 'rand\|proptest\|criterion' crates/*/Cargo.toml Cargo.toml; then
    echo "ERROR: external registry dependency found in a manifest" >&2
    exit 1
fi

echo "verify.sh: all gates passed with no registry access"
