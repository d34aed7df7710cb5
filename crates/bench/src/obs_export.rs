//! Exporters for the observability layer: Chrome trace-event JSON
//! (Perfetto-loadable) and epoch-metrics JSON documents built from
//! [`LifecycleTracer`] / [`EpochSampler`] output.
//!
//! The Chrome trace uses one *process* per hardware resource:
//!
//! * pid 0 — DRAM channels: one thread per channel, an `"X"` slice per
//!   prefetch from issue to fill.
//! * pid 1 — prefetch queue: candidate residency from enqueue to issue
//!   (or squash), packed into lanes lowest-free-first.
//! * pid 2 — L2 MSHR file: prefetch in-flight occupancy from issue to
//!   fill, lane-packed the same way.
//!
//! Timestamps (`ts`) and durations (`dur`) are core *cycles*, not the
//! microseconds the format nominally specifies — Perfetto renders them
//! fine and the unit is stated in process metadata.

use grp_core::{EpochSnapshot, LatencyHist, LifecycleTracer};

use crate::json::Json;

/// Lowercases a scheme/bench label into a filename-safe slug
/// (`"GRP/Var"` → `"grp-var"`).
pub fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Packs half-open intervals into lanes: each `(idx, start, end)` gets
/// the lowest lane free at `start`. Input must be sorted by
/// `(start, idx)` so same-seed runs pack identically.
fn allocate_lanes(intervals: &[(usize, u64, u64)]) -> Vec<(usize, usize)> {
    let mut free_at: Vec<u64> = Vec::new();
    let mut out = Vec::with_capacity(intervals.len());
    for &(idx, start, end) in intervals {
        let lane = match free_at.iter().position(|&f| f <= start) {
            Some(l) => l,
            None => {
                free_at.push(0);
                free_at.len() - 1
            }
        };
        // Zero-length slices still occupy their lane for one cycle so
        // they remain visible (and non-overlapping) in the viewer.
        free_at[lane] = end.max(start + 1);
        out.push((idx, lane));
    }
    out
}

fn meta_event(pid: u64, name: &str) -> Json {
    Json::object()
        .set("name", "process_name")
        .set("ph", "M")
        .set("pid", pid)
        .set("tid", 0u64)
        .set("args", Json::object().set("name", name))
}

fn slice(pid: u64, tid: u64, name: String, ts: u64, dur: u64, args: Json) -> Json {
    Json::object()
        .set("name", name)
        .set("ph", "X")
        .set("pid", pid)
        .set("tid", tid)
        .set("ts", ts)
        .set("dur", dur.max(1))
        .set("args", args)
}

fn counter(pid: u64, name: &str, ts: u64, args: Json) -> Json {
    Json::object()
        .set("name", name)
        .set("ph", "C")
        .set("pid", pid)
        .set("tid", 0u64)
        .set("ts", ts)
        .set("args", args)
}

/// Renders the tracer (and optional epoch series) as a Chrome
/// trace-event document: `{"traceEvents": [...]}`.
pub fn chrome_trace(tracer: &LifecycleTracer, epochs: &[EpochSnapshot]) -> Json {
    let mut events = vec![
        meta_event(0, "DRAM channels (ts in cycles)"),
        meta_event(1, "prefetch queue (ts in cycles)"),
        meta_event(2, "L2 MSHR file (ts in cycles)"),
    ];
    let final_cycle = tracer.final_cycle();

    // pid 0: DRAM service, one thread per channel.
    for r in tracer.records() {
        if let (Some(issued), Some(filled), Some(ch)) = (r.issued_at, r.filled_at, r.channel) {
            let mut args = Json::object().set("block", r.block.0);
            if let Some(h) = r.row_hit {
                args = args.set("row_hit", h);
            }
            if let Some(o) = r.outcome {
                args = args.set("outcome", o.label());
            }
            events.push(slice(
                0,
                ch as u64,
                format!("{:#x}", r.block.0),
                issued,
                filled - issued,
                args,
            ));
        }
    }

    // pid 1: queue residency, lane-packed. A record's queue phase ends
    // at issue, at squash, or (still queued) at the end of the run.
    let mut queue_iv: Vec<(usize, u64, u64)> = Vec::new();
    for (i, r) in tracer.records().iter().enumerate() {
        let start = r.queued_at;
        let end = r
            .issued_at
            .or(r.outcome_at)
            .unwrap_or(final_cycle)
            .max(start);
        queue_iv.push((i, start, end));
    }
    queue_iv.sort_by_key(|&(i, s, _)| (s, i));
    let queue_lanes = allocate_lanes(&queue_iv);
    for (&(idx, start, end), &(_, lane)) in queue_iv.iter().zip(&queue_lanes) {
        let r = &tracer.records()[idx];
        let name = r.outcome.map(|o| o.label()).unwrap_or("queued").to_string();
        events.push(slice(
            1,
            lane as u64,
            name,
            start,
            end - start,
            Json::object().set("block", r.block.0),
        ));
    }

    // pid 2: prefetch MSHR occupancy, issue to fill (or end of run).
    let mut mshr_iv: Vec<(usize, u64, u64)> = Vec::new();
    for (i, r) in tracer.records().iter().enumerate() {
        if let Some(issued) = r.issued_at {
            let end = r.filled_at.unwrap_or(final_cycle).max(issued);
            mshr_iv.push((i, issued, end));
        }
    }
    mshr_iv.sort_by_key(|&(i, s, _)| (s, i));
    let mshr_lanes = allocate_lanes(&mshr_iv);
    for (&(idx, start, end), &(_, lane)) in mshr_iv.iter().zip(&mshr_lanes) {
        let r = &tracer.records()[idx];
        events.push(slice(
            2,
            lane as u64,
            format!("{:#x}", r.block.0),
            start,
            end - start,
            Json::object().set("block", r.block.0),
        ));
    }

    // Counters sampled at epoch boundaries.
    for s in epochs {
        events.push(counter(
            0,
            "dram blocks",
            s.cycles,
            Json::object()
                .set("demand", s.demand_blocks)
                .set("prefetch", s.prefetch_blocks)
                .set("writeback", s.writeback_blocks),
        ));
        events.push(counter(
            0,
            "ipc",
            s.cycles,
            Json::object().set("ipc", s.ipc()),
        ));
        events.push(counter(
            1,
            "queue occupancy",
            s.cycles,
            Json::object().set("candidates", s.queue_occupancy as u64),
        ));
        events.push(counter(
            2,
            "l2 mshr occupancy",
            s.cycles,
            Json::object()
                .set("total", s.l2_mshr_occupancy as u64)
                .set("prefetch", s.l2_mshr_prefetches as u64),
        ));
    }

    Json::object().set("traceEvents", Json::Array(events))
}

fn hist_json(h: &LatencyHist) -> Json {
    let mut buckets = Vec::new();
    for (i, &c) in h.buckets().iter().enumerate() {
        if c == 0 {
            continue;
        }
        let (lo, hi) = LatencyHist::bucket_range(i);
        buckets.push(Json::object().set("lo", lo).set("hi", hi).set("n", c));
    }
    Json::object()
        .set("count", h.count())
        .set("sum", h.sum())
        .set("max", h.max())
        .set("mean", h.mean())
        .set("buckets", Json::Array(buckets))
}

/// The lifecycle summary object embedded in metrics documents (and what
/// `--bin trace --check` validates conservation against).
pub fn summary_json(tracer: &LifecycleTracer) -> Json {
    Json::object()
        .set("records", tracer.records().len() as u64)
        .set("issued", tracer.issued())
        .set("first_used", tracer.first_used())
        .set("late", tracer.late())
        .set("evicted_unused", tracer.evicted_unused())
        .set("resident_at_end", tracer.resident_at_end())
        .set("in_flight_at_end", tracer.in_flight_at_end())
        .set("squashed", tracer.squashed())
        .set("queued_at_end", tracer.queued_at_end())
        .set("dropped", tracer.dropped())
        .set("delayed", tracer.delayed())
        .set("faults_seen", tracer.faults_seen())
        .set("demand_misses", tracer.demand_misses())
        .set("accuracy", tracer.accuracy())
        .set("final_cycle", tracer.final_cycle())
}

/// Renders the epoch metrics document: lifecycle summary, the three
/// timeliness histograms, and one row per epoch snapshot.
pub fn metrics_json(
    tracer: &LifecycleTracer,
    epochs: &[EpochSnapshot],
    interval: Option<u64>,
) -> Json {
    let mut rows = Vec::with_capacity(epochs.len());
    for s in epochs {
        let busy: Vec<Json> = (0..s.channel_busy_cycles.len())
            .map(|ch| Json::Float(s.channel_busy_fraction(ch)))
            .collect();
        rows.push(
            Json::object()
                .set("events", s.events)
                .set("instructions", s.instructions)
                .set("cycles", s.cycles)
                .set("ipc", s.ipc())
                .set("l2_demand_accesses", s.l2_demand_accesses)
                .set("l2_demand_misses", s.l2_demand_misses)
                .set("l2_miss_rate", s.l2_miss_rate())
                .set("useful_prefetches", s.useful_prefetches)
                .set("useless_prefetches", s.useless_prefetches)
                .set("late_prefetch_merges", s.late_prefetch_merges)
                .set("prefetches_issued", s.prefetches_issued)
                .set("running_accuracy", s.running_accuracy())
                .set("running_coverage", s.running_coverage())
                .set("queue_occupancy", s.queue_occupancy as u64)
                .set("l2_mshr_occupancy", s.l2_mshr_occupancy as u64)
                .set("l2_mshr_prefetches", s.l2_mshr_prefetches as u64)
                .set("demand_blocks", s.demand_blocks)
                .set("prefetch_blocks", s.prefetch_blocks)
                .set("writeback_blocks", s.writeback_blocks)
                .set("row_hits", s.row_hits)
                .set("row_misses", s.row_misses)
                .set("channel_busy_fraction", Json::Array(busy)),
        );
    }
    let mut doc = Json::object();
    if let Some(n) = interval {
        doc = doc.set("epoch_interval", n);
    }
    doc.set("summary", summary_json(tracer))
        .set(
            "histograms",
            Json::object()
                .set("queue_residency", hist_json(tracer.queue_residency()))
                .set("issue_to_fill", hist_json(tracer.issue_to_fill()))
                .set("fill_to_use", hist_json(tracer.fill_to_use())),
        )
        .set("epochs", Json::Array(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grp_core::Observer as _;
    use grp_mem::BlockAddr;

    #[test]
    fn slug_flattens_labels() {
        assert_eq!(slug("GRP/Var"), "grp-var");
        assert_eq!(slug("SRP+ptr"), "srp-ptr");
        assert_eq!(slug("none"), "none");
    }

    #[test]
    fn lanes_never_overlap() {
        let iv = vec![(0, 0, 10), (1, 2, 5), (2, 5, 8), (3, 11, 12)];
        let lanes = allocate_lanes(&iv);
        // Record 1 overlaps 0 → lane 1; record 2 overlaps 0 but lane 1
        // is free at 5; record 3 starts after 0 ends → lane 0 again.
        assert_eq!(lanes, vec![(0, 0), (1, 1), (2, 1), (3, 0)]);
    }

    fn tiny_tracer() -> LifecycleTracer {
        let mut t = LifecycleTracer::new();
        t.prefetch_queued(BlockAddr(0x40), 10);
        t.prefetch_issued(BlockAddr(0x40), 20, 1, true, 60);
        t.l2_fill(BlockAddr(0x40), true, 60);
        t.prefetch_first_use(BlockAddr(0x40), 100);
        t.prefetch_queued(BlockAddr(0x80), 12);
        t.run_end(200);
        t
    }

    #[test]
    fn chrome_trace_roundtrips_and_has_lanes() {
        let t = tiny_tracer();
        let doc = chrome_trace(
            &t,
            &[EpochSnapshot {
                cycles: 50,
                ..Default::default()
            }],
        );
        let text = doc.render();
        let back = Json::parse(&text).expect("self-parse");
        // Whole-valued floats re-parse as integers, so round-trip
        // equality is at the rendered-text level.
        assert_eq!(back.render(), text);
        let events = back.get("traceEvents").unwrap().as_array().unwrap();
        // 3 metadata + 1 DRAM slice + 2 queue slices + 1 MSHR slice +
        // 4 epoch counters.
        assert_eq!(events.len(), 11);
        let dram: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(0))
            .collect();
        assert_eq!(dram.len(), 1);
        assert_eq!(dram[0].get("ts").unwrap().as_u64(), Some(20));
        assert_eq!(dram[0].get("dur").unwrap().as_u64(), Some(40));
        assert_eq!(dram[0].get("tid").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn metrics_document_shape() {
        let t = tiny_tracer();
        let doc = metrics_json(&t, &[EpochSnapshot::default()], Some(1000));
        let back = Json::parse(&doc.render()).expect("self-parse");
        assert_eq!(back.get("epoch_interval").unwrap().as_u64(), Some(1000));
        let sum = back.get("summary").unwrap();
        assert_eq!(sum.get("issued").unwrap().as_u64(), Some(1));
        assert_eq!(sum.get("first_used").unwrap().as_u64(), Some(1));
        assert_eq!(sum.get("queued_at_end").unwrap().as_u64(), Some(1));
        let h = back.get("histograms").unwrap().get("fill_to_use").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(back.get("epochs").unwrap().as_array().unwrap().len(), 1);
    }
}
