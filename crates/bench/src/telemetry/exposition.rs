//! Prometheus-style text exposition and a JSON twin for registry
//! snapshots, plus the re-parsing validator behind `check --metrics`.
//!
//! The text form is deterministic and timestamp-free: families sorted
//! (counters, then gauges, then histograms), ids sorted within a
//! family, histogram buckets cumulative with power-of-two `le` upper
//! bounds and a `+Inf` bucket equal to `_count`. The JSON twin carries
//! the scrape wall-clock in exactly one clearly-marked field
//! (`scraped_at_unix_micros`) so artifact diffs isolate
//! nondeterminism to that field alone.

use std::collections::BTreeMap;

use grp_core::LatencyHist;

use super::registry::{family, Snapshot};
use crate::json::Json;

/// Splits a canonical id into `(name, label_body)` where `label_body`
/// is the `k="v",…` interior (empty when unlabelled).
fn split_id(id: &str) -> (&str, &str) {
    match id.find('{') {
        Some(i) => (&id[..i], &id[i + 1..id.len() - 1]),
        None => (id, ""),
    }
}

/// Joins a label body with one extra `le` label for histogram buckets.
fn with_le(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        format!("{{{labels},le=\"{le}\"}}")
    }
}

/// Renders the deterministic Prometheus-style text exposition.
pub fn render_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family = "";
    for (id, v) in &snap.counters {
        let fam = family(id);
        if fam != last_family {
            out.push_str(&format!("# TYPE {fam} counter\n"));
            last_family = fam;
        }
        out.push_str(&format!("{id} {v}\n"));
    }
    last_family = "";
    for (id, v) in &snap.gauges {
        let fam = family(id);
        if fam != last_family {
            out.push_str(&format!("# TYPE {fam} gauge\n"));
            last_family = fam;
        }
        out.push_str(&format!("{id} {v}\n"));
    }
    last_family = "";
    for (id, h) in &snap.hists {
        let (name, labels) = split_id(id);
        if name != last_family {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            last_family = name;
        }
        let mut cum = 0u64;
        for (i, &c) in h.buckets().iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            let (_, hi) = LatencyHist::bucket_range(i);
            out.push_str(&format!(
                "{name}_bucket{} {cum}\n",
                with_le(labels, &hi.to_string())
            ));
        }
        out.push_str(&format!(
            "{name}_bucket{} {}\n",
            with_le(labels, "+Inf"),
            h.count()
        ));
        let suffix = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        out.push_str(&format!("{name}_sum{suffix} {}\n", h.sum()));
        out.push_str(&format!("{name}_count{suffix} {}\n", h.count()));
    }
    out
}

/// The JSON twin of one snapshot. `scraped_at_unix_micros` (when
/// given) is the **only** wall-clock field — everything else is a pure
/// function of the recorded samples.
pub fn snapshot_json(snap: &Snapshot, scraped_at_unix_micros: Option<u64>) -> Json {
    let mut counters = Json::object();
    for (id, v) in &snap.counters {
        counters = counters.set(id.as_str(), *v);
    }
    let mut gauges = Json::object();
    for (id, v) in &snap.gauges {
        gauges = gauges.set(id.as_str(), *v);
    }
    let mut hists = Json::object();
    for (id, h) in &snap.hists {
        let mut buckets = Vec::new();
        for (i, &c) in h.buckets().iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = LatencyHist::bucket_range(i);
            buckets.push(Json::object().set("lo", lo).set("hi", hi).set("count", c));
        }
        hists = hists.set(
            id.as_str(),
            Json::object()
                .set("count", h.count())
                .set("sum", h.sum())
                .set("max", h.max())
                .set("mean", h.mean())
                .set("p50", h.percentile(0.50))
                .set("p99", h.percentile(0.99))
                .set("buckets", Json::Array(buckets)),
        );
    }
    let mut doc = Json::object();
    if let Some(ts) = scraped_at_unix_micros {
        doc = doc.set("scraped_at_unix_micros", ts);
    }
    doc.set("counters", counters)
        .set("gauges", gauges)
        .set("histograms", hists)
}

/// Scrapes `registry` and writes the deterministic text exposition to
/// `path` plus the JSON twin (whose `scraped_at_unix_micros` field is
/// the only wall-clock value) to `<path>.json`, both through the
/// atomic staging layer — the one export shape shared by `serve
/// --metrics-out` and `all --registry-out`.
///
/// # Errors
///
/// Any staged-write I/O error; export is best-effort for most
/// callers, which warn and continue.
pub fn write_registry(registry: &super::registry::Registry, path: &str) -> std::io::Result<()> {
    let snap = registry.snapshot();
    crate::artifact::atomic_write(path, render_text(&snap))?;
    let scraped_at = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let doc = snapshot_json(&snap, Some(scraped_at));
    crate::artifact::atomic_write(format!("{path}.json"), doc.render())
}

/// A re-parsed exposition: what the validator extracts from the text.
#[derive(Debug, Clone, Default)]
pub struct ParsedExposition {
    /// Family → declared type (`counter` / `gauge` / `histogram`).
    pub types: BTreeMap<String, String>,
    /// Counter sample id → value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram series id (`name{labels}` without `_count`) → count.
    pub hist_counts: BTreeMap<String, u64>,
}

/// Re-parses and validates a text exposition: every sample belongs to
/// a declared family, no family is declared twice or with an unknown
/// type, and every histogram series has cumulative nondecreasing
/// buckets whose `+Inf` bucket equals its `_count` sample (i.e. the
/// bucket counts sum to the total), plus a `_sum`.
///
/// # Errors
///
/// A message naming the offending line or series.
pub fn validate_text(text: &str) -> Result<ParsedExposition, String> {
    let mut parsed = ParsedExposition::default();
    // series id -> (le label -> cumulative value), sum/count presence.
    let mut buckets: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
    let mut inf_buckets: BTreeMap<String, u64> = BTreeMap::new();
    let mut sums: BTreeMap<String, bool> = BTreeMap::new();
    for (no, line) in text.lines().enumerate() {
        let lineno = no + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let fam = parts
                .next()
                .ok_or(format!("line {lineno}: TYPE without a family"))?;
            let ty = parts
                .next()
                .ok_or(format!("line {lineno}: TYPE without a type"))?;
            if !matches!(ty, "counter" | "gauge" | "histogram") {
                return Err(format!("line {lineno}: unknown TYPE '{ty}' for {fam}"));
            }
            if parsed
                .types
                .insert(fam.to_string(), ty.to_string())
                .is_some()
            {
                return Err(format!("line {lineno}: family {fam} declared twice"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample line: `<id> <value>`; the id may contain spaces only
        // inside quoted label values, which our writers never emit —
        // split at the last space.
        let (id, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {lineno}: sample without a value"))?;
        let (name, labels) = split_id(id);
        // Histogram component samples resolve to their base family.
        let (base, comp) = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| name.strip_suffix(s).map(|b| (b, *s)))
            .filter(|(b, _)| parsed.types.get(*b).map(String::as_str) == Some("histogram"))
            .unwrap_or((name, ""));
        let ty = parsed.types.get(base).ok_or(format!(
            "line {lineno}: sample for undeclared family '{base}'"
        ))?;
        let num: f64 = if value == "+Inf" {
            f64::INFINITY
        } else {
            value
                .parse()
                .map_err(|_| format!("line {lineno}: unparsable value '{value}'"))?
        };
        if !num.is_finite() || num < 0.0 {
            return Err(format!(
                "line {lineno}: non-finite or negative value '{value}'"
            ));
        }
        match (ty.as_str(), comp) {
            ("counter", "") => {
                parsed.counters.insert(id.to_string(), num as u64);
            }
            ("gauge", "") => {}
            ("histogram", "_bucket") => {
                let mut le = None;
                let mut rest = Vec::new();
                for part in labels.split(',').filter(|p| !p.is_empty()) {
                    match part.strip_prefix("le=\"").and_then(|v| v.strip_suffix('"')) {
                        Some(v) => le = Some(v.to_string()),
                        None => rest.push(part),
                    }
                }
                let le = le.ok_or(format!("line {lineno}: bucket without an le label"))?;
                let series = if rest.is_empty() {
                    base.to_string()
                } else {
                    format!("{base}{{{}}}", rest.join(","))
                };
                if le == "+Inf" {
                    inf_buckets.insert(series, num as u64);
                } else {
                    let bound: f64 = le
                        .parse()
                        .map_err(|_| format!("line {lineno}: unparsable le '{le}'"))?;
                    buckets.entry(series).or_default().push((bound, num as u64));
                }
            }
            ("histogram", "_sum") => {
                sums.insert(id.replace("_sum", ""), true);
            }
            ("histogram", "_count") => {
                let series = id.replace("_count", "");
                parsed.hist_counts.insert(series, num as u64);
            }
            (ty, "") => {
                return Err(format!(
                    "line {lineno}: bare sample for {ty} family '{base}'"
                ));
            }
            (ty, comp) => {
                return Err(format!(
                    "line {lineno}: {comp} sample for {ty} family '{base}'"
                ));
            }
        }
    }
    // Per-series histogram invariants.
    for (series, count) in &parsed.hist_counts {
        let inf = inf_buckets
            .remove(series)
            .ok_or(format!("histogram {series}: no +Inf bucket"))?;
        if inf != *count {
            return Err(format!(
                "histogram {series}: +Inf bucket {inf} != count {count} \
                 (bucket counts must sum to the total)"
            ));
        }
        if let Some(bs) = buckets.get(series) {
            let mut prev = 0u64;
            let mut prev_bound = f64::NEG_INFINITY;
            for (bound, cum) in bs {
                if *bound <= prev_bound {
                    return Err(format!("histogram {series}: le bounds not increasing"));
                }
                if *cum < prev {
                    return Err(format!("histogram {series}: cumulative buckets decreased"));
                }
                prev = *cum;
                prev_bound = *bound;
            }
            if prev > *count {
                return Err(format!(
                    "histogram {series}: cumulative bucket {prev} exceeds count {count}"
                ));
            }
        }
        if !sums.contains_key(series) {
            return Err(format!("histogram {series}: no _sum sample"));
        }
    }
    if let Some(series) = inf_buckets.keys().next() {
        return Err(format!("histogram {series}: +Inf bucket without a _count"));
    }
    Ok(parsed)
}

/// Asserts cumulative series are monotone between two scrapes: every
/// counter and histogram count in `prev` must exist in `cur` with a
/// value at least as large.
///
/// # Errors
///
/// Names the first regressing or vanished series.
pub fn check_monotone(prev: &ParsedExposition, cur: &ParsedExposition) -> Result<(), String> {
    for (id, was) in &prev.counters {
        match cur.counters.get(id) {
            None => return Err(format!("counter {id} vanished between scrapes")),
            Some(now) if now < was => {
                return Err(format!("counter {id} regressed: {was} -> {now}"));
            }
            Some(_) => {}
        }
    }
    for (id, was) in &prev.hist_counts {
        match cur.hist_counts.get(id) {
            None => return Err(format!("histogram {id} vanished between scrapes")),
            Some(now) if now < was => {
                return Err(format!("histogram {id} count regressed: {was} -> {now}"));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let s = Registry::new();
        s.counter("grp_jobs_total", &[("bench", "gzip"), ("scheme", "SRP")])
            .add(3);
        s.counter("grp_jobs_total", &[("bench", "mcf"), ("scheme", "none")])
            .add(1);
        s.counter("grp_errors_total", &[]).add(0);
        s.gauge("grp_workers", &[]).set(4.0);
        let h = s.hist("grp_wait_micros", &[]);
        for v in [0, 3, 3, 900] {
            h.record(v);
        }
        s.snapshot()
    }

    #[test]
    fn text_round_trips_through_the_validator() {
        let snap = sample_snapshot();
        let text = render_text(&snap);
        assert!(text.contains("# TYPE grp_jobs_total counter"), "{text}");
        assert!(
            text.contains("grp_jobs_total{bench=\"gzip\",scheme=\"SRP\"} 3"),
            "{text}"
        );
        assert!(text.contains("# TYPE grp_wait_micros histogram"), "{text}");
        assert!(
            text.contains("grp_wait_micros_bucket{le=\"+Inf\"} 4"),
            "{text}"
        );
        assert!(text.contains("grp_wait_micros_count 4"), "{text}");
        // Deterministic: same snapshot renders byte-identically.
        assert_eq!(text, render_text(&snap));
        let parsed = validate_text(&text).expect("valid exposition");
        assert_eq!(
            parsed.counters["grp_jobs_total{bench=\"gzip\",scheme=\"SRP\"}"],
            3
        );
        assert_eq!(parsed.hist_counts["grp_wait_micros"], 4);
        assert_eq!(parsed.types["grp_workers"], "gauge");
    }

    #[test]
    fn labelled_histograms_validate_too() {
        let reg = Registry::new();
        reg.hist("h_micros", &[("w", "0")]).record(5);
        reg.hist("h_micros", &[("w", "1")]).record(9);
        let text = render_text(&reg.snapshot());
        assert!(
            text.contains("h_micros_bucket{w=\"0\",le=\"7\"} 1"),
            "{text}"
        );
        let parsed = validate_text(&text).expect("valid");
        assert_eq!(parsed.hist_counts["h_micros{w=\"0\"}"], 1);
        assert_eq!(parsed.hist_counts["h_micros{w=\"1\"}"], 1);
    }

    #[test]
    fn validator_rejects_broken_expositions() {
        let e = validate_text("orphan_total 3\n").unwrap_err();
        assert!(e.contains("undeclared"), "{e}");
        let e = validate_text("# TYPE x counter\nx notanumber\n").unwrap_err();
        assert!(e.contains("unparsable"), "{e}");
        let e = validate_text("# TYPE x counter\n# TYPE x counter\n").unwrap_err();
        assert!(e.contains("twice"), "{e}");
        // +Inf bucket must equal _count.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\n\
                   h_sum 9\nh_count 3\n";
        let e = validate_text(bad).unwrap_err();
        assert!(e.contains("bucket counts must sum to the total"), "{e}");
        // Cumulative buckets must not decrease.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"3\"} 1\n\
                   h_bucket{le=\"+Inf\"} 2\nh_sum 9\nh_count 2\n";
        let e = validate_text(bad).unwrap_err();
        assert!(e.contains("decreased"), "{e}");
        // Histogram without a _sum.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n";
        let e = validate_text(bad).unwrap_err();
        assert!(e.contains("_sum"), "{e}");
    }

    #[test]
    fn monotone_check_catches_regressions() {
        let a = validate_text("# TYPE c counter\nc 3\n").unwrap();
        let b = validate_text("# TYPE c counter\nc 5\n").unwrap();
        assert!(check_monotone(&a, &b).is_ok());
        let e = check_monotone(&b, &a).unwrap_err();
        assert!(e.contains("regressed"), "{e}");
        let empty = validate_text("").unwrap();
        let e = check_monotone(&a, &empty).unwrap_err();
        assert!(e.contains("vanished"), "{e}");
    }

    #[test]
    fn json_twin_isolates_the_timestamp() {
        let snap = sample_snapshot();
        let with_ts = snapshot_json(&snap, Some(123)).render();
        let without = snapshot_json(&snap, None).render();
        assert!(
            with_ts.contains("\"scraped_at_unix_micros\":123"),
            "{with_ts}"
        );
        assert!(!without.contains("scraped_at"), "{without}");
        // Everything else is identical — the timestamp is the only
        // nondeterministic field.
        assert_eq!(
            with_ts.replace("\"scraped_at_unix_micros\":123,", ""),
            without
        );
    }
}
