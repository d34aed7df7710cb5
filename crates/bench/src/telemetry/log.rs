//! Leveled structured NDJSON logger for the bench harness.
//!
//! One JSON object per stderr line:
//! `{"ts_micros":…,"lvl":"info","target":"serve","msg":"…",…fields}`.
//! `ts_micros` (wall-clock unix microseconds) appears **only** here —
//! log lines go to stderr, never into artifacts, so artifact
//! determinism is untouched (see the timestamp policy in DESIGN.md
//! §14).
//!
//! The level is process-global: `GRP_LOG`
//! (`error|warn|info|debug|trace`) sets the default, a bin's
//! `--log-level` flag ([`init_from_args`]) overrides it, and the
//! default is `info`. Filtering happens before any formatting, so a
//! suppressed `debug!`-style call costs one atomic load.
//!
//! Each line is written with a single locked `write_all` — concurrent
//! workers interleave whole lines, never fragments. The writer goes
//! through `std::io::stderr` directly: `eprintln!` is lint-banned in
//! this crate (verify.sh greps for it) so every diagnostic carries a
//! level and structure.

use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::json::Json;

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed (usually followed by a nonzero exit).
    Error = 0,
    /// Degraded but continuing (e.g. a best-effort cache store failed).
    Warn = 1,
    /// Normal operational landmarks (batch summaries, listeners).
    Info = 2,
    /// Per-request / per-cell detail (cache miss reasons, retries).
    Debug = 3,
    /// Everything (per-line request parsing).
    Trace = 4,
}

impl Level {
    /// Parses `error|warn|info|debug|trace`.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// The lowercase label (`"info"`).
    pub fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// 255 = "not yet initialized from GRP_LOG".
static LEVEL: AtomicU8 = AtomicU8::new(255);
/// Monotonic id source for sessions / batches / requests / spans.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The active level, reading `GRP_LOG` on first use (default `info`).
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        255 => {
            let from_env = std::env::var("GRP_LOG")
                .ok()
                .and_then(|v| Level::parse(&v))
                .unwrap_or(Level::Info);
            // A concurrent set_level wins: only replace the sentinel.
            let _ =
                LEVEL.compare_exchange(255, from_env as u8, Ordering::Relaxed, Ordering::Relaxed);
            from_env
        }
        0 => Level::Error,
        1 => Level::Warn,
        2 => Level::Info,
        3 => Level::Debug,
        _ => Level::Trace,
    }
}

/// Sets the process-global level (overrides `GRP_LOG`).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// True when a message at `l` would be emitted.
pub fn enabled(l: Level) -> bool {
    l <= level()
}

/// Applies a bin's `--log-level <error|warn|info|debug|trace>` flag
/// (overrides `GRP_LOG`; absent flag leaves the env/default level).
///
/// # Errors
///
/// Names the invalid level or a malformed flag shape.
pub fn init_from_args(args: &[String]) -> Result<(), String> {
    if let Some(v) =
        crate::args::strict_value(args, "--log-level", "error, warn, info, debug, trace")?
    {
        let l = Level::parse(&v).ok_or_else(|| {
            format!("unknown log level '{v}' (valid: error, warn, info, debug, trace)")
        })?;
        set_level(l);
    }
    Ok(())
}

/// A fresh process-unique id (request / session / span correlation).
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Wall-clock unix microseconds (log lines only — never artifacts).
fn now_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Emits one structured line at `l` with extra fields.
pub fn log_kv(l: Level, target: &str, msg: &str, fields: &[(&str, Json)]) {
    if !enabled(l) {
        return;
    }
    let mut doc = Json::object()
        .set("ts_micros", now_micros())
        .set("lvl", l.label())
        .set("target", target)
        .set("msg", msg);
    for (k, v) in fields {
        doc = doc.set(k, v.clone());
    }
    let mut line = doc.render();
    line.push('\n');
    // One locked write per line: whole lines interleave, never bytes.
    let stderr = std::io::stderr();
    let _ = stderr.lock().write_all(line.as_bytes());
}

/// Emits one structured line at `l` with no extra fields.
pub fn log(l: Level, target: &str, msg: &str) {
    log_kv(l, target, msg, &[]);
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, msg: &str) {
    log(Level::Error, target, msg);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, msg: &str) {
    log(Level::Warn, target, msg);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &str, msg: &str) {
    log(Level::Info, target, msg);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &str, msg: &str) {
    log(Level::Debug, target, msg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_order_and_label() {
        assert!(Level::Error < Level::Trace);
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(Level::Warn.label(), "warn");
    }

    #[test]
    fn init_from_args_sets_and_rejects() {
        let argv = |s: &[&str]| -> Vec<String> { s.iter().map(|a| a.to_string()).collect() };
        // Level state is process-global; keep every assertion in one
        // test so parallel test threads cannot interleave set_level.
        init_from_args(&argv(&["serve", "--log-level", "debug"])).expect("valid");
        assert_eq!(level(), Level::Debug);
        assert!(enabled(Level::Debug));
        let e = init_from_args(&argv(&["serve", "--log-level", "loud"])).unwrap_err();
        assert!(e.contains("loud"), "{e}");
        assert!(e.contains("error, warn, info, debug, trace"), "{e}");
        let e = init_from_args(&argv(&["serve", "--log-level"])).unwrap_err();
        assert!(e.contains("requires a value"), "{e}");
        set_level(Level::Error);
        assert!(!enabled(Level::Info));
        // Suppressed emission is a no-op (must not panic or write).
        log(Level::Info, "test", "suppressed");
        set_level(Level::Info);
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Trace));
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let a = next_id();
        let b = next_id();
        assert!(b > a);
    }
}
