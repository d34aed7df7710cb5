//! Strict command-line flag parsing shared by the bench binaries.
//!
//! Every accessor here rejects, with an error naming the valid values,
//! the three argv shapes that ad-hoc `position + get(i + 1)` lookups
//! silently mis-handle:
//!
//! * the flag appearing last (`… --scale`) — the missing value used to
//!   fall back to a default, so a typo'd invocation ran the wrong
//!   configuration without a word;
//! * a duplicated flag (`--scale test --scale paper`) — only one
//!   occurrence was ever read, and which one depended on the lookup;
//! * a value that is itself a flag (`--scale --verbose`) — the next
//!   flag was swallowed as the value.

/// Looks up `--flag <value>`. `Ok(None)` when the flag is absent;
/// an error naming `valid` on a duplicate flag, a missing value, or a
/// `--`-prefixed value.
pub fn strict_value(args: &[String], flag: &str, valid: &str) -> Result<Option<String>, String> {
    let mut found: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            if found.is_some() {
                return Err(format!("{flag} given more than once (valid: {valid})"));
            }
            match args.get(i + 1) {
                None => {
                    return Err(format!("{flag} requires a value (valid: {valid})"));
                }
                Some(v) if v.starts_with("--") => {
                    return Err(format!(
                        "{flag} requires a value, got flag '{v}' (valid: {valid})"
                    ));
                }
                Some(v) => {
                    found = Some(v.clone());
                    i += 1;
                }
            }
        }
        i += 1;
    }
    Ok(found)
}

/// Looks up a bare presence flag (no value, e.g. `--faults`). Errors
/// on a duplicated flag so printed reproducer lines stay canonical.
pub fn strict_flag(args: &[String], flag: &str) -> Result<bool, String> {
    match args.iter().filter(|a| *a == flag).count() {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(format!("{flag} given more than once")),
    }
}

/// Parses a `u64` accepting a `0x` prefix (with `_` separators), so
/// printed reproducer lines (`--seed 0x5eed…`) paste back verbatim.
/// Shared by the flag parsers and env-var specs (`GRP_IOFAULT=seed:…`).
pub fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => v.parse().ok(),
    }
}

/// [`strict_value`] for integer flags; additionally errors when the
/// value does not parse as a `u64` (via [`parse_u64`]).
pub fn strict_u64(args: &[String], flag: &str, valid: &str) -> Result<Option<u64>, String> {
    match strict_value(args, flag, valid)? {
        None => Ok(None),
        Some(v) => parse_u64(&v)
            .map(|n| Some(n))
            .ok_or_else(|| format!("{flag} requires an integer, got '{v}' (valid: {valid})")),
    }
}

/// Parses the worker-count override for parallel precompute: the
/// `--jobs N` flag, falling back to the `GRP_JOBS` environment variable
/// when the flag is absent. `Ok(None)` means "use the default"
/// (available parallelism); `0` and non-numeric values are errors from
/// either source.
pub fn parse_jobs_args(args: &[String]) -> Result<Option<usize>, String> {
    let from_flag = strict_u64(args, "--jobs", "a positive worker count")?;
    let n = match from_flag {
        Some(n) => Some(n),
        None => match std::env::var("GRP_JOBS") {
            Ok(v) => Some(v.parse::<u64>().map_err(|_| {
                format!("GRP_JOBS requires an integer, got '{v}' (valid: a positive worker count)")
            })?),
            Err(_) => None,
        },
    };
    match n {
        Some(0) => {
            Err("--jobs/GRP_JOBS must be at least 1 (valid: a positive worker count)".into())
        }
        Some(n) => Ok(Some(n as usize)),
        None => Ok(None),
    }
}

/// The worker count used when neither `--jobs` nor `GRP_JOBS` sets one:
/// the available parallelism, or 4 when the platform cannot report it.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Parses `--schemes <csv>` (comma-separated [`grp_core::Scheme`]
/// labels, e.g. `none,SRP,GRP/Var`) shared by the perf harness and the
/// serve bin. `Ok(None)` when the flag is absent; an error naming the
/// offending label and every valid label on a typo, an empty list, or
/// a duplicated entry (a duplicate would silently double a grid cell).
pub fn parse_schemes_args(args: &[String]) -> Result<Option<Vec<grp_core::Scheme>>, String> {
    let valid = || grp_core::Scheme::ALL.map(|s| s.label()).join(", ");
    let Some(csv) = strict_value(args, "--schemes", "a comma-separated scheme list")? else {
        return Ok(None);
    };
    let mut out = Vec::new();
    for part in csv.split(',') {
        let label = part.trim();
        let scheme = grp_core::Scheme::by_label(label)
            .ok_or_else(|| format!("unknown scheme '{label}' (valid: {})", valid()))?;
        if out.contains(&scheme) {
            return Err(format!(
                "--schemes lists '{label}' twice (valid: {})",
                valid()
            ));
        }
        out.push(scheme);
    }
    if out.is_empty() {
        return Err(format!("--schemes is empty (valid: {})", valid()));
    }
    Ok(Some(out))
}

/// Parses the replay flag shared by the `perf`, `all`, `serve`, and
/// `check` binaries: `--trace-cache <dir>` enables the cross-process
/// cache of packed, pre-interpreted traces. Off by default
/// ([`crate::sched::ReplayMode::default`]).
pub fn parse_replay_args(args: &[String]) -> Result<crate::sched::ReplayMode, String> {
    let dir = strict_value(args, "--trace-cache", "a cache directory path")?;
    Ok(crate::sched::ReplayMode {
        trace_cache: dir.map(|d| std::sync::Arc::new(crate::tracecache::TraceCache::new(d))),
        ..crate::sched::ReplayMode::default()
    })
}

/// Like [`parse_jobs_args`] over the process argv, exiting with the
/// error on stderr (status 2) instead of returning it — the same
/// contract as `scale_from_args`.
pub fn jobs_from_args() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    or_exit(parse_jobs_args(&args))
}

/// [`strict_value`] for a binary's argv: exits with the error (status 2)
/// on a duplicated flag, a missing value, or a flag-like value.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    or_exit(strict_value(args, flag, "a value"))
}

/// [`strict_u64`] for a binary's argv, exiting like [`flag_value`]; an
/// unparsable value exits too.
pub fn flag_u64(args: &[String], flag: &str) -> Option<u64> {
    or_exit(strict_u64(args, flag, "an integer"))
}

/// The parsed value, or the error logged and the process exited with
/// status 2 (a usage error).
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        crate::telemetry::log::error("args", &e);
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn absent_flag_is_none() {
        assert_eq!(strict_value(&argv(&["run"]), "--x", "v"), Ok(None));
        assert_eq!(strict_u64(&argv(&["run"]), "--x", "v"), Ok(None));
    }

    #[test]
    fn present_flag_parses() {
        let args = argv(&["run", "--epoch", "512", "--label", "a-b"]);
        assert_eq!(
            strict_value(&args, "--label", "any").unwrap().as_deref(),
            Some("a-b")
        );
        assert_eq!(strict_u64(&args, "--epoch", "int").unwrap(), Some(512));
    }

    #[test]
    fn hex_integer_parses() {
        let args = argv(&["run", "--seed", "0x5eedc4ec00000000"]);
        assert_eq!(
            strict_u64(&args, "--seed", "a seed").unwrap(),
            Some(0x5eed_c4ec_0000_0000)
        );
        let err = strict_u64(&argv(&["run", "--seed", "0xzz"]), "--seed", "a seed").unwrap_err();
        assert!(err.contains("0xzz"), "{err}");
    }

    #[test]
    fn flag_at_end_of_argv_errors() {
        let err =
            strict_value(&argv(&["run", "--scale"]), "--scale", "test, small, paper").unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        assert!(
            err.contains("test, small, paper"),
            "error lists valid values: {err}"
        );
    }

    #[test]
    fn duplicated_flag_errors() {
        let args = argv(&["run", "--scale", "test", "--scale", "paper"]);
        let err = strict_value(&args, "--scale", "test, small, paper").unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        assert!(err.contains("test, small, paper"), "{err}");
    }

    #[test]
    fn flag_like_value_errors() {
        let args = argv(&["run", "--scale", "--verbose"]);
        let err = strict_value(&args, "--scale", "test, small, paper").unwrap_err();
        assert!(
            err.contains("--verbose"),
            "error names the swallowed flag: {err}"
        );
        assert!(err.contains("test, small, paper"), "{err}");
    }

    #[test]
    fn non_numeric_integer_errors() {
        let args = argv(&["run", "--epoch", "lots"]);
        let err = strict_u64(&args, "--epoch", "an event count").unwrap_err();
        assert!(err.contains("lots"), "{err}");
        assert!(err.contains("an event count"), "{err}");
    }

    #[test]
    fn flag_helpers() {
        let args = argv(&["x", "--epoch", "500", "--trace-out", "p"]);
        assert_eq!(flag_u64(&args, "--epoch"), Some(500));
        assert_eq!(flag_value(&args, "--trace-out").as_deref(), Some("p"));
        assert_eq!(flag_value(&args, "--missing"), None);
    }

    #[test]
    fn presence_flag_validation() {
        assert_eq!(strict_flag(&argv(&["run"]), "--faults"), Ok(false));
        assert_eq!(
            strict_flag(&argv(&["run", "--faults"]), "--faults"),
            Ok(true)
        );
        let err = strict_flag(&argv(&["run", "--faults", "--faults"]), "--faults").unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn schemes_flag_validation() {
        use grp_core::Scheme;
        assert_eq!(parse_schemes_args(&argv(&["run"])), Ok(None));
        assert_eq!(
            parse_schemes_args(&argv(&["run", "--schemes", "none, SRP,GRP/Var"])),
            Ok(Some(vec![Scheme::NoPrefetch, Scheme::Srp, Scheme::GrpVar]))
        );
        let err = parse_schemes_args(&argv(&["run", "--schemes", "none,SPR"])).unwrap_err();
        assert!(err.contains("SPR"), "{err}");
        assert!(err.contains("GRP/Var"), "error lists valid labels: {err}");
        let err = parse_schemes_args(&argv(&["run", "--schemes", "SRP,SRP"])).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn replay_flags_validation() {
        let mode = parse_replay_args(&argv(&["run"])).unwrap();
        assert!(mode.trace_cache.is_none() && mode.telemetry.is_none());
        let mode = parse_replay_args(&argv(&["run", "--trace-cache", "/tmp/tc"])).unwrap();
        assert_eq!(
            mode.trace_cache.as_deref().map(|c| c.dir().to_path_buf()),
            Some(std::path::PathBuf::from("/tmp/tc"))
        );
        let err = parse_replay_args(&argv(&["run", "--trace-cache"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        let err = parse_replay_args(&argv(&["run", "--trace-cache", "a", "--trace-cache", "b"]))
            .unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn jobs_flag_validation() {
        assert_eq!(parse_jobs_args(&argv(&["run", "--jobs", "3"])), Ok(Some(3)));
        let err = parse_jobs_args(&argv(&["run", "--jobs", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse_jobs_args(&argv(&["run", "--jobs", "many"])).unwrap_err();
        assert!(err.contains("many"), "{err}");
        let err = parse_jobs_args(&argv(&["run", "--jobs"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }
}
