//! End-to-end robustness tests for the replay server over a real unix
//! socket, driving the actual `serve` binary as a subprocess: a client
//! that disconnects mid-batch must not take the process down, malformed
//! or truncated request lines fail only themselves, and the in-band
//! `{"drain":true}` probe flushes everything and exits 0.
//!
//! The full storm (seeded I/O faults × kill -9 × restart carryover)
//! lives in `check --chaos`; these tests pin the per-session contract
//! at a size that fits the unit-test budget.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use grp_bench::json::Json;

/// A fresh per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grp-serve-robust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Spawns the real serve binary on `sock` at test scale with the
/// hardening knobs engaged (generous deadline so nothing expires).
fn spawn_serve(sock: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--scale", "test", "--jobs", "2"])
        .arg("--socket")
        .arg(sock)
        .args(["--request-deadline-ms", "60000", "--max-inflight", "64"])
        .args(["--log-level", "error"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve binary")
}

/// Connects once the server is accepting, failing fast if it died.
fn connect(sock: &Path, child: &mut Child) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(conn) = UnixStream::connect(sock) {
            conn.set_read_timeout(Some(Duration::from_secs(120)))
                .expect("read timeout");
            return conn;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("serve exited before accepting: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "serve never started accepting on {sock:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Sends raw request lines, then a blank line to flush the batch.
fn send_batch(conn: &mut UnixStream, lines: &[&str]) {
    for line in lines {
        writeln!(conn, "{line}").expect("send request line");
    }
    writeln!(conn).expect("send flush line");
    conn.flush().expect("flush requests");
}

/// Reads exactly `n` reply documents.
fn read_replies(reader: &mut BufReader<UnixStream>, n: usize) -> Vec<Json> {
    let mut replies = Vec::new();
    let mut line = String::new();
    while replies.len() < n {
        line.clear();
        let got = reader.read_line(&mut line).expect("read reply line");
        assert!(
            got > 0,
            "server closed the stream after {} of {n} replies",
            replies.len()
        );
        replies.push(Json::parse(line.trim()).expect("parse reply"));
    }
    replies
}

/// The reply with `"id": id`, which must be present exactly once.
fn reply_by_id(replies: &[Json], id: u64) -> Json {
    let matched: Vec<&Json> = replies
        .iter()
        .filter(|r| r.get("id").and_then(Json::as_u64) == Some(id))
        .collect();
    assert_eq!(
        matched.len(),
        1,
        "expected exactly one reply with id {id}: {replies:?}"
    );
    matched[0].clone()
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Drains the server through the in-band probe and asserts a clean
/// exit 0 within the timeout.
fn drain_and_wait(conn: &mut UnixStream, reader: &mut BufReader<UnixStream>, child: &mut Child) {
    writeln!(conn, "{{\"drain\":true,\"id\":9000}}").expect("send drain");
    conn.flush().expect("flush drain");
    let ack = &read_replies(reader, 1)[0];
    assert!(is_ok(ack), "drain ack not ok: {ack:?}");
    assert_eq!(
        ack.get("drain").and_then(Json::as_bool),
        Some(true),
        "drain ack: {ack:?}"
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            assert!(status.success(), "drained server exited nonzero: {status}");
            return;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("server did not exit within 60s of the drain ack");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A client that vanishes mid-batch (jobs sent, no flush line, socket
/// dropped) must cost the server nothing but that batch: the next
/// connection gets bit-for-bit normal service and the drain probe
/// still exits 0.
#[test]
fn client_disconnect_mid_batch_leaves_the_server_serving() {
    let dir = scratch("disconnect");
    let sock = dir.join("serve.sock");
    let mut child = spawn_serve(&sock);

    {
        let mut conn = connect(&sock, &mut child);
        writeln!(conn, "{{\"id\":1,\"kernel\":\"gzip\",\"scheme\":\"SRP\"}}")
            .expect("send abandoned job");
        conn.flush().expect("flush abandoned job");
        // Drop without the blank line: the server sees EOF mid-batch.
    }

    let conn = connect(&sock, &mut child);
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut conn = conn;
    send_batch(
        &mut conn,
        &["{\"id\":2,\"kernel\":\"gzip\",\"scheme\":\"SRP\"}"],
    );
    let replies = read_replies(&mut reader, 1);
    let reply = reply_by_id(&replies, 2);
    assert!(is_ok(&reply), "post-disconnect job failed: {reply:?}");
    assert_eq!(reply.get("bench").and_then(Json::as_str), Some("gzip"));
    drain_and_wait(&mut conn, &mut reader, &mut child);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed lines — truncated JSON and an unknown field — must each
/// earn a named error reply without poisoning the valid job sharing
/// their batch or the session that follows.
#[test]
fn malformed_request_lines_fail_only_themselves() {
    let dir = scratch("malformed");
    let sock = dir.join("serve.sock");
    let mut child = spawn_serve(&sock);

    let conn = connect(&sock, &mut child);
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut conn = conn;
    send_batch(
        &mut conn,
        &[
            "{\"id\":1,\"kernel\":\"gzip\",\"scheme\":\"SRP\"}",
            "{\"id\":2,\"kernel\":\"gzip\",",
            "{\"id\":3,\"kernel\":\"gzip\",\"scheme\":\"SRP\",\"bogus\":1}",
        ],
    );
    let replies = read_replies(&mut reader, 3);
    let good = reply_by_id(&replies, 1);
    assert!(
        is_ok(&good),
        "valid job dragged down by its batch: {good:?}"
    );
    let errors: Vec<&Json> = replies.iter().filter(|r| !is_ok(r)).collect();
    assert_eq!(errors.len(), 2, "expected two error replies: {replies:?}");
    for e in errors {
        let msg = e.get("error").and_then(Json::as_str).expect("error field");
        assert!(!msg.is_empty());
    }

    // The session survives: a clean follow-up batch still runs.
    send_batch(
        &mut conn,
        &["{\"id\":4,\"kernel\":\"mcf\",\"scheme\":\"none\"}"],
    );
    let replies = read_replies(&mut reader, 1);
    assert!(is_ok(&reply_by_id(&replies, 4)));
    drain_and_wait(&mut conn, &mut reader, &mut child);
    let _ = std::fs::remove_dir_all(&dir);
}
