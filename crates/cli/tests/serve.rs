//! Black-box protocol harness for `mrw serve` — the resident estimate
//! service with the incremental report cache.
//!
//! Everything here drives the daemon as a separate process through the
//! vendored `assert_cmd` daemon support (spawn, wait for the ready line,
//! SIGTERM, exit-status check) and pins the headline contract: **every**
//! response — cache miss, hit, range extension, precision upgrade,
//! post-eviction recompute — is byte-identical to a cold `mrw run` of
//! the same spec. The `stats` verb's counters (classification and the
//! `trials_executed` total) prove the cache served extensions by running
//! only the missing trial ranges, and the malformed-request corpus
//! proves a hostile client gets structured errors, never a wedged or
//! dead daemon.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use assert_cmd::{Command, Daemon};
use mrw_core::query::json::{self, Value};
use mrw_core::query::Ledger;

/// A scratch directory removed when the test finishes.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("mrw-serve-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn file(&self, name: &str, contents: &str) -> std::path::PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, contents).expect("write temp file");
        path
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn mrw() -> Command {
    let mut cmd = Command::cargo_bin("mrw").expect("mrw binary built for integration tests");
    cmd.env_remove("MRW_FAULT_KILL_RANGE_START")
        .env_remove("MRW_FAULT_HANG_RANGE_START")
        .env_remove("MRW_FAULT_CORRUPT_RANGE_START")
        .env_remove("MRW_FAULT_SLOW_MS")
        .env_remove("MRW_FAULT_ONCE")
        .env_remove("MRW_TMPDIR");
    cmd
}

fn mrw_stdout(args: &[&str]) -> String {
    let assert = mrw().args(args).assert().success();
    String::from_utf8(assert.get_output().stdout.clone()).expect("utf-8 stdout")
}

const FIXED_SPEC: &str = r#"{"graph": {"family": "cycle", "n": 64},
 "query": {"type": "cover", "k": 8, "starts": [0, 5]},
 "budget": {"trials": 96, "seed": 7}}"#;

/// Two groups that retire at different windows: `start=8` at trial 121,
/// `start=0` at trial 181 (windows end at 16, 24, 36, 54, 81, 121, 181, …).
const ADAPTIVE_SPEC: &str = r#"{"graph": {"family": "cycle", "n": 32},
 "query": {"type": "cover", "k": 4, "starts": [0, 8]},
 "budget": {"trials": {"adaptive": {"target": {"relative": 0.1},
                                    "min_trials": 16, "max_trials": 512}},
            "seed": 9}}"#;

const READY: Duration = Duration::from_secs(20);

/// Spawns `mrw serve` on an ephemeral TCP port (plus `extra` flags) and
/// returns the daemon handle with the resolved address from its ready
/// line. The `Daemon` Drop kills the child, so a panicking test never
/// leaks a resident server.
fn start_daemon(extra: &[&str]) -> (Daemon, String) {
    let mut cmd = mrw();
    cmd.args(["serve", "--listen", "127.0.0.1:0"]).args(extra);
    let daemon = cmd.spawn_daemon().expect("spawn mrw serve");
    let line = daemon
        .wait_for_line("mrw-serve listening on ", READY)
        .expect("daemon ready line");
    let addr = line
        .rsplit(' ')
        .next()
        .expect("address on ready line")
        .to_string();
    (daemon, addr)
}

/// `mrw serve-ctl <args> --connect <addr>`, asserting success.
fn ctl(addr: &str, args: &[&str]) -> String {
    let mut all: Vec<&str> = vec!["serve-ctl"];
    all.extend_from_slice(args);
    all.extend_from_slice(&["--connect", addr]);
    mrw_stdout(&all)
}

/// One counter out of a `stats` response, by path (e.g. `["hits"]` or
/// `["report_cache", "evictions"]`).
fn counter(stats: &Value, path: &[&str]) -> u64 {
    let mut v = stats;
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("stats missing {path:?}"));
    }
    v.as_u64()
        .unwrap_or_else(|| panic!("stats {path:?} not a number"))
}

fn stats(addr: &str) -> Value {
    json::parse(&ctl(addr, &["stats"])).expect("stats parses")
}

// ---------------------------------------------------------------------------
// The concurrent black-box harness (identical / extending / upgrading
// clients against one daemon).

/// Runs `clients` concurrent `serve-ctl run` processes with the given
/// extra flags and returns their stdouts.
fn concurrent_runs(
    addr: &str,
    spec: &std::path::Path,
    flags: &[&str],
    clients: usize,
) -> Vec<String> {
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.to_string();
            let spec = spec.to_path_buf();
            let flags: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
            std::thread::spawn(move || {
                let mut cmd = mrw();
                cmd.args(["serve-ctl", "run"])
                    .arg(&spec)
                    .args(["--connect", &addr])
                    .args(&flags);
                let assert = cmd.assert().success();
                String::from_utf8(assert.get_output().stdout.clone()).expect("utf-8 stdout")
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect()
}

#[test]
fn concurrent_clients_are_byte_identical_and_extensions_run_only_missing_ranges() {
    let tmp = TempDir::new("concurrent");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let spec_arg = spec.to_str().unwrap();
    let (_daemon, addr) = start_daemon(&[]);

    // Phase A: four identical clients race on a cold cache. Exactly one
    // computes (the state lock serializes them), the rest hit — and all
    // four get the cold-oracle bytes.
    let oracle_96 = mrw_stdout(&["run", spec_arg, "--json"]);
    for out in concurrent_runs(&addr, &spec, &[], 4) {
        assert_eq!(
            out, oracle_96,
            "concurrent identical client diverged from mrw run"
        );
    }
    let s = stats(&addr);
    assert_eq!(counter(&s, &["misses"]), 1, "one cold compute");
    assert_eq!(counter(&s, &["hits"]), 3, "the other three racers hit");
    assert_eq!(counter(&s, &["extensions"]), 0);
    // The cold fill ran the spec's 96 trials once per group (2 starts) —
    // and nothing else.
    assert_eq!(counter(&s, &["trials_executed"]), 192);

    // Phase B: two clients extend the budget to 144 trials while two
    // re-request the cached 96. The extension runs only the missing
    // 96..144 per group (2 × 48 = 96 trials); its twin and both
    // 96-clients are pure hits.
    let oracle_144 = mrw_stdout(&["run", spec_arg, "--json", "--trials", "144"]);
    let mut outs = concurrent_runs(&addr, &spec, &["--trials", "144"], 2);
    outs.extend(concurrent_runs(&addr, &spec, &[], 2));
    assert_eq!(outs[0], oracle_144);
    assert_eq!(outs[1], oracle_144);
    assert_eq!(outs[2], oracle_96);
    assert_eq!(outs[3], oracle_96);
    let s = stats(&addr);
    assert_eq!(counter(&s, &["misses"]), 1, "the entry already existed");
    assert_eq!(
        counter(&s, &["extensions"]),
        1,
        "one client ran the missing range"
    );
    assert_eq!(counter(&s, &["hits"]), 6);
    assert_eq!(
        counter(&s, &["trials_executed"]),
        192 + 96,
        "the extension dispatched exactly the missing 96..144 per group"
    );

    // Phase C: a precision upgrade resumes the adaptive wave schedule
    // against the cached moments — byte-identical to the cold adaptive
    // run — and repeating it is a pure hit (no new trials).
    let precision = [
        "--rel-precision",
        "0.2",
        "--min-trials",
        "16",
        "--max-trials",
        "256",
    ];
    let mut oracle_args = vec!["run", spec_arg, "--json"];
    oracle_args.extend_from_slice(&precision);
    let adaptive_oracle = mrw_stdout(&oracle_args);
    for out in concurrent_runs(&addr, &spec, &precision, 2) {
        assert_eq!(
            out, adaptive_oracle,
            "precision upgrade diverged from cold adaptive run"
        );
    }
    let after_upgrade = counter(&stats(&addr), &["trials_executed"]);
    let repeat = concurrent_runs(&addr, &spec, &precision, 1);
    assert_eq!(repeat[0], adaptive_oracle);
    let s = stats(&addr);
    assert_eq!(
        counter(&s, &["trials_executed"]),
        after_upgrade,
        "a repeated upgrade must replay the wave schedule from cache alone"
    );
    assert_eq!(counter(&s, &["errors"]), 0);
}

/// The ledger executor under staggered retirement: each group runs
/// exactly to its own stopping window, and an upgrade from a fixed entry
/// pays only for the window ends its ledger cannot answer.
#[test]
fn staggered_adaptive_retirement_runs_exactly_the_missing_trials() {
    let tmp = TempDir::new("stagger");
    let spec = tmp.file("adaptive.json", ADAPTIVE_SPEC);
    let spec_arg = spec.to_str().unwrap();
    let oracle = mrw_stdout(&["run", spec_arg, "--json"]);
    let oracle_96 = mrw_stdout(&["run", spec_arg, "--json", "--trials", "96"]);

    // A cold adaptive miss runs each group to its own retirement.
    let (_daemon, addr) = start_daemon(&[]);
    assert_eq!(ctl(&addr, &["run", spec_arg]), oracle);
    assert_eq!(counter(&stats(&addr), &["trials_executed"]), 121 + 181);

    // A fixed 96-trial entry, then the adaptive upgrade. Window ends below
    // the cached boundary 96 rerun from trial 0 (integer moments cannot
    // shrink): 16+8+12+18+27 = 81 per group, then [96, 121) for both and
    // [121, 181) for start=0 alone — 2×81 + 2×25 + 60 = 272.
    let (_daemon, addr) = start_daemon(&[]);
    assert_eq!(ctl(&addr, &["run", spec_arg, "--trials", "96"]), oracle_96);
    assert_eq!(counter(&stats(&addr), &["trials_executed"]), 192);
    assert_eq!(ctl(&addr, &["run", spec_arg]), oracle);
    assert_eq!(counter(&stats(&addr), &["trials_executed"]), 192 + 272);
    assert_eq!(ctl(&addr, &["run", spec_arg]), oracle);
    let s = stats(&addr);
    assert_eq!(
        counter(&s, &["trials_executed"]),
        192 + 272,
        "repeat ran trials"
    );
    assert_eq!(counter(&s, &["hits"]), 1);
}

// ---------------------------------------------------------------------------
// Lifecycle: Unix sockets, the shutdown verb, and SIGTERM.

#[test]
fn unix_socket_daemon_serves_and_shutdown_verb_removes_the_socket() {
    let tmp = TempDir::new("unix");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let sock = tmp.path("d.sock");
    let sock_arg = sock.to_str().unwrap().to_string();
    let mut cmd = mrw();
    cmd.args(["serve", "--listen", &sock_arg]);
    let mut daemon = cmd.spawn_daemon().expect("spawn mrw serve");
    daemon
        .wait_for_line("mrw-serve listening on ", READY)
        .expect("daemon ready line");

    let pong = ctl(&sock_arg, &["ping"]);
    assert!(pong.contains("pong"), "unexpected ping response: {pong}");
    let oracle = mrw_stdout(&["run", spec.to_str().unwrap(), "--json"]);
    assert_eq!(ctl(&sock_arg, &["run", spec.to_str().unwrap()]), oracle);

    let bye = ctl(&sock_arg, &["shutdown"]);
    assert!(bye.contains("shutting down"), "unexpected response: {bye}");
    let status = daemon.wait_with_timeout(READY).expect("daemon exits");
    assert!(status.success(), "shutdown verb must exit 0, got {status}");
    assert!(!sock.exists(), "socket file leaked after shutdown");
}

/// A client holding every descriptor the daemon may open makes `accept`
/// fail (EMFILE). The daemon must log that and keep serving once the
/// descriptors come back, not exit.
#[test]
fn descriptor_exhaustion_does_not_stop_the_daemon() {
    let tmp = TempDir::new("emfile");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let sock = tmp.path("d.sock");
    let sock_arg = sock.to_str().unwrap().to_string();
    let mut cmd = Command::new("sh");
    cmd.args(["-c", "ulimit -n 40 && exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_mrw"))
        .args(["serve", "--listen", &sock_arg]);
    let mut daemon = cmd.spawn_daemon().expect("spawn mrw serve");
    daemon
        .wait_for_line("mrw-serve listening on ", READY)
        .expect("daemon ready line");

    // Sixty idle connections: each accepted one costs the daemon two
    // descriptors, so it runs out long before the last.
    let idle: Vec<_> = (0..60)
        .map(|_| std::os::unix::net::UnixStream::connect(&sock).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        daemon
            .wait_with_timeout(Duration::from_millis(100))
            .is_err(),
        "the daemon exited on descriptor exhaustion"
    );
    drop(idle);

    let pong = ctl(&sock_arg, &["ping"]);
    assert!(pong.contains("pong"), "unexpected ping response: {pong}");
    let oracle = mrw_stdout(&["run", spec.to_str().unwrap(), "--json"]);
    assert_eq!(ctl(&sock_arg, &["run", spec.to_str().unwrap()]), oracle);
    ctl(&sock_arg, &["shutdown"]);
    let status = daemon.wait_with_timeout(READY).expect("daemon exits");
    assert!(status.success(), "shutdown verb must exit 0, got {status}");
}

#[test]
fn sigterm_is_a_clean_shutdown() {
    let tmp = TempDir::new("sigterm");
    let sock = tmp.path("d.sock");
    let sock_arg = sock.to_str().unwrap().to_string();
    let mut cmd = mrw();
    cmd.args(["serve", "--listen", &sock_arg]);
    let mut daemon = cmd.spawn_daemon().expect("spawn mrw serve");
    daemon
        .wait_for_line("mrw-serve listening on ", READY)
        .expect("daemon ready line");
    daemon.terminate().expect("SIGTERM");
    let status = daemon.wait_with_timeout(READY).expect("daemon exits");
    assert!(status.success(), "SIGTERM must exit 0, got {status}");
    assert!(!sock.exists(), "socket file leaked after SIGTERM");
}

// ---------------------------------------------------------------------------
// Malformed-request robustness (the fuzz/mutation corpus).

/// Sends one blank-line-terminated frame.
fn send_frame(w: &mut TcpStream, body: &[u8]) {
    w.write_all(body).expect("send frame");
    if !body.ends_with(b"\n") {
        w.write_all(b"\n").expect("send frame");
    }
    w.write_all(b"\n").expect("send frame");
    w.flush().expect("send frame");
}

/// Reads one frame; `None` on clean EOF before any data.
fn read_frame(r: &mut impl BufRead) -> Option<String> {
    let mut body = String::new();
    loop {
        let mut line = String::new();
        if r.read_line(&mut line).expect("read frame") == 0 {
            assert!(body.is_empty(), "EOF mid-frame with partial body: {body:?}");
            return None;
        }
        if line == "\n" {
            if body.is_empty() {
                continue;
            }
            return Some(body);
        }
        body.push_str(&line);
    }
}

#[test]
fn malformed_requests_get_structured_errors_and_the_daemon_survives() {
    let tmp = TempDir::new("fuzz");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let (_daemon, addr) = start_daemon(&[]);
    let oracle = mrw_stdout(&["run", spec.to_str().unwrap(), "--json"]);
    let valid = format!("{{\"verb\": \"run\", \"spec\": {FIXED_SPEC}}}");

    // The corpus: hand-written malformations (wrong shapes, unknown
    // verbs, specs that fail validation, raw non-UTF-8 bytes) plus
    // mechanical mutations and truncations of a valid request — the
    // `query_json_props.rs` idiom applied to protocol frames.
    let mut corpus: Vec<Vec<u8>> = vec![
        b"not json at all".to_vec(),
        b"{}".to_vec(),
        br#"{"verb": 42}"#.to_vec(),
        br#"{"verb": "bogus"}"#.to_vec(),
        br#"{"verb": "run"}"#.to_vec(),
        br#"{"verb": "run", "spec": 7}"#.to_vec(),
        // Valid JSON, invalid spec: unknown family.
        br#"{"verb": "run", "spec": {"graph": {"family": "nope", "n": 8},
            "query": {"type": "cover", "k": 2, "starts": [0]},
            "budget": {"trials": 4, "seed": 1}}}"#
            .to_vec(),
        // Valid spec shape, fails graph validation: start out of range.
        br#"{"verb": "run", "spec": {"graph": {"family": "cycle", "n": 8},
            "query": {"type": "cover", "k": 2, "starts": [99]},
            "budget": {"trials": 4, "seed": 1}}}"#
            .to_vec(),
        // Valid spec shape, fails graph validation: a partial cover on a
        // disconnected graph, which would otherwise never finish.
        br#"{"verb": "run", "spec": {"graph": {"family": "circulant", "n": 8, "jumps": [2]},
            "query": {"type": "partial-cover", "k": 2, "start": 0, "gammas": [1.0]},
            "budget": {"trials": 4, "seed": 1}}}"#
            .to_vec(),
        // Valid JSON, a misspelled budget key: refused, not run under the
        // default budget.
        br#"{"verb": "run", "spec": {"graph": {"family": "cycle", "n": 8},
            "query": {"type": "cover", "k": 2, "starts": [0]},
            "budget": {"trails": 4, "seed": 1}}}"#
            .to_vec(),
        // Not UTF-8 at all.
        vec![0xC3, 0x28, 0xFF],
        // Nesting far past the parser's depth cap: refused, not a stack
        // overflow that takes the daemon down.
        vec![b'['; 30_000],
        // A walk count whose positions would not fit in memory: refused,
        // not an allocation failure that aborts the daemon.
        br#"{"verb": "run", "spec": {"graph": {"family": "cycle", "n": 8},
            "query": {"type": "cover", "k": 100000000000, "starts": [0]},
            "budget": {"trials": 4, "seed": 1}}}"#
            .to_vec(),
        // A trial count past the exact-moments range: refused, not a run
        // that holds a worker thread and a CPU for years.
        br#"{"verb": "run", "spec": {"graph": {"family": "cycle", "n": 16},
            "query": {"type": "cover", "k": 2, "starts": [0]},
            "budget": {"trials": 1000000000000000}}}"#
            .to_vec(),
    ];
    for (from, to) in [
        ("verb", "vrb"),
        ("run", "rnu"),
        ("spec", "cspe"),
        ("{", "["),
        (":", ";"),
        ("\"trials\"", "\"trials\": oops, \"x\""),
    ] {
        corpus.push(valid.replace(from, to).into_bytes());
    }
    // Truncations at char boundaries: every strict prefix of a JSON
    // object is unbalanced, so each must parse-error, not wedge.
    let mut cut = 1;
    while cut < valid.len() {
        if valid.is_char_boundary(cut) {
            corpus.push(valid.as_bytes()[..cut].to_vec());
        }
        cut += 7;
    }

    // One persistent connection eats the whole corpus: every frame gets
    // a structured error response — a rejection, never the internal-error
    // frame of a caught panic — and the connection stays alive.
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let total = corpus.len() as u64;
    for (i, frame) in corpus.iter().enumerate() {
        send_frame(&mut writer, frame);
        let body = read_frame(&mut reader)
            .unwrap_or_else(|| panic!("connection died on corpus entry {i}: {frame:?}"));
        let v = json::parse(&body).expect("error response parses");
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("mrw-serve-error-v1"),
            "corpus entry {i} got a non-error response: {body}"
        );
        let message = v.get("error").and_then(Value::as_str);
        assert!(message.is_some(), "error frame without a message: {body}");
        assert!(
            !message.unwrap_or_default().starts_with("internal error"),
            "corpus entry {i} panicked the request: {body}"
        );
    }

    // …and the same connection still serves: ping, then a real query
    // whose response is the untouched cold-oracle bytes.
    send_frame(&mut writer, br#"{"verb": "ping"}"#);
    let pong = read_frame(&mut reader).expect("ping after the corpus");
    assert!(
        pong.contains("pong"),
        "daemon wedged after the corpus: {pong}"
    );
    send_frame(&mut writer, valid.as_bytes());
    let report = read_frame(&mut reader).expect("run after the corpus");
    assert_eq!(report, oracle, "post-corpus response corrupted");
    let s = stats(&addr);
    assert_eq!(
        counter(&s, &["errors"]),
        total,
        "every corpus entry counted as an error"
    );

    // A graph size the generator rejects is a validation error naming
    // the size, not the generic internal-error frame of a caught panic.
    send_frame(
        &mut writer,
        br#"{"verb": "run", "spec": {"graph": {"family": "cycle", "n": 1},
            "query": {"type": "cover", "k": 1, "starts": [0]},
            "budget": {"trials": 4, "seed": 1}}}"#,
    );
    let body = read_frame(&mut reader).expect("degenerate-size response");
    let v = json::parse(&body).expect("error response parses");
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("mrw-serve-error-v1"),
        "unexpected: {body}"
    );
    let message = v.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(
        message.contains("cycle needs n ≥ 3, got 1"),
        "error frame does not name the size: {body}"
    );

    // An oversize frame is the one class that drops the connection — but
    // only after a structured error, and only that connection.
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(&vec![b'x'; (4 << 20) + 16])
        .expect("oversize body");
    writer.write_all(b"\n\n").expect("oversize body");
    writer.flush().expect("oversize body");
    let body = read_frame(&mut reader).expect("oversize error response");
    assert!(body.contains("mrw-serve-error-v1"), "unexpected: {body}");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to EOF");
    assert!(
        rest.is_empty(),
        "daemon kept talking after dropping: {rest:?}"
    );
    assert!(
        stats(&addr).get("requests").is_some(),
        "daemon itself survived"
    );
}

// ---------------------------------------------------------------------------
// Eviction under a tiny --cache-bytes bound.

#[test]
fn tiny_cache_bytes_forces_recompute_but_never_wrong_bytes() {
    let tmp = TempDir::new("evict");
    let spec_a = tmp.file("a.json", FIXED_SPEC);
    // Same shape, different seed: a distinct cache entry with the same
    // deterministic cost.
    let spec_b = tmp.file("b.json", &FIXED_SPEC.replace("\"seed\": 7", "\"seed\": 8"));
    let a_arg = spec_a.to_str().unwrap();
    let b_arg = spec_b.to_str().unwrap();
    let oracle_a = mrw_stdout(&["run", a_arg, "--json"]);
    let oracle_b = mrw_stdout(&["run", b_arg, "--json"]);

    // Measure one entry's accounted cost on an unbounded daemon.
    let (_probe, addr) = start_daemon(&[]);
    assert_eq!(ctl(&addr, &["run", a_arg]), oracle_a);
    let entry_cost = counter(&stats(&addr), &["report_cache", "bytes"]);
    assert!(entry_cost > 0);
    ctl(&addr, &["shutdown"]);

    // A cache that fits exactly one entry: A fills it, B evicts A, and
    // re-running A (a forced recompute) evicts B — every response still
    // the oracle's bytes.
    let bound = entry_cost.to_string();
    let (_daemon, addr) = start_daemon(&["--cache-bytes", &bound]);
    assert_eq!(ctl(&addr, &["run", a_arg]), oracle_a);
    let s = stats(&addr);
    assert_eq!(counter(&s, &["misses"]), 1);
    assert_eq!(
        counter(&s, &["report_cache", "evictions"]),
        0,
        "one entry fits"
    );
    assert_eq!(counter(&s, &["report_cache", "entries"]), 1);
    assert_eq!(ctl(&addr, &["run", b_arg]), oracle_b);
    let s = stats(&addr);
    assert_eq!(counter(&s, &["misses"]), 2);
    assert_eq!(
        counter(&s, &["report_cache", "evictions"]),
        1,
        "B evicted A"
    );
    assert_eq!(counter(&s, &["report_cache", "entries"]), 1);
    assert_eq!(
        ctl(&addr, &["run", a_arg]),
        oracle_a,
        "post-eviction recompute changed bytes"
    );
    let s = stats(&addr);
    assert_eq!(
        counter(&s, &["misses"]),
        3,
        "A's entry was gone — a full recompute"
    );
    assert_eq!(counter(&s, &["hits"]), 0);
    assert_eq!(counter(&s, &["report_cache", "evictions"]), 2);
    assert_eq!(counter(&s, &["report_cache", "entries"]), 1);
    ctl(&addr, &["shutdown"]);

    // Degenerate bound: the just-served entry is pinned during its own
    // eviction pass, so even --cache-bytes 0 behaves as a cache of the
    // single most recent entry (it used to evict what it just inserted,
    // forcing a recompute on every repeat) — and the bytes never change.
    let (_daemon, addr) = start_daemon(&["--cache-bytes", "0"]);
    assert_eq!(ctl(&addr, &["run", a_arg]), oracle_a);
    assert_eq!(
        ctl(&addr, &["run", a_arg]),
        oracle_a,
        "repeat of the pinned entry changed bytes"
    );
    let s = stats(&addr);
    assert_eq!(counter(&s, &["misses"]), 1);
    assert_eq!(
        counter(&s, &["hits"]),
        1,
        "the pinned entry survived its own insertion and served the repeat"
    );
    assert_eq!(counter(&s, &["report_cache", "evictions"]), 0);
    assert_eq!(counter(&s, &["report_cache", "entries"]), 1);
    // A different key takes the slot: the old entry is evictable (only
    // the entry being served is pinned), the new one survives.
    assert_eq!(ctl(&addr, &["run", b_arg]), oracle_b);
    let s = stats(&addr);
    assert_eq!(counter(&s, &["misses"]), 2);
    assert_eq!(counter(&s, &["report_cache", "evictions"]), 1);
    assert_eq!(counter(&s, &["report_cache", "entries"]), 1);
    assert_eq!(
        counter(&s, &["graph_cache", "hits"]),
        2,
        "the graph cache is bounded separately and kept serving"
    );
}

// ---------------------------------------------------------------------------
// Client-side ergonomics.

#[test]
fn serve_ctl_reports_daemon_errors_and_connection_failures() {
    let tmp = TempDir::new("ctl-errors");
    let bad_spec = tmp.file(
        "bad.json",
        r#"{"graph": {"family": "cycle", "n": 8},
            "query": {"type": "cover", "k": 2, "starts": [99]},
            "budget": {"trials": 4, "seed": 1}}"#,
    );
    let (_daemon, addr) = start_daemon(&[]);
    // A spec the daemon rejects surfaces as a CLI error naming the cause.
    mrw()
        .args([
            "serve-ctl",
            "run",
            bad_spec.to_str().unwrap(),
            "--connect",
            &addr,
        ])
        .assert()
        .failure()
        .stderr(assert_cmd::predicates::str::contains("out of range"));
    // Nobody listening: a connect error, not a hang.
    mrw()
        .args(["serve-ctl", "ping", "--connect", "127.0.0.1:1"])
        .assert()
        .failure()
        .stderr(assert_cmd::predicates::str::contains("connect"));
    // Missing --connect and unknown verbs are caught client-side.
    mrw()
        .args(["serve-ctl", "ping"])
        .assert()
        .failure()
        .stderr(assert_cmd::predicates::str::contains("--connect"));
    mrw()
        .args(["serve-ctl", "bogus", "--connect", &addr])
        .assert()
        .failure()
        .stderr(assert_cmd::predicates::str::contains(
            "unknown serve-ctl verb",
        ));
    // serve without --listen is caught before binding anything.
    mrw()
        .args(["serve"])
        .assert()
        .failure()
        .stderr(assert_cmd::predicates::str::contains("--listen"));
}

// ---------------------------------------------------------------------------
// CRLF framing: a client whose lines end in "\r\n" (telnet, Windows
// netcat, most HTTP tooling) must get the same bytes as a "\n" client.

/// Sends one frame with every line terminated by CRLF.
fn send_frame_crlf(w: &mut TcpStream, body: &str) {
    let mut wire = body.replace('\n', "\r\n");
    if !wire.ends_with("\r\n") {
        wire.push_str("\r\n");
    }
    wire.push_str("\r\n");
    w.write_all(wire.as_bytes()).expect("send CRLF frame");
    w.flush().expect("send CRLF frame");
}

#[test]
fn crlf_terminated_frames_serve_identical_bytes_on_one_persistent_connection() {
    let tmp = TempDir::new("crlf");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let (_daemon, addr) = start_daemon(&[]);
    let oracle = mrw_stdout(&["run", spec.to_str().unwrap(), "--json"]);
    let valid = format!("{{\"verb\": \"run\", \"spec\": {FIXED_SPEC}}}");

    // One persistent connection, every request CRLF-framed: ping, two
    // runs (miss then hit), ping again. The blank separator arrives as
    // "\r\n" and the body's own terminator line carries a stray '\r';
    // before the fix the daemon stalled waiting for a bare "\n" and the
    // connection wedged until the frame cap tripped.
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    send_frame_crlf(&mut writer, r#"{"verb": "ping"}"#);
    let pong = read_frame(&mut reader).expect("pong over CRLF");
    assert!(pong.contains("pong"), "unexpected ping response: {pong}");

    send_frame_crlf(&mut writer, &valid);
    let first = read_frame(&mut reader).expect("run over CRLF");
    assert_eq!(first, oracle, "CRLF framing changed the response bytes");
    send_frame_crlf(&mut writer, &valid);
    let second = read_frame(&mut reader).expect("repeat run over CRLF");
    assert_eq!(second, oracle, "CRLF repeat changed the response bytes");

    send_frame_crlf(&mut writer, r#"{"verb": "ping"}"#);
    read_frame(&mut reader).expect("connection survived the CRLF session");

    // The CRLF miss and hit were classified exactly like a "\n" client's.
    let s = stats(&addr);
    assert_eq!(counter(&s, &["misses"]), 1);
    assert_eq!(counter(&s, &["hits"]), 1);
    assert_eq!(counter(&s, &["errors"]), 0, "no CRLF frame errored");
}

// ---------------------------------------------------------------------------
// Persistent warm-start ledgers (--persist DIR).

/// The `ledger-*.json` files currently in `dir`, sorted by name.
fn ledger_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("read persist dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ledger-") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn warm_start_serves_cached_bytes_across_a_restart_without_rerunning_trials() {
    let tmp = TempDir::new("persist");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let spec_arg = spec.to_str().unwrap();
    let persist = tmp.path("ledgers");
    let persist_arg = persist.to_str().unwrap().to_string();
    let oracle = mrw_stdout(&["run", spec_arg, "--json"]);

    // Populate: one miss writes one ledger, then SIGTERM (the adversarial
    // shutdown path — no flush hook, the ledger must already be durable).
    let (mut daemon, addr) = start_daemon(&["--persist", &persist_arg]);
    assert_eq!(ctl(&addr, &["run", spec_arg]), oracle);
    let s = stats(&addr);
    assert_eq!(counter(&s, &["misses"]), 1);
    assert_eq!(counter(&s, &["trials_executed"]), 192);
    assert_eq!(ledger_files(&persist).len(), 1, "miss persisted one ledger");
    daemon.terminate().expect("SIGTERM");
    let status = daemon.wait_with_timeout(READY).expect("daemon exits");
    assert!(status.success(), "SIGTERM must exit 0, got {status}");

    // Reboot on the same directory: the very first request is a warm
    // hit — byte-identical to the cold oracle with zero trials executed.
    let (_daemon, addr) = start_daemon(&["--persist", &persist_arg]);
    assert_eq!(
        ctl(&addr, &["run", spec_arg]),
        oracle,
        "warm-started response bytes differ from the cold oracle"
    );
    let s = stats(&addr);
    assert_eq!(counter(&s, &["misses"]), 0, "warm start must not miss");
    assert_eq!(counter(&s, &["hits"]), 1);
    assert_eq!(
        counter(&s, &["trials_executed"]),
        0,
        "a warm hit re-ran trials"
    );

    // A range extension on the warm entry runs only the missing trials
    // and re-persists, so a second reboot warm-starts the extended entry.
    let more = FIXED_SPEC.replace("\"trials\": 96", "\"trials\": 128");
    let spec_more = tmp.file("more.json", &more);
    let more_arg = spec_more.to_str().unwrap();
    let oracle_more = mrw_stdout(&["run", more_arg, "--json"]);
    assert_eq!(ctl(&addr, &["run", more_arg]), oracle_more);
    let s = stats(&addr);
    assert_eq!(counter(&s, &["extensions"]), 1);
    assert_eq!(
        counter(&s, &["trials_executed"]),
        64,
        "the extension must run exactly the missing 2x32 trials"
    );
    ctl(&addr, &["shutdown"]);
    let (_daemon, addr) = start_daemon(&["--persist", &persist_arg]);
    assert_eq!(ctl(&addr, &["run", more_arg]), oracle_more);
    let s = stats(&addr);
    assert_eq!(counter(&s, &["hits"]), 1);
    assert_eq!(counter(&s, &["trials_executed"]), 0);
}

#[test]
fn corrupt_truncated_and_tampered_ledgers_are_skipped_not_trusted() {
    let tmp = TempDir::new("tamper");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let spec_arg = spec.to_str().unwrap();
    let persist = tmp.path("ledgers");
    let persist_arg = persist.to_str().unwrap().to_string();
    let oracle = mrw_stdout(&["run", spec_arg, "--json"]);

    // Write one genuine ledger to mutate.
    let (_daemon, addr) = start_daemon(&["--persist", &persist_arg]);
    assert_eq!(ctl(&addr, &["run", spec_arg]), oracle);
    ctl(&addr, &["shutdown"]);
    let genuine_path = ledger_files(&persist)[0].clone();
    let genuine = std::fs::read_to_string(&genuine_path).expect("read ledger");

    // Three adversarial mutations of the on-disk state:
    //  - a garbage file that is not JSON at all,
    //  - the genuine ledger truncated mid-document,
    //  - the genuine ledger with one moment digit flipped (the hash
    //    over the canonical payload catches silent data edits, not just
    //    framing damage).
    std::fs::write(persist.join("ledger-0000000000000000.json"), "not json")
        .expect("write garbage ledger");
    std::fs::write(
        persist.join("ledger-1111111111111111.json"),
        &genuine[..genuine.len() / 2],
    )
    .expect("write truncated ledger");
    let at = genuine.find("\"sum\": ").expect("ledger has a sum field") + "\"sum\": ".len();
    let mut tampered = genuine.into_bytes();
    assert!(tampered[at].is_ascii_digit());
    tampered[at] = if tampered[at] == b'9' {
        b'1'
    } else {
        tampered[at] + 1
    };
    std::fs::write(&genuine_path, &tampered).expect("write tampered ledger");

    // Boot on the hostile directory: every file is skipped with a logged
    // warning, the daemon comes up empty, and the first request is a
    // clean miss whose bytes are still the oracle's.
    let (_daemon, addr) = start_daemon(&["--persist", &persist_arg]);
    assert_eq!(
        ctl(&addr, &["run", spec_arg]),
        oracle,
        "a tampered ledger leaked into the response"
    );
    let s = stats(&addr);
    assert_eq!(
        counter(&s, &["misses"]),
        1,
        "tampered ledgers must not warm-start"
    );
    assert_eq!(counter(&s, &["hits"]), 0);
    assert_eq!(counter(&s, &["trials_executed"]), 192);
    // The recovery miss re-persisted a genuine ledger over the tampered
    // one, so the *next* boot warm-starts again.
    ctl(&addr, &["shutdown"]);
    let (_daemon, addr) = start_daemon(&["--persist", &persist_arg]);
    assert_eq!(ctl(&addr, &["run", spec_arg]), oracle);
    assert_eq!(counter(&stats(&addr), &["trials_executed"]), 0);
}

#[test]
fn fanout_checkpoints_in_the_persist_dir_are_skipped_not_served() {
    let tmp = TempDir::new("ckpersist");
    let spec = tmp.file("spec.json", ADAPTIVE_SPEC);
    let spec_arg = spec.to_str().unwrap();
    let persist = tmp.path("ledgers");
    std::fs::create_dir_all(&persist).expect("create persist dir");
    let oracle = mrw_stdout(&["run", spec_arg, "--json"]);
    // A fanout checkpoint is an `mrw-ledger-v1` document too — six prefix
    // windows per group of this very spec — but it carries its run's
    // precision rule and failure log, so it is no cache entry.
    let ck = persist.join("ledger-checkpoint.json");
    mrw()
        .args(["fanout", spec_arg, "--workers", "1", "--retries", "0"])
        .args(["--checkpoint", ck.to_str().unwrap(), "--json"])
        .env("MRW_FAULT_KILL_RANGE_START", "121")
        .assert()
        .failure();
    let checkpoint = Ledger::from_json(&std::fs::read_to_string(&ck).expect("read checkpoint"))
        .expect("the checkpoint is a valid ledger");
    assert!(!checkpoint.groups.is_empty() && !checkpoint.failures.is_empty());

    let (_daemon, addr) = start_daemon(&["--persist", persist.to_str().unwrap()]);
    assert_eq!(ctl(&addr, &["run", spec_arg]), oracle);
    let s = stats(&addr);
    assert_eq!(counter(&s, &["misses"]), 1, "the checkpoint warm-started");
    assert_eq!(counter(&s, &["extensions"]), 0);
    assert_eq!(counter(&s, &["hits"]), 0);
}

/// A ledger an earlier release's `mrw serve --persist` wrote for
/// `FIXED_SPEC` after a 96-trial miss and a 128-trial extension (two
/// windows per group). It pins the on-disk `mrw-ledger-v1` format across
/// versions: the persist tests above write and read with one binary.
const GOLDEN_LEDGER_FILE: &str = "ledger-cb99860a4f0af580.json";
const GOLDEN_LEDGER: &str = include_str!("fixtures/ledger-cb99860a4f0af580.json");

#[test]
fn golden_ledger_loads_and_re_renders_byte_for_byte() {
    let ledger = Ledger::from_json(GOLDEN_LEDGER).expect("golden ledger loads");
    assert_eq!(ledger.to_json(), GOLDEN_LEDGER);
    assert_eq!(ledger.file_name(), GOLDEN_LEDGER_FILE);
}

#[test]
fn daemon_warm_started_from_the_golden_ledger_answers_with_hits() {
    let tmp = TempDir::new("golden");
    let persist = tmp.path("ledgers");
    std::fs::create_dir_all(&persist).expect("create persist dir");
    std::fs::write(persist.join(GOLDEN_LEDGER_FILE), GOLDEN_LEDGER).expect("seed golden ledger");
    let fixed = tmp.file("spec.json", FIXED_SPEC);
    let more = tmp.file(
        "more.json",
        &FIXED_SPEC.replace("\"trials\": 96", "\"trials\": 128"),
    );

    let (_daemon, addr) = start_daemon(&["--persist", persist.to_str().unwrap()]);
    for spec in [&fixed, &more] {
        let spec_arg = spec.to_str().unwrap();
        assert_eq!(
            ctl(&addr, &["run", spec_arg]),
            mrw_stdout(&["run", spec_arg, "--json"]),
            "golden ledger served bytes that differ from the cold oracle"
        );
    }
    let s = stats(&addr);
    assert_eq!(counter(&s, &["hits"]), 2);
    assert_eq!(counter(&s, &["misses"]), 0);
    assert_eq!(counter(&s, &["trials_executed"]), 0);
}

// ---------------------------------------------------------------------------
// Delegation (--delegate-trials): big misses fan out to child shard
// processes through the work-stealing dispatcher.

#[test]
fn delegated_misses_are_byte_identical_to_in_process_computation() {
    let tmp = TempDir::new("delegate");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let spec_arg = spec.to_str().unwrap();
    let oracle = mrw_stdout(&["run", spec_arg, "--json"]);

    // Threshold 1: every miss delegates. The merged child reports must
    // reproduce the cold oracle bit-for-bit, and the cache layer on top
    // behaves exactly as if the trials had run in-process.
    let (_daemon, addr) = start_daemon(&["--delegate-trials", "1", "--workers", "2"]);
    assert_eq!(
        ctl(&addr, &["run", spec_arg]),
        oracle,
        "delegated computation changed the response bytes"
    );
    let s = stats(&addr);
    assert_eq!(counter(&s, &["misses"]), 1);
    assert_eq!(counter(&s, &["trials_executed"]), 192);
    assert_eq!(counter(&s, &["errors"]), 0);
    // The entry the children produced is a first-class cache entry.
    assert_eq!(ctl(&addr, &["run", spec_arg]), oracle);
    let s = stats(&addr);
    assert_eq!(counter(&s, &["hits"]), 1);
    assert_eq!(counter(&s, &["trials_executed"]), 192, "hit ran no trials");

    // An extension also delegates (64 missing trials >= threshold) and
    // still merges into byte-identical output.
    let more = FIXED_SPEC.replace("\"trials\": 96", "\"trials\": 128");
    let spec_more = tmp.file("more.json", &more);
    let more_arg = spec_more.to_str().unwrap();
    let oracle_more = mrw_stdout(&["run", more_arg, "--json"]);
    assert_eq!(ctl(&addr, &["run", more_arg]), oracle_more);
    let s = stats(&addr);
    assert_eq!(counter(&s, &["extensions"]), 1);
    assert_eq!(counter(&s, &["trials_executed"]), 256);
    assert_eq!(counter(&s, &["errors"]), 0);
}
