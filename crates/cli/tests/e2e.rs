//! End-to-end tests of the `mrw` binary — the whole CLI surface driven
//! black-box through the vendored `assert_cmd` stand-in.
//!
//! The golden flows pin the shard protocol's headline guarantee at the
//! *process* level: `shard` + `merge`, and the in-tree `fanout` driver,
//! reproduce `mrw run spec.json --json` **byte for byte** — for fixed and
//! adaptive budgets, and even when a worker is SIGKILLed mid-run and
//! retried (the `MRW_FAULT_*` hooks in `fanout.rs` make a chosen worker
//! kill itself, exactly like an OOM kill or preemption).

use std::path::{Path, PathBuf};

use assert_cmd::predicates::str::contains;
use assert_cmd::Command;

/// A scratch directory removed when the test finishes.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("mrw-e2e-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn file(&self, name: &str, contents: &str) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, contents).expect("write temp file");
        path
    }

    fn path(&self, name: &str) -> PathBuf {
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
    // Never inherit fault hooks (or a scratch override) from an outer
    // environment.
    cmd.env_remove("MRW_FAULT_KILL_RANGE_START")
        .env_remove("MRW_FAULT_HANG_RANGE_START")
        .env_remove("MRW_FAULT_CORRUPT_RANGE_START")
        .env_remove("MRW_FAULT_SLOW_MS")
        .env_remove("MRW_FAULT_ONCE")
        .env_remove("MRW_TMPDIR");
    cmd
}

/// Runs `mrw <args>` expecting success and returns captured stdout.
fn mrw_stdout(args: &[&str]) -> String {
    let assert = mrw().args(args).assert().success();
    String::from_utf8(assert.get_output().stdout.clone()).expect("utf-8 stdout")
}

const FIXED_SPEC: &str = r#"{"graph": {"family": "cycle", "n": 64},
 "query": {"type": "cover", "k": 8, "starts": [0, 5]},
 "budget": {"trials": 96, "seed": 7}}"#;

const ADAPTIVE_SPEC: &str = r#"{"graph": {"family": "cycle", "n": 32},
 "query": {"type": "cover", "k": 4, "starts": [0, 8]},
 "budget": {"trials": {"adaptive": {"target": {"relative": 0.1},
                                    "min_trials": 16, "max_trials": 512}},
            "seed": 9}}"#;

fn oracle(spec: &Path) -> String {
    mrw_stdout(&["run", spec.to_str().unwrap(), "--json"])
}

// ---------------------------------------------------------------------------
// Golden flows: estimate / run / shard / merge.

#[test]
fn help_lists_every_verb_and_unknown_verbs_fail() {
    let assert = mrw().arg("help").assert().success();
    let usage = String::from_utf8(assert.get_output().stdout.clone()).unwrap();
    for verb in [
        "estimate",
        "run ",
        "shard ",
        "merge ",
        "fanout ",
        "resume ",
        "serve ",
        "serve-ctl ",
    ] {
        assert!(usage.contains(verb), "usage is missing '{verb}'");
    }
    mrw()
        .arg("no-such-experiment")
        .assert()
        .failure()
        .stderr(contains("unknown experiment"));
}

#[test]
fn estimate_json_is_byte_identical_to_run_json() {
    let tmp = TempDir::new("estimate");
    let spec = tmp.file(
        "spec.json",
        r#"{"graph": {"family": "cycle", "n": 64},
            "query": {"type": "cover", "k": 8, "starts": [0]},
            "budget": {"trials": 64, "seed": 7}}"#,
    );
    let reference = oracle(&spec);
    mrw()
        .args([
            "estimate", "--family", "cycle", "--n", "64", "--k", "8", "--trials", "64", "--seed",
            "7", "--json",
        ])
        .assert()
        .success()
        .stdout(reference);
}

#[test]
fn shard_merge_round_trip_is_byte_identical_to_run() {
    let tmp = TempDir::new("golden");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let spec_arg = spec.to_str().unwrap();
    let reference = oracle(&spec);

    // Two balanced shards, then an unbalanced three-way --range partition.
    let a = mrw_stdout(&["shard", spec_arg, "--shard", "0/2"]);
    let b = mrw_stdout(&["shard", spec_arg, "--shard", "1/2"]);
    let a_path = tmp.file("a.json", &a);
    let b_path = tmp.file("b.json", &b);
    mrw()
        .args(["merge", a_path.to_str().unwrap(), b_path.to_str().unwrap()])
        .assert()
        .success()
        .stdout(reference.clone());

    let mut paths = Vec::new();
    for (i, range) in ["0..10", "10..11", "11..96"].iter().enumerate() {
        let part = mrw_stdout(&["shard", spec_arg, "--range", range]);
        paths.push(tmp.file(&format!("part{i}.json"), &part));
    }
    // Merge order must not matter (commutative + associative).
    mrw()
        .args([
            "merge",
            paths[2].to_str().unwrap(),
            paths[0].to_str().unwrap(),
            paths[1].to_str().unwrap(),
        ])
        .assert()
        .success()
        .stdout(reference);
}

#[test]
fn shard_flag_and_range_flag_describe_identical_work() {
    let tmp = TempDir::new("rangeeq");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let spec_arg = spec.to_str().unwrap();
    let by_shard = mrw_stdout(&["shard", spec_arg, "--shard", "0/2"]);
    mrw()
        .args(["shard", spec_arg, "--range", "0..48"])
        .assert()
        .success()
        .stdout(by_shard);
}

#[test]
fn merge_of_a_single_report_is_the_identity() {
    let tmp = TempDir::new("merge1");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let reference = oracle(&spec);
    let report = tmp.file("whole.json", &reference);
    // Regression: this used to demand >= 2 inputs, so one-shard plans
    // needed a special case in every pipeline.
    mrw()
        .args(["merge", report.to_str().unwrap()])
        .assert()
        .success()
        .stdout(reference.clone());
    // A lone shard also round-trips (coverage preserved, not "completed").
    let shard = mrw_stdout(&["shard", spec.to_str().unwrap(), "--shard", "0/2"]);
    let shard_path = tmp.file("shard.json", &shard);
    mrw()
        .args(["merge", shard_path.to_str().unwrap()])
        .assert()
        .success()
        .stdout(shard);
}

#[test]
fn merge_rejects_double_counted_shards() {
    let tmp = TempDir::new("dup");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let shard = mrw_stdout(&["shard", spec.to_str().unwrap(), "--shard", "0/2"]);
    let path = tmp.file("a.json", &shard);
    mrw()
        .args(["merge", path.to_str().unwrap(), path.to_str().unwrap()])
        .assert()
        .failure()
        .stderr(contains("counted twice"));
}

#[test]
fn shard_errors_are_friendly() {
    let tmp = TempDir::new("badshard");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let spec_arg = spec.to_str().unwrap();
    mrw()
        .args(["shard", spec_arg])
        .assert()
        .failure()
        .stderr(contains("--shard I/S or --range"));
    mrw()
        .args(["shard", spec_arg, "--range", "90..200"])
        .assert()
        .failure()
        .stderr(contains("extends past"));
    mrw()
        .args(["shard", "/no/such/spec.json", "--shard", "0/2"])
        .assert()
        .failure()
        .stderr(contains("error:"));
}

/// `--shard`, `--range` and `--groups` select trials for the worker
/// protocol, so only `mrw shard` takes them: any other verb is an
/// `error:` with exit 1 instead of a silently complete run, and a group
/// index the query does not have names both numbers. Nothing reaches
/// stdout.
#[test]
fn trial_selection_flags_belong_to_shard() {
    let tmp = TempDir::new("selection");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let one_group = tmp.file(
        "one.json",
        r#"{"graph": {"family": "cycle", "n": 32},
            "query": {"type": "cover", "k": 4, "starts": [0]},
            "budget": {"trials": 64, "seed": 7}}"#,
    );
    let (spec, one_group) = (spec.to_str().unwrap(), one_group.to_str().unwrap());
    let cases: [(&[&str], &str); 4] = [
        (
            &[
                "fanout",
                spec,
                "--workers",
                "2",
                "--range",
                "0..10",
                "--json",
            ],
            "--range is only for 'mrw shard', not 'fanout'",
        ),
        (
            &["estimate", "--shard", "0/2", "--json"],
            "--shard is only for 'mrw shard', not 'estimate'",
        ),
        (
            &["run", one_group, "--groups", "7", "--json"],
            "--groups is only for 'mrw shard', not 'run'",
        ),
        (
            &["shard", one_group, "--range", "0..64", "--groups", "5"],
            "--groups index 5 is out of range: the query has 1 group(s)",
        ),
    ];
    for (args, message) in cases {
        let assert = mrw().args(args).assert().code(1);
        let output = assert.get_output();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("error: {message}")),
            "mrw {args:?}: stderr lacks '{message}':\n{stderr}"
        );
        assert!(output.stdout.is_empty(), "mrw {args:?} printed to stdout");
    }
}

/// A graph size its generator rejects is a friendly `error:` line that
/// names the size and exit 1 — never a panic — whether it arrives in a
/// spec file (`mrw run`) or as flags (`mrw estimate`); `mrw estimate`
/// also validates its query and trial count the way spec files are
/// validated.
#[test]
fn spec_typos_are_errors_not_other_experiments() {
    let tmp = TempDir::new("typos");
    const GRAPH: &str = r#""graph": {"family": "cycle", "n": 16}"#;
    const COVER: &str = r#""query": {"type": "cover", "k": 2, "starts": [0]}"#;
    let cases = [
        // A misspelled budget key used to run the default 64 trials.
        (
            format!(r#"{{{GRAPH}, {COVER}, "budget": {{"trails": 500}}}}"#),
            "'trails'",
        ),
        (
            format!(
                r#"{{{GRAPH}, "query": {{"type": "cover", "k": 2, "starts": [0], "strats": [3]}}}}"#
            ),
            "'strats'",
        ),
        (
            format!(r#"{{{GRAPH}, {COVER}, "budgte": {{"trials": 500}}}}"#),
            "'budgte'",
        ),
        // A repeated key used to keep its first value.
        (
            format!(r#"{{{GRAPH}, {COVER}, "budget": {{"trials": 10, "trials": 500}}}}"#),
            "duplicate key 'trials'",
        ),
        // Both trial forms used to run the adaptive rule.
        (
            format!(
                r#"{{{GRAPH}, {COVER}, "budget": {{"trials": {{"fixed": 10,
                 "adaptive": {{"target": {{"relative": 0.1}}}}}}}}}}"#
            ),
            "'fixed' and 'adaptive'",
        ),
        // Both targets used to mean the absolute one.
        (
            format!(
                r#"{{{GRAPH}, {COVER}, "budget": {{"trials": {{"adaptive":
                 {{"target": {{"absolute": 5.0, "relative": 0.1}}}}}}}}}}"#
            ),
            "'absolute' and 'relative'",
        ),
        // A walk count past the position cap used to abort the process
        // when the trial allocated its positions.
        (
            format!(
                r#"{{{GRAPH}, "query": {{"type": "cover", "k": 100000000000, "starts": [0]}}}}"#
            ),
            "cap of 402653184",
        ),
    ];
    for (i, (text, key)) in cases.iter().enumerate() {
        let spec = tmp.file(&format!("spec{i}.json"), text);
        mrw()
            .args(["run", spec.to_str().unwrap(), "--json"])
            .assert()
            .failure()
            .code(1)
            .stdout("")
            .stderr(contains("error:"))
            .stderr(contains(*key));
    }
}

/// A command line that parses but fails at run time prints one `error:`
/// line and exits 1; the usage text is for command lines that do not
/// parse.
#[test]
fn runtime_errors_print_the_error_without_the_usage_text() {
    let tmp = TempDir::new("runtime-error");
    let spec = tmp.file(
        "spec.json",
        r#"{"graph": {"family": "cycle", "n": 16},
            "query": {"type": "cover", "k": 2, "starts": [0]},
            "budget": {"trails": 500}}"#,
    );
    let assert = mrw()
        .args(["run", spec.to_str().unwrap(), "--json"])
        .assert()
        .code(1)
        .stdout("");
    let stderr = String::from_utf8_lossy(&assert.get_output().stderr).into_owned();
    assert!(
        stderr.contains("error:") && stderr.contains("'trails'"),
        "{stderr}"
    );
    assert!(!stderr.contains("usage: mrw"), "{stderr}");
    // A flag that does not parse still gets the usage text.
    mrw()
        .args(["run", spec.to_str().unwrap(), "--no-such-flag"])
        .assert()
        .code(1)
        .stderr(contains("usage: mrw"));
}

#[test]
fn degenerate_graph_sizes_are_friendly_errors() {
    let tmp = TempDir::new("degenerate");
    let expect_error = |args: &[&str], message: &str| {
        let assert = mrw().args(args).assert().code(1);
        let stderr = String::from_utf8_lossy(&assert.get_output().stderr).into_owned();
        assert!(
            stderr.contains("error:") && stderr.contains(message),
            "{args:?}: expected '{message}', got {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    };
    for (family, n, message) in [
        ("cycle", "1", "cycle needs n ≥ 3, got 1"),
        ("barbell", "2", "barbell needs odd n ≥ 7, got 2"),
        ("barbell", "8", "barbell needs odd n ≥ 7, got 8"),
        ("path", "0", "path needs n ≥ 1, got 0"),
        ("torus", "0", "torus needs side ≥ 1, got 0"),
        ("clique", "1", "clique needs n ≥ 2, got 1"),
        ("clique-loops", "0", "clique-loops needs n ≥ 1, got 0"),
    ] {
        let spec = tmp.file(
            "spec.json",
            &format!(
                r#"{{"graph": {{"family": "{family}", "n": {n}}},
                    "query": {{"type": "cover", "k": 1, "starts": [0]}},
                    "budget": {{"trials": 4, "seed": 1}}}}"#
            ),
        );
        expect_error(&["run", spec.to_str().unwrap()], message);
        expect_error(
            &["estimate", "--family", family, "--n", n, "--trials", "4"],
            message,
        );
    }
    expect_error(
        &[
            "estimate",
            "--family",
            "circulant",
            "--n",
            "8",
            "--jumps",
            "2",
            "--trials",
            "4",
        ],
        "cover time is infinite on a disconnected graph",
    );
    // Walks never leave their start's component, so a partial cover whose
    // target lies beyond it would never stop.
    let partial = tmp.file(
        "partial.json",
        r#"{"graph": {"family": "circulant", "n": 8, "jumps": [2]},
            "query": {"type": "partial-cover", "k": 2, "start": 0, "gammas": [1.0]},
            "budget": {"trials": 4, "seed": 1}}"#,
    );
    expect_error(
        &["run", partial.to_str().unwrap()],
        "partial cover needs a connected graph",
    );
    expect_error(
        &["estimate", "--family", "cycle", "--trials", "0"],
        "--trials must be >= 1",
    );
}

/// A trial budget past `MAX_TRIALS` (2²⁴, the range over which the
/// moments stay exact) is an `error:` naming the limit, exit 1, within
/// seconds — from `mrw run`, from `mrw fanout` before it spawns a worker,
/// for an adaptive cap, and from an experiment verb's `--trials` — never
/// a panic or a run that holds a CPU for years.
#[test]
fn oversized_trial_budgets_are_refused_up_front() {
    let tmp = TempDir::new("oversized");
    let spec = tmp.file(
        "spec.json",
        r#"{"graph": {"family": "cycle", "n": 16},
            "query": {"type": "cover", "k": 2, "starts": [0]},
            "budget": {"trials": 1000000000000000}}"#,
    );
    let spec = spec.to_str().unwrap();
    let cases: [&[&str]; 4] = [
        &["run", spec],
        &["fanout", spec, "--workers", "1"],
        &["cycle", "--quick", "--trials", "16777217"],
        &[
            "run",
            spec,
            "--rel-precision",
            "0.1",
            "--max-trials",
            "16777217",
        ],
    ];
    for args in cases {
        // Bounded first, so a run that does not stop fails the test
        // instead of hanging it.
        let mut child = mrw().args(args).spawn_daemon().expect("spawn mrw");
        let status = child
            .wait_with_timeout(std::time::Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(status.code(), Some(1), "mrw {args:?}");
        let assert = mrw().args(args).assert().code(1).stdout("");
        let stderr = String::from_utf8_lossy(&assert.get_output().stderr).into_owned();
        assert!(
            stderr.contains("error: ") && stderr.contains("exceeds the limit of 16777216"),
            "mrw {args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "mrw {args:?}: {stderr}");
    }
}

/// A worker count past the 1024 ceiling is an error naming it, exit 1,
/// before any worker starts — never a panic from a chunk count that
/// wrapped to zero.
#[test]
fn fanout_refuses_worker_counts_past_the_ceiling() {
    let tmp = TempDir::new("manyworkers");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let assert = mrw()
        .args([
            "fanout",
            spec.to_str().unwrap(),
            "--workers",
            "4611686018427387904",
        ])
        .assert()
        .code(1)
        .stdout("")
        .stderr(contains("--workers must be <= 1024"));
    let stderr = String::from_utf8_lossy(&assert.get_output().stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{stderr}");
}

// ---------------------------------------------------------------------------
// Experiment verbs.

/// `mrw all --quick` prints the checked-in experiment tables byte for
/// byte: every verb's numbers are pinned, not just its exit code.
/// Regenerate the fixture only for a change that means to move them:
/// `mrw all --quick > crates/cli/tests/fixtures/all-quick.txt`.
#[test]
fn all_quick_prints_the_golden_tables() {
    let golden = include_str!("fixtures/all-quick.txt");
    assert_eq!(mrw_stdout(&["all", "--quick"]), golden);
}

/// `mrw run --json` prints each batched spec's checked-in report byte
/// for byte. The specs cover every batched driver (regular, flat, and
/// rows: on CSR, irregular and regular, and on each implicit row arm:
/// cycle, torus, and the general row builder through the hypercube) and
/// the cover, partial-cover, hitting, meeting and pursuit observers, so
/// a driver or observer change that moves a sample shows here even when
/// all drivers move together. The lazy torus(9) meeting is pinned on
/// both backends. Every `<name>.spec.json` in the directory is checked, the
/// same set CI's experiment smoke loops over. Regenerate a fixture only
/// for a change that means to move it:
/// `mrw run <name>.spec.json --json > <name>.report.json`.
#[test]
fn batched_reports_match_their_golden_fixtures() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/batched");
    let mut specs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("batched fixture directory")
        .map(|entry| entry.expect("fixture entry").path())
        .filter(|path| path.to_string_lossy().ends_with(".spec.json"))
        .collect();
    specs.sort();
    assert!(specs.len() >= 10, "batched fixtures missing: {specs:?}");
    for spec in &specs {
        let spec = spec.to_str().unwrap();
        let report = format!("{}.report.json", spec.strip_suffix(".spec.json").unwrap());
        let golden = std::fs::read_to_string(&report).expect("golden report fixture");
        assert_eq!(mrw_stdout(&["run", spec, "--json"]), golden, "{spec}");
    }
}

/// Every experiment verb applies its flags on top of the experiment's
/// own budget: `--quick` runs the experiment's quick trial count
/// (projection 60, concentration 96), not the generic 24 of
/// `Budget::quick()`.
#[test]
fn experiment_verbs_keep_their_own_trial_budgets() {
    for (verb, trials) in [("projection", "60"), ("concentration", "96")] {
        let quick = mrw_stdout(&[verb, "--quick"]);
        assert_eq!(
            quick,
            mrw_stdout(&[verb, "--quick", "--trials", trials]),
            "mrw {verb} --quick must run the experiment's {trials} trials"
        );
        assert_ne!(quick, mrw_stdout(&[verb, "--quick", "--trials", "24"]));
    }
}

/// The experiment verbs that step walks themselves build every engine
/// from their budget, so `--batch` moves their samples like it moves
/// every `Session` estimate. (`barbell-events` steps its walks the same
/// way, but its `--quick` table cannot show a flag: `--batch` only moves
/// its ⌈ln n⌉-token control arm, whose one statistic is certain, and
/// `--no-batch` moves C^k/n below the printed two decimals. The unit test
/// `no_batch_reaches_the_theorem_arm` checks it on the report itself.)
#[test]
fn experiment_verbs_honour_batch_flags() {
    for verb in ["stationary", "lemma16", "lemma19", "projection"] {
        assert_ne!(
            mrw_stdout(&[verb, "--quick"]),
            mrw_stdout(&[verb, "--quick", "--batch"]),
            "mrw {verb} --quick ignores --batch"
        );
    }
}

// ---------------------------------------------------------------------------
// The fanout driver.

#[test]
fn fanout_fixed_budget_is_byte_identical_to_run() {
    let tmp = TempDir::new("fanfixed");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let reference = oracle(&spec);
    // Four chunks per worker once a second worker can steal them; one
    // chunk for a one-worker pool.
    mrw()
        .args(["fanout", spec.to_str().unwrap(), "--workers", "4", "--json"])
        .assert()
        .success()
        .stdout(reference.clone())
        .stderr(contains(
            "mrw fanout: 2 group(s) × 96 trials in 16 chunk(s) across 4 worker(s), \
             0 retries used\n",
        ));
    mrw()
        .args(["fanout", spec.to_str().unwrap(), "--workers", "2", "--json"])
        .assert()
        .success()
        .stdout(reference.clone());
    mrw()
        .args(["fanout", spec.to_str().unwrap(), "--workers", "1", "--json"])
        .assert()
        .success()
        .stdout(reference)
        .stderr(contains(
            "mrw fanout: 2 group(s) × 96 trials in 1 chunk(s) across 1 worker(s), \
             0 retries used\n",
        ));
}

#[test]
fn fanout_adaptive_budget_is_byte_identical_to_run() {
    let tmp = TempDir::new("fanadaptive");
    let spec = tmp.file("spec.json", ADAPTIVE_SPEC);
    let reference = oracle(&spec);
    // The sequential stopping rule must replay identically across the
    // process pool: same wave boundaries, same per-group stopping points,
    // same consumed trial counts. Seven windows of three chunks, up to
    // trial 181, where the last group retires.
    mrw()
        .args(["fanout", spec.to_str().unwrap(), "--workers", "3", "--json"])
        .assert()
        .success()
        .stdout(reference)
        .stderr(contains(
            "mrw fanout: 2 group(s), 121–181 trials each in 21 chunk(s) across 3 worker(s), \
             0 retries used\n",
        ));
}

#[test]
fn fanout_recovers_byte_identically_after_a_sigkilled_worker() {
    let tmp = TempDir::new("fankill");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let reference = oracle(&spec);
    let latch = tmp.path("latch");
    // The worker owning trials [0, 24) SIGKILLs itself mid-run, once; the
    // retry must fill the hole and the merged report must still match the
    // oracle byte for byte (coverage rejection makes double-counting
    // impossible, so the retry either fills the hole or errors).
    mrw()
        .args(["fanout", spec.to_str().unwrap(), "--workers", "4", "--json"])
        .env("MRW_FAULT_KILL_RANGE_START", "0")
        .env("MRW_FAULT_ONCE", &latch)
        .assert()
        .success()
        .stdout(reference)
        .stderr(contains("signal: 9"))
        .stderr(contains("1 retry used"));
    assert!(latch.exists(), "the fault hook never fired");
}

#[test]
fn fanout_kill_during_adaptive_wave_still_matches_oracle() {
    let tmp = TempDir::new("fankilladaptive");
    let spec = tmp.file("spec.json", ADAPTIVE_SPEC);
    let reference = oracle(&spec);
    let latch = tmp.path("latch");
    // Kill the worker whose sub-range starts the first wave; the wave
    // barrier has to wait for the retry before evaluating the rule.
    mrw()
        .args(["fanout", spec.to_str().unwrap(), "--workers", "2", "--json"])
        .env("MRW_FAULT_KILL_RANGE_START", "0")
        .env("MRW_FAULT_ONCE", &latch)
        .assert()
        .success()
        .stdout(reference)
        .stderr(contains("signal: 9"));
}

#[test]
fn fanout_reports_missing_ranges_when_retries_exhaust() {
    let tmp = TempDir::new("fanexhaust");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    // No MRW_FAULT_ONCE latch: every attempt at trials [0, ...) dies, so
    // the retry budget runs out and the driver must abort with the
    // failure log and the still-missing coverage.
    mrw()
        .args([
            "fanout",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--retries",
            "1",
            "--json",
        ])
        .env("MRW_FAULT_KILL_RANGE_START", "0")
        .assert()
        .failure()
        .stderr(contains("failed 2 attempt(s)"))
        .stderr(contains("still missing"));
}

#[test]
fn fanout_exhaustion_in_a_later_adaptive_wave_aborts_cleanly() {
    let tmp = TempDir::new("fanwave2");
    let spec = tmp.file("spec.json", ADAPTIVE_SPEC);
    // min_trials is 16, so wave 2 covers absolute trials [16, 24); a
    // persistent fault there must produce the friendly abort with the
    // batch's missing ranges — not a panic from validating absolute
    // indices against a wave-relative total (regression). One worker
    // keeps the list exact: the pipelined window [24, 36) runs to
    // completion while the failed chunk backs off. With two, whatever
    // of it is still in flight at the abort is listed too, which
    // depends on timing.
    mrw()
        .args([
            "fanout",
            spec.to_str().unwrap(),
            "--workers",
            "1",
            "--retries",
            "1",
            "--json",
        ])
        .env("MRW_FAULT_KILL_RANGE_START", "16")
        .assert()
        .failure()
        .code(1)
        .stderr(contains("failed 2 attempt(s)"))
        .stderr(contains("still missing [(16, 24)]"));
}

#[test]
fn fanout_human_output_certifies_adaptive_runs() {
    let tmp = TempDir::new("fanhuman");
    let spec = tmp.file("spec.json", ADAPTIVE_SPEC);
    mrw()
        .args(["fanout", spec.to_str().unwrap(), "--workers", "2"])
        .assert()
        .success()
        .stdout(contains("precision rule satisfied"));
}

// ---------------------------------------------------------------------------
// The fault matrix: hang, corrupt, straggle, exhaust → checkpoint → resume.

#[test]
fn fanout_deadline_kills_a_hung_worker_and_recovers_byte_identically() {
    let tmp = TempDir::new("fanhang");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let reference = oracle(&spec);
    let latch = tmp.path("latch");
    // The worker owning trials [0, 12) sleeps forever, once. Only the
    // deadline policy can clear it: the driver learns the EWMA chunk
    // latency from its healthy peers, SIGKILLs the hung child past the
    // deadline, and the requeued range completes on retry.
    mrw()
        .args([
            "fanout",
            spec.to_str().unwrap(),
            "--workers",
            "4",
            "--deadline-ms",
            "500",
            "--json",
        ])
        .env("MRW_FAULT_HANG_RANGE_START", "0")
        .env("MRW_FAULT_ONCE", &latch)
        .assert()
        .success()
        .stdout(reference)
        .stderr(contains("deadline"))
        .stderr(contains("1 retry used"));
    assert!(latch.exists(), "the hang hook never fired");
}

#[test]
fn fanout_retries_corrupt_worker_output_byte_identically() {
    let tmp = TempDir::new("fancorrupt");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let reference = oracle(&spec);
    let latch = tmp.path("latch");
    // The worker owning trials [0, 12) emits truncated JSON, once — a
    // torn write. Output validation must turn that into a retry, never
    // into merging garbage.
    mrw()
        .args(["fanout", spec.to_str().unwrap(), "--workers", "4", "--json"])
        .env("MRW_FAULT_CORRUPT_RANGE_START", "0")
        .env("MRW_FAULT_ONCE", &latch)
        .assert()
        .success()
        .stdout(reference)
        .stderr(contains("malformed report"))
        .stderr(contains("1 retry used"));
    assert!(latch.exists(), "the corrupt hook never fired");
}

#[test]
fn fanout_steals_around_a_straggler_without_retries() {
    let tmp = TempDir::new("fanslow");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let reference = oracle(&spec);
    let latch = tmp.path("latch");
    // One chunk (whichever wins the latch) stalls well under the
    // deadline; the idle workers steal the remaining chunks and the
    // merged output is unchanged, with no retry spent.
    mrw()
        .args(["fanout", spec.to_str().unwrap(), "--workers", "4", "--json"])
        .env("MRW_FAULT_SLOW_MS", "300")
        .env("MRW_FAULT_ONCE", &latch)
        .assert()
        .success()
        .stdout(reference)
        .stderr(contains("0 retries used"));
}

#[test]
fn fanout_cleans_its_scratch_dir_on_success_and_on_abort() {
    let tmp = TempDir::new("fanscratch");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let scratch_root = tmp.path("scratch");
    std::fs::create_dir_all(&scratch_root).unwrap();
    mrw()
        .args(["fanout", spec.to_str().unwrap(), "--workers", "2", "--json"])
        .env("MRW_TMPDIR", &scratch_root)
        .assert()
        .success();
    let leftover: Vec<_> = std::fs::read_dir(&scratch_root).unwrap().collect();
    assert!(leftover.is_empty(), "scratch leaked: {leftover:?}");
    // The abort path (retry exhaustion) must clean up too.
    mrw()
        .args([
            "fanout",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--retries",
            "0",
            "--checkpoint",
            tmp.path("scratch-ck.json").to_str().unwrap(),
            "--json",
        ])
        .env("MRW_FAULT_KILL_RANGE_START", "0")
        .env("MRW_TMPDIR", &scratch_root)
        .assert()
        .failure();
    let leftover: Vec<_> = std::fs::read_dir(&scratch_root).unwrap().collect();
    assert!(leftover.is_empty(), "abort leaked scratch: {leftover:?}");
}

#[test]
fn fanout_abort_names_the_checkpoint_and_the_resume_command() {
    let tmp = TempDir::new("fanabortmsg");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let ck = tmp.path("ck.json");
    mrw()
        .args([
            "fanout",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--retries",
            "0",
            "--checkpoint",
            ck.to_str().unwrap(),
            "--json",
        ])
        .env("MRW_FAULT_KILL_RANGE_START", "84")
        .assert()
        .failure()
        // The exact list may also include a chunk that was in flight
        // when the abort hit (it is killed and re-counted as missing).
        .stderr(contains("still missing [("))
        .stderr(contains(format!("mrw resume {}", ck.display())))
        .stderr(contains("--partial-ok"));
    assert!(ck.exists(), "abort must leave a checkpoint behind");
}

#[test]
fn fixed_partial_checkpoint_resumes_byte_identically_to_run() {
    let tmp = TempDir::new("fanresume");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let reference = oracle(&spec);
    let ck = tmp.path("ck.json");
    // Trials [84, 96) die on every attempt with no retry budget; with
    // --partial-ok the driver exits 0, emits the merged partial report,
    // and checkpoints. (Killing the *last* chunk guarantees completed
    // waves exist, so there is a partial report to print.)
    let assert = mrw()
        .args([
            "fanout",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--retries",
            "0",
            "--partial-ok",
            "--checkpoint",
            ck.to_str().unwrap(),
            "--json",
        ])
        .env("MRW_FAULT_KILL_RANGE_START", "84")
        .assert()
        .success()
        .stderr(contains("still missing [("));
    let partial = String::from_utf8(assert.get_output().stdout.clone()).unwrap();
    assert_ne!(partial, reference, "the partial report must be partial");
    assert!(
        partial.contains("\"coverage\""),
        "partial coverage must be explicit: {partial}"
    );
    // Resuming (fault hooks gone) dispatches only [84, 96) and completes
    // byte-identically to the unfailed run.
    mrw()
        .args(["resume", ck.to_str().unwrap(), "--json"])
        .assert()
        .success()
        .stdout(reference);
}

#[test]
fn adaptive_partial_checkpoint_resumes_byte_identically_to_run() {
    let tmp = TempDir::new("fanresumeadaptive");
    let spec = tmp.file("spec.json", ADAPTIVE_SPEC);
    let reference = oracle(&spec);
    let ck = tmp.path("ck.json");
    // Wave 2 (absolute trials [16, 24)) dies persistently; wave 1 is
    // already folded, so the checkpoint carries completed wave state that
    // resume must stitch to the re-run gap without double-counting.
    mrw()
        .args([
            "fanout",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--retries",
            "1",
            "--partial-ok",
            "--checkpoint",
            ck.to_str().unwrap(),
            "--json",
        ])
        .env("MRW_FAULT_KILL_RANGE_START", "16")
        .assert()
        .success()
        .stderr(contains("still missing"));
    mrw()
        .args(["resume", ck.to_str().unwrap(), "--json"])
        .assert()
        .success()
        .stdout(reference);
}

#[test]
fn staggered_retirement_checkpoint_resumes_byte_identically_to_run() {
    let tmp = TempDir::new("fanstagger");
    let spec = tmp.file("spec.json", ADAPTIVE_SPEC);
    let reference = oracle(&spec);
    let ck = tmp.path("ck.json");
    // `start=8` retires at the end of window [81, 121); the worker owning
    // window [121, 181) then dies on every attempt. With one worker the
    // schedule is sequential, so the checkpoint ledger is exact: six
    // complete windows, both groups active in each, an empty frontier, and
    // window [181, 271) — already queued for `start=0` alone — reported
    // missing with the failed one.
    let run = |workers: &str| {
        mrw()
            .args([
                "fanout",
                spec.to_str().unwrap(),
                "--workers",
                workers,
                "--retries",
                "0",
                "--partial-ok",
                "--checkpoint",
                ck.to_str().unwrap(),
                "--json",
            ])
            .env("MRW_FAULT_KILL_RANGE_START", "121")
            .assert()
            .success()
    };
    run("1").stderr(contains("still missing [(121, 271)]"));
    let text = std::fs::read_to_string(&ck).unwrap();
    let checkpoint = mrw_core::query::Ledger::from_json(&text).unwrap();
    assert_eq!(checkpoint.groups.len(), 2);
    for group in &checkpoint.groups {
        let windows: Vec<(u64, u64)> = group
            .prefixes
            .iter()
            .map(|(hi, g)| (*hi, g.trials))
            .collect();
        let expected = [16, 24, 36, 54, 81, 121].map(|hi| (hi, hi));
        assert_eq!(windows, expected, "{}", group.label);
    }
    assert!(checkpoint.frontier.is_empty());
    mrw()
        .args(["resume", ck.to_str().unwrap(), "--json"])
        .assert()
        .success()
        .stdout(reference.clone());
    // Two workers pipeline the next window concurrently, so what the
    // checkpoint holds varies; resuming it must not.
    std::fs::remove_file(&ck).unwrap();
    run("2");
    mrw()
        .args(["resume", ck.to_str().unwrap(), "--json"])
        .assert()
        .success()
        .stdout(reference);
}

#[test]
fn resume_rejects_budget_overrides_and_tampered_checkpoints() {
    let tmp = TempDir::new("fanresumeguard");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let ck = tmp.path("ck.json");
    mrw()
        .args([
            "fanout",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--retries",
            "0",
            "--checkpoint",
            ck.to_str().unwrap(),
            "--json",
        ])
        .env("MRW_FAULT_KILL_RANGE_START", "84")
        .assert()
        .failure();
    // Budget overrides would change what byte-identical completion means.
    mrw()
        .args(["resume", ck.to_str().unwrap(), "--trials", "10"])
        .assert()
        .failure()
        .stderr(contains("cannot override"));
    mrw()
        .args(["resume", ck.to_str().unwrap(), "--seed", "1"])
        .assert()
        .failure()
        .stderr(contains("cannot override"));
    // A hand-edited spec is caught by the fingerprint.
    let text = std::fs::read_to_string(&ck).unwrap();
    let tampered = tmp.file("tampered.json", &text.replace("\"seed\": 7", "\"seed\": 8"));
    mrw()
        .args(["resume", tampered.to_str().unwrap()])
        .assert()
        .failure()
        .stderr(contains("hash mismatch"));
}

#[test]
fn resume_refuses_edited_moments_and_retired_checkpoints() {
    let tmp = TempDir::new("fanresumeintegrity");
    let spec = tmp.file("spec.json", FIXED_SPEC);
    let ck = tmp.path("ck.json");
    mrw()
        .args([
            "fanout",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--retries",
            "0",
            "--checkpoint",
            ck.to_str().unwrap(),
            "--json",
        ])
        .env("MRW_FAULT_KILL_RANGE_START", "84")
        .assert()
        .failure();
    // One sum raised by 1000 still describes a possible sample, so only
    // the whole-payload hash can tell; resuming it would print wrong bytes.
    let text = std::fs::read_to_string(&ck).unwrap();
    let at = text.find("\"sum\": ").expect("checkpoint has a sum") + "\"sum\": ".len();
    let end = at + text[at..].find(',').expect("sum is followed by a comma");
    let sum: u128 = text[at..end].parse().expect("sum is an integer");
    let bumped = format!("{}{}{}", &text[..at], sum + 1000, &text[end..]);
    let bumped = tmp.file("bumped.json", &bumped);
    mrw()
        .args(["resume", bumped.to_str().unwrap(), "--json"])
        .assert()
        .failure()
        .code(1)
        .stdout("")
        .stderr(contains("hash mismatch"));
    // A checkpoint in the format fanout wrote before checkpoints became
    // ledgers is refused by name.
    let retired = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint-v1.json");
    mrw()
        .args(["resume", retired.to_str().unwrap(), "--json"])
        .assert()
        .failure()
        .code(1)
        .stdout("")
        .stderr(contains("mrw-checkpoint-v1"))
        .stderr(contains("re-run mrw fanout"));
}
