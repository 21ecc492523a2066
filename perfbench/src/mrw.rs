//! Driving the shipped `mrw` binary from outside: timed child processes,
//! peak-RSS probes, the `mrw serve` daemon and its frame protocol, and the
//! byte-for-byte oracle every output is checked against.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use mrw_core::{QuerySpec, Report, Session};

/// The `mrw` binary plus the scratch directory its children use.
pub struct Mrw {
    pub bin: PathBuf,
    /// `MRW_TMPDIR` for fanout scratch files (inside the checkout).
    pub tmp: PathBuf,
}

/// One finished child process.
pub struct ProcOut {
    pub ok: bool,
    pub stdout: String,
    pub stderr: String,
    /// Wall time from spawn to exit.
    pub secs: f64,
}

impl ProcOut {
    /// The report bytes, or why the process failed.
    pub fn report(&self) -> Result<String, String> {
        if self.ok {
            Ok(self.stdout.clone())
        } else {
            Err(self
                .stderr
                .lines()
                .next()
                .unwrap_or("no stderr")
                .to_string())
        }
    }
}

impl Mrw {
    fn command(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args)
            .env("MRW_TMPDIR", &self.tmp)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        cmd
    }

    /// Runs `mrw ARGS` to completion and times it.
    pub fn run(&self, args: &[&str]) -> ProcOut {
        self.run_probed(args, false).0
    }

    /// Like [`run`](Self::run); with `probe_rss` a side thread polls the
    /// child's `VmHWM` every millisecond and the peak seen (KiB) is
    /// returned too. Poll only untimed runs.
    pub fn run_probed(&self, args: &[&str], probe_rss: bool) -> (ProcOut, u64) {
        let start = Instant::now();
        let child = match self.command(args).spawn() {
            Ok(c) => c,
            Err(e) => {
                return (
                    ProcOut {
                        ok: false,
                        stdout: String::new(),
                        stderr: format!("spawn {}: {e}", self.bin.display()),
                        secs: start.elapsed().as_secs_f64(),
                    },
                    0,
                )
            }
        };
        let pid = child.id();
        let done = AtomicBool::new(false);
        let (out, peak) = std::thread::scope(|s| {
            let poller = probe_rss.then(|| {
                s.spawn(|| {
                    let mut peak = 0;
                    while !done.load(Ordering::SeqCst) {
                        peak = peak.max(vm_hwm_kib(pid).unwrap_or(0));
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    peak
                })
            });
            let out = child.wait_with_output();
            let secs = start.elapsed().as_secs_f64();
            done.store(true, Ordering::SeqCst);
            let peak = poller.map_or(0, |p| p.join().expect("rss poller panicked"));
            (out.map(|o| (o, secs)), peak)
        });
        let out = match out {
            Ok((o, secs)) => ProcOut {
                ok: o.status.success(),
                stdout: String::from_utf8_lossy(&o.stdout).into_owned(),
                stderr: String::from_utf8_lossy(&o.stderr).into_owned(),
                secs,
            },
            Err(e) => ProcOut {
                ok: false,
                stdout: String::new(),
                stderr: format!("wait: {e}"),
                secs: start.elapsed().as_secs_f64(),
            },
        };
        (out, peak)
    }

    /// Starts `mrw serve` on a Unix socket with a persist directory and
    /// waits for its ready line.
    pub fn serve(&self, sock: &Path, persist: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(sock);
        let mut child = Command::new(&self.bin)
            .args(["serve", "--listen"])
            .arg(sock)
            .arg("--persist")
            .arg(persist)
            .env("MRW_TMPDIR", &self.tmp)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn mrw serve: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let daemon = Daemon {
            child,
            sock: sock.to_path_buf(),
        };
        match read {
            Some(Ok(_)) if line.starts_with("mrw-serve listening on") => Ok(daemon),
            _ => Err(format!("mrw serve did not become ready: {line:?}")),
        }
    }
}

/// Peak resident set of process `pid` in KiB, from `/proc`.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A running `mrw serve`; stopped (and waited for) on drop.
pub struct Daemon {
    child: Child,
    pub sock: PathBuf,
}

impl Daemon {
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.sock)
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = self
            .connect()
            .and_then(|mut c| c.request("{\"verb\": \"shutdown\"}"));
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        sent?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("mrw serve exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection speaking blank-line-terminated frames.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    pub fn connect(sock: &Path) -> Result<Conn, String> {
        let writer =
            UnixStream::connect(sock).map_err(|e| format!("connect {}: {e}", sock.display()))?;
        let reader = writer.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(reader),
            writer,
        })
    }

    /// Sends one request frame and returns the response body; an
    /// `mrw-serve-error-v1` frame is an error.
    pub fn request(&mut self, body: &str) -> Result<String, String> {
        let mut frame = body.trim_end().to_string();
        frame.push_str("\n\n");
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("daemon closed the connection".into());
            }
            if line == "\n" {
                break;
            }
            response.push_str(&line);
        }
        if response.contains("\"mrw-serve-error-v1\"") {
            return Err(format!("daemon error: {}", response.trim()));
        }
        Ok(response)
    }
}

/// The `run` request frame for a canonical spec.
pub fn run_frame(spec_json: &str) -> String {
    format!("{{\"verb\": \"run\", \"spec\": {}}}", spec_json.trim_end())
}

/// The cold oracle: what `mrw run SPEC --json` prints, computed in-process
/// as `Session::run(..).to_json()`, on `threads` threads if given (the
/// bytes do not depend on the thread count).
pub fn oracle(spec_json: &str, threads: Option<usize>) -> Result<String, String> {
    let mut spec = QuerySpec::from_json(spec_json)?;
    let g = spec.graph.resolve()?;
    spec.query.validate(&g)?;
    if let Some(t) = threads {
        spec.budget.threads = t;
    }
    Ok(Session::new(spec.budget).run(&g, &spec.query).to_json())
}

/// Token-steps a report accounts for: Σ over groups of the rounds sum
/// times the walk count `k`.
pub fn report_tsteps(report_json: &str, k: usize) -> Result<f64, String> {
    let r = Report::from_json(report_json)?;
    Ok(r.groups
        .iter()
        .map(|g| g.moments.sum() as f64 * k as f64)
        .sum())
}

/// Collects every output the benchmark received, keyed by the spec that
/// produced it, and checks them byte for byte against the cold oracle.
#[derive(Default)]
pub struct Checker {
    seen: HashMap<String, HashMap<String, u64>>,
    /// Oracle output per spec, computed once.
    oracles: HashMap<String, Result<String, String>>,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

impl Checker {
    /// Records one operation's output (or its failure).
    pub fn record(&mut self, spec_json: &str, out: Result<String, String>) {
        self.attempted += 1;
        match out {
            Ok(body) => {
                *self
                    .seen
                    .entry(spec_json.to_string())
                    .or_default()
                    .entry(body)
                    .or_default() += 1;
            }
            Err(e) => self.fail(e),
        }
    }

    /// Counts a failed operation that produced no output to compare.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            eprintln!("perfbench: operation failed: {why}");
            self.errors.push(why);
        }
    }

    /// The cold oracle's output for `spec_json`, computed once per spec.
    pub fn expected(&mut self, spec_json: &str) -> Result<String, String> {
        self.oracles
            .entry(spec_json.to_string())
            .or_insert_with(|| oracle(spec_json, None))
            .clone()
    }

    /// Compares every recorded output with the oracle; mismatches count as
    /// failures. Clears the recorded outputs. Specs without a cached oracle
    /// output are computed on two threads, one spec at a time each.
    pub fn verify(&mut self) {
        let mut seen: Vec<(String, HashMap<String, u64>)> = self.seen.drain().collect();
        seen.sort_by(|a, b| a.0.cmp(&b.0));
        let pending: Vec<&str> = seen
            .iter()
            .map(|(spec, _)| spec.as_str())
            .filter(|spec| !self.oracles.contains_key(*spec))
            .collect();
        let computed: Vec<(String, Result<String, String>)> = std::thread::scope(|s| {
            let workers: Vec<_> = pending
                .chunks(pending.len().div_ceil(2).max(1))
                .map(|chunk| {
                    s.spawn(move || {
                        chunk
                            .iter()
                            .map(|spec| (spec.to_string(), oracle(spec, Some(1))))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("oracle thread panicked"))
                .collect()
        });
        self.oracles.extend(computed);
        for (spec, bodies) in seen {
            let Some(expected) = self.oracles.remove(&spec) else {
                continue;
            };
            match expected {
                Ok(expected) => {
                    for (body, count) in bodies {
                        if body != expected {
                            self.failed += count - 1;
                            self.fail(format!("output differs from the cold oracle for {spec}"));
                        }
                    }
                }
                Err(e) => {
                    self.failed += bodies.values().sum::<u64>() - 1;
                    self.fail(format!("oracle failed for {spec}: {e}"));
                }
            }
        }
    }
}
