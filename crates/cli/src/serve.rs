//! `mrw serve` — a resident estimate service with an incremental report
//! cache — and `mrw serve-ctl`, its line client.
//!
//! ## Protocol
//!
//! The daemon listens on a TCP address (`host:port`) or a Unix socket
//! path and speaks blank-line-terminated JSON frames: a request is a
//! JSON document followed by one empty line, the response likewise. The
//! canonical renderer never emits empty lines inside a document, so the
//! framing is unambiguous — and a `run` response body is the **exact
//! bytes** `mrw run spec.json --json` would print, which is the
//! contract the black-box harness in `tests/serve.rs` byte-diffs.
//!
//! Verbs: `{"verb": "run", "spec": {…}}` answers with a bare
//! `mrw-report-v1` document; `{"verb": "stats"}` reports the cache
//! counters (`mrw-serve-stats-v1`); `ping` answers `pong`; `shutdown`
//! stops the daemon after responding. Anything malformed gets an
//! `mrw-serve-error-v1` frame and the connection stays alive.
//!
//! ## The incremental report cache
//!
//! A trial is a pure function of `(seed, group, index)` — never of the
//! budget's total — and group statistics are exact integer sums. So the
//! daemon caches, per `QuerySpec::report_key` (graph + query + seed +
//! mode + batch; *not* trial count or precision rule), a per-group
//! ledger of cumulative prefix snapshots: the group's exact statistics
//! over trials `[0, b)` at every boundary `b` a request has touched.
//! Serving a budget then runs only the missing index range:
//!
//! * **fixed `n`**: merge the greatest cached prefix `b ≤ n` with a
//!   fresh `b..n` slice (a pure *extension* when the entry already
//!   existed);
//! * **adaptive rule**: `mrw-core`'s wave driver ([`waves::drive`]) asks
//!   the ledger for each window end of the still-active groups, so only
//!   window ends the ledger cannot answer run (a precision *upgrade*
//!   resumes from the cached moments).
//!
//! Both are the same call: the ledger is a wave executor
//! ([`LedgerExecutor`]) and a fixed budget is the one-window case.
//!
//! Every boundary served is inserted into the ledger, so repeated and
//! overlapping queries from many clients compose instead of recomputing.
//! Graphs are cached separately under `GraphSpec::cache_key` (family,
//! size, jumps, resolved backend). Both caches are LRU-bounded
//! (`--cache-bytes` / `--graph-cache-bytes`) with deterministic
//! per-entry cost accounting; the entry just served is pinned during the
//! eviction pass (a cache sized for one entry holds it), and an evicted
//! entry is recomputed on the next request — slower, never different
//! bytes.
//!
//! ## Persistence (`--persist DIR`)
//!
//! With `--persist`, every entry whose ledger grew is rewritten to
//! `DIR/ledger-<fnv1a(report_key)>.json` as a canonical
//! [`mrw-ledger-v1`](mrw_core::query::ledger) document (tmp-file +
//! rename, so a crash mid-write leaves the previous generation intact),
//! and boot loads every such file back with [`Ledger::from_json`] — the
//! loader `mrw resume` uses for fanout checkpoints — before printing the
//! ready line. The document embeds the spec template and is fingerprinted
//! over its whole payload, so a tampered, truncated, or version-skewed
//! file is *skipped with a warning on stderr* — never served, never a
//! panic (rule P1). So is a fanout checkpoint: it is a ledger too, but
//! one that carries its run's precision rule, frontier and failure log,
//! so it is no cache entry. A warm-started entry answers its budget with
//! zero new trials and the exact bytes a cold `mrw run` would print.
//!
//! ## Locking
//!
//! The global state lock covers only bookkeeping (cache maps, counters,
//! tick). Computation happens under a *per-key in-flight gate*: one
//! request per `report_key` computes at a time — identical concurrent
//! queries still produce exactly one miss plus hits — while requests for
//! distinct keys compute concurrently. Per-key stats transitions stay
//! deterministic (which is what lets the e2e harness assert exact
//! counter values); only the interleaving *across* keys is scheduled by
//! the OS. Entry updates stay transactional (remove → mutate →
//! reinsert), so a panic mid-compute costs a cache entry, never corrupts
//! one.
//!
//! ## Delegation (`--delegate-trials T`)
//!
//! A miss or extension that needs `>= T` new trials for a group runs as
//! one window of the fanout worker pool (`fanout::run_on_pool`: child
//! `mrw shard` processes with `--range`/`--groups`, deadline-killed and
//! retried like any fanout chunk) instead of in-process, so one huge
//! request cannot monopolize the daemon process. The merged shard
//! reports are byte-identical to the in-process run — a trial is a pure
//! function of `(seed, group, index)` — and `trials_executed` counts the
//! same either way.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use mrw_core::query::json::{self, Value};
use mrw_core::query::{
    waves, Budget, Coverage, GraphInfo, Group, Ledger, QuerySpec, Report, Session,
};
use mrw_core::AnyGraph;
use mrw_graph::GraphBackend;

use crate::args::Options;
use crate::dispatch::DispatchConfig;
use crate::fanout::{DEFAULT_DEADLINE_MS, DEFAULT_RETRIES};

/// Hard cap on one request frame — hostile input must not buffer
/// unboundedly. Oversize frames get one error response, then the
/// connection is dropped.
const MAX_FRAME_BYTES: usize = 4 << 20;

/// How often the accept loop polls the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Default `--cache-bytes` bound for the report cache.
const DEFAULT_CACHE_BYTES: u64 = 64 << 20;

/// Default `--graph-cache-bytes` bound for resident graphs.
const DEFAULT_GRAPH_CACHE_BYTES: u64 = 256 << 20;

/// Set by the signal handler (and by the `shutdown` verb); the accept
/// loop exits at the next poll.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// SIGTERM/SIGINT registration — the one hand-declared libc surface in
/// the workspace (the build is offline; no signal crate to add). The
/// handler only stores to an atomic flag, which is async-signal-safe.
/// The crate root denies unsafe_code (rule U2); this module-scoped
/// opt-out is registered in `analyze.allow` and covers exactly the
/// `extern` declaration plus the one registration call below.
#[allow(unsafe_code)]
mod sig {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    pub fn install() {
        // SAFETY: registering an async-signal-safe handler through the C
        // library's `signal`; the return value (the previous handler) is
        // deliberately ignored.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

// ---------------------------------------------------------------------------
// Transport: one listener/stream pair covering TCP and Unix sockets.

/// Where the daemon listens: `host:port` (any string containing `:`) is
/// TCP, anything else is a Unix socket path.
fn is_tcp_addr(addr: &str) -> bool {
    addr.contains(':')
}

enum Listener {
    Tcp(TcpListener),
    Unix(std::os::unix::net::UnixListener, std::path::PathBuf),
}

impl Listener {
    /// Binds, returning the listener and the resolved address for the
    /// ready line (TCP port 0 resolves to the kernel-assigned port).
    fn bind(addr: &str) -> Result<(Listener, String), String> {
        if is_tcp_addr(addr) {
            let l = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            let local = l.local_addr().map_err(|e| format!("local_addr: {e}"))?;
            Ok((Listener::Tcp(l), local.to_string()))
        } else {
            let l = std::os::unix::net::UnixListener::bind(addr)
                .map_err(|e| format!("bind {addr}: {e}"))?;
            Ok((Listener::Unix(l, addr.into()), addr.to_string()))
        }
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            Listener::Unix(l, _) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// One accepted connection (or one client-side connection).
enum Conn {
    Tcp(TcpStream),
    Unix(std::os::unix::net::UnixStream),
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        if is_tcp_addr(addr) {
            TcpStream::connect(addr)
                .map(Conn::Tcp)
                .map_err(|e| format!("connect {addr}: {e}"))
        } else {
            std::os::unix::net::UnixStream::connect(addr)
                .map(Conn::Unix)
                .map_err(|e| format!("connect {addr}: {e}"))
        }
    }

    /// Splits into independent reader/writer handles over one socket.
    fn split(self) -> std::io::Result<(Conn, Conn)> {
        Ok(match self {
            Conn::Tcp(s) => (Conn::Tcp(s.try_clone()?), Conn::Tcp(s)),
            Conn::Unix(s) => (Conn::Unix(s.try_clone()?), Conn::Unix(s)),
        })
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------------
// Framing.

/// One `read_frame` outcome.
enum FrameRead {
    /// A complete frame body (the bytes before the blank line, trailing
    /// newlines included).
    Frame(Vec<u8>),
    /// Clean end of stream before any frame data.
    Eof,
    /// The frame passed [`MAX_FRAME_BYTES`]; the connection must drop.
    Oversize,
}

/// Reads one blank-line-terminated frame. Leading blank lines are
/// tolerated (a sloppy client's extra separator); EOF mid-frame is an
/// error.
fn read_frame(r: &mut impl BufRead) -> std::io::Result<FrameRead> {
    let mut body: Vec<u8> = Vec::new();
    let mut line_start = 0usize;
    loop {
        let (consumed, newline_at) = {
            let buf = r.fill_buf()?;
            if buf.is_empty() {
                return if body.is_empty() {
                    Ok(FrameRead::Eof)
                } else {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                };
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    body.extend_from_slice(&buf[..=i]);
                    (i + 1, true)
                }
                None => {
                    body.extend_from_slice(buf);
                    (buf.len(), false)
                }
            }
        };
        r.consume(consumed);
        if newline_at {
            let line = &body[line_start..];
            // A CRLF client's blank separator arrives as "\r\n"; treat it
            // as the terminator too, or such a client stalls until the
            // frame cap trips.
            if line == b"\n" || line == b"\r\n" {
                if line_start == 0 {
                    body.clear();
                    continue;
                }
                body.truncate(line_start);
                // Normalize only the stored body's terminator line: its
                // stray '\r' would otherwise ride along into the framed
                // bytes (interior lines are the client's own content).
                if body.ends_with(b"\r\n") {
                    let len = body.len();
                    body.truncate(len - 2);
                    body.push(b'\n');
                }
                return Ok(FrameRead::Frame(body));
            }
            line_start = body.len();
        }
        if body.len() > MAX_FRAME_BYTES {
            return Ok(FrameRead::Oversize);
        }
    }
}

/// Writes `body` as one frame: the bytes, a newline if the body lacks
/// one, and the blank-line terminator.
fn write_frame(w: &mut impl Write, body: &str) -> std::io::Result<()> {
    w.write_all(body.as_bytes())?;
    if !body.ends_with('\n') {
        w.write_all(b"\n")?;
    }
    w.write_all(b"\n")?;
    w.flush()
}

fn error_frame(msg: &str) -> String {
    Value::obj(vec![
        ("schema", Value::str("mrw-serve-error-v1")),
        ("error", Value::str(msg)),
    ])
    .render()
}

fn ok_frame(msg: &str) -> String {
    Value::obj(vec![
        ("schema", Value::str("mrw-serve-ok-v1")),
        ("ok", Value::str(msg)),
    ])
    .render()
}

// ---------------------------------------------------------------------------
// Server state: the graph cache, the report cache, and the counters.

#[derive(Default)]
struct Stats {
    requests: u64,
    hits: u64,
    misses: u64,
    extensions: u64,
    errors: u64,
    trials_executed: u64,
    report_evictions: u64,
    graph_hits: u64,
    graph_misses: u64,
    graph_evictions: u64,
}

struct GraphEntry {
    graph: Arc<AnyGraph>,
    bytes: usize,
    tick: u64,
}

/// How delegated misses run: the trial threshold plus the dispatcher
/// knobs (resolved once at boot from the serve command line; the jitter
/// seed is each request's own).
struct Delegation {
    /// Misses/extensions needing at least this many new trials for a
    /// group go through the dispatcher instead of in-process.
    threshold: u64,
    pool: DispatchConfig,
}

/// Executes one missing trial range for the cache: in-process via
/// [`Session`] below the delegation threshold, on the fanout worker pool
/// (child `mrw shard` processes) at or above it. Both paths produce identical bytes — a trial is a pure function
/// of `(seed, group, index)` and shard merges are exact.
struct Runner<'a> {
    graph: &'a AnyGraph,
    delegation: Option<&'a Delegation>,
}

impl Runner<'_> {
    /// Runs trials `[lo, n)` of `template`'s experiment under `budget`
    /// (trial space `n`, precision stripped), optionally restricted to
    /// specific group indices.
    fn run_range(
        &self,
        template: &QuerySpec,
        budget: Budget,
        lo: usize,
        n: usize,
        groups: Option<Vec<usize>>,
    ) -> Result<Report, String> {
        if let Some(d) = self.delegation.filter(|d| (n - lo) as u64 >= d.threshold) {
            let spec = QuerySpec {
                graph: template.graph.clone(),
                query: template.query.clone(),
                budget,
            };
            let cfg = DispatchConfig {
                jitter_seed: spec.budget.seed,
                ..d.pool.clone()
            };
            return crate::fanout::run_on_pool(&spec, self.graph, lo..n, groups.as_deref(), cfg);
        }
        let mut session = Session::new(budget).with_range(lo..n);
        if let Some(idxs) = groups {
            session = session.with_groups(idxs);
        }
        Ok(session.run(self.graph, &template.query))
    }
}

/// One report-cache entry: the [`Ledger`] it persists as (the exact
/// `mrw-ledger-v1` shape — the spec template whose budget holds the
/// key's seed / mode / batch with the precision rule stripped, the graph
/// identity reports carry, and the per-group prefix windows) plus its
/// LRU tick. The ledger's own window methods keep the template's trial
/// count at the largest window bound, so persisting an entry writes its
/// ledger as is.
struct ReportEntry {
    ledger: Ledger,
    tick: u64,
}

impl ReportEntry {
    fn new(spec: &QuerySpec, g: &AnyGraph) -> ReportEntry {
        let template = QuerySpec {
            graph: spec.graph.clone(),
            query: spec.query.clone(),
            budget: Budget {
                trials: 0,
                precision: None,
                ..spec.budget.clone()
            },
        };
        ReportEntry {
            ledger: Ledger::new(template, GraphInfo::of(g)),
            tick: 0,
        }
    }

    /// Deterministic cost estimate — a fixed header plus a per-snapshot
    /// charge — used by the LRU accounting (not an allocator
    /// measurement, so eviction tests can size `--cache-bytes` exactly).
    fn bytes(&self) -> usize {
        256 + self
            .ledger
            .groups
            .iter()
            .map(|l| 64 + l.label.len() + l.prefixes.len() * 96)
            .sum::<usize>()
    }

    /// First contact: run trials `[0, n)` unfiltered to discover the
    /// group structure and open every group's ledger with the boundary.
    /// Returns the trial count dispatched.
    fn initialize(&mut self, runner: &Runner<'_>, n: usize) -> Result<u64, String> {
        let spec = &self.ledger.spec;
        let budget = Budget {
            trials: n,
            ..spec.budget.clone()
        };
        let report = runner.run_range(spec, budget, 0, n, None)?;
        self.ledger.open(n as u64, report.groups);
        Ok((n * self.ledger.groups.len()) as u64)
    }

    /// Cumulative statistics of group `idx` over trials `[0, n)`,
    /// running only the missing tail `[b, n)` past the greatest cached
    /// boundary `b ≤ n` (zero trials when `n` is itself a boundary).
    /// The result is recorded as a new boundary, so the ledger grows
    /// wherever requests actually land. Returns the group and the trial
    /// count dispatched.
    fn prefix(&mut self, runner: &Runner<'_>, idx: usize, n: u64) -> Result<(Group, u64), String> {
        if let Some(cum) = self.ledger.window(idx, n) {
            return Ok((cum.clone(), 0));
        }
        let (lo, base) = self.ledger.floor(idx, n);
        let spec = &self.ledger.spec;
        let budget = Budget {
            trials: n as usize,
            ..spec.budget.clone()
        };
        let mut delta_groups = runner
            .run_range(spec, budget, lo as usize, n as usize, Some(vec![idx]))?
            .groups;
        if idx >= delta_groups.len() {
            return Err(format!(
                "range run returned {} group(s), expected at least {}",
                delta_groups.len(),
                idx + 1
            ));
        }
        let cum = base.merge(&delta_groups.swap_remove(idx));
        self.ledger.record(idx, n, cum.clone());
        Ok((cum, n - lo))
    }
}

#[derive(Default)]
struct Inner {
    graphs: HashMap<String, GraphEntry>,
    reports: HashMap<String, ReportEntry>,
    /// Per-`report_key` compute gates: requests for the same key
    /// serialize on the gate (one miss, the rest hits); distinct keys
    /// compute concurrently. Gates are created and cloned only under the
    /// global lock and removed when their last concurrent holder
    /// finishes, so the table stays as small as the in-flight set.
    inflight: HashMap<String, Arc<Mutex<()>>>,
    tick: u64,
    stats: Stats,
}

impl Inner {
    /// The resident graph for `spec`, resolving (and caching) on miss.
    fn graph_for(
        &mut self,
        spec: &QuerySpec,
        key: &str,
        tick: u64,
        bound: u64,
    ) -> Result<Arc<AnyGraph>, String> {
        if let Some(e) = self.graphs.get_mut(key) {
            e.tick = tick;
            self.stats.graph_hits += 1;
            return Ok(Arc::clone(&e.graph));
        }
        let g = Arc::new(spec.graph.resolve()?);
        self.stats.graph_misses += 1;
        self.graphs.insert(
            key.to_string(),
            GraphEntry {
                graph: Arc::clone(&g),
                bytes: g.memory_bytes(),
                tick,
            },
        );
        self.stats.graph_evictions +=
            evict_lru(&mut self.graphs, bound, Some(key), |e| e.tick, |e| e.bytes);
        Ok(g)
    }

    /// [`evict_lru`] over the report cache, counted in its stats.
    fn evict_reports(&mut self, bound: u64, pin: Option<&str>) {
        self.stats.report_evictions +=
            evict_lru(&mut self.reports, bound, pin, |e| e.tick, |e| e.bytes());
    }
}

/// The LRU pass both caches share: while the entries' summed `cost`
/// exceeds `bound`, removes the entry with the oldest `tick` (its last
/// use) and counts it. `pin` names the entry being served right now — it is never the
/// victim, so a bound sized for one entry actually holds that entry
/// instead of evicting what was just built. Returns the eviction count.
fn evict_lru<E>(
    map: &mut HashMap<String, E>,
    bound: u64,
    pin: Option<&str>,
    tick: impl Fn(&E) -> u64,
    cost: impl Fn(&E) -> usize,
) -> u64 {
    let mut evicted = 0;
    while map.values().map(|e| cost(e) as u64).sum::<u64>() > bound {
        // min_by_key is None when every remaining entry is pinned (or the
        // map is empty); break rather than panic the daemon (rule P1).
        let Some(victim) = map
            .iter()
            .filter(|(k, _)| pin != Some(k.as_str()))
            .min_by_key(|(_, e)| tick(e))
            .map(|(k, _)| k.clone())
        else {
            break;
        };
        map.remove(&victim);
        evicted += 1;
    }
    evicted
}

struct Server {
    inner: Mutex<Inner>,
    cache_bytes: u64,
    graph_cache_bytes: u64,
    /// `--persist DIR`, resolved; `None` keeps the cache memory-only.
    persist: Option<PathBuf>,
    /// `--delegate-trials` plus the dispatcher knobs; `None` computes
    /// everything in-process.
    delegation: Option<Delegation>,
}

impl Server {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic while serving one request must not wedge the daemon:
        // entry updates are transactional (remove → mutate → insert), so
        // recovering from poison is safe — a half-served entry was simply
        // never reinserted.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

// ---------------------------------------------------------------------------
// Request handling.

/// The prefix ledger as a [`waves::WaveExecutor`]: each window end is
/// answered per active group by [`ReportEntry::prefix`], which runs only
/// the tail past the group's greatest cached boundary. The first window
/// seeds an empty entry with [`ReportEntry::initialize`].
struct LedgerExecutor<'e, 'r> {
    entry: &'e mut ReportEntry,
    runner: &'r Runner<'r>,
    /// Trials actually dispatched (the `trials_executed` currency).
    ran: u64,
}

impl waves::WaveExecutor for LedgerExecutor<'_, '_> {
    type Error = String;

    fn window(
        &mut self,
        active: Option<&[usize]>,
        window: Range<usize>,
        _next: Option<Range<usize>>,
    ) -> Result<Vec<Group>, String> {
        if self.entry.ledger.groups.is_empty() {
            self.ran += self.entry.initialize(self.runner, window.end)?;
        }
        let groups = self.entry.ledger.groups.len();
        let ids = active.map_or_else(|| (0..groups).collect(), <[usize]>::to_vec);
        let mut out = Vec::with_capacity(ids.len());
        for idx in ids {
            let (cum, ran) = self.entry.prefix(self.runner, idx, window.end as u64)?;
            self.ran += ran;
            out.push(cum);
        }
        Ok(out)
    }
}

/// Computes one request's report against a checked-out cache entry: the
/// wave driver asks the ledger for each window end, so only trial ranges
/// the ledgers cannot answer run. Returns the report plus how many trials
/// actually ran (the `stats` verb's `trials_executed` currency). Runs
/// *outside* the global lock — the caller holds only this key's in-flight
/// gate.
fn compute_run(
    entry: &mut ReportEntry,
    runner: &Runner<'_>,
    spec: &QuerySpec,
    cap: usize,
) -> Result<(Report, u64), String> {
    let mut exec = LedgerExecutor {
        entry,
        runner,
        ran: 0,
    };
    let groups = waves::drive(spec.budget.trials_budget(), &mut exec)?;
    let report = Report {
        graph: exec.entry.ledger.graph.clone(),
        query: spec.query.clone(),
        budget: spec.budget.clone(),
        coverage: Coverage::full(cap as u64),
        groups,
    };
    Ok((report, exec.ran))
}

/// Serves one `run` request. It checks the spec as
/// [`QuerySpec::resolve`] does, in an order that keeps the graph cache:
/// the budget before any bookkeeping, then the graph from the cache, then
/// the query against that graph. Locking discipline (see the module
/// docs): the global lock covers only map bookkeeping; the computation
/// runs under this key's in-flight gate, so identical concurrent queries
/// serialize into one miss plus hits while distinct keys compute
/// concurrently.
fn serve_run(server: &Server, spec: &QuerySpec) -> Result<Report, String> {
    spec.budget.check()?;
    let cap = spec.budget.trials_budget().cap();
    let graph_key = spec.graph.cache_key();
    let report_key = spec.report_key();
    // Bookkeeping pass: stamp the tick, resolve (and cache) the graph,
    // and fetch-or-create this key's gate.
    let (graph, gate, tick) = {
        let mut inner = server.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let graph = inner.graph_for(spec, &graph_key, tick, server.graph_cache_bytes)?;
        let gate = Arc::clone(inner.inflight.entry(report_key.clone()).or_default());
        (graph, gate, tick)
    };
    if let Err(e) = spec.query.validate(graph.as_ref()) {
        let mut inner = server.lock();
        if Arc::strong_count(&gate) == 2 {
            inner.inflight.remove(&report_key);
        }
        return Err(e);
    }
    // The per-key gate: at most one request computes this entry at a
    // time. Poison recovery is safe for the same reason as the global
    // lock — a panicked holder left the entry checked out, not corrupt.
    let guard = gate.lock().unwrap_or_else(PoisonError::into_inner);
    // Transactional checkout: the entry leaves the map while it mutates
    // and is only reinserted on success, so a panic mid-compute costs a
    // cache entry, never corrupts one.
    let (existed, mut entry) = {
        let mut inner = server.lock();
        match inner.reports.remove(&report_key) {
            Some(entry) => (true, entry),
            None => (false, ReportEntry::new(spec, graph.as_ref())),
        }
    };
    let runner = Runner {
        graph: graph.as_ref(),
        delegation: server.delegation.as_ref(),
    };
    let outcome = compute_run(&mut entry, &runner, spec, cap);
    // Check-in pass. On a compute/delegation error the entry is
    // reinserted if it pre-existed — every boundary it holds is still
    // exact — and dropped if this was its first contact, so the next
    // request classifies as a miss again.
    let persist_doc = {
        let mut inner = server.lock();
        let persist_doc = match &outcome {
            Ok((_, ran)) => {
                entry.tick = tick;
                let doc = match (&server.persist, *ran > 0) {
                    (Some(dir), true) => {
                        Some((dir.join(entry.ledger.file_name()), entry.ledger.to_json()))
                    }
                    _ => None,
                };
                inner.reports.insert(report_key.clone(), entry);
                inner.evict_reports(server.cache_bytes, Some(&report_key));
                inner.stats.trials_executed += ran;
                if !existed {
                    inner.stats.misses += 1;
                } else if *ran == 0 {
                    inner.stats.hits += 1;
                } else {
                    inner.stats.extensions += 1;
                }
                doc
            }
            Err(_) => {
                if existed {
                    inner.reports.insert(report_key.clone(), entry);
                }
                None
            }
        };
        // Drop the gate once no other request holds it (clones are only
        // taken under the global lock, which we hold, so the count is
        // stable): 2 = the map's reference plus ours.
        if Arc::strong_count(&gate) == 2 {
            inner.inflight.remove(&report_key);
        }
        persist_doc
    };
    // Write the ledger outside the global lock but still under the gate,
    // so per-key files are written in cache-update order. A write failure
    // costs durability, never the response.
    if let Some((path, text)) = persist_doc {
        persist_write(&path, &text);
    }
    drop(guard);
    outcome.map(|(report, _)| report)
}

/// Atomic-enough ledger write: same-directory tmp file + rename, so a
/// crash mid-write leaves the previous generation readable and boot
/// never sees a half-written document.
fn persist_write(path: &Path, text: &str) {
    let tmp = path.with_extension("tmp");
    let res = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = res {
        eprintln!("mrw serve: failed to persist {}: {e}", path.display());
    }
}

fn stats_frame(inner: &Inner) -> String {
    let s = &inner.stats;
    let report_bytes: u64 = inner.reports.values().map(|e| e.bytes() as u64).sum();
    let graph_bytes: u64 = inner.graphs.values().map(|e| e.bytes as u64).sum();
    Value::obj(vec![
        ("schema", Value::str("mrw-serve-stats-v1")),
        ("requests", Value::num(s.requests)),
        ("hits", Value::num(s.hits)),
        ("misses", Value::num(s.misses)),
        ("extensions", Value::num(s.extensions)),
        ("errors", Value::num(s.errors)),
        ("trials_executed", Value::num(s.trials_executed)),
        (
            "report_cache",
            Value::obj(vec![
                ("entries", Value::num(inner.reports.len())),
                ("bytes", Value::num(report_bytes)),
                ("evictions", Value::num(s.report_evictions)),
            ]),
        ),
        (
            "graph_cache",
            Value::obj(vec![
                ("entries", Value::num(inner.graphs.len())),
                ("bytes", Value::num(graph_bytes)),
                ("hits", Value::num(s.graph_hits)),
                ("misses", Value::num(s.graph_misses)),
                ("evictions", Value::num(s.graph_evictions)),
            ]),
        ),
    ])
    .render()
}

/// Dispatches one parsed request frame. Returns the response body and
/// whether the daemon should shut down after sending it.
fn handle_request(server: &Server, text: &str) -> (String, bool) {
    server.lock().stats.requests += 1;
    let fail = |msg: String| {
        server.lock().stats.errors += 1;
        (error_frame(&msg), false)
    };
    let v = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return fail(format!("bad request: {e}")),
    };
    let verb = match v.req("verb").map(|verb| verb.as_str()) {
        Ok(Some(verb)) => verb.to_string(),
        Ok(None) => return fail("verb must be a string".into()),
        Err(e) => return fail(format!("bad request: {e}")),
    };
    match verb.as_str() {
        "ping" => (ok_frame("pong"), false),
        "shutdown" => (ok_frame("shutting down"), true),
        "stats" => (stats_frame(&server.lock()), false),
        "run" => {
            let spec = match v.req("spec") {
                Ok(spec) => spec,
                Err(e) => return fail(format!("bad request: {e}")),
            };
            // Round-trip through the canonical renderer: the daemon
            // accepts exactly the spec-file schema `mrw run` reads.
            let spec = match QuerySpec::from_json(&spec.render()) {
                Ok(spec) => spec,
                Err(e) => return fail(format!("bad spec: {e}")),
            };
            match serve_run(server, &spec) {
                Ok(report) => (report.to_json(), false),
                Err(e) => fail(e),
            }
        }
        other => fail(format!(
            "unknown verb '{other}' (run | stats | ping | shutdown)"
        )),
    }
}

/// One connection's request loop: read a frame, answer it, repeat until
/// the peer hangs up. Malformed frames answer an error and keep the
/// loop; a panic while serving answers an error and keeps the loop (the
/// transactional cache update makes that safe); only oversize frames and
/// transport errors drop the connection.
fn handle_conn(conn: Conn, server: Arc<Server>) {
    let (reader, mut writer) = match conn.split() {
        Ok(pair) => pair,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(FrameRead::Frame(frame)) => frame,
            Ok(FrameRead::Eof) | Err(_) => return,
            Ok(FrameRead::Oversize) => {
                let _ = write_frame(
                    &mut writer,
                    &error_frame("request frame exceeds the 4 MiB cap"),
                );
                return;
            }
        };
        let (body, shutdown) = match String::from_utf8(frame) {
            Err(_) => {
                server.lock().stats.errors += 1;
                (error_frame("request is not valid UTF-8"), false)
            }
            Ok(text) => match catch_unwind(AssertUnwindSafe(|| handle_request(&server, &text))) {
                Ok(response) => response,
                Err(_) => {
                    server.lock().stats.errors += 1;
                    (
                        error_frame("internal error while serving the request"),
                        false,
                    )
                }
            },
        };
        if write_frame(&mut writer, &body).is_err() {
            return;
        }
        if shutdown {
            SHUTDOWN.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// Loads every `ledger-*.json` under `dir` into the report cache.
/// Anything that fails validation — tampered payload, truncation,
/// schema skew, unreadable file — is skipped with a warning on stderr,
/// and so is a valid ledger that is not a cache entry (a fanout
/// checkpoint, with its precision rule, frontier or failure log); the
/// daemon always boots. Files load in sorted name order with one
/// tick each, so boot-time LRU state is deterministic.
fn warm_start(server: &Server, dir: &Path) {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("mrw serve: cannot read --persist {}: {e}", dir.display());
            return;
        }
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("ledger-") && n.ends_with(".json"))
        .collect();
    names.sort();
    let mut loaded = 0usize;
    let mut inner = server.lock();
    for name in names {
        let path = dir.join(&name);
        let ledger = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Ledger::from_json(&text))
            .and_then(|ledger| {
                ledger
                    .check_cache_entry()
                    .map(|()| ledger)
                    .map_err(|e| format!("not a cache entry: {e}"))
            });
        match ledger {
            Ok(ledger) => {
                inner.tick += 1;
                let tick = inner.tick;
                inner
                    .reports
                    .insert(ledger.report_key(), ReportEntry { ledger, tick });
                loaded += 1;
            }
            Err(e) => eprintln!("mrw serve: skipping ledger {}: {e}", path.display()),
        }
    }
    inner.evict_reports(server.cache_bytes, None);
    if loaded > 0 {
        eprintln!(
            "mrw serve: warm-started {loaded} ledger(s) from {}",
            dir.display()
        );
    }
}

/// `mrw serve --listen <addr|unix-path>`: bind, warm-start from
/// `--persist` if given, print the ready line, and serve until
/// SIGTERM/SIGINT or a `shutdown` request.
pub fn run_serve(opts: &Options) -> Result<(), String> {
    let addr = opts
        .listen
        .as_deref()
        .ok_or("mrw serve needs --listen <host:port | unix-path>")?;
    let persist = opts.persist.as_ref().map(PathBuf::from);
    if let Some(dir) = &persist {
        std::fs::create_dir_all(dir).map_err(|e| format!("--persist {}: {e}", dir.display()))?;
    }
    let delegation = opts.delegate_trials.map(|threshold| Delegation {
        threshold,
        pool: DispatchConfig {
            workers: opts.workers.unwrap_or_else(mrw_par::available_threads),
            retries: opts.retries.unwrap_or(DEFAULT_RETRIES),
            threads: opts.threads,
            deadline_floor: Duration::from_millis(opts.deadline_ms.unwrap_or(DEFAULT_DEADLINE_MS)),
            jitter_seed: 0,
        },
    });
    let server = Arc::new(Server {
        inner: Mutex::new(Inner::default()),
        cache_bytes: opts.cache_bytes.unwrap_or(DEFAULT_CACHE_BYTES),
        graph_cache_bytes: opts.graph_cache_bytes.unwrap_or(DEFAULT_GRAPH_CACHE_BYTES),
        persist,
        delegation,
    });
    if let Some(dir) = server.persist.clone() {
        warm_start(&server, &dir);
    }
    let (listener, local) = Listener::bind(addr)?;
    listener
        .set_nonblocking()
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    sig::install();
    // The ready line the spawn/ready harness waits for (and where a TCP
    // port 0 reports the kernel-assigned port).
    println!("mrw-serve listening on {local}");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    while !SHUTDOWN.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(conn) => {
                let server = Arc::clone(&server);
                std::thread::spawn(move || handle_conn(conn, server));
            }
            Err(e) => {
                // Anything but an idle listener (a client holding every
                // free descriptor, a connection reset before accept) is
                // logged and waited out: one client must not stop the
                // daemon.
                if e.kind() != std::io::ErrorKind::WouldBlock {
                    eprintln!("mrw serve: accept: {e}");
                }
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The line client.

/// `mrw serve-ctl <run SPEC.json | stats | ping | shutdown> --connect
/// <addr>`: send one request, print the response body — for `run`,
/// exactly the bytes `mrw run SPEC.json --json` would print, so shell
/// pipelines can `diff` the daemon against the oracle.
pub fn run_serve_ctl(opts: &Options) -> Result<(), String> {
    let addr = opts
        .connect
        .as_deref()
        .ok_or("mrw serve-ctl needs --connect <host:port | unix-path>")?;
    let (verb, rest) = opts
        .files
        .split_first()
        .ok_or("mrw serve-ctl needs a verb: run SPEC.json | stats | ping | shutdown")?;
    let request = match verb.as_str() {
        "run" => {
            let [path] = rest else {
                return Err("mrw serve-ctl run takes exactly one spec file".into());
            };
            // The spec `mrw run spec.json` would run, overrides included,
            // so `serve-ctl run spec.json --trials N` asks the daemon for
            // exactly what `mrw run spec.json --trials N` computes.
            let spec = crate::read_spec(path, opts)?;
            let spec = json::parse(&spec.to_json())
                .map_err(|e| format!("internal: canonical spec failed to re-parse: {e}"))?;
            Value::obj(vec![("verb", Value::str("run")), ("spec", spec)])
        }
        "stats" | "ping" | "shutdown" => {
            if !rest.is_empty() {
                return Err(format!("mrw serve-ctl {verb} takes no further arguments"));
            }
            Value::obj(vec![("verb", Value::str(verb))])
        }
        other => {
            return Err(format!(
                "unknown serve-ctl verb '{other}' (run | stats | ping | shutdown)"
            ))
        }
    };
    let (reader, mut writer) = Conn::connect(addr)?
        .split()
        .map_err(|e| format!("split: {e}"))?;
    write_frame(&mut writer, &request.render()).map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(reader);
    let body = match read_frame(&mut reader).map_err(|e| format!("receive: {e}"))? {
        FrameRead::Frame(frame) => {
            String::from_utf8(frame).map_err(|_| "response is not valid UTF-8".to_string())?
        }
        FrameRead::Eof => return Err("daemon closed the connection without responding".into()),
        FrameRead::Oversize => return Err("response frame exceeds the 4 MiB cap".into()),
    };
    // Error frames surface as CLI errors; everything else prints as the
    // exact body bytes.
    if let Ok(v) = json::parse(&body) {
        if v.get("schema").and_then(Value::as_str) == Some("mrw-serve-error-v1") {
            let msg = v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unknown daemon error");
            return Err(format!("daemon: {msg}"));
        }
    }
    print!("{body}");
    Ok(())
}
