//! Hand-rolled argument parsing for the `mrw` binary — small enough that a
//! dependency would be heavier than the code.

use std::str::FromStr;

/// Usage text printed on `help` or a parse error.
pub const USAGE: &str = "usage: mrw <experiment> [options]

experiments:
  table1          Table 1: all seven graph families
  clique          Lemma 12: coupon-collector linear speed-up
  cycle           Theorem 6: S^k = Theta(log k) on the ring
  barbell         Theorems 7/26: exponential speed-up from the center
  torus           Theorems 8/24: speed-up spectrum on the 2-d torus
  expander        Theorems 3/18: linear speed-up up to k ~ n
  matthews        Theorem 1: the h*H_n sandwich
  baby-matthews   Theorem 13: C^k <= (e/k)*h_max*H_n
  mixing          Theorem 9: S^k vs k/(t_m ln n)
  gap             Theorem 5: speed-up from the gap g = C/h_max
  concentration   Theorem 17 (Aldous): cover-time concentration
  stationary      Sec 1.1: k walks from stationary starts vs Broder et al.
  conjectures     Sec 8: Conjecture 10/11 scan over a graph zoo
  lemma16         Lemma 16: compositional coverage bound on a (k, l) grid
  lemma19         Lemma 19 / Corollary 20: expander hit probabilities
  prop23          Proposition 23: exact binomial tail sandwich
  barbell-events  Theorem 26: proof events E1/E2/E3 on the barbell
  exact           exact DP vs Monte-Carlo validation zoo
  projection      Theorem 24: projection coupling on the torus
  hunting         Sec 1: k hunters vs prey - catch-time vs cover-time speed-up
  smallworld      Sec 8: Watts-Strogatz beta-sweep, Theorem 6 -> Theorem 18
  figure1         Figure 1: DOT rendering of the barbell B_13
  estimate        one C^k estimate on a chosen family (see estimate options)
  run SPEC.json   execute a serialized query spec (any estimate kind)
  shard SPEC.json --shard I/S
                  run one shard of a spec's trial range, emit a JSON report
  merge A.json B.json ...
                  losslessly merge shard reports (byte-identical to the
                  unsharded run for fixed budgets; certifies the achieved
                  half-width for adaptive ones; one file round-trips)
  fanout SPEC.json --workers N
                  run a spec across N local worker processes (spawned
                  mrw shard children; work-stealing chunk scheduler with
                  deadline-killed hangs, backoff-retried failures, and
                  validated output) and merge - byte-identical to
                  mrw run, fixed or adaptive budgets
  resume CKPT.json
                  finish an interrupted fanout from its checkpoint (an
                  mrw-ledger-v1 file): windows it holds cost nothing and
                  only the still-missing trial ranges run - completes
                  byte-identically to an unfailed mrw run
  serve --listen ADDR
                  resident estimate daemon with an incremental report
                  cache: repeated, extending, and precision-upgrading
                  queries run only the missing trial ranges, and every
                  response is byte-identical to a cold mrw run
  serve-ctl <run SPEC.json | stats | ping | shutdown> --connect ADDR
                  line client for mrw serve; 'run' prints exactly the
                  bytes 'mrw run SPEC.json --json' would print
  all             run everything

options:
  --quick         CI-scale sizes and trial counts (default: paper scale)
  --trials N      override Monte-Carlo trials per estimate
  --seed S        override the master seed
  --threads T     override worker-thread count (1..=1024)
  --batch         force the engine's batched stepping sweep at any k
  --no-batch      force the scalar stepping loop (legacy seeded streams)
                  (default: auto - batch k >= 64 round-synchronous walks;
                  either flag reaches every trial of every query kind
                  and of every experiment verb)
  --format F      output format: ascii (default) | markdown | csv
  --json          emit the canonical JSON report schema instead of a table
                  (estimate / run; the same schema mrw shard emits)

sharding (mrw shard only; every other verb rejects these):
  --shard I/S     run shard I of S (trials [I*N/S, (I+1)*N/S) of an
                  N-trial budget); reports merge with 'mrw merge'
  --range A..B    run the explicit trial range [A, B) instead of a
                  balanced --shard slice (the form mrw fanout dispatches)
  --groups I,J    run only these group indices; the others stay in the
                  report with zero trials (fanout's adaptive waves)

fanout / resume (multi-process scale-out):
  --workers N     worker processes, 1..=1024 (default: available threads)
  --retries R     per-range retry budget for failed/hung/corrupt
                  workers, with exponential backoff (default 2)
  --deadline-ms D minimum hang deadline; a chunk running past
                  max(D, 8x the EWMA chunk latency) is SIGKILLed and
                  requeued (default 1000)
  --partial-ok    on retry exhaustion, emit the merged partial report
                  and exit 0 instead of aborting (a checkpoint is
                  written either way)
  --checkpoint P  where to write the resume checkpoint, an
                  mrw-ledger-v1 file, on failure (default:
                  mrw-checkpoint-<spec-hash>.json in the temp dir;
                  resume reuses its input file)

serve / serve-ctl (resident estimate service):
  --listen ADDR   where the daemon listens: host:port (TCP; port 0
                  picks a free port, reported on the ready line) or a
                  unix socket path (anything without a ':')
  --connect ADDR  the daemon address serve-ctl talks to (same forms)
  --cache-bytes B report-cache bound in bytes; least-recently-used
                  entries are evicted past it (default 64 MiB) - an
                  evicted entry recomputes, never changes bytes
  --graph-cache-bytes B
                  resident-graph cache bound in bytes (default 256 MiB)
  --persist DIR   write each report-cache entry to DIR as a canonical
                  mrw-ledger-v1 file and warm-start the cache from DIR
                  on boot (tampered/corrupt files are skipped with a
                  warning, never served)
  --delegate-trials T
                  misses/extensions that need >= T new trials run
                  through the fanout work-stealing dispatcher in child
                  mrw shard processes instead of in-process (same bytes
                  either way; default: always in-process)

hunting options:
  --prey P        the moving prey's strategy: stationary | uniform
                  (default) | adversarial (greedy evader)
  --k-ladder KS   comma-separated hunter counts, e.g. 1,4,16

adaptive stopping (any estimator-driven experiment):
  --precision H      stop each estimate once the CI half-width <= H rounds
  --rel-precision R  stop once the half-width <= R * mean (e.g. 0.05 = 5%)
  --confidence L     CI level for the stopping rule (default 0.95)
  --min-trials N     minimum trials before the rule may fire (default 32)
  --max-trials N     hard trial cap for adaptive runs (default 4096)
                     (--precision / --rel-precision are mutually exclusive;
                      without one of them, estimates run a fixed --trials)

estimate options:
  --family F      graph family: cycle | path | torus | hypercube | clique |
                  clique-loops | barbell | circulant (default: cycle)
  --n N           graph size parameter: vertices (default 64); the side for
                  torus (default 16); the dimension, 1..=30, for hypercube
                  (default 6); the bell size for barbell (default 65)
  --k K           number of parallel walks (default 4)
  --start V       start vertex (default 0)
  --jumps A,B,..  circulant jump set (required for --family circulant)
  --backend B     graph storage: auto (default) | csr | implicit
                  auto materializes CSR arrays below a memory threshold
                  and switches to O(1)-state arithmetic neighborhoods
                  (cycle/torus/hypercube/circulant) above it; reports are
                  byte-identical either way";

/// Output format for tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Plain ASCII columns.
    #[default]
    Ascii,
    /// GitHub-flavoured Markdown.
    Markdown,
    /// RFC-4180-ish CSV.
    Csv,
}

/// Parsed command-line options.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// The experiment name (first positional argument).
    pub command: String,
    /// `--quick` flag.
    pub quick: bool,
    /// `--trials N`.
    pub trials: Option<usize>,
    /// `--seed S`.
    pub seed: Option<u64>,
    /// `--threads T`.
    pub threads: Option<usize>,
    /// `--batch` (`Some(true)`) / `--no-batch` (`Some(false)`); `None`
    /// keeps the engine's automatic selection. When both are passed, the
    /// last one wins (conventional override order).
    pub batch: Option<bool>,
    /// `--precision H`: absolute CI half-width target (rounds).
    pub precision: Option<f64>,
    /// `--rel-precision R`: relative CI half-width target.
    pub rel_precision: Option<f64>,
    /// `--confidence L` for the adaptive stopping rule.
    pub confidence: Option<f64>,
    /// `--min-trials N`: adaptive minimum-sample floor.
    pub min_trials: Option<usize>,
    /// `--max-trials N`: adaptive hard trial cap.
    pub max_trials: Option<usize>,
    /// `--family F` (the `estimate` verb's graph family).
    pub family: Option<String>,
    /// `--n N` (the `estimate` verb's size parameter).
    pub n: Option<usize>,
    /// `--k K` (the `estimate` verb's walk count).
    pub k: Option<usize>,
    /// `--start V` (the `estimate` verb's start vertex).
    pub start: Option<u32>,
    /// `--jumps A,B,…` (the circulant family's jump set).
    pub jumps: Option<Vec<usize>>,
    /// `--backend B`: graph storage override (auto | csr | implicit).
    pub backend: Option<mrw_core::BackendChoice>,
    /// `--format F`.
    pub format: Format,
    /// `--json`: emit the canonical report schema instead of a table.
    pub json: bool,
    /// `--shard I/S` for the `shard` verb.
    pub shard: Option<mrw_core::Shard>,
    /// `--range A..B`: an explicit trial range for the `shard` verb (the
    /// form `mrw fanout` dispatches).
    pub range: Option<std::ops::Range<usize>>,
    /// `--groups I,J,…`: group indices the `shard` verb should execute.
    pub groups: Option<Vec<usize>>,
    /// `--workers N` (the `fanout` verb's concurrent process count).
    pub workers: Option<usize>,
    /// `--retries R` (the `fanout` verb's per-range retry budget).
    pub retries: Option<usize>,
    /// `--deadline-ms D`: the fanout hang-deadline floor.
    pub deadline_ms: Option<u64>,
    /// `--partial-ok`: accept a merged partial report on retry
    /// exhaustion instead of aborting.
    pub partial_ok: bool,
    /// `--checkpoint PATH`: where fanout writes its resume checkpoint.
    pub checkpoint: Option<String>,
    /// `--listen ADDR` (the `serve` verb's bind address: `host:port`
    /// for TCP, a filesystem path for a Unix socket).
    pub listen: Option<String>,
    /// `--connect ADDR` (the `serve-ctl` verb's daemon address).
    pub connect: Option<String>,
    /// `--cache-bytes B`: the serve report-cache LRU bound.
    pub cache_bytes: Option<u64>,
    /// `--graph-cache-bytes B`: the serve graph-cache LRU bound.
    pub graph_cache_bytes: Option<u64>,
    /// `--persist DIR`: the serve daemon's warm-start ledger directory.
    pub persist: Option<String>,
    /// `--delegate-trials T`: misses needing at least this many new
    /// trials are delegated to the fanout dispatcher by the daemon.
    pub delegate_trials: Option<u64>,
    /// `--prey P` (the `hunting` verb's moving-prey strategy).
    pub prey: Option<mrw_core::PreyStrategy>,
    /// `--k-ladder KS` (the `hunting` verb's hunter counts).
    pub k_ladder: Option<Vec<usize>>,
    /// Positional file arguments (the `run`/`shard` spec, `merge` inputs).
    pub files: Vec<String>,
}

/// The most worker processes (`--workers`) or threads (`--threads`) a
/// command line may ask for: each one is an OS process or thread.
const MAX_PARALLELISM: usize = 1024;

/// The argument stream behind [`Options::parse`]: every argument is read
/// here, and the value shapes flags share (a number, a count ≥ 1, a comma
/// list, a precision target) are parsed and checked once, so each of
/// their error strings is written once.
struct Args<I>(I);

impl<I: Iterator<Item = String>> Args<I> {
    /// The next argument: the command, a flag or a positional file.
    fn arg(&mut self) -> Option<String> {
        self.0.next()
    }

    /// The value after `flag`, or "`flag` needs `noun`".
    fn value(&mut self, flag: &str, noun: &str) -> Result<String, String> {
        self.arg().ok_or_else(|| format!("{flag} needs {noun}"))
    }

    /// A number after `flag`.
    fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag, "a value")?;
        v.parse().map_err(|_| format!("bad {flag} '{v}'"))
    }

    /// A count ≥ 1 after `flag`.
    fn count<T: FromStr + PartialOrd + From<u8>>(&mut self, flag: &str) -> Result<T, String> {
        let c: T = self.number(flag)?;
        if c < T::from(1) {
            return Err(format!("{flag} must be >= 1"));
        }
        Ok(c)
    }

    /// A process or thread count in `1..=MAX_PARALLELISM` after `flag`.
    fn parallelism(&mut self, flag: &str) -> Result<usize, String> {
        let c = self.count(flag)?;
        if c > MAX_PARALLELISM {
            return Err(format!("{flag} must be <= {MAX_PARALLELISM}"));
        }
        Ok(c)
    }

    /// A comma list of integers ≥ `min` after `flag`.
    fn list(&mut self, flag: &str, noun: &str, min: usize) -> Result<Vec<usize>, String> {
        let v = self.value(flag, noun)?;
        v.split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&x| x >= min)
                    .ok_or_else(|| format!("bad {flag} entry '{s}'"))
            })
            .collect()
    }

    /// A positive, finite precision target after `flag`.
    fn target(&mut self, flag: &str) -> Result<f64, String> {
        let x: f64 = self.number(flag)?;
        if !(x > 0.0 && x.is_finite()) {
            return Err(format!("{flag} must be a positive number"));
        }
        Ok(x)
    }
}

impl Options {
    /// Parses an argument iterator (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
        let mut args = Args(args.into_iter());
        let command = args.arg().ok_or("missing experiment name")?;
        let mut opts = Options {
            command,
            ..Options::default()
        };
        while let Some(arg) = args.arg() {
            let f = arg.as_str();
            match f {
                "--json" => opts.json = true,
                "--quick" => opts.quick = true,
                "--batch" => opts.batch = Some(true),
                "--no-batch" => opts.batch = Some(false),
                "--partial-ok" => opts.partial_ok = true,
                "--shard" => {
                    let v = args.value(f, "a value (e.g. 0/2)")?;
                    opts.shard = Some(mrw_core::Shard::parse(&v)?);
                }
                "--range" => {
                    let v = args.value(f, "a value (e.g. 0..256)")?;
                    let (a, b) = v
                        .split_once("..")
                        .ok_or_else(|| format!("bad range '{v}' (expected A..B)"))?;
                    let lo: usize = a.parse().map_err(|_| format!("bad range start '{a}'"))?;
                    let hi: usize = b.parse().map_err(|_| format!("bad range end '{b}'"))?;
                    if lo >= hi {
                        return Err(format!("empty range {lo}..{hi}"));
                    }
                    opts.range = Some(lo..hi);
                }
                "--groups" => opts.groups = Some(args.list(f, "a value (e.g. 0,2)", 0)?),
                "--workers" => opts.workers = Some(args.parallelism(f)?),
                "--retries" => opts.retries = Some(args.number(f)?),
                "--deadline-ms" => opts.deadline_ms = Some(args.count(f)?),
                "--checkpoint" => opts.checkpoint = Some(args.value(f, "a path")?),
                "--listen" => opts.listen = Some(args.value(f, "an address")?),
                "--connect" => opts.connect = Some(args.value(f, "an address")?),
                "--cache-bytes" => opts.cache_bytes = Some(args.number(f)?),
                "--graph-cache-bytes" => opts.graph_cache_bytes = Some(args.number(f)?),
                "--persist" => opts.persist = Some(args.value(f, "a directory")?),
                "--delegate-trials" => opts.delegate_trials = Some(args.count(f)?),
                "--prey" => {
                    let v = args.value(f, "a value")?;
                    opts.prey = Some(mrw_core::query::prey_from_str(&v)?);
                }
                "--k-ladder" => opts.k_ladder = Some(args.list(f, "a value", 1)?),
                "--trials" => opts.trials = Some(args.count(f)?),
                "--seed" => opts.seed = Some(args.number(f)?),
                "--threads" => opts.threads = Some(args.parallelism(f)?),
                "--precision" => opts.precision = Some(args.target(f)?),
                "--rel-precision" => opts.rel_precision = Some(args.target(f)?),
                "--confidence" => {
                    let l: f64 = args.number(f)?;
                    if !(l > 0.0 && l < 1.0) {
                        return Err("--confidence must be in (0, 1)".into());
                    }
                    opts.confidence = Some(l);
                }
                "--min-trials" => opts.min_trials = Some(args.number(f)?),
                "--max-trials" => opts.max_trials = Some(args.count(f)?),
                "--family" => opts.family = Some(args.value(f, "a value")?),
                "--n" => opts.n = Some(args.number(f)?),
                "--k" => opts.k = Some(args.count(f)?),
                "--start" => opts.start = Some(args.number(f)?),
                "--jumps" => opts.jumps = Some(args.list(f, "a value (e.g. 1,5)", 1)?),
                "--backend" => {
                    let v = args.value(f, "a value")?;
                    opts.backend = Some(mrw_core::query::backend_from_str(&v)?);
                }
                "--format" => {
                    opts.format = match args.value(f, "a value")?.as_str() {
                        "ascii" => Format::Ascii,
                        "markdown" | "md" => Format::Markdown,
                        "csv" => Format::Csv,
                        other => return Err(format!("unknown format '{other}'")),
                    };
                }
                other if other.starts_with("--") => {
                    return Err(format!("unknown option '{other}'"))
                }
                // Positional arguments: the run/shard spec file, merge
                // inputs.
                _ => opts.files.push(arg),
            }
        }
        if opts.precision.is_some() && opts.rel_precision.is_some() {
            return Err("--precision and --rel-precision are mutually exclusive".into());
        }
        if opts.shard.is_some() && opts.range.is_some() {
            return Err("--shard and --range are mutually exclusive".into());
        }
        Ok(opts)
    }

    /// The adaptive stopping rule requested on the command line, if any:
    /// `--precision`/`--rel-precision` pick the target, with
    /// `--confidence`, `--min-trials`, and `--max-trials` refining it.
    pub fn precision_rule(&self) -> Result<Option<mrw_stats::Precision>, String> {
        let mut rule = match (self.precision, self.rel_precision) {
            (Some(h), None) => mrw_stats::Precision::absolute(h),
            (None, Some(r)) => mrw_stats::Precision::relative(r),
            (None, None) => {
                if self.confidence.is_some()
                    || self.min_trials.is_some()
                    || self.max_trials.is_some()
                {
                    return Err(
                        "--confidence/--min-trials/--max-trials need --precision or \
                                --rel-precision"
                            .into(),
                    );
                }
                return Ok(None);
            }
            (Some(_), Some(_)) => unreachable!("rejected at parse time"),
        };
        if let Some(l) = self.confidence {
            rule = rule.with_confidence(l);
        }
        if let Some(m) = self.min_trials {
            rule = rule.with_min_trials(m);
        }
        if let Some(m) = self.max_trials {
            if m < rule.min_trials {
                return Err(format!(
                    "--max-trials {m} is below the minimum-sample floor {}",
                    rule.min_trials
                ));
            }
            rule = rule.with_max_trials(m);
        }
        Ok(Some(rule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn minimal() {
        let o = parse(&["cycle"]).unwrap();
        assert_eq!(o.command, "cycle");
        assert!(!o.quick);
        assert_eq!(o.format, Format::Ascii);
        assert_eq!(o.trials, None);
        assert_eq!(o.batch, None);
    }

    #[test]
    fn batch_flags() {
        assert_eq!(parse(&["x", "--batch"]).unwrap().batch, Some(true));
        assert_eq!(parse(&["x", "--no-batch"]).unwrap().batch, Some(false));
        // Last one wins.
        assert_eq!(
            parse(&["x", "--batch", "--no-batch"]).unwrap().batch,
            Some(false)
        );
    }

    #[test]
    fn all_options() {
        let o = parse(&[
            "table1",
            "--quick",
            "--trials",
            "17",
            "--seed",
            "99",
            "--threads",
            "3",
            "--format",
            "csv",
        ])
        .unwrap();
        assert!(o.quick);
        assert_eq!(o.trials, Some(17));
        assert_eq!(o.seed, Some(99));
        assert_eq!(o.threads, Some(3));
        assert_eq!(o.format, Format::Csv);
    }

    #[test]
    fn markdown_alias() {
        assert_eq!(
            parse(&["x", "--format", "md"]).unwrap().format,
            Format::Markdown
        );
    }

    #[test]
    fn errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["x", "--trials"]).is_err());
        assert!(parse(&["x", "--trials", "abc"]).is_err());
        assert!(parse(&["x", "--threads", "0"]).is_err());
        assert!(parse(&["x", "--format", "xml"]).is_err());
        assert!(parse(&["x", "--bogus"]).is_err());
    }

    #[test]
    fn precision_flags_build_a_rule() {
        let o = parse(&[
            "estimate",
            "--rel-precision",
            "0.05",
            "--confidence",
            "0.99",
            "--min-trials",
            "16",
            "--max-trials",
            "512",
        ])
        .unwrap();
        let rule = o.precision_rule().unwrap().expect("adaptive");
        assert_eq!(
            rule.target,
            mrw_stats::precision::PrecisionTarget::Relative(0.05)
        );
        assert_eq!(rule.confidence, 0.99);
        assert_eq!(rule.min_trials, 16);
        assert_eq!(rule.max_trials, 512);
    }

    #[test]
    fn absolute_precision_flag() {
        let o = parse(&["estimate", "--precision", "2.5"]).unwrap();
        let rule = o.precision_rule().unwrap().expect("adaptive");
        assert_eq!(
            rule.target,
            mrw_stats::precision::PrecisionTarget::Absolute(2.5)
        );
        assert_eq!(rule.confidence, 0.95); // default
    }

    #[test]
    fn no_precision_flags_means_fixed() {
        let o = parse(&["cycle", "--trials", "32"]).unwrap();
        assert!(o.precision_rule().unwrap().is_none());
    }

    #[test]
    fn precision_flag_errors() {
        // Mutually exclusive targets.
        assert!(parse(&["x", "--precision", "1", "--rel-precision", "0.1"]).is_err());
        // Refinements without a target.
        let o = parse(&["x", "--confidence", "0.9"]).unwrap();
        assert!(o.precision_rule().is_err());
        let o = parse(&["x", "--max-trials", "10"]).unwrap();
        assert!(
            o.precision_rule().is_err(),
            "--max-trials alone must not be silently ignored"
        );
        // Bad values.
        assert!(parse(&["x", "--precision", "-1"]).is_err());
        assert!(parse(&["x", "--rel-precision", "0"]).is_err());
        assert!(parse(&["x", "--confidence", "1.5"]).is_err());
        assert!(parse(&["x", "--max-trials", "0"]).is_err());
        // Cap below floor.
        let o = parse(&["x", "--rel-precision", "0.1", "--max-trials", "4"]).unwrap();
        assert!(o.precision_rule().is_err());
    }

    #[test]
    fn shard_json_and_positional_files() {
        let o = parse(&["shard", "spec.json", "--shard", "0/2", "--json"]).unwrap();
        assert_eq!(o.files, vec!["spec.json".to_string()]);
        assert_eq!(o.shard, Some(mrw_core::Shard::new(0, 2)));
        assert!(o.json);
        let o = parse(&["merge", "a.json", "b.json", "c.json"]).unwrap();
        assert_eq!(o.files.len(), 3);
        assert!(parse(&["shard", "s.json", "--shard", "2/2"]).is_err());
        assert!(parse(&["shard", "s.json", "--shard"]).is_err());
    }

    #[test]
    fn range_and_groups_flags() {
        let o = parse(&["shard", "s.json", "--range", "16..40", "--groups", "0,2"]).unwrap();
        assert_eq!(o.range, Some(16..40));
        assert_eq!(o.groups, Some(vec![0, 2]));
        assert!(parse(&["shard", "s.json", "--range", "5..5"]).is_err());
        assert!(parse(&["shard", "s.json", "--range", "7"]).is_err());
        assert!(parse(&["shard", "s.json", "--range", "a..b"]).is_err());
        assert!(parse(&["shard", "s.json", "--groups", "1,x"]).is_err());
        // --shard and --range never combine.
        assert!(parse(&["shard", "s.json", "--shard", "0/2", "--range", "0..4"]).is_err());
    }

    #[test]
    fn fanout_flags() {
        let o = parse(&["fanout", "s.json", "--workers", "4", "--retries", "0"]).unwrap();
        assert_eq!(o.workers, Some(4));
        assert_eq!(o.retries, Some(0));
        assert!(parse(&["fanout", "s.json", "--workers", "0"]).is_err());
        assert!(parse(&["fanout", "s.json", "--retries", "x"]).is_err());
    }

    /// Every worker is an OS process and every thread an OS thread, so
    /// both counts stop at `MAX_PARALLELISM`, and no worker count can
    /// overflow the fanout chunk arithmetic.
    #[test]
    fn workers_and_threads_stop_at_the_parallelism_ceiling() {
        for flag in ["--workers", "--threads"] {
            let o = parse(&["fanout", "s.json", flag, "1024"]).unwrap();
            assert_eq!(o.workers.or(o.threads), Some(1024));
            for too_many in ["1025", "4611686018427387904"] {
                assert_eq!(
                    parse(&["fanout", "s.json", flag, too_many]).unwrap_err(),
                    format!("{flag} must be <= 1024")
                );
            }
        }
    }

    #[test]
    fn fault_tolerance_flags() {
        let o = parse(&[
            "fanout",
            "s.json",
            "--deadline-ms",
            "250",
            "--partial-ok",
            "--checkpoint",
            "/tmp/ck.json",
        ])
        .unwrap();
        assert_eq!(o.deadline_ms, Some(250));
        assert!(o.partial_ok);
        assert_eq!(o.checkpoint.as_deref(), Some("/tmp/ck.json"));
        // Defaults stay off.
        let o = parse(&["fanout", "s.json"]).unwrap();
        assert!(!o.partial_ok);
        assert_eq!(o.deadline_ms, None);
        assert_eq!(o.checkpoint, None);
        assert!(parse(&["fanout", "s.json", "--deadline-ms", "0"]).is_err());
        assert!(parse(&["fanout", "s.json", "--checkpoint"]).is_err());
    }

    #[test]
    fn serve_flags() {
        let o = parse(&["serve", "--listen", "127.0.0.1:0", "--cache-bytes", "4096"]).unwrap();
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.cache_bytes, Some(4096));
        assert_eq!(o.graph_cache_bytes, None);
        let o = parse(&[
            "serve",
            "--listen",
            "/tmp/mrw.sock",
            "--graph-cache-bytes",
            "65536",
        ])
        .unwrap();
        assert_eq!(o.listen.as_deref(), Some("/tmp/mrw.sock"));
        assert_eq!(o.graph_cache_bytes, Some(65536));
        assert!(parse(&["serve", "--listen"]).is_err());
        assert!(parse(&["serve", "--cache-bytes", "lots"]).is_err());
        assert!(parse(&["serve", "--graph-cache-bytes"]).is_err());
    }

    #[test]
    fn serve_persist_and_delegation_flags() {
        let o = parse(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--persist",
            "/tmp/ledgers",
            "--delegate-trials",
            "4096",
        ])
        .unwrap();
        assert_eq!(o.persist.as_deref(), Some("/tmp/ledgers"));
        assert_eq!(o.delegate_trials, Some(4096));
        let o = parse(&["serve", "--listen", "127.0.0.1:0"]).unwrap();
        assert_eq!(o.persist, None, "persistence is opt-in");
        assert_eq!(o.delegate_trials, None, "delegation is opt-in");
        assert!(parse(&["serve", "--persist"]).is_err());
        assert!(parse(&["serve", "--delegate-trials"]).is_err());
        assert!(parse(&["serve", "--delegate-trials", "0"]).is_err());
        assert!(parse(&["serve", "--delegate-trials", "many"]).is_err());
    }

    #[test]
    fn serve_ctl_flags() {
        let o = parse(&[
            "serve-ctl",
            "run",
            "spec.json",
            "--connect",
            "127.0.0.1:7777",
        ])
        .unwrap();
        assert_eq!(o.connect.as_deref(), Some("127.0.0.1:7777"));
        assert_eq!(
            o.files,
            vec!["run".to_string(), "spec.json".to_string()],
            "the verb and spec ride the positional list"
        );
        let o = parse(&["serve-ctl", "stats", "--connect", "/tmp/mrw.sock"]).unwrap();
        assert_eq!(o.files, vec!["stats".to_string()]);
        assert!(parse(&["serve-ctl", "ping", "--connect"]).is_err());
    }

    #[test]
    fn resume_takes_a_checkpoint_file() {
        let o = parse(&["resume", "ck.json", "--workers", "2"]).unwrap();
        assert_eq!(o.command, "resume");
        assert_eq!(o.files, vec!["ck.json".to_string()]);
        assert_eq!(o.workers, Some(2));
    }

    #[test]
    fn hunting_flags() {
        let o = parse(&["hunting", "--prey", "adversarial", "--k-ladder", "1,4,16"]).unwrap();
        assert_eq!(o.prey, Some(mrw_core::PreyStrategy::Adversarial));
        assert_eq!(o.k_ladder, Some(vec![1, 4, 16]));
        assert_eq!(
            parse(&["hunting", "--prey", "stationary"]).unwrap().prey,
            Some(mrw_core::PreyStrategy::Hide)
        );
        assert!(parse(&["hunting", "--prey", "bogus"]).is_err());
        assert!(parse(&["hunting", "--k-ladder", "1,0"]).is_err());
        assert!(parse(&["hunting", "--k-ladder", ""]).is_err());
    }

    #[test]
    fn estimate_options() {
        let o = parse(&[
            "estimate", "--family", "torus", "--n", "12", "--k", "8", "--start", "3",
        ])
        .unwrap();
        assert_eq!(o.family.as_deref(), Some("torus"));
        assert_eq!(o.n, Some(12));
        assert_eq!(o.k, Some(8));
        assert_eq!(o.start, Some(3));
        assert!(parse(&["estimate", "--k", "0"]).is_err());
    }

    #[test]
    fn backend_and_jumps_flags() {
        let o = parse(&[
            "estimate",
            "--family",
            "circulant",
            "--jumps",
            "1,5",
            "--backend",
            "implicit",
        ])
        .unwrap();
        assert_eq!(o.jumps, Some(vec![1, 5]));
        assert_eq!(o.backend, Some(mrw_core::BackendChoice::Implicit));
        assert_eq!(
            parse(&["estimate", "--backend", "csr"]).unwrap().backend,
            Some(mrw_core::BackendChoice::Csr)
        );
        assert_eq!(
            parse(&["estimate", "--backend", "auto"]).unwrap().backend,
            Some(mrw_core::BackendChoice::Auto)
        );
        assert!(parse(&["estimate", "--backend", "bogus"]).is_err());
        assert!(parse(&["estimate", "--jumps", ""]).is_err());
        assert!(parse(&["estimate", "--jumps", "1,0"]).is_err());
        assert!(parse(&["estimate", "--jumps", "1,x"]).is_err());
    }
}
