//! The three workloads: the specs each one generates from the seed, and the
//! untraced closed loop that measures the end-to-end metrics.

use std::path::PathBuf;
use std::time::Instant;

use mrw_core::{BackendChoice, Budget, GraphSpec, Precision, Query, QuerySpec};

use crate::mrw::{report_tsteps, Checker, Mrw};
use crate::util::{derive, median, quantile, Metrics};

/// What one benchmark invocation works with.
pub struct Ctx {
    pub mrw: Mrw,
    /// Scratch directory of this invocation (inside the checkout).
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Tiny sizes, for the self-test.
    pub smoke: bool,
}

impl Ctx {
    /// `full` normally, `smoke` in smoke mode.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    fn deadline_passed(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() >= self.seconds
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CoverBatched,
    AdaptiveScalar,
    PartialImplicit,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload::CoverBatched,
    Workload::AdaptiveScalar,
    Workload::PartialImplicit,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::CoverBatched => "cover-batched",
            Workload::AdaptiveScalar => "adaptive-scalar",
            Workload::PartialImplicit => "partial-implicit",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// A generated spec, written to a file `mrw` reads.
#[derive(Clone)]
pub struct SpecFile {
    pub spec: QuerySpec,
    /// Canonical JSON (what the oracle and the daemon see).
    pub json: String,
    pub path: String,
    /// Walk count, to turn round sums into token-steps.
    pub k: usize,
}

impl SpecFile {
    pub fn new(ctx: &Ctx, name: &str, spec: QuerySpec) -> SpecFile {
        let json = spec.to_json();
        let path = ctx.dir.join(format!("{name}.json"));
        std::fs::write(&path, &json).expect("write spec file into the scratch directory");
        let k = match &spec.query {
            Query::Cover { k, .. } | Query::PartialCover { k, .. } => *k,
            _ => 1,
        };
        SpecFile {
            spec,
            json,
            path: path.to_string_lossy().into_owned(),
            k,
        }
    }
}

fn graph(family: &str, n: usize, backend: BackendChoice) -> GraphSpec {
    GraphSpec {
        family: family.to_string(),
        n,
        jumps: Vec::new(),
        backend,
    }
}

fn budget(trials: usize, seed: u64) -> Budget {
    Budget {
        trials,
        seed,
        ..Budget::default()
    }
}

/// A fixed-budget cover spec.
pub fn cover(family: &str, n: usize, k: usize, start: u32, trials: usize, seed: u64) -> QuerySpec {
    QuerySpec {
        graph: graph(family, n, BackendChoice::Auto),
        query: Query::Cover {
            k,
            starts: vec![start],
        },
        budget: budget(trials, seed),
    }
}

/// A fixed-budget partial-cover spec on the implicit backend.
pub fn partial_implicit(side: usize, k: usize, gamma: f64, trials: usize, seed: u64) -> QuerySpec {
    QuerySpec {
        graph: graph("torus", side, BackendChoice::Implicit),
        query: Query::PartialCover {
            k,
            start: 0,
            gammas: vec![gamma],
        },
        budget: budget(trials, seed),
    }
}

/// `spec` with an adaptive relative-precision budget instead.
pub fn adaptive(mut spec: QuerySpec, rel: f64, max_trials: usize) -> QuerySpec {
    spec.budget.precision = Some(Precision::relative(rel).with_max_trials(max_trials));
    spec
}

/// The specs a run workload executes through `mrw`: a main and an
/// alternate operation, and a small one that is nearly all fixed cost.
pub struct RunPlan {
    pub main: SpecFile,
    pub alt: SpecFile,
    pub small: SpecFile,
    pub main_args: Vec<String>,
    pub alt_args: Vec<String>,
    pub small_args: Vec<String>,
    /// Main and small operations per cycle (one alternate), so a run's
    /// time is spread over all three.
    pub mains_per_cycle: usize,
    pub smalls_per_cycle: usize,
}

/// The tail latency is this quantile of the small samples. It is printed
/// on the `tail:` line rather than reported as a metric with a bound: on a
/// shared host it measures the neighbours, and across ten runs of the same
/// code it spread by up to 0.28 of its median.
pub const TAIL_QUANTILE: f64 = 0.9;

/// The latency each slot reports is this quantile of its samples, and
/// `ops_per_s` the `1 - LOW_QUANTILE` quantile of the completion rates. On a
/// shared host (measured on a 2-vCPU virtual machine) other tenants slow
/// every operation by up to 2x in bursts of a fraction of a second to
/// minutes. The median flips between the fast and the slow level as the
/// share of slow time crosses one half, so across runs it spread by 20-30%
/// on `cover-batched`. The 10th percentile still spread by up to 30% when
/// a run held less than a tenth of fast time; the 5th percentile needs
/// only a twentieth.
pub const LOW_QUANTILE: f64 = 0.05;

/// Every run collects at least this many tail samples, so at least 10 lie
/// beyond the `TAIL_QUANTILE`.
pub const MIN_TAIL_SAMPLES: usize = 100;

fn args(verb: &str, spec: &SpecFile, extra: &[&str]) -> Vec<String> {
    let mut v = vec![verb.to_string(), spec.path.clone(), "--json".to_string()];
    v.extend(extra.iter().map(|s| s.to_string()));
    v
}

/// The run plan of workload `w`.
pub fn run_plan(ctx: &Ctx, w: Workload) -> RunPlan {
    let s = ctx.seed;
    let small = |ctx: &Ctx| {
        SpecFile::new(
            ctx,
            "small",
            cover("cycle", 64, 8, 0, ctx.size(512, 64), derive(s, 3)),
        )
    };
    match w {
        Workload::CoverBatched => {
            let torus = cover(
                "torus",
                ctx.size(128, 16),
                ctx.size(256, 64),
                0,
                ctx.size(16, 4),
                derive(s, 1),
            );
            let n = ctx.size(401, 41);
            let barbell = cover(
                "barbell",
                n,
                ctx.size(256, 64),
                (n - 1) as u32,
                ctx.size(6_144, 64),
                derive(s, 2),
            );
            let (main, alt, small) = (
                SpecFile::new(ctx, "torus", torus),
                SpecFile::new(ctx, "barbell", barbell),
                small(ctx),
            );
            let t1 = ["--threads", "1"];
            RunPlan {
                main_args: args("run", &main, &t1),
                alt_args: args("run", &alt, &t1),
                small_args: args("run", &small, &t1),
                main,
                alt,
                small,
                mains_per_cycle: 2,
                smalls_per_cycle: 4,
            }
        }
        Workload::AdaptiveScalar => {
            let cyc = adaptive(
                cover("cycle", ctx.size(256, 32), 4, 0, 0, derive(s, 1)),
                if ctx.smoke { 0.05 } else { 0.02 },
                1 << 16,
            );
            let main = SpecFile::new(ctx, "cycle", cyc);
            let small = small(ctx);
            let one_worker = ["--workers", "1", "--threads", "1"];
            RunPlan {
                // One thread and one worker: an operation on two waits for
                // the slower CPU, so a neighbour slowing either one moves it.
                main_args: args("run", &main, &["--threads", "1"]),
                alt_args: args("fanout", &main, &one_worker),
                small_args: args("fanout", &small, &one_worker),
                alt: main.clone(),
                main,
                small,
                mains_per_cycle: 1,
                smalls_per_cycle: 30,
            }
        }
        Workload::PartialImplicit => {
            let side = ctx.size(1024, 64);
            let k = ctx.size(256, 64);
            let main = SpecFile::new(
                ctx,
                "quarter",
                partial_implicit(side, k, 0.25, 1, derive(s, 1)),
            );
            let alt = SpecFile::new(ctx, "half", partial_implicit(side, k, 0.5, 1, derive(s, 2)));
            let small = SpecFile::new(
                ctx,
                "small",
                partial_implicit(side, k, 0.001, 8, derive(s, 3)),
            );
            // One thread: a 2-trial operation on two threads waits for the
            // slower CPU, so a neighbour slowing either one moves it.
            let t1 = ["--threads", "1"];
            RunPlan {
                main_args: args("run", &main, &t1),
                alt_args: args("run", &alt, &t1),
                small_args: args("run", &small, &t1),
                main,
                alt,
                small,
                mains_per_cycle: 1,
                smalls_per_cycle: 6,
            }
        }
    }
}

/// Raw end-to-end samples of one run.
#[derive(Default)]
pub struct E2e {
    /// Set-up times, seconds.
    pub setup: Vec<f64>,
    /// Latencies, seconds.
    pub main: Vec<f64>,
    pub alt: Vec<f64>,
    pub small: Vec<f64>,
    /// Completions per second of each closed-loop cycle.
    pub op_rates: Vec<f64>,
    /// Per kind of operation that executes token-steps: the mean
    /// token-steps of one operation and the operations' latencies.
    pub tstep_kinds: Vec<(f64, Vec<f64>)>,
    pub rss_kib: u64,
}

impl E2e {
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", median(&self.setup), "s");
        m.put("main_ms_p5", quantile(&self.main, LOW_QUANTILE) * 1e3, "ms");
        m.put("alt_ms_p5", quantile(&self.alt, LOW_QUANTILE) * 1e3, "ms");
        m.put(
            "small_ms_p5",
            quantile(&self.small, LOW_QUANTILE) * 1e3,
            "ms",
        );
        let (tsteps, secs) = self
            .tstep_kinds
            .iter()
            .fold((0.0, 0.0), |(t, s), (mean, lat)| {
                (t + mean, s + quantile(lat, LOW_QUANTILE))
            });
        m.put("tsteps_per_s", tsteps / secs, "1/s");
        m.put("peak_rss_mib", self.rss_kib as f64 / 1024.0, "MiB");
        m.put(
            "ops_per_s",
            quantile(&self.op_rates, 1.0 - LOW_QUANTILE),
            "1/s",
        );
        m
    }

    /// Sample count and a few quantiles (ms) of each latency slot, printed
    /// above the result so a noisy run shows how its samples spread.
    pub fn spread(&self) -> String {
        let slot = |name: &str, xs: &[f64]| {
            let q = |p| quantile(xs, p) * 1e3;
            format!(
                "{name} n={} p0={:.4} p5={:.4} p10={:.4} p50={:.4}",
                xs.len(),
                q(0.0),
                q(0.05),
                q(0.1),
                q(0.5)
            )
        };
        [
            slot("main", &self.main),
            slot("alt", &self.alt),
            slot("small", &self.small),
        ]
        .join("; ")
    }
}

/// Set-up samples taken before each cycle of a run workload. Spreading
/// them over the run keeps a short burst of host contention from moving
/// their median.
const SETUP_PER_CYCLE: usize = 3;

/// In-process set-up of the specs `mrw run` would load: parse, graph
/// resolve, validate. One sample per repetition, each the sum over the
/// specs; the metric is their median.
pub fn setup_samples(specs: &[&SpecFile], reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            specs
                .iter()
                .map(|s| {
                    let start = Instant::now();
                    let spec = QuerySpec::from_json(&s.json).expect("generated spec parses");
                    let g = spec.graph.resolve().expect("generated spec resolves");
                    spec.query.validate(&g).expect("generated spec is valid");
                    std::hint::black_box(&g);
                    start.elapsed().as_secs_f64()
                })
                .sum()
        })
        .collect()
}

/// The closed loop of a run workload: cycles of set-up samples,
/// `mains_per_cycle` main, one alternate and `smalls_per_cycle` small
/// operations until `--seconds` pass and `MIN_TAIL_SAMPLES` small ones are
/// in (checked between operations, so a long cycle does not overrun), then
/// one untimed main operation with the peak-RSS probe. Each completed
/// cycle gives one completion rate (its operations over their wall time).
pub fn run_e2e(ctx: &Ctx, plan: &RunPlan, checker: &mut Checker) -> E2e {
    let mut e = E2e::default();
    let mut ok_ops: Vec<(&SpecFile, f64)> = Vec::new();
    let start = Instant::now();
    let done = |e: &E2e| ctx.deadline_passed(start) && e.small.len() >= MIN_TAIL_SAMPLES;
    'cycles: while !done(&e) {
        e.setup.extend(setup_samples(
            &[&plan.main, &plan.alt, &plan.small],
            SETUP_PER_CYCLE,
        ));
        let mut cycle: Vec<(&SpecFile, &Vec<String>, usize)> = Vec::new();
        cycle.extend((0..plan.mains_per_cycle).map(|_| (&plan.main, &plan.main_args, 0)));
        cycle.push((&plan.alt, &plan.alt_args, 1));
        cycle.extend((0..plan.smalls_per_cycle).map(|_| (&plan.small, &plan.small_args, 2)));
        let ops = cycle.len();
        let mut secs = 0.0;
        for (spec, argv, slot) in cycle {
            if done(&e) {
                break 'cycles;
            }
            let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
            let out = ctx.mrw.run(&argv);
            [&mut e.main, &mut e.alt, &mut e.small][slot].push(out.secs);
            secs += out.secs;
            if out.ok {
                ok_ops.push((spec, out.secs));
            }
            checker.record(&spec.json, out.report());
        }
        e.op_rates.push(ops as f64 / secs);
    }
    // Every run of one spec reports the same sums, so token-steps per
    // operation come from the oracle once per spec.
    for spec in [&plan.main, &plan.alt, &plan.small] {
        let Ok(expected) = checker.expected(&spec.json) else {
            continue;
        };
        let per_op = report_tsteps(&expected, spec.k).unwrap_or(0.0);
        let lat: Vec<f64> = ok_ops
            .iter()
            .filter(|(s, _)| std::ptr::eq(*s, spec))
            .map(|(_, secs)| *secs)
            .collect();
        if per_op > 0.0 && !lat.is_empty() {
            e.tstep_kinds.push((per_op, lat));
        }
    }
    let argv: Vec<&str> = plan.main_args.iter().map(String::as_str).collect();
    let (out, rss) = ctx.mrw.run_probed(&argv, true);
    checker.record(&plan.main.json, out.report());
    e.rss_kib = rss;
    e
}
