//! The traced run: times the calls into each layer's public functions
//! from the benchmark, on the workload's own specs, and derives the
//! per-layer metrics from the recorded spans.

use std::time::Instant;

use mrw_core::engine::{FullCover, PartialCover};
use mrw_core::{
    fraction_target, walk_rng, AnyGraph, BackendChoice, BatchMode, Budget, Engine, EngineArena,
    Precision, Query, QuerySpec, Report, Session, SimpleStep,
};
use mrw_graph::GraphBackend;
use mrw_par::SeedSequence;
use mrw_stats::IntMoments;

use crate::mrw::{run_frame, Checker, Conn};
use crate::util::{derive, median, span_cost, Metrics, Tracer};
use crate::workloads::{cover, run_plan, Ctx, SpecFile, Workload};

/// Token-steps of each main spec the horizon/observer split re-runs.
const SUBSET_TSTEPS: f64 = 24e6;

/// Which observer a trial stops on.
#[derive(Clone, Copy)]
enum Obs {
    Cover,
    Partial { target: usize },
}

/// One trial of the replicated loop: its RNG seed, rounds, and wall time.
struct Trial {
    seed: u64,
    rounds: u64,
    secs: f64,
}

/// One report group re-executed trial by trial from outside `Session`.
struct Replica {
    obs: Obs,
    k: usize,
    start: u32,
    moments: IntMoments,
    trials: Vec<Trial>,
    waves: u64,
    rule_secs: f64,
    rule_calls: u64,
}

/// Sums the per-layer timings and counts accumulate into.
#[derive(Default)]
struct Acc {
    tsteps: f64,
    trials: u64,
    waves: u64,
    rule_secs: f64,
    rule_calls: u64,
    replica_secs: f64,
    session_1t: f64,
    session_2t: f64,
    resolve_secs: f64,
    subset_tsteps: f64,
    observed: f64,
    horizon: f64,
    scalar: f64,
    full_capped: f64,
    partial_capped: f64,
    twin_tsteps: f64,
    implicit: f64,
    csr: f64,
    reset_secs: Vec<f64>,
}

/// The specs a workload's traced run works on: the main specs it
/// replicates in-process, and the small spec the process and service
/// probes use.
fn layer_specs(ctx: &Ctx, w: Workload) -> (Vec<SpecFile>, SpecFile) {
    let plan = run_plan(ctx, w);
    let main = if plan.alt.json == plan.main.json {
        vec![plan.main]
    } else {
        vec![plan.main, plan.alt]
    };
    (main, plan.small)
}

/// Re-executes every group of `spec` the way `Session::run` does —
/// `SeedSequence::child`/`seed_for` (or the partial-cover stream) →
/// `walk_rng` → observer reset → `Engine::run_with` — wave by wave for an
/// adaptive budget.
fn replicate(tr: &mut Tracer, g: &AnyGraph, spec: &QuerySpec) -> Vec<Replica> {
    /// A report group: observer, k, start, and the seed of trial `t`.
    type Group = (Obs, usize, u32, Box<dyn Fn(usize) -> u64>);
    let n = g.n();
    let budget = &spec.budget;
    let groups: Vec<Group> = match &spec.query {
        Query::Cover { k, starts } => starts
            .iter()
            .map(|&start| {
                let seq = SeedSequence::new(budget.seed).child(start as u64 + 1);
                let f: Box<dyn Fn(usize) -> u64> = Box::new(move |i| seq.seed_for(i as u64));
                (Obs::Cover, *k, start, f)
            })
            .collect(),
        Query::PartialCover { k, start, gammas } => gammas
            .iter()
            .enumerate()
            .map(|(gi, &gamma)| {
                let seed = budget.seed;
                let f: Box<dyn Fn(usize) -> u64> = Box::new(move |t| {
                    seed ^ (gi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((t as u64) << 20)
                });
                let target = fraction_target(n, gamma);
                (Obs::Partial { target }, *k, *start, f)
            })
            .collect(),
        other => panic!("no replica for {} queries", other.kind()),
    };
    groups
        .into_iter()
        .map(|(obs, k, start, seed_of)| {
            let starts = vec![start; k];
            let mut arena = EngineArena::new();
            let mut cover = FullCover::new(n);
            let mut trial = |tr: &mut Tracer, i: usize| -> Trial {
                tr.next_op();
                let seed = seed_of(i);
                let (rounds, secs) = tr.span("trial", |tr| {
                    let mut rng = walk_rng(seed);
                    match obs {
                        Obs::Cover => {
                            tr.span("observer.reset", |_| cover.reset(n));
                            tr.span("engine.run_with", |_| {
                                Engine::new(g, SimpleStep, &mut cover)
                                    .discipline(budget.mode)
                                    .batch(budget.batch)
                                    .run_with(&starts, &mut rng, &mut arena)
                                    .rounds
                            })
                            .0
                        }
                        Obs::Partial { target } => {
                            let (o, _) = tr.span("observer.new", |_| PartialCover::new(n, target));
                            tr.span("engine.run", |_| {
                                Engine::new(g, SimpleStep, o).run(&starts, &mut rng).rounds
                            })
                            .0
                        }
                    }
                });
                Trial { seed, rounds, secs }
            };
            let mut trials: Vec<Trial> = Vec::new();
            let mut rep_waves = 0;
            let (mut rule_secs, mut rule_calls) = (0.0, 0);
            let mut decide = |tr: &mut Tracer, trials: &[Trial], rule: &Precision| -> usize {
                let (wave, secs) = tr.span("stats.decide", |_| {
                    let mut m = IntMoments::new();
                    for t in trials {
                        m.push(t.rounds);
                    }
                    if rule.satisfied_by(&m.summary()) {
                        0
                    } else {
                        rule.next_wave(trials.len())
                    }
                });
                rule_secs += secs;
                rule_calls += 1;
                wave
            };
            match budget.precision {
                None => {
                    rep_waves = 1;
                    for i in 0..budget.trials {
                        trials.push(trial(tr, i));
                    }
                    // What one wave decision costs at this sample size.
                    decide(tr, &trials, &Precision::relative(0.01));
                }
                Some(rule) => {
                    while trials.len() < rule.max_trials {
                        let wave = decide(tr, &trials, &rule).min(rule.max_trials - trials.len());
                        if wave == 0 {
                            break;
                        }
                        rep_waves += 1;
                        for i in trials.len()..trials.len() + wave {
                            trials.push(trial(tr, i));
                        }
                    }
                }
            }
            let mut moments = IntMoments::new();
            for t in &trials {
                moments.push(t.rounds);
            }
            Replica {
                obs,
                k,
                start,
                moments,
                trials,
                waves: rep_waves,
                rule_secs,
                rule_calls,
            }
        })
        .collect()
}

/// The stepping variants the horizon/observer split times on the same
/// trials (same RNG streams, each capped at the trial's own rounds, so all
/// take exactly the same token-steps).
#[derive(Clone, Copy)]
enum Variant {
    Horizon,
    Scalar,
    FullCapped,
    PartialCapped(usize),
}

fn run_variant(g: &AnyGraph, budget: &Budget, rep: &Replica, trials: &[Trial], v: Variant) {
    let starts = vec![rep.start; rep.k];
    let mut arena = EngineArena::new();
    let mut full = FullCover::new(g.n());
    for t in trials {
        let mut rng = walk_rng(t.seed);
        let rounds = match v {
            Variant::Horizon | Variant::Scalar => {
                let batch = if matches!(v, Variant::Scalar) {
                    BatchMode::Never
                } else {
                    budget.batch
                };
                Engine::new(g, SimpleStep, ())
                    .discipline(budget.mode)
                    .batch(batch)
                    .cap(t.rounds)
                    .run_with(&starts, &mut rng, &mut arena)
                    .rounds
            }
            Variant::FullCapped => {
                full.reset(g.n());
                Engine::new(g, SimpleStep, &mut full)
                    .discipline(budget.mode)
                    .batch(budget.batch)
                    .cap(t.rounds)
                    .run_with(&starts, &mut rng, &mut arena)
                    .rounds
            }
            Variant::PartialCapped(target) => {
                Engine::new(g, SimpleStep, PartialCover::new(g.n(), target))
                    .discipline(budget.mode)
                    .batch(budget.batch)
                    .cap(t.rounds)
                    .run_with(&starts, &mut rng, &mut arena)
                    .rounds
            }
        };
        assert_eq!(rounds, t.rounds, "variant ran a different horizon");
    }
}

/// The leading trials whose token-steps fit `budget` (at least one).
fn subset(rep: &Replica, budget: f64) -> &[Trial] {
    let mut sum = 0.0;
    let mut end = 0;
    for t in &rep.trials {
        sum += (t.rounds * rep.k as u64) as f64;
        if sum > budget && end > 0 {
            break;
        }
        end += 1;
    }
    &rep.trials[..end]
}

fn tsteps(rep: &Replica, trials: &[Trial]) -> f64 {
    trials
        .iter()
        .map(|t| (t.rounds * rep.k as u64) as f64)
        .sum()
}

/// The in-process layers on one main spec.
fn engine_layers(tr: &mut Tracer, sf: &SpecFile, acc: &mut Acc, twin: bool, checker: &mut Checker) {
    tr.next_op();
    let spec = QuerySpec::from_json(&sf.json).expect("generated spec parses");
    let mut resolves = Vec::new();
    let mut g = None;
    for _ in 0..5 {
        let (r, secs) = tr.span("graph.resolve", |_| spec.graph.resolve());
        resolves.push(secs);
        g = Some(r.expect("generated spec resolves"));
    }
    let g = g.expect("resolved at least once");
    acc.resolve_secs += median(&resolves);

    let with_threads = |t: usize| Budget {
        threads: t,
        ..spec.budget.clone()
    };
    let (report, t1) = tr.span("query.session_run_1t", |_| {
        Session::new(with_threads(1)).run(&g, &spec.query)
    });
    let (report2, t2) = tr.span("par.session_run_2t", |_| {
        Session::new(with_threads(2)).run(&g, &spec.query)
    });
    acc.session_1t += t1;
    acc.session_2t += t2;
    if report.to_json() != report2.to_json() {
        checker.fail(format!("1- and 2-thread reports differ for {}", sf.json));
    }

    let (reps, secs) = tr.span("replica", |tr| replicate(tr, &g, &spec));
    acc.replica_secs += secs;
    // Exact-count self-check: the replicated loop must reproduce every
    // group's sufficient statistics.
    checker.attempted += 1;
    let same = reps.len() == report.groups.len()
        && reps
            .iter()
            .zip(&report.groups)
            .all(|(r, grp)| r.moments == grp.moments);
    if !same {
        checker.fail(format!(
            "replicated trials do not reproduce the report for {}",
            sf.json
        ));
    }

    for rep in &reps {
        acc.tsteps += tsteps(rep, &rep.trials);
        acc.trials += rep.trials.len() as u64;
        acc.waves += rep.waves;
        acc.rule_secs += rep.rule_secs;
        acc.rule_calls += rep.rule_calls;
        let sub = subset(rep, SUBSET_TSTEPS);
        acc.subset_tsteps += tsteps(rep, sub);
        acc.observed += sub.iter().map(|t| t.secs).sum::<f64>();
        let target = match rep.obs {
            Obs::Cover => g.n(),
            Obs::Partial { target } => target,
        };
        for (name, v, slot) in [
            ("engine.horizon", Variant::Horizon, &mut acc.horizon),
            ("engine.scalar", Variant::Scalar, &mut acc.scalar),
            (
                "observer.full_capped",
                Variant::FullCapped,
                &mut acc.full_capped,
            ),
            (
                "observer.partial_capped",
                Variant::PartialCapped(target),
                &mut acc.partial_capped,
            ),
        ] {
            tr.next_op();
            *slot += tr
                .span(name, |_| run_variant(&g, &spec.budget, rep, sub, v))
                .1;
        }
    }

    let mut full = FullCover::new(g.n());
    for _ in 0..51 {
        acc.reset_secs
            .push(tr.span("observer.reset", |_| full.reset(g.n())).1);
    }

    // The implicit backend against its CSR twin, same trials.
    if twin {
        let rep = &reps[0];
        let sub = subset(rep, SUBSET_TSTEPS / 4.0);
        acc.twin_tsteps += tsteps(rep, sub);
        for (backend, slot) in [
            (BackendChoice::Implicit, &mut acc.implicit),
            (BackendChoice::Csr, &mut acc.csr),
        ] {
            let mut gs = spec.graph.clone();
            gs.backend = backend;
            let twin_g = gs.resolve().expect("twin backend resolves");
            tr.next_op();
            *slot += tr
                .span("graph.twin_horizon", |_| {
                    run_variant(&twin_g, &spec.budget, rep, sub, Variant::Horizon)
                })
                .1;
        }
    }
}

/// Process and service probes on the small spec.
#[derive(Default)]
struct Probes {
    run: Vec<f64>,
    inproc: Vec<f64>,
    fanout: Vec<f64>,
    retries: u64,
    parse: Vec<f64>,
    render: Vec<f64>,
    merge: Vec<f64>,
}

fn retries_used(stderr: &str) -> u64 {
    stderr
        .lines()
        .filter_map(|l| l.strip_suffix(" retries used"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// One round of the CLI/fanout probes: `mrw run`, the same work
/// in-process, and `mrw fanout --workers 1 --threads 1`.
fn probe_round(ctx: &Ctx, tr: &mut Tracer, small: &SpecFile, p: &mut Probes, c: &mut Checker) {
    tr.next_op();
    let (out, _) = tr.span("cli.mrw_run", |_| {
        ctx.mrw.run(&["run", &small.path, "--json"])
    });
    p.run.push(out.secs);
    c.record(&small.json, out.report());

    tr.next_op();
    let (json, secs) = tr.span("cli.inproc", |tr| {
        let (spec, s) = tr.span("query.parse", |_| {
            QuerySpec::from_json(&small.json).expect("generated spec parses")
        });
        p.parse.push(s);
        let g = tr
            .span("graph.resolve", |_| spec.graph.resolve())
            .0
            .expect("generated spec resolves");
        spec.query.validate(&g).expect("generated spec is valid");
        let report = tr
            .span("query.session_run", |_| {
                Session::new(spec.budget.clone()).run(&g, &spec.query)
            })
            .0;
        let (json, s) = tr.span("query.render", |_| report.to_json());
        p.render.push(s);
        json
    });
    p.inproc.push(secs);
    c.record(&small.json, Ok(json));

    tr.next_op();
    let (out, _) = tr.span("fanout.mrw_fanout", |_| {
        ctx.mrw.run(&[
            "fanout",
            &small.path,
            "--json",
            "--workers",
            "1",
            "--threads",
            "1",
        ])
    });
    p.fanout.push(out.secs);
    p.retries += retries_used(&out.stderr);
    c.record(&small.json, out.report());
}

/// `Report::merge` of two halves of the small spec's trial range.
fn merge_probe(tr: &mut Tracer, small: &SpecFile, p: &mut Probes) {
    let spec = QuerySpec::from_json(&small.json).expect("generated spec parses");
    let g = spec.graph.resolve().expect("generated spec resolves");
    let cap = spec.budget.trials_budget().cap().min(128);
    let half = cap / 2;
    let part = |r: std::ops::Range<usize>| {
        Session::new(spec.budget.clone())
            .with_range(r)
            .run(&g, &spec.query)
    };
    let (a, b) = (part(0..half), part(half..cap));
    for _ in 0..51 {
        let (m, secs) = tr.span("query.merge", |_| Report::merge(&a, &b));
        m.expect("halves merge");
        p.merge.push(secs);
    }
}

/// The fixed `mrw serve` script: pings on fresh and persistent
/// connections, a miss, hits, misses on new seeds, extensions, `stats`.
/// Every count it reads repeats exactly for a fixed seed.
fn serve_probe(ctx: &Ctx, tr: &mut Tracer, small: &SpecFile, m: &mut Metrics, c: &mut Checker) {
    let sock = ctx.dir.join("t.sock");
    let persist = ctx.dir.join("trace-ledgers");
    let d = match ctx.mrw.serve(&sock, &persist) {
        Ok(d) => d,
        Err(e) => {
            c.fail(e);
            return;
        }
    };
    let mut conn = match d.connect() {
        Ok(conn) => conn,
        Err(e) => {
            c.fail(e);
            return;
        }
    };
    let ping = "{\"verb\": \"ping\"}";
    let timed = |tr: &mut Tracer, name: &'static str, conn: Option<&mut Conn>, body: &str| {
        tr.next_op();
        let (out, secs) = tr.span(name, |_| match conn {
            Some(conn) => conn.request(body),
            None => d.connect().and_then(|mut fresh| fresh.request(body)),
        });
        (out, secs)
    };
    let (mut fresh, mut persistent) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        let (out, s) = timed(tr, "serve.ping_fresh", None, ping);
        fresh.push(s);
        if let Err(e) = out {
            c.fail(e);
        }
        let (out, s) = timed(tr, "serve.ping_persistent", Some(&mut conn), ping);
        persistent.push(s);
        if let Err(e) = out {
            c.fail(e);
        }
    }
    m.put(
        "serve.accept_ms",
        (median(&fresh) - median(&persistent)) * 1e3,
        "ms",
    );

    let (out, _) = timed(tr, "serve.miss", Some(&mut conn), &run_frame(&small.json));
    c.record(&small.json, out);
    let mut hits = Vec::new();
    for _ in 0..25 {
        let (out, s) = timed(tr, "serve.hit", Some(&mut conn), &run_frame(&small.json));
        hits.push(s);
        c.record(&small.json, out);
    }
    m.put("serve.hit_persist_ms_p50", median(&hits) * 1e3, "ms");

    let mut misses = Vec::new();
    for j in 0..5 {
        let mut spec = small.spec.clone();
        spec.budget.seed = derive(ctx.seed, 2000 + j);
        let json = spec.to_json();
        let (out, s) = timed(tr, "serve.miss", Some(&mut conn), &run_frame(&json));
        misses.push(s);
        c.record(&json, out);
    }
    m.put("serve.miss_ms_p50", median(&misses) * 1e3, "ms");

    let mut per_trial = Vec::new();
    let mut spec = small.spec.clone();
    spec.budget.seed = derive(ctx.seed, 3000);
    let step = spec.budget.trials;
    for j in 1..=5 {
        spec.budget.trials = step * j;
        let json = spec.to_json();
        let name = if j == 1 { "serve.miss" } else { "serve.extend" };
        let (out, s) = timed(tr, name, Some(&mut conn), &run_frame(&json));
        if j > 1 {
            per_trial.push(s / step as f64);
        }
        c.record(&json, out);
    }
    m.put("serve.ext_ms_per_trial", median(&per_trial) * 1e3, "ms");

    let (stats, _) = timed(tr, "serve.stats", Some(&mut conn), "{\"verb\": \"stats\"}");
    let ledger_bytes: u64 = std::fs::read_dir(&persist)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .map(|md| md.len())
                .sum()
        })
        .unwrap_or(0);
    m.put("serve.ledger_bytes", ledger_bytes as f64, "bytes");
    drop(conn);
    if let Err(e) = d.shutdown() {
        c.fail(e);
    }
    let stats = stats.and_then(|s| mrw_core::query::json::parse(&s));
    let field = |path: &[&str]| -> f64 {
        let Ok(v) = &stats else { return f64::NAN };
        let mut v = v;
        for key in path {
            match v.get(key) {
                Some(x) => v = x,
                None => return f64::NAN,
            }
        }
        v.as_u64().map_or(f64::NAN, |x| x as f64)
    };
    if stats.is_err() {
        c.fail("serve stats frame did not parse".into());
    }
    let requests = field(&["requests"]);
    let lookups = field(&["graph_cache", "hits"]) + field(&["graph_cache", "misses"]);
    m.put("serve.hit_ratio", field(&["hits"]) / requests, "ratio");
    m.put("serve.requests", requests, "count");
    m.put(
        "serve.graph_cache_hit_ratio",
        field(&["graph_cache", "hits"]) / lookups,
        "ratio",
    );
    m.put("serve.graph_lookups", lookups, "count");
    m.put(
        "serve.trials_executed",
        field(&["trials_executed"]),
        "count",
    );
}

/// Throughput of two concurrent `mrw run --threads 1` processes over one
/// (median of three), the host's multi-process ceiling.
pub fn two_proc_speedup(ctx: &Ctx, c: &mut Checker) -> f64 {
    let spec = SpecFile::new(
        ctx,
        "host",
        cover("torus", 48, 64, 0, ctx.size(24, 2), derive(ctx.seed, 9)),
    );
    let argv = ["run", spec.path.as_str(), "--json", "--threads", "1"];
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let one = ctx.mrw.run(&argv);
        c.record(&spec.json, one.report());
        let start = Instant::now();
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| ctx.mrw.run(&argv));
            let b = ctx.mrw.run(&argv);
            (a.join().expect("probe thread panicked"), b)
        });
        let both = start.elapsed().as_secs_f64();
        c.record(&spec.json, a.report());
        c.record(&spec.json, b.report());
        ratios.push(2.0 * one.secs / both);
    }
    median(&ratios)
}

/// Online CPUs as `/proc/cpuinfo` lists them.
pub fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
        .max(1)
}

/// The traced run of workload `w`. Returns the per-layer metrics and the
/// tracer, whose spans the caller writes out.
pub fn traced(ctx: &Ctx, w: Workload, checker: &mut Checker) -> (Metrics, Tracer) {
    let start = Instant::now();
    let mut tr = Tracer::new();
    let (main, small) = layer_specs(ctx, w);
    let mut acc = Acc::default();
    for (i, sf) in main.iter().enumerate() {
        engine_layers(&mut tr, sf, &mut acc, i == 0, checker);
    }
    let mut probes = Probes::default();
    merge_probe(&mut tr, &small, &mut probes);
    let mut m = Metrics::default();
    serve_probe(ctx, &mut tr, &small, &mut m, checker);
    let two_proc = two_proc_speedup(ctx, checker);
    // Process probes fill the rest of the run's time (at least five).
    while probes.run.len() < 5
        || (start.elapsed().as_secs_f64() < ctx.seconds && probes.run.len() < 200)
    {
        probe_round(ctx, &mut tr, &small, &mut probes, checker);
    }
    checker.verify();

    let ns = |secs: f64| secs * 1e9 / acc.subset_tsteps;
    let mut out = Metrics::default();
    out.put("graph.resolve_ms", acc.resolve_secs * 1e3, "ms");
    out.put("graph.implicit_over_csr", acc.implicit / acc.csr, "ratio");
    out.put("engine.horizon_ns_per_tstep", ns(acc.horizon), "ns");
    out.put("engine.scalar_ns_per_tstep", ns(acc.scalar), "ns");
    out.put("engine.tsteps", acc.tsteps, "count");
    out.put(
        "observer.cover_ns_per_tstep",
        ns(acc.full_capped - acc.horizon),
        "ns",
    );
    out.put(
        "observer.partial_ns_per_tstep",
        ns(acc.partial_capped - acc.horizon),
        "ns",
    );
    out.put(
        "observer.e2e_over_horizon",
        acc.observed / acc.horizon,
        "ratio",
    );
    out.put("observer.reset_us", median(&acc.reset_secs) * 1e6, "us");
    out.put(
        "query.trial_overhead_ns",
        (acc.session_1t - acc.replica_secs) * 1e9 / acc.trials as f64,
        "ns",
    );
    out.put("query.parse_us", median(&probes.parse) * 1e6, "us");
    out.put("query.render_us", median(&probes.render) * 1e6, "us");
    out.put("query.merge_us", median(&probes.merge) * 1e6, "us");
    out.put("par.speedup_2t", acc.session_1t / acc.session_2t, "ratio");
    out.put("host.two_proc_speedup", two_proc, "ratio");
    out.put("host.nproc", nproc() as f64, "count");
    out.put(
        "host.available_threads",
        mrw_par::available_threads() as f64,
        "count",
    );
    out.put("stats.waves", acc.waves as f64, "count");
    out.put("stats.trials_consumed", acc.trials as f64, "count");
    out.put(
        "stats.rule_us",
        acc.rule_secs * 1e6 / acc.rule_calls as f64,
        "us",
    );
    out.put(
        "cli.run_overhead_ms",
        (median(&probes.run) - median(&probes.inproc)) * 1e3,
        "ms",
    );
    out.put(
        "fanout.overhead_ms",
        (median(&probes.fanout) - median(&probes.run)) * 1e3,
        "ms",
    );
    out.put("fanout.retries", probes.retries as f64, "count");
    out.0.extend(m.0);
    let wall = start.elapsed().as_secs_f64();
    out.put(
        "trace.overhead_frac",
        span_cost() * tr.len() as f64 / wall,
        "ratio",
    );
    out.put(
        "fail_frac",
        checker.failed as f64 / checker.attempted.max(1) as f64,
        "ratio",
    );
    (out, tr)
}
