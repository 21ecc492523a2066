//! `mrw` — regenerate every table and figure of *Many Random Walks Are
//! Faster Than One* (Alon et al., SPAA 2008) from the command line.
//!
//! ```text
//! mrw <experiment> [--quick] [--trials N] [--seed S] [--threads T] [--format F]
//! ```
//!
//! `mrw help` lists every experiment and service verb with its options.
//! The experiment verbs are the [`EXPERIMENTS`] table, which also drives
//! `mrw all`.
//!
//! Any estimator-driven experiment accepts an adaptive trial budget:
//! `--precision H` or `--rel-precision R` (with `--confidence`,
//! `--min-trials`, `--max-trials`) switches every estimate from a fixed
//! trial count to sequential stopping — sample until the CI half-width
//! crosses the target, and report the half-width achieved plus the trials
//! actually consumed.
//!
//! ## The shard protocol
//!
//! `mrw shard spec.json --shard 0/2` runs trials `[0, N/2)` of the spec's
//! budget and emits a self-describing JSON report; `mrw merge a.json
//! b.json` combines shard reports by exact sufficient statistics. For a
//! fixed budget the merged JSON is **byte-identical** to the unsharded
//! `mrw run spec.json --json`; for an adaptive budget the merge
//! re-evaluates the precision rule on the combined sample and certifies
//! the achieved half-width.
//!
//! `mrw fanout spec.json --workers N` runs the whole protocol in-tree: it
//! spawns the shard workers itself (retrying failed or killed ones) and
//! prints one merged report byte-identical to `mrw run` — adaptive
//! budgets included, whose sequential stopping rule the driver replays
//! wave by wave across the worker pool (see `fanout.rs`).

// Unsafe may enter this crate only through a scoped, analyze.allow-listed
// `#[allow]` (rule U2); today that is solely the signal-FFI module in
// `serve.rs`.
#![deny(unsafe_code)]

use std::process::ExitCode;

use mrw_core::experiments::{
    baby_matthews, barbell, barbell_events, clique, concentration, conjectures, cycle, exact_zoo,
    expander, gap, hunting, lemma16, lemma19, matthews, mixing, projection, prop23, smallworld,
    stationary, table1, torus,
};
use mrw_core::{AnyGraph, Budget, GraphSpec, Query, QuerySpec, Report, Session};
use mrw_graph::GraphBackend;

mod args;
mod dispatch;
mod fanout;
mod serve;

use args::{Format, Options};

fn print_table(t: &mrw_stats::Table, fmt: Format) {
    match fmt {
        Format::Ascii => print!("{}", t.render_ascii()),
        Format::Markdown => print!("{}", t.render_markdown()),
        Format::Csv => print!("{}", t.render_csv()),
    }
    println!();
}

/// Applies only the explicitly-passed overrides, preserving the
/// experiment's (or spec file's) own defaults — several experiments need
/// more than `Budget::default()`'s 64 trials to resolve small
/// probabilities or a spread. Every experiment verb goes through here.
fn apply_overrides(b: &mut Budget, opts: &Options) {
    // Flag combinations are validated up front in check_flags.
    let rule = opts.precision_rule().expect("validated in main");
    if let Some(t) = opts.trials {
        b.trials = t;
        // An explicit fixed count overrides a spec's adaptive rule —
        // unless precision flags are also present (they win below).
        if rule.is_none() {
            b.precision = None;
        }
    }
    if let Some(s) = opts.seed {
        b.seed = s;
    }
    if let Some(t) = opts.threads {
        b.threads = t;
    }
    if let Some(batch) = opts.batch {
        b.batch = if batch {
            mrw_core::BatchMode::Always
        } else {
            mrw_core::BatchMode::Never
        };
    }
    if let Some(rule) = rule {
        b.precision = Some(rule);
    }
}

/// Checks what the parser cannot judge one flag at a time: the adaptive
/// rule the precision flags combine into, and [`Budget::check`] on the
/// budget overrides, which the experiment verbs run with no spec for
/// [`QuerySpec::resolve`] to gate.
fn check_flags(opts: &Options) -> Result<(), String> {
    opts.precision_rule()?;
    let mut budget = Budget::default();
    apply_overrides(&mut budget, opts);
    budget.check()
}

/// The `mrw estimate` budget: `Budget::quick()` under `--quick`, else
/// `Budget::default()`, plus the explicit overrides.
fn budget(opts: &Options) -> Budget {
    let mut b = if opts.quick {
        Budget::quick()
    } else {
        Budget::default()
    };
    apply_overrides(&mut b, opts);
    b
}

fn run_table1(opts: &Options) {
    let mut cfg = if opts.quick {
        table1::Config::quick()
    } else {
        table1::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    print_table(&table1::run(&cfg).table(), opts.format);
}

fn run_clique(opts: &Options) {
    let mut cfg = if opts.quick {
        clique::Config::quick()
    } else {
        clique::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = clique::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "baseline C = {:.1} (coupon collector n·H_n = {:.1}); worst |S^k/k − 1| = {:.3}",
        report.ladder.mean(),
        report.predicted_c1,
        report.worst_linearity_error()
    );
}

fn run_cycle(opts: &Options) {
    let mut cfg = if opts.quick {
        cycle::Config::quick()
    } else {
        cycle::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = cycle::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "log-law fit: S^k ≈ {:.2} + {:.2}·ln k  (R² = {:.3}) — Theorem 6 predicts Θ(log k)",
        report.log_law.intercept, report.log_law.slope, report.log_law.r_squared
    );
}

fn run_barbell(opts: &Options) {
    let mut cfg = if opts.quick {
        barbell::Config::quick()
    } else {
        barbell::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = barbell::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "growth fits: C_vc ~ n^{:.2} (paper: 2), C^k_vc ~ n^{:.2} (paper: 1)",
        report.c1_growth.exponent, report.ck_growth.exponent
    );
}

fn run_torus(opts: &Options) {
    let mut cfg = if opts.quick {
        torus::Config::quick()
    } else {
        torus::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = torus::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "efficiency S^k/k: low regime (k ≤ log n) = {:.3}, at largest k = {:.3}",
        report.low_regime_efficiency(),
        report.high_regime_efficiency()
    );
}

fn run_expander(opts: &Options) {
    let mut cfg = if opts.quick {
        expander::Config::quick()
    } else {
        expander::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = expander::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "min S^k/k over the ladder = {:.3} — Theorem 18 predicts Ω(k) up to k ≈ n",
        report.min_efficiency()
    );
}

fn run_matthews(opts: &Options) {
    let mut cfg = if opts.quick {
        matthews::Config::quick()
    } else {
        matthews::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = matthews::run(&cfg);
    print_table(&report.table(), opts.format);
    let violations: Vec<&str> = report
        .rows
        .iter()
        .filter(|r| !r.holds(0.1))
        .map(|r| r.graph.as_str())
        .collect();
    if violations.is_empty() {
        println!("sandwich holds on every family (10% Monte-Carlo slack)");
    } else {
        println!("sandwich VIOLATED on: {violations:?}");
    }
}

fn run_baby_matthews(opts: &Options) {
    let mut cfg = if opts.quick {
        baby_matthews::Config::quick()
    } else {
        baby_matthews::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = baby_matthews::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "worst C^k/bound ratio = {:.3} (Theorem 13 predicts ≤ 1)",
        report.worst_ratio()
    );
}

fn run_mixing(opts: &Options) {
    let mut cfg = if opts.quick {
        mixing::Config::quick()
    } else {
        mixing::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = mixing::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "min implied constant = {:.2} (Theorem 9 predicts bounded below)",
        report.min_implied_constant()
    );
}

fn run_gap(opts: &Options) {
    let mut cfg = if opts.quick {
        gap::Config::quick()
    } else {
        gap::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = gap::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "large-gap families run near-linear at k* = ⌊g^{{1−ε}}⌋; the path (g ≈ 1) gets\n\
         no guarantee — Theorem 5's dichotomy."
    );
}

fn run_concentration(opts: &Options) {
    let mut cfg = if opts.quick {
        concentration::Config::quick()
    } else {
        concentration::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = concentration::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "cv shrinks with n exactly on the families with C/h_max → ∞ (Aldous'\n\
         hypothesis), stays Θ(1) on the path — the concentration Theorem 14 leans on."
    );
}

fn run_stationary(opts: &Options) {
    let mut cfg = if opts.quick {
        stationary::Config::quick()
    } else {
        stationary::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = stationary::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "stationary starts scale ~1/k where the Broder et al. bound is 1/k² — the\n\
         paper's §1.1 improvement, measured."
    );
}

fn run_conjectures(opts: &Options) {
    let mut cfg = if opts.quick {
        conjectures::Config::quick()
    } else {
        conjectures::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = conjectures::run(&cfg);
    print_table(&report.table(), opts.format);
    let max = report.max_per_k();
    let min = report.min_per_log_k();
    println!(
        "Conjecture 10 stress: max S^k/k = {:.2} ({} from {}, k={})\n\
         Conjecture 11 floor:  min S^k/ln k = {:.2} ({} from {}, k={})",
        max.per_k(),
        max.graph,
        max.start,
        max.k,
        min.per_log_k(),
        min.graph,
        min.start,
        min.k
    );
}

fn run_lemma16(opts: &Options) {
    let mut cfg = if opts.quick {
        lemma16::Config::quick()
    } else {
        lemma16::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = lemma16::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "worst slack (measured − bound) = {:+.3}; Lemma 16 predicts ≥ 0 up to sampling noise",
        report.worst_slack()
    );
}

fn run_lemma19(opts: &Options) {
    let mut cfg = if opts.quick {
        lemma19::Config::quick()
    } else {
        lemma19::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = lemma19::run(&cfg);
    print_table(&report.lemma_table(), opts.format);
    print_table(&report.corollary_table(), opts.format);
    println!(
        "Lemma 19 bound {} on every probed pair; Corollary 20 misses are budgeted at 1/n²",
        if report.lemma_holds() {
            "holds"
        } else {
            "is VIOLATED"
        }
    );
}

fn run_prop23(opts: &Options) {
    let cfg = if opts.quick {
        prop23::Config::quick()
    } else {
        prop23::Config::default()
    };
    let report = prop23::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "sandwich {} on the whole (c, n) grid — computed exactly, no sampling",
        if report.all_hold() {
            "holds"
        } else {
            "is VIOLATED"
        }
    );
}

fn run_barbell_events(opts: &Options) {
    let mut cfg = if opts.quick {
        barbell_events::Config::quick()
    } else {
        barbell_events::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = barbell_events::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "E1/E3 are dead at every size; E2 decays like 800·ln n/n relative to its\n\
         threshold (a proof artifact — the O(n) cover conclusion holds throughout)."
    );
}

fn run_exact_zoo(opts: &Options) {
    let mut cfg = if opts.quick {
        exact_zoo::Config::quick()
    } else {
        exact_zoo::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = exact_zoo::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "worst estimator error vs exact DP = {:.4}; exact S² witnesses: tree(2,2) = {:.4}, barbell(9) = {:.4}",
        report.worst_relative_error(),
        report.exact_speedup("tree(b=2,h=2)", 2).unwrap_or(f64::NAN),
        report.exact_speedup("barbell(9)", 2).unwrap_or(f64::NAN),
    );
}

fn run_projection(opts: &Options) {
    let mut cfg = if opts.quick {
        projection::Config::quick()
    } else {
        projection::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = projection::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "projection domination violations = {} (Theorem 24's coupling is per-trace)",
        report.total_violations()
    );
}

fn run_hunting(opts: &Options) {
    let mut cfg = if opts.quick {
        hunting::Config::quick()
    } else {
        hunting::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    if let Some(prey) = opts.prey {
        cfg.mover = prey;
    }
    if let Some(ks) = &opts.k_ladder {
        cfg.ks = ks.clone();
    }
    let report = hunting::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "catch-time speed-up tracks cover-time speed-up per family: linear on the\n\
         clique/expander, collapsed on the cycle — the paper's dichotomy holds for\n\
         its own opening metaphor."
    );
}

fn run_smallworld(opts: &Options) {
    let mut cfg = if opts.quick {
        smallworld::Config::quick()
    } else {
        smallworld::Config::default()
    };
    apply_overrides(&mut cfg.budget, opts);
    let report = smallworld::run(&cfg);
    print_table(&report.table(), opts.format);
    println!(
        "efficiency S^k/k climbs {:.3} → {:.3} as β goes 0 → 1: the cycle's log-regime\n\
         dissolves into near-linear speed-up once long-range edges shrink the mixing time.",
        report.lattice_efficiency(),
        report.random_efficiency()
    );
}

fn run_figure1(_opts: &Options) {
    print!("{}", mrw_graph::dot::figure1());
}

/// An experiment verb's driver: build the config, apply the overrides,
/// run, print.
type Runner = fn(&Options);

/// Every experiment verb, in `mrw all` order.
const EXPERIMENTS: &[(&str, Runner)] = &[
    ("table1", run_table1),
    ("clique", run_clique),
    ("cycle", run_cycle),
    ("barbell", run_barbell),
    ("torus", run_torus),
    ("expander", run_expander),
    ("matthews", run_matthews),
    ("baby-matthews", run_baby_matthews),
    ("mixing", run_mixing),
    ("gap", run_gap),
    ("concentration", run_concentration),
    ("stationary", run_stationary),
    ("conjectures", run_conjectures),
    ("lemma16", run_lemma16),
    ("lemma19", run_lemma19),
    ("prop23", run_prop23),
    ("barbell-events", run_barbell_events),
    ("exact", run_exact_zoo),
    ("projection", run_projection),
    ("hunting", run_hunting),
    ("smallworld", run_smallworld),
    ("figure1", run_figure1),
];

/// The `mrw estimate` flags as a [`QuerySpec`] — the same value `mrw run`
/// reads from a file, so both verbs share one execution and one JSON
/// schema.
fn estimate_spec(opts: &Options) -> QuerySpec {
    let family = opts.family.as_deref().unwrap_or("cycle").to_string();
    // `--n` is the family's natural size parameter: vertices for most,
    // the side for the torus, the *dimension* for the hypercube — so the
    // hypercube and barbell get their own defaults.
    let n = opts.n.unwrap_or(match family.as_str() {
        "torus" => 16,
        "hypercube" => 6,
        "barbell" => 65,
        _ => 64,
    });
    QuerySpec {
        graph: GraphSpec {
            family,
            n,
            jumps: opts.jumps.clone().unwrap_or_default(),
            backend: opts.backend.unwrap_or_default(),
        },
        query: Query::Cover {
            k: opts.k.unwrap_or(4),
            starts: vec![opts.start.unwrap_or(0)],
        },
        budget: budget(opts),
    }
}

/// Renders any [`Report`] as one table row per group.
fn report_table(report: &Report) -> mrw_stats::Table {
    let level = report.confidence();
    let mut t = mrw_stats::Table::new(vec![
        "group",
        "trials",
        "counted",
        "mean",
        "half-width",
        "rel",
        "CI",
        "censored",
    ])
    .with_title(format!(
        "mrw {} — {} (n = {})",
        report.query.kind(),
        report.graph.name,
        report.graph.n
    ));
    for g in &report.groups {
        let ci = g.ci(level);
        t.push_row(vec![
            g.label.clone(),
            g.trials.to_string(),
            g.moments.count().to_string(),
            format!("{:.2}", g.mean()),
            format!("{:.2}", ci.half_width()),
            format!("{:.1}%", ci.relative_half_width() * 100.0),
            format!("[{:.2}, {:.2}]", ci.lo, ci.hi),
            g.censored.to_string(),
        ]);
    }
    t
}

/// Prints a finished report the way `mrw run` does: the canonical JSON
/// under `--json`, else [`report_table`] followed, for an adaptive
/// budget, by whether the precision rule held on every group.
fn print_report(report: &Report, opts: &Options) {
    if opts.json {
        print!("{}", report.to_json());
        return;
    }
    print_table(&report_table(report), opts.format);
    if let Some(certified) = report.certified() {
        println!(
            "precision rule {} on every group ({} trials total)",
            if certified {
                "satisfied"
            } else {
                "NOT satisfied"
            },
            report.consumed_trials()
        );
    }
}

/// Human-readable budget/stop description for a report's first group.
fn stop_description(report: &Report) -> (String, String) {
    match report.budget.trials_budget() {
        mrw_stats::Trials::Fixed(t) => (format!("fixed {t}"), "fixed".to_string()),
        mrw_stats::Trials::Adaptive(rule) => {
            let target = match rule.target {
                mrw_stats::precision::PrecisionTarget::Absolute(h) => format!("±{h}"),
                mrw_stats::precision::PrecisionTarget::Relative(r) => {
                    format!("±{}%", r * 100.0)
                }
            };
            let desc = format!(
                "{target} @ {:.0}%, cap {}",
                rule.confidence * 100.0,
                rule.max_trials
            );
            let trials = report.groups[0].trials;
            let stop = if report.certified() == Some(true) {
                format!("precision @ {trials} trials")
            } else {
                format!("cap @ {trials} trials")
            };
            (desc, stop)
        }
    }
}

/// `mrw estimate`: one `C^k` estimate on a chosen family, with either a
/// fixed trial count (`--trials`) or an adaptive precision target
/// (`--precision` / `--rel-precision`). The output table reports the
/// achieved CI half-width and the trial count actually consumed, so an
/// adaptive run shows exactly where the sequential rule stopped;
/// `--json` emits the canonical report schema instead.
fn run_estimate(opts: &Options) -> Result<(), String> {
    let spec = estimate_spec(opts);
    let g = spec.resolve()?;
    let report = Session::new(spec.budget.clone()).run(&g, &spec.query);
    if opts.json {
        print!("{}", report.to_json());
        return Ok(());
    }
    let Query::Cover { k, starts } = spec.query else {
        unreachable!("estimate_spec builds a cover query")
    };
    let ci = report.groups[0].ci(report.confidence());
    let (budget_desc, stop_desc) = stop_description(&report);

    let mut t = mrw_stats::Table::new(vec![
        "graph",
        "k",
        "start",
        "budget",
        "trials used",
        "mean C^k",
        "half-width",
        "rel",
        "CI",
        "stopped",
    ])
    .with_title(format!("mrw estimate — {} (n = {})", g.name(), g.n()));
    t.push_row(vec![
        g.name().to_string(),
        k.to_string(),
        starts[0].to_string(),
        budget_desc,
        report.consumed_trials().to_string(),
        format!("{:.2}", report.mean()),
        format!("{:.2}", ci.half_width()),
        format!("{:.1}%", ci.relative_half_width() * 100.0),
        format!("[{:.2}, {:.2}]", ci.lo, ci.hi),
        stop_desc,
    ]);
    print_table(&t, opts.format);
    Ok(())
}

/// The one positional file `mrw <verb>` takes — a `what` file: the spec
/// of `run`/`shard`/`fanout`, the checkpoint of `resume`.
fn one_file<'a>(opts: &'a Options, what: &str) -> Result<&'a str, String> {
    match opts.files.as_slice() {
        [path] => Ok(path),
        [] => Err(format!("mrw {} needs a {what} file", opts.command)),
        more => Err(format!(
            "mrw {} takes exactly one {what} file (got {})",
            opts.command,
            more.len()
        )),
    }
}

/// Reads and parses the spec file at `path` and applies the CLI's budget
/// and backend overrides — the spec `mrw run` and `serve-ctl run` send on.
fn read_spec(path: &str, opts: &Options) -> Result<QuerySpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut spec = QuerySpec::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    apply_overrides(&mut spec.budget, opts);
    if let Some(backend) = opts.backend {
        spec.graph.backend = backend;
    }
    Ok(spec)
}

/// The verb's spec file, read with the CLI's overrides and passed through
/// [`QuerySpec::resolve`], so everything `Session` would panic on is the
/// same friendly `error: …` as a bad flag. The graph comes back on the
/// spec's backend (or `--backend`'s) — the report is byte-identical
/// either way.
fn load_spec(opts: &Options) -> Result<(QuerySpec, AnyGraph), String> {
    let path = one_file(opts, "spec")?;
    let spec = read_spec(path, opts)?;
    let g = spec.resolve().map_err(|e| format!("{path}: {e}"))?;
    Ok((spec, g))
}

/// `mrw run spec.json`: execute any serialized query. `--json` emits the
/// canonical report schema (identical to a merged shard run); otherwise a
/// per-group table.
fn run_spec(opts: &Options) -> Result<(), String> {
    let (spec, g) = load_spec(opts)?;
    let report = Session::new(spec.budget.clone()).run(&g, &spec.query);
    print_report(&report, opts);
    Ok(())
}

/// The trial range `--shard I/S` or `--range A..B` selects of a spec's
/// budget, validated against the budget's trial cap.
fn resolve_range(opts: &Options, spec: &QuerySpec) -> Result<std::ops::Range<usize>, String> {
    let cap = spec.budget.trials_budget().cap();
    let range = match (&opts.shard, &opts.range) {
        (Some(shard), None) => shard.slice(cap),
        (None, Some(range)) => range.clone(),
        _ => return Err("mrw shard needs --shard I/S or --range A..B".into()),
    };
    if range.end > cap {
        return Err(format!(
            "trial range {}..{} extends past the {cap}-trial budget",
            range.start, range.end
        ));
    }
    if range.is_empty() {
        return Err(format!(
            "trial range {}..{} of the {cap}-trial budget is empty",
            range.start, range.end
        ));
    }
    Ok(range)
}

/// `mrw shard spec.json --shard I/S` (or `--range A..B`): run one slice
/// of the spec's trial range and emit the JSON shard report on stdout
/// (always JSON — the output exists to be merged). `--groups` restricts
/// execution to the listed group indices, which is how `mrw fanout`'s
/// adaptive waves skip groups whose stopping rule already fired.
fn run_shard(opts: &Options) -> Result<(), String> {
    let (spec, g) = load_spec(opts)?;
    let range = resolve_range(opts, &spec)?;
    let fault = fanout::fault_hook(&range);
    let mut session = Session::new(spec.budget.clone()).with_range(range);
    if let Some(groups) = &opts.groups {
        session = session.with_groups(groups.clone());
    }
    let report = session.run(&g, &spec.query);
    let count = report.groups.len();
    if let Some(index) = opts.groups.iter().flatten().find(|&&i| i >= count) {
        return Err(format!(
            "--groups index {index} is out of range: the query has {count} group(s)"
        ));
    }
    let json = report.to_json();
    if fault == fanout::FaultAction::CorruptOutput {
        // Emit a torn write: truncate at a char boundary around the
        // midpoint, so the driver's parse validation sees garbage.
        let mut cut = json.len() / 2;
        while cut > 0 && !json.is_char_boundary(cut) {
            cut -= 1;
        }
        print!("{}", &json[..cut]);
        return Ok(());
    }
    print!("{json}");
    Ok(())
}

/// `mrw merge a.json b.json …`: losslessly combine shard reports. The
/// merged JSON goes to stdout (for fixed budgets it is byte-identical to
/// the unsharded run); the human summary — including the adaptive
/// half-width certification — goes to stderr so pipelines stay clean.
/// A single input is the identity: the report round-trips unchanged, so
/// scripted pipelines need no special case for a one-shard plan.
fn run_merge(opts: &Options) -> Result<(), String> {
    if opts.files.is_empty() {
        return Err("mrw merge needs at least one report file".into());
    }
    let mut reports = opts.files.iter().map(|path| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Report::from_json(&text).map_err(|e| format!("{path}: {e}"))
    });
    let mut merged = reports.next().expect("len checked")?;
    for report in reports {
        merged = Report::merge(&merged, &report?)?;
    }
    print!("{}", merged.to_json());
    eprintln!(
        "merged {} shard report(s): {} on {} — {} trials total",
        opts.files.len(),
        merged.query.kind(),
        merged.graph.name,
        merged.consumed_trials()
    );
    let level = merged.confidence();
    for g in &merged.groups {
        let ci = g.ci(level);
        eprintln!(
            "  {}: mean {:.2} ± {:.2} ({} counted, {} censored)",
            g.label,
            g.mean(),
            ci.half_width(),
            g.moments.count(),
            g.censored
        );
    }
    if let Some(certified) = merged.certified() {
        eprintln!(
            "precision rule {} by the merged sample",
            if certified {
                "CERTIFIED"
            } else {
                "NOT satisfied"
            }
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            return ExitCode::FAILURE;
        }
    };

    if let Err(e) = check_flags(&opts) {
        eprintln!("error: {e}\n");
        eprintln!("{}", args::USAGE);
        return ExitCode::FAILURE;
    }

    let command = opts.command.as_str();
    // Only the file-taking verbs accept positional arguments; anywhere
    // else a stray token is almost certainly a typo'd flag value.
    if !matches!(
        command,
        "run" | "shard" | "merge" | "fanout" | "resume" | "serve-ctl"
    ) && !opts.files.is_empty()
    {
        eprintln!(
            "error: unexpected argument '{}' for '{command}'\n",
            opts.files[0]
        );
        eprintln!("{}", args::USAGE);
        return ExitCode::FAILURE;
    }
    // Trial selection is the worker protocol's, so it belongs to `mrw
    // shard`; every other verb runs whole specs and would ignore it.
    let selection = [
        ("--shard", opts.shard.is_some()),
        ("--range", opts.range.is_some()),
        ("--groups", opts.groups.is_some()),
    ];
    if let Some((flag, _)) = selection.iter().find(|(_, given)| *given) {
        if command != "shard" {
            eprintln!("error: {flag} is only for 'mrw shard', not '{command}'\n");
            eprintln!("{}", args::USAGE);
            return ExitCode::FAILURE;
        }
    }
    match command {
        "estimate" | "run" | "shard" | "merge" | "fanout" | "resume" | "serve" | "serve-ctl" => {
            let result = match command {
                "estimate" => run_estimate(&opts),
                "run" => run_spec(&opts),
                "shard" => run_shard(&opts),
                "fanout" => fanout::run_fanout(&opts),
                "resume" => fanout::run_resume(&opts),
                "serve" => serve::run_serve(&opts),
                "serve-ctl" => serve::run_serve_ctl(&opts),
                _ => run_merge(&opts),
            };
            // The command line parsed, so a failure here is about the
            // spec, its files or a worker, and the usage text would only
            // bury the one line that says what went wrong.
            if let Err(e) = result {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            return ExitCode::SUCCESS;
        }
        "all" => {
            for (_, run) in EXPERIMENTS {
                run(&opts);
            }
        }
        "help" | "--help" | "-h" => println!("{}", args::USAGE),
        other => match EXPERIMENTS.iter().find(|(name, _)| *name == other) {
            Some((_, run)) => run(&opts),
            None => {
                eprintln!("error: unknown experiment '{other}'\n");
                eprintln!("{}", args::USAGE);
                return ExitCode::FAILURE;
            }
        },
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_experiment() {
        for (name, _) in EXPERIMENTS {
            assert!(
                args::USAGE
                    .lines()
                    .any(|line| line.trim_start().starts_with(&format!("{name} "))),
                "USAGE does not list '{name}'"
            );
        }
    }
}
