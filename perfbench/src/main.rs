//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --mrw PATH --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! perfbench --mrw PATH --self-test
//! ```
//!
//! With `--trace 0` it drives the shipped `mrw` binary through the
//! workload's closed loop and prints the end-to-end metrics; with
//! `--trace 1` it times the calls into each layer from here and prints the
//! per-layer metrics. Every output is checked byte for byte against a cold
//! in-process oracle. The last stdout line is the JSON result; the exit
//! code is nonzero when any operation failed or differed from the oracle.
//! `perfbench/README.md` defines every workload and metric, and maps each
//! per-layer metric to the end-to-end metric it should move.

#![forbid(unsafe_code)]

mod layers;
mod mrw;
mod util;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mrw::{Checker, Mrw};
use util::{json_num, quantile, result_line, valid_name, Metrics};
use workloads::{run_e2e, run_plan, Ctx, Workload, WORKLOADS};

const USAGE: &str = "usage: perfbench --mrw PATH --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n       perfbench --mrw PATH --self-test";

/// Scratch and trace output, relative to the checkout root.
const OUT_DIR: &str = ".perfbench";

struct Args {
    mrw: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        mrw: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--mrw" => a.mrw = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                a.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--smoke" => a.smoke = true,
            "--self-test" => a.self_test = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !a.mrw.is_file() {
        return Err(format!("--mrw {}: no such binary", a.mrw.display()));
    }
    if a.workload.is_none() && !a.self_test {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// One benchmark run: returns the metrics, the checker's counts, and the
/// host record printed beside the result.
fn run_one(
    mrw_bin: &Path,
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<(Metrics, Checker, String), String> {
    let dir = Path::new(OUT_DIR).join(format!("run-{}-{seed}-{}", w.name(), std::process::id()));
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let ctx = Ctx {
        mrw: Mrw {
            bin: mrw_bin.to_path_buf(),
            tmp: std::fs::canonicalize(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?,
        },
        dir: dir.clone(),
        seed,
        seconds,
        smoke,
    };
    let mut checker = Checker::default();
    let (metrics, two_proc, overhead) = if trace {
        let (m, tracer) = layers::traced(&ctx, w, &mut checker);
        let path = Path::new(OUT_DIR).join(format!("trace-{}-{seed}.jsonl", w.name()));
        tracer
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let host = (
            m.get("host.two_proc_speedup").unwrap_or(f64::NAN),
            m.get("trace.overhead_frac").unwrap_or(f64::NAN),
        );
        (m, host.0, host.1)
    } else {
        let e = run_e2e(&ctx, &run_plan(&ctx, w), &mut checker);
        let two_proc = layers::two_proc_speedup(&ctx, &mut checker);
        checker.verify();
        println!(
            "tail: p{} of the small latencies is {} ms over {} samples",
            workloads::TAIL_QUANTILE * 100.0,
            json_num(quantile(&e.small, workloads::TAIL_QUANTILE) * 1e3),
            e.small.len()
        );
        println!("samples: {}", e.spread());
        (e.metrics(), two_proc, f64::NAN)
    };
    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            checker.fail(format!("metric {name} is not a finite number"));
        }
    }
    let host = format!(
        "host: {{\"nproc\": {}, \"available_threads\": {}, \"two_proc_speedup\": {}, \"trace_overhead_frac\": {}}}",
        layers::nproc(),
        mrw_par::available_threads(),
        json_num(two_proc),
        json_num(overhead)
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok((metrics, checker, host))
}

/// The metric names and units `BENCHMARK.json` lists under `key`.
fn listed(doc: &mrw_core::query::json::Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(|v| v.as_arr())
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// Checks `metrics` prints exactly the `expected` names, each with its
/// listed unit.
fn names_match(metrics: &Metrics, expected: &[(String, String)]) -> Result<(), String> {
    for (name, unit) in expected {
        match metrics.0.iter().find(|m| &m.0 == name) {
            None => return Err(format!("metric {name} missing")),
            Some(m) if m.2 != unit => {
                return Err(format!("metric {name} has unit {} not {unit}", m.2))
            }
            Some(_) => {}
        }
    }
    for m in &metrics.0 {
        if !expected.iter().any(|(n, _)| n == &m.0) {
            return Err(format!("metric {} is not listed in BENCHMARK.json", m.0));
        }
    }
    Ok(())
}

/// The exact counts that must repeat for a fixed seed.
const EXACT: [&str; 4] = [
    "engine.tsteps",
    "stats.trials_consumed",
    "stats.waves",
    "serve.trials_executed",
];

/// Self-test: names are valid and match `BENCHMARK.json`, and every
/// workload runs to completion at smoke size, untraced and traced, with no
/// failed operation; traced exact counts repeat across two runs.
fn self_test(mrw_bin: &Path) -> Result<(), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = mrw_core::query::json::parse(&text)?;
    let e2e = listed(&doc, "end_to_end");
    let layers = listed(&doc, "per_layer");
    let listed_workloads: Vec<String> = doc
        .get("workloads")
        .and_then(|v| v.as_arr())
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| Some(w.get("name")?.as_str()?.to_string()))
        .collect();
    for (name, _) in e2e.iter().chain(&layers) {
        if !valid_name(name) {
            return Err(format!("invalid metric name '{name}'"));
        }
    }
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name().to_string()).collect();
    if listed_workloads != ours {
        return Err(format!(
            "BENCHMARK.json lists workloads {listed_workloads:?}, the benchmark has {ours:?}"
        ));
    }
    for w in WORKLOADS {
        let (m, c, _) = run_one(mrw_bin, w, 1, 1.0, false, true)?;
        names_match(&m, &e2e).map_err(|e| format!("{} untraced: {e}", w.name()))?;
        if c.failed > 0 {
            return Err(format!(
                "{} untraced: {} failed operation(s)",
                w.name(),
                c.failed
            ));
        }
        let mut counts = Vec::new();
        for _ in 0..2 {
            let (m, c, _) = run_one(mrw_bin, w, 1, 1.0, true, true)?;
            names_match(&m, &layers).map_err(|e| format!("{} traced: {e}", w.name()))?;
            if c.failed > 0 {
                return Err(format!(
                    "{} traced: {} failed operation(s)",
                    w.name(),
                    c.failed
                ));
            }
            counts.push(EXACT.map(|n| m.get(n).unwrap_or(f64::NAN)));
        }
        if counts[0] != counts[1] {
            return Err(format!(
                "{}: exact counts {EXACT:?} differ between runs: {:?} vs {:?}",
                w.name(),
                counts[0],
                counts[1]
            ));
        }
        eprintln!("perfbench self-test: {} ok", w.name());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return match self_test(&args.mrw) {
            Ok(()) => {
                eprintln!("perfbench self-test: all workloads ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench self-test: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let w = args.workload.expect("checked in parse_args");
    match run_one(
        &args.mrw,
        w,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
    ) {
        Ok((metrics, checker, host)) => {
            println!("{host}");
            println!(
                "{}",
                result_line(checker.attempted, checker.failed, &metrics)
            );
            if checker.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
