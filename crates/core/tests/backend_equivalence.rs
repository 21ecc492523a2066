//! Cross-backend determinism suite: the implicit arithmetic backends
//! must be *indistinguishable* from materialized CSR at the report level.
//!
//! For every family with an implicit twin, `Session::run` must produce
//! JSON-byte-identical reports across:
//!
//! * backend — CSR arrays vs closed-form neighborhoods;
//! * stepping discipline — round-synchronous and interleaved;
//! * engine path — scalar (`BatchMode::Never`) and batched counter
//!   expansion (`BatchMode::Always`), with one- and two-word kernels;
//! * worker threads — 1, 2 and 4.
//!
//! That is the contract that lets the CLI auto-switch oversized specs to
//! `--backend implicit` without changing a single reported byte; the
//! resolve-layer tests at the bottom pin the switch (and its friendly
//! refusal) itself.

use mrw_core::engine::{BatchMode, Discipline};
use mrw_core::query::{
    AnyGraph, BackendChoice, Budget, GraphSpec, Query, Session, AUTO_IMPLICIT_BYTES, MAX_CSR_BYTES,
};
use mrw_graph::{generators, GraphBackend, ImplicitGraph};

/// Every implicit family at sizes where CSR comfortably materializes,
/// plus the smallest instances of each wrap-heavy row arm: the 2 × 2
/// torus (degree 2), the 3 × 3 torus (8 of 9 vertices on a wrap edge) and
/// the 3-cycle.
fn twin_pairs() -> Vec<(mrw_graph::Graph, ImplicitGraph)> {
    vec![
        (generators::cycle(48), ImplicitGraph::cycle(48)),
        (generators::cycle(3), ImplicitGraph::cycle(3)),
        (generators::torus_2d(7), ImplicitGraph::torus_2d(7)),
        (generators::torus_2d(2), ImplicitGraph::torus_2d(2)),
        (generators::torus_2d(3), ImplicitGraph::torus_2d(3)),
        (generators::hypercube(5), ImplicitGraph::hypercube(5)),
        (
            generators::circulant(40, &[1, 7]),
            ImplicitGraph::circulant(40, &[1, 7]),
        ),
    ]
}

#[test]
fn reports_byte_identical_across_backends_disciplines_batches_threads() {
    for (csr, implicit) in &twin_pairs() {
        assert_eq!(csr.name(), implicit.name(), "twin name contract");
        let queries = [
            Query::Cover {
                k: 4,
                starts: vec![0, (csr.n() / 2) as u32],
            },
            Query::PartialCover {
                k: 3,
                start: 1,
                gammas: vec![0.5, 0.9],
            },
            // A lazy walk draws two words per step (`bpt = 2`).
            Query::Meeting {
                a: 0,
                b: (csr.n() / 2) as u32,
                laziness: Some(0.5),
                cap: 100_000,
            },
        ];
        for query in &queries {
            for mode in [Discipline::RoundSynchronous, Discipline::Interleaved] {
                for batch in [BatchMode::Never, BatchMode::Always] {
                    let budget = |threads| Budget {
                        trials: 5,
                        seed: 23,
                        threads,
                        batch,
                        mode,
                        ..Budget::default()
                    };
                    let baseline = Session::new(budget(1)).run(csr, query).to_json();
                    for threads in [1usize, 2, 4] {
                        let c = Session::new(budget(threads)).run(csr, query).to_json();
                        let i = Session::new(budget(threads)).run(implicit, query).to_json();
                        assert_eq!(
                            c,
                            i,
                            "{} {query:?} {mode:?} {batch:?} t={threads}: backend divergence",
                            csr.name()
                        );
                        assert_eq!(
                            c,
                            baseline,
                            "{} {query:?} {mode:?} {batch:?} t={threads}: thread divergence",
                            csr.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn resolved_backends_agree_with_handwritten_twins() {
    // The spec layer's auto-switch must hand `Session` the same graphs
    // the twins above hand-build: resolve both ways and compare reports.
    let spec = GraphSpec::new("torus", 6);
    let csr = GraphSpec {
        backend: BackendChoice::Csr,
        ..spec.clone()
    }
    .resolve()
    .expect("small torus materializes");
    let implicit = GraphSpec {
        backend: BackendChoice::Implicit,
        ..spec
    }
    .resolve()
    .expect("torus has an implicit twin");
    assert!(matches!(csr, AnyGraph::Csr(_)));
    assert!(matches!(implicit, AnyGraph::Implicit(_)));
    let q = Query::Cover {
        k: 2,
        starts: vec![0],
    };
    let budget = Budget {
        trials: 4,
        seed: 9,
        ..Budget::default()
    };
    let a = Session::new(budget.clone()).run(&csr, &q).to_json();
    let b = Session::new(budget).run(&implicit, &q).to_json();
    assert_eq!(a, b);
}

// --- GraphSpec::resolve: the oversized-`--n` UX contract ------------------

/// A cycle spec whose CSR estimate exceeds the hard guard (16 bytes per
/// vertex, so 2²⁷ vertices ≈ 2.1 GiB > 1.5 GiB).
fn oversized_cycle() -> GraphSpec {
    let spec = GraphSpec::new("cycle", 1 << 27);
    assert!(spec.csr_bytes_estimate() > MAX_CSR_BYTES);
    spec
}

#[test]
fn oversized_csr_refusal_suggests_the_implicit_backend() {
    let err = GraphSpec {
        backend: BackendChoice::Csr,
        ..oversized_cycle()
    }
    .resolve()
    .expect_err("estimate above the guard must refuse, not allocate");
    assert!(
        err.contains("--backend implicit"),
        "refusal must point at the fix: {err}"
    );
    assert!(err.contains("MiB"), "refusal must quantify the ask: {err}");
}

#[test]
fn oversized_csr_refusal_without_a_twin_says_so() {
    let spec = GraphSpec {
        backend: BackendChoice::Csr,
        ..GraphSpec::new("clique", 40_000)
    };
    assert!(spec.csr_bytes_estimate() > MAX_CSR_BYTES);
    let err = spec.resolve().expect_err("oversized clique must refuse");
    assert!(
        err.contains("no implicit backend"),
        "clique has no arithmetic rows; the error must not dangle a flag \
         that cannot work: {err}"
    );
}

/// The refusal points at `--backend implicit` only where the implicit
/// backend accepts the family: a degree-66 circulant past the guard gets
/// that backend's own refusal on `auto` and `csr`, while an oversized
/// torus keeps the hint. Both are refused from the estimate alone, before
/// any array is built.
#[test]
fn oversized_csr_refusal_hints_only_what_the_implicit_backend_accepts() {
    let wide = GraphSpec {
        jumps: (1..=33).collect(),
        ..GraphSpec::new("circulant", 1 << 23)
    };
    assert!(wide.csr_bytes_estimate() > MAX_CSR_BYTES);
    for backend in [BackendChoice::Auto, BackendChoice::Csr] {
        let err = GraphSpec {
            backend,
            ..wide.clone()
        }
        .resolve()
        .expect_err("oversized circulant must refuse");
        assert!(err.contains("above the backend limit 64"), "{err}");
        assert!(!err.contains("--backend implicit"), "{err}");
    }
    let torus = GraphSpec {
        backend: BackendChoice::Csr,
        ..GraphSpec::new("torus", 40_000)
    };
    assert!(torus.csr_bytes_estimate() > MAX_CSR_BYTES);
    let err = torus.resolve().expect_err("oversized torus must refuse");
    assert!(err.contains("re-run with --backend implicit"), "{err}");
}

#[test]
fn auto_backend_switches_to_implicit_above_the_threshold() {
    // Above the auto threshold but below the hard guard: auto goes
    // implicit without touching CSR memory.
    let spec = GraphSpec::new("cycle", 1 << 23);
    let estimate = spec.csr_bytes_estimate();
    assert!(estimate > AUTO_IMPLICIT_BYTES && estimate <= MAX_CSR_BYTES);
    assert!(matches!(
        spec.resolve().expect("auto resolves"),
        AnyGraph::Implicit(_)
    ));
    // Small stays CSR — materialized arrays are the faster engine path.
    assert!(matches!(
        GraphSpec::new("cycle", 1 << 10).resolve().expect("small"),
        AnyGraph::Csr(_)
    ));
    // Auto with no twin and an oversized estimate: same refusal as csr.
    let err = GraphSpec::new("clique", 40_000)
        .resolve()
        .expect_err("auto cannot save a family without a twin");
    assert!(err.contains("no implicit backend"), "{err}");
}

/// Peak resident set (VmHWM) of this process in KiB, from
/// `/proc/self/status` — Linux-only, which is fine for an `#[ignore]`d
/// capacity probe.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line")
}

/// The beyond-RAM headline: a partial-cover estimate on a 10⁸-vertex
/// torus through the implicit backend, peak RSS under 1 GiB. The same
/// spec refuses to materialize as CSR (≈1.9 GiB of arrays). Run with
/// `cargo test -p mrw-core --test backend_equivalence --release -- --ignored`.
#[test]
#[ignore = "capacity probe: ~10⁸-vertex run, seconds in release, minutes in debug"]
fn hundred_million_vertex_torus_fits_under_a_gigabyte() {
    let spec = GraphSpec {
        backend: BackendChoice::Implicit,
        ..GraphSpec::new("torus", 10_000)
    };
    assert!(
        spec.csr_bytes_estimate() > MAX_CSR_BYTES,
        "the CSR route must genuinely be impossible for this claim to mean anything"
    );
    let g = spec.resolve().expect("implicit torus at any side");
    assert_eq!(g.n(), 100_000_000);
    let report = Session::new(Budget {
        trials: 2,
        seed: 5,
        ..Budget::default()
    })
    .run(
        &g,
        &Query::PartialCover {
            k: 64,
            start: 0,
            gammas: vec![1e-6],
        },
    );
    // γn = 100 vertices reached, a real (if tiny) estimate.
    assert!(report.is_complete());
    assert!(report.mean() > 0.0);
    let hwm_kib = vm_hwm_kib();
    assert!(
        hwm_kib < (1 << 20),
        "peak RSS {hwm_kib} KiB breaches the 1 GiB beyond-RAM budget"
    );
}

#[test]
fn explicit_implicit_for_unsupported_family_errors() {
    let err = GraphSpec {
        backend: BackendChoice::Implicit,
        ..GraphSpec::new("barbell", 101)
    }
    .resolve()
    .expect_err("barbell has no closed-form rows");
    assert!(err.contains("no implicit backend"), "{err}");
}

/// A closed-form family's parameter error is an `Err` on every backend
/// that checks it, never a panic: the family's own rules on all three,
/// and the implicit backend's limits (the one-vertex torus, degree above
/// its row buffers) on `implicit` only.
#[test]
fn closed_form_parameter_errors_are_structured_on_every_backend() {
    use BackendChoice::{Auto, Csr, Implicit};
    let circulant = |n: usize, jumps: &[usize]| GraphSpec {
        jumps: jumps.to_vec(),
        ..GraphSpec::new("circulant", n)
    };
    let wide: Vec<usize> = (1..=33).collect();
    let every: &[BackendChoice] = &[Csr, Implicit, Auto];
    let cases = [
        (
            GraphSpec::new("cycle", 2),
            every,
            "cycle needs n ≥ 3, got 2",
        ),
        (
            GraphSpec::new("torus", 0),
            every,
            "torus needs side ≥ 1, got 0",
        ),
        (
            GraphSpec::new("torus", 1),
            &[Implicit],
            "implicit torus needs side ≥ 2, got 1",
        ),
        (
            GraphSpec::new("torus", 65_536),
            every,
            "torus needs side ≤ 65535 (n = side² ≤ u32::MAX), got 65536",
        ),
        (
            GraphSpec::new("hypercube", 0),
            every,
            "hypercube needs dimension in 1..=30, got 0",
        ),
        (
            GraphSpec::new("hypercube", 31),
            every,
            "hypercube needs dimension in 1..=30, got 31",
        ),
        (
            circulant(10, &[]),
            every,
            "circulant needs at least one jump",
        ),
        (circulant(10, &[0]), every, "jump 0 out of range 1..10"),
        (circulant(10, &[10]), every, "jump 10 out of range 1..10"),
        (
            circulant(10, &[3, 7]),
            every,
            "jump 7 duplicates another jump modulo ±-symmetry",
        ),
        (
            circulant(200, &wide),
            &[Implicit],
            "has degree 66, above the backend limit 64",
        ),
    ];
    for (spec, backends, message) in cases {
        for &backend in backends {
            let spec = GraphSpec {
                backend,
                ..spec.clone()
            };
            match spec.resolve() {
                Err(e) => assert!(e.contains(message), "{spec:?}: {e}"),
                Ok(g) => panic!("{spec:?} resolved to {}", g.name()),
            }
        }
    }
    // What only the implicit backend refuses stays a CSR graph elsewhere.
    for backend in [Csr, Auto] {
        let one = GraphSpec {
            backend,
            ..GraphSpec::new("torus", 1)
        };
        assert_eq!(one.resolve().expect("one-vertex torus").n(), 1);
        let g = GraphSpec {
            backend,
            ..circulant(200, &wide)
        }
        .resolve()
        .expect("degree-66 circulant");
        assert!(matches!(g, AnyGraph::Csr(_)));
        assert_eq!(g.regular_degree(), Some(66));
    }
}

/// `auto` goes implicit only for a family the implicit backend accepts:
/// a degree-66 circulant whose CSR estimate (68.0 MiB) passes
/// `AUTO_IMPLICIT_BYTES` is beyond the implicit rows' degree limit, so it
/// falls back to CSR — the graph-cache identity says so too — and
/// reports exactly what `--backend csr` reports.
#[test]
fn auto_falls_back_to_csr_when_the_implicit_backend_refuses_the_family() {
    let wide = GraphSpec {
        jumps: (1..=33).collect(),
        ..GraphSpec::new("circulant", 1 << 18)
    };
    let estimate = wide.csr_bytes_estimate();
    assert_eq!(estimate, (((1 << 18) + 1) * 8 + (1 << 18) * 66 * 4) as u128);
    assert!(estimate > AUTO_IMPLICIT_BYTES && estimate <= MAX_CSR_BYTES);
    assert_eq!(wide.resolved_backend(), BackendChoice::Csr);
    assert!(wide.cache_key().ends_with(":csr"), "{}", wide.cache_key());
    let q = Query::PartialCover {
        k: 4,
        start: 0,
        gammas: vec![1e-4],
    };
    let budget = Budget {
        trials: 2,
        seed: 11,
        ..Budget::default()
    };
    let report = |spec: &GraphSpec| {
        let g = spec.resolve().expect("degree-66 circulant resolves");
        assert!(matches!(g, AnyGraph::Csr(_)), "{spec:?}");
        Session::new(budget.clone()).run(&g, &q).to_json()
    };
    let auto = report(&wide);
    let csr = report(&GraphSpec {
        backend: BackendChoice::Csr,
        ..wide.clone()
    });
    assert_eq!(auto, csr);
}

/// A closed-form family's CSR estimate is its `ClosedForm`'s own vertex
/// count and degree: a half jump adds one neighbor, not two, and the
/// side-2 torus has degree 2.
#[test]
fn closed_form_estimates_count_each_family_degree_once() {
    let bytes = |n: u128, degree: u128| (n + 1) * 8 + n * degree * 4;
    let half = GraphSpec {
        jumps: vec![1, 8],
        ..GraphSpec::new("circulant", 16)
    };
    assert_eq!(half.csr_bytes_estimate(), bytes(16, 3));
    assert_eq!(GraphSpec::new("torus", 2).csr_bytes_estimate(), bytes(4, 2));
    assert_eq!(GraphSpec::new("torus", 1).csr_bytes_estimate(), bytes(1, 0));
    assert_eq!(
        GraphSpec::new("hypercube", 5).csr_bytes_estimate(),
        bytes(32, 5)
    );
    assert_eq!(GraphSpec::new("cycle", 9).csr_bytes_estimate(), bytes(9, 2));
    for spec in [
        half,
        GraphSpec::new("torus", 2),
        GraphSpec::new("hypercube", 5),
    ] {
        let g = spec.build().expect("small closed form builds");
        assert_eq!(
            spec.csr_bytes_estimate(),
            bytes(g.n() as u128, (2 * g.m() / g.n()) as u128),
            "{spec:?}"
        );
    }
}
