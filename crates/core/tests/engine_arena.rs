//! Property tests for [`EngineArena`] reset semantics: a run on a reused
//! (dirty) arena must be byte-identical to a run on a fresh engine — same
//! rounds, same stopping verdict, same final positions, same observer
//! statistics — across every observer, both disciplines, and all three
//! batch modes. The arena is scratch memory, never a carrier of state
//! between runs.
//!
//! Also pinned here: an observer's bulk round hook
//! ([`Observer::visit_round`]) must leave exactly what its per-token
//! `visit` calls leave, on every driver that calls it.

use mrw_core::engine::{
    BatchMode, CompiledProcess, CoverageCurve, Discipline, Engine, EngineArena, FullCover, Hit,
    Meeting, Multicover, Observer, PartialCover, PreyStrategy, Process, Pursuit, SimpleStep, Trace,
    VisitTally,
};
use mrw_core::{walk_rng, WalkProcess};
use mrw_graph::{generators, Graph, GraphBackend, ImplicitGraph};
use proptest::prelude::*;
use rand::Rng;

/// A canonical, comparable record of everything a run produced.
#[derive(Debug, PartialEq)]
struct Digest {
    rounds: u64,
    stopped: bool,
    positions: Vec<u32>,
    stats: Vec<u64>,
}

const CAP: u64 = 2_000;

fn family(fam: usize, size: usize) -> Graph {
    match fam % 5 {
        0 => generators::cycle(8 + size % 24),
        1 => generators::torus_2d(3 + size % 4),
        2 => generators::complete_with_loops(6 + size % 12),
        3 => generators::hypercube(3 + (size % 3) as u32),
        _ => generators::barbell(9 + 2 * (size % 4)),
    }
}

/// The implicit twin of `family(fam, size)`, for the families that have
/// one: the same cycle or torus, so the implicit driver runs the case too.
fn implicit_twin(fam: usize, size: usize) -> Option<ImplicitGraph> {
    match fam % 5 {
        0 => Some(ImplicitGraph::cycle(8 + size % 24)),
        1 => Some(ImplicitGraph::torus_2d(3 + size % 4)),
        _ => None,
    }
}

/// Forwards every hook except `visit_round`, so the engine runs the
/// trait's default round hook — one `visit` per token, in token order —
/// on the wrapped observer.
struct PerToken<O>(O);

impl<O: Observer> Observer for PerToken<O> {
    fn visit(&mut self, token: usize, v: u32) {
        self.0.visit(token, v);
    }

    fn done(&self) -> bool {
        self.0.done()
    }

    fn placed<G: GraphBackend>(&mut self, g: &G, positions: &[u32]) {
        self.0.placed(g, positions);
    }

    fn end_round<G: GraphBackend, R: Rng + ?Sized>(
        &mut self,
        g: &G,
        positions: &[u32],
        rng: &mut R,
    ) -> bool {
        self.0.end_round(g, positions, rng)
    }
}

fn cover_stats(o: FullCover) -> Vec<u64> {
    let mut s = vec![o.remaining() as u64, o.done() as u64];
    s.extend(o.visited().iter().map(u64::from));
    s
}

fn partial_stats(o: PartialCover) -> Vec<u64> {
    vec![o.seen() as u64, o.done() as u64]
}

/// A simple-walk run on a fresh engine, capped at `cap` rounds, digested.
#[allow(clippy::too_many_arguments)]
fn capped_run<G: GraphBackend, O: Observer>(
    g: &G,
    starts: &[u32],
    seed: u64,
    discipline: Discipline,
    batch: BatchMode,
    cap: u64,
    observer: O,
    digest: impl FnOnce(O) -> Vec<u64>,
) -> Digest {
    let out = Engine::new(g, SimpleStep, observer)
        .discipline(discipline)
        .batch(batch)
        .cap(cap)
        .run(starts, &mut walk_rng(seed));
    Digest {
        rounds: out.rounds,
        stopped: out.stopped,
        positions: out.positions,
        stats: digest(out.observer),
    }
}

/// Runs one configuration either on a fresh engine (`arena: None`) or on
/// the given (deliberately dirty) arena, and digests the outcome.
#[allow(clippy::too_many_arguments)]
fn run_case<P: Process, O: Observer>(
    g: &Graph,
    process: P,
    starts: &[u32],
    seed: u64,
    discipline: Discipline,
    batch: BatchMode,
    observer: O,
    digest: impl FnOnce(O) -> Vec<u64>,
    arena: Option<&mut EngineArena>,
) -> Digest {
    let engine = Engine::new(g, process, observer)
        .discipline(discipline)
        .batch(batch)
        .cap(CAP);
    match arena {
        None => {
            let out = engine.run(starts, &mut walk_rng(seed));
            Digest {
                rounds: out.rounds,
                stopped: out.stopped,
                positions: out.positions,
                stats: digest(out.observer),
            }
        }
        Some(a) => {
            let out = engine.run_with(starts, &mut walk_rng(seed), a);
            Digest {
                rounds: out.rounds,
                stopped: out.stopped,
                positions: a.positions().to_vec(),
                stats: digest(out.observer),
            }
        }
    }
}

/// An arena left dirty by an unrelated run (different seed, token count,
/// and trajectory length than the case under test).
fn dirty_arena(g: &Graph, k: usize, dirty_seed: u64) -> EngineArena {
    let mut arena = EngineArena::new();
    let dirty_starts = vec![0u32; k + 3];
    let _ = Engine::new(g, SimpleStep, FullCover::new(g.n()))
        .batch(BatchMode::Always)
        .cap(17)
        .run_with(&dirty_starts, &mut walk_rng(dirty_seed), &mut arena);
    arena
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn reused_arena_is_byte_identical_across_observers(
        fam in 0usize..5,
        size in 0usize..24,
        k in 1usize..10,
        seed in any::<u64>(),
        disc in 0usize..2,
        batch in 0usize..3,
        dirty_seed in any::<u64>(),
    ) {
        let g = family(fam, size);
        let n = g.n();
        let start = (seed % n as u64) as u32;
        let probe = ((seed >> 7) % n as u64) as u32;
        let starts = vec![start; k];
        let discipline = [Discipline::RoundSynchronous, Discipline::Interleaved][disc];
        let batch = [BatchMode::Auto, BatchMode::Never, BatchMode::Always][batch];

        macro_rules! case {
            ($mk:expr, $dg:expr) => {{
                let fresh = run_case(
                    &g, SimpleStep, &starts, seed, discipline, batch, $mk, $dg, None,
                );
                let mut arena = dirty_arena(&g, k, dirty_seed);
                let reused = run_case(
                    &g, SimpleStep, &starts, seed, discipline, batch, $mk, $dg,
                    Some(&mut arena),
                );
                prop_assert_eq!(&fresh, &reused, "observer diverged on {}", g.name());
            }};
        }

        case!((), |_| Vec::new());
        case!(FullCover::new(n), |o: FullCover| {
            let mut s = vec![o.remaining() as u64];
            s.extend(o.visited().iter().map(u64::from));
            s
        });
        case!(PartialCover::new(n, n.div_ceil(2)), |o: PartialCover| vec![
            o.seen() as u64
        ]);
        case!(Multicover::new(n, 2), |o: Multicover| o.counts().to_vec());
        case!(Hit::new(probe), |o: Hit| vec![o.done() as u64]);
        case!(Meeting::new(), |o: Meeting| vec![o.done() as u64]);
        case!(Pursuit::new(probe, PreyStrategy::Hide), |o: Pursuit| vec![
            o.prey_position() as u64,
            o.done() as u64
        ]);
        case!(Pursuit::new(probe, PreyStrategy::RandomWalk), |o: Pursuit| vec![
            o.prey_position() as u64,
            o.done() as u64
        ]);
        case!(VisitTally::new(n), |o: VisitTally| o.into_counts());
        case!(CoverageCurve::new(n, CAP as usize), |o: CoverageCurve| o
            .into_curve()
            .into_iter()
            .map(f64::to_bits)
            .collect());
        case!(Trace::new(CAP as usize), |o: Trace| o
            .into_positions()
            .into_iter()
            .map(u64::from)
            .collect());
    }

    #[test]
    fn bulk_round_marking_matches_per_token_visits(
        fam in 0usize..5,
        size in 0usize..24,
        k in 1usize..10,
        wide in 0usize..4,
        seed in any::<u64>(),
        disc in 0usize..2,
        batch in 0usize..3,
        percent in 0usize..=100,
        rounds in 0u64..60,
    ) {
        // A few tokens show a mis-marked one in the digest; a quarter of
        // the cases run past BATCH_AUTO_MIN_K, where `Auto` batches too.
        // Most runs stop at a short cap, where the digest shows the
        // visited set mid-run; the rest run to the stopping rule.
        let k = if wide == 0 { k + 63 } else { k };
        let g = family(fam, size);
        let n = g.n();
        let starts = vec![(seed % n as u64) as u32; k];
        let discipline = [Discipline::RoundSynchronous, Discipline::Interleaved][disc];
        let batch = [BatchMode::Auto, BatchMode::Never, BatchMode::Always][batch];
        let target = (percent * n).div_ceil(100);
        let cap = if rounds < 50 { rounds } else { CAP };

        macro_rules! same {
            ($g:expr, $mk:expr, $stats:expr) => {{
                let bulk = capped_run($g, &starts, seed, discipline, batch, cap, $mk, $stats);
                let per_token = capped_run(
                    $g, &starts, seed, discipline, batch, cap,
                    PerToken($mk), |o: PerToken<_>| $stats(o.0),
                );
                prop_assert_eq!(&bulk, &per_token, "{} on {}", stringify!($mk), $g.name());
            }};
        }

        same!(&g, FullCover::new(n), cover_stats);
        same!(&g, PartialCover::new(n, target), partial_stats);
        if let Some(twin) = implicit_twin(fam, size) {
            same!(&twin, FullCover::new(n), cover_stats);
            same!(&twin, PartialCover::new(n, target), partial_stats);
        }
    }

    #[test]
    fn reused_arena_is_byte_identical_for_compiled_kernels(
        fam in 0usize..5,
        size in 0usize..24,
        k in 1usize..10,
        seed in any::<u64>(),
        batch in 0usize..3,
        hold in 0usize..3,
        dirty_seed in any::<u64>(),
    ) {
        let g = family(fam, size);
        let n = g.n();
        let starts = vec![(seed % n as u64) as u32; k];
        let batch = [BatchMode::Auto, BatchMode::Never, BatchMode::Always][batch];
        let process = [
            WalkProcess::Simple,
            WalkProcess::Lazy([0.25, 0.5, 0.75][hold]),
            WalkProcess::Metropolis,
        ][hold % 3];

        let digest = |o: FullCover| vec![o.remaining() as u64];
        let fresh = run_case(
            &g,
            CompiledProcess::new(process, &g),
            &starts,
            seed,
            Discipline::RoundSynchronous,
            batch,
            FullCover::new(n),
            digest,
            None,
        );
        let mut arena = dirty_arena(&g, k, dirty_seed);
        let reused = run_case(
            &g,
            CompiledProcess::new(process, &g),
            &starts,
            seed,
            Discipline::RoundSynchronous,
            batch,
            FullCover::new(n),
            digest,
            Some(&mut arena),
        );
        prop_assert_eq!(&fresh, &reused, "{:?} diverged on {}", process, g.name());
    }

    #[test]
    fn one_arena_serves_many_runs_in_sequence(
        fam in 0usize..5,
        size in 0usize..24,
        seeds in prop::collection::vec(0u64..1_000_000, 2..6),
    ) {
        // The same arena threads through a whole sequence of runs with
        // varying k; each run must still match its fresh twin.
        let g = family(fam, size);
        let mut arena = EngineArena::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let k = 1 + (i * 7 + fam) % 9;
            let starts = vec![0u32; k];
            let fresh = Engine::new(&g, SimpleStep, FullCover::new(g.n()))
                .batch(BatchMode::Always)
                .cap(CAP)
                .run(&starts, &mut walk_rng(seed));
            let reused = Engine::new(&g, SimpleStep, FullCover::new(g.n()))
                .batch(BatchMode::Always)
                .cap(CAP)
                .run_with(&starts, &mut walk_rng(seed), &mut arena);
            prop_assert_eq!(fresh.rounds, reused.rounds);
            prop_assert_eq!(fresh.stopped, reused.stopped);
            prop_assert_eq!(&fresh.positions[..], arena.positions());
        }
    }
}
