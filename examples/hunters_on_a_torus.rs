//! Hunters on a torus — the paper's opening metaphor, measured.
//!
//! "The prey begins at one node, the hunters begin at other nodes, and in
//! every step each player can traverse an edge of the graph." Here the
//! arena is a √n×√n torus, the prey holds still at a random cell, and k
//! hunters start together at the origin and random-walk independently
//! (they know nothing about the arena — the whole point of random-walk
//! exploration).
//!
//! Measured: (a) expected rounds until the prey's cell is first visited
//! (k-walk hitting time), (b) expected rounds until the entire arena has
//! been swept (k-walk cover time), and (c) how both improve with k. The
//! cover-time speed-up follows Theorem 8: linear while k ≤ log n, then
//! diminishing.
//!
//! Run with: `cargo run --release --example hunters_on_a_torus`

use many_walks::graph::generators::torus_2d;
use many_walks::stats::Summary;
use many_walks::walks::engine::{Engine, FullCover, SimpleStep};
use many_walks::walks::walk::step;
use many_walks::walks::walk_rng;
use rand::Rng;

fn main() {
    let side = 24;
    let g = torus_2d(side);
    let n = g.n();
    let origin = 0u32;
    let trials = 64u64;

    println!(
        "arena: {} ({} cells), prey hidden uniformly at random\n",
        g.name(),
        n
    );
    println!(
        "{:>4} {:>16} {:>8} {:>14} {:>8}",
        "k", "catch rounds", "S^k", "sweep rounds", "S^k"
    );
    println!("{}", "-".repeat(56));

    let mut catch_base = 0.0;
    let mut sweep_base = 0.0;
    for k in [1usize, 2, 4, 8, 16, 32] {
        let mut catch = Summary::new();
        let mut sweep = Summary::new();
        for t in 0..trials {
            // Catch: first visit to the prey's cell by any hunter.
            let mut rng = walk_rng(31 * k as u64 + t);
            let prey = rng.gen_range(1..n) as u32;
            let mut pos = vec![origin; k];
            let mut rounds = 0u64;
            'hunt: loop {
                rounds += 1;
                for p in pos.iter_mut() {
                    *p = step(&g, *p, &mut rng);
                    if *p == prey {
                        break 'hunt;
                    }
                }
            }
            catch.push(rounds as f64);

            // Sweep: cover the whole arena.
            let mut rng2 = walk_rng(77_000 + 31 * k as u64 + t);
            let out =
                Engine::new(&g, SimpleStep, FullCover::new(g.n())).run(&vec![origin; k], &mut rng2);
            sweep.push(out.rounds as f64);
        }
        if k == 1 {
            catch_base = catch.mean();
            sweep_base = sweep.mean();
        }
        println!(
            "{:>4} {:>16.0} {:>8.2} {:>14.0} {:>8.2}",
            k,
            catch.mean(),
            catch_base / catch.mean(),
            sweep.mean(),
            sweep_base / sweep.mean(),
        );
    }
    println!(
        "\nlog n ≈ {:.1}. Catching one prey is a hitting-time game and parallelizes\n\
         ~linearly; sweeping the whole arena is the cover-time game of Theorem 8 —\n\
         linear speed-up up to k ≈ log n, then the hunters start re-treading\n\
         each other's ground.",
        (n as f64).ln()
    );
}
