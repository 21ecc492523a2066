//! Random-walk querying in a wireless sensor network.
//!
//! The paper's introduction motivates multiple random walks with exactly
//! this workload: queries that wander a wireless ad-hoc network
//! ("rumor routing", ACQUIRE, random-walk membership services). A sensor
//! field is a random geometric graph; a sink node launches k query tokens
//! that random-walk the field. Two questions:
//!
//! 1. **Full sweep** — how long until every sensor has been queried
//!    (k-walk cover time)?
//! 2. **Needle search** — how long until some token reaches one specific
//!    sensor holding the answer (k-walk hitting time)?
//!
//! The RGG is Matthews-tight above the connectivity radius (the paper cites
//! Avin–Ercal for its cover time), so Theorem 4 predicts a linear speed-up
//! for k up to log n — which is what this example measures.
//!
//! Run with: `cargo run --release --example sensor_network_query`

use many_walks::graph::{algo, generators, Graph};
use many_walks::stats::Summary;
use many_walks::walks::engine::{Engine, FullCover, SimpleStep};
use many_walks::walks::walk_rng;
use rand::Rng;

/// Rounds until one of k walkers from `start` first reaches `target`.
fn kwalk_rounds_to_hit(
    g: &Graph,
    start: u32,
    target: u32,
    k: usize,
    rng: &mut many_walks::walks::WalkRng,
) -> u64 {
    let mut pos = vec![start; k];
    let mut rounds = 0u64;
    if start == target {
        return 0;
    }
    loop {
        rounds += 1;
        for p in pos.iter_mut() {
            *p = many_walks::walks::walk::step(g, *p, rng);
            if *p == target {
                return rounds;
            }
        }
    }
}

fn main() {
    // A 400-sensor field with radius comfortably above the connectivity
    // threshold sqrt(ln n / n) ≈ 0.12.
    let n = 400;
    let radius = 0.16;
    let mut rng = walk_rng(7);
    let g = loop {
        let g = generators::random_geometric(n, radius, &mut rng);
        if algo::is_connected(&g) {
            break g;
        }
        // Resample until connected (rare failure at this radius).
    };
    println!(
        "sensor field: {} ({} sensors, {} links, mean degree {:.1})\n",
        g.name(),
        g.n(),
        g.m(),
        2.0 * g.m() as f64 / g.n() as f64
    );

    let sink = 0u32;
    let trials = 48;

    println!(
        "{:>4} {:>16} {:>10} {:>18} {:>10}",
        "k", "sweep rounds", "speed-up", "search rounds", "speed-up"
    );
    println!("{}", "-".repeat(64));
    let mut sweep_base = 0.0;
    let mut search_base = 0.0;
    for k in [1usize, 2, 4, 6, 8, 16] {
        let mut sweep = Summary::new();
        let mut search = Summary::new();
        for t in 0..trials {
            let mut r1 = walk_rng(1000 + t);
            let out =
                Engine::new(&g, SimpleStep, FullCover::new(g.n())).run(&vec![sink; k], &mut r1);
            sweep.push(out.rounds as f64);
            // The "needle": a uniformly random sensor holds the answer.
            let mut r2 = walk_rng(5000 + t);
            let target = r2.gen_range(0..g.n()) as u32;
            search.push(kwalk_rounds_to_hit(&g, sink, target, k, &mut r2) as f64);
        }
        if k == 1 {
            sweep_base = sweep.mean();
            search_base = search.mean();
        }
        println!(
            "{:>4} {:>16.0} {:>10.2} {:>18.0} {:>10.2}",
            k,
            sweep.mean(),
            sweep_base / sweep.mean(),
            search.mean(),
            search_base / search.mean(),
        );
    }
    println!(
        "\nln n ≈ {:.1}: the paper's Theorem 4 predicts ≈ linear sweep speed-up up to\n\
         about that many walkers, and the needle search speeds up right along with it.",
        (n as f64).ln()
    );
}
