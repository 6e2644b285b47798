//! The paper's evaluation (§8, Figures 8–15) as normalized series.
//!
//! `cargo run --release -p umzi-bench --bin figures` prints every figure;
//! `-- 10 11` prints only the figures named. `UMZI_BENCH_SCALE=full` selects
//! paper-scale parameters.

use umzi_bench::{figures, Scale};
use umzi_workload::KeyDist;

const FIGURES: [(u32, fn(Scale)); 8] = [
    (8, figures::fig08),
    (9, figures::fig09),
    (10, |s| figures::fig10_11(s, KeyDist::Sequential)),
    (11, |s| figures::fig10_11(s, KeyDist::Random)),
    (12, figures::fig12),
    (13, figures::fig13),
    (14, figures::fig14),
    (15, figures::fig15),
];

fn main() {
    let mut wanted: Vec<(u32, fn(Scale))> = Vec::new();
    for arg in std::env::args().skip(1) {
        match FIGURES.iter().find(|(n, _)| arg.parse() == Ok(*n)) {
            Some(figure) => wanted.push(*figure),
            None => {
                eprintln!("usage: figures [FIGURE]...   (figure numbers 8-15; none = all)");
                std::process::exit(2);
            }
        }
    }
    let scale = Scale::from_env();
    if wanted.is_empty() {
        println!("# Umzi reproduction — all figures ({scale:?} scale)");
        wanted.extend(FIGURES);
    } else {
        let numbers: Vec<u32> = wanted.iter().map(|(n, _)| *n).collect();
        println!("# Umzi reproduction — figures {numbers:?} ({scale:?} scale)");
    }
    let t0 = std::time::Instant::now();
    for (_, figure) in wanted {
        figure(scale);
    }
    println!("\nfigures regenerated in {:?}", t0.elapsed());
}
