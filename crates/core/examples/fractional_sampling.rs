//! Fractional sampling (paper §4.3, Fig. 8): relax ps4's loop to the real
//! domain, sample from fractional initial values, and observe that the
//! relaxed invariant 4x − y⁴ − 2y³ − y² = 4x₀ − y₀⁴ − 2y₀³ − y₀² holds on
//! every relaxed sample.
//!
//! Run with `cargo run --release -p gcln --example fractional_sampling`.

use gcln::fractional::{fractional_points, FractionalConfig};
use gcln_problems::nla::nla_problem;

fn main() {
    let problem = nla_problem("ps4").expect("ps4 in NLA suite");
    let data = fractional_points(&problem, 0, &FractionalConfig::default())
        .expect("ps4 supports fractional sampling");
    println!("relaxed variables: {:?} (pinned to {:?})", data.names, data.init_values);
    println!("{:>8} {:>8} {:>8} {:>8}", "x", "y", "x0", "y0");
    for p in data.points.iter().take(12) {
        println!("{:>8.2} {:>8.2} {:>8.2} {:>8.2}", p[0], p[1], p[2], p[3]);
    }
    println!("... {} samples total", data.points.len());
    let violations = data
        .points
        .iter()
        .filter(|p| {
            let lhs = 4.0 * p[0] - p[1].powi(4) - 2.0 * p[1].powi(3) - p[1] * p[1];
            let rhs = 4.0 * p[2] - p[3].powi(4) - 2.0 * p[3].powi(3) - p[3] * p[3];
            (lhs - rhs).abs() > 1e-6
        })
        .count();
    println!("relaxed-invariant violations: {violations} (soundness of the relaxation)");
}
