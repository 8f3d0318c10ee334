//! Emits CSV runtime series for the polynomial algorithms, supporting the
//! complexity claims of Table 1: each algorithm is timed over sweeps of
//! `n` (stages/leaves) and `p` (processors). The `exact_*` rows time the
//! exhaustive solver on the NP-hard cells for contrast: exponential in
//! `p` and in the number of fork leaves.
//!
//! Columns: `algorithm,n,p,micros`. Pipe to a file for plotting.

use repliflow_algorithms::{het_fork, het_pipeline, hom_fork, hom_pipeline};
use repliflow_core::gen::Gen;
use std::time::Instant;

fn time_us(mut f: impl FnMut()) -> u128 {
    // warm up once, then time the median of 3 runs
    f();
    let mut samples: Vec<u128> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_micros()
        })
        .collect();
    samples.sort_unstable();
    samples[1]
}

fn main() {
    println!("algorithm,n,p,micros");
    let mut gen = Gen::new(0x5CA1);

    // Theorem 3: O(n·p·(n+p)) latency DP — sweep n at fixed p and p at n
    for &n in &[4usize, 8, 16, 32, 64, 128] {
        let pipe = gen.pipeline(n, 1, 50);
        let plat = gen.hom_platform(16, 1, 4);
        let us = time_us(|| {
            let _ = hom_pipeline::min_latency_dp(&pipe, &plat);
        });
        println!("thm3_latency_dp,{n},16,{us}");
    }
    for &p in &[4usize, 8, 16, 32, 64] {
        let pipe = gen.pipeline(16, 1, 50);
        let plat = gen.hom_platform(p, 1, 4);
        let us = time_us(|| {
            let _ = hom_pipeline::min_latency_dp(&pipe, &plat);
        });
        println!("thm3_latency_dp,16,{p},{us}");
    }

    // Theorem 4: bi-criteria DP
    for &n in &[4usize, 8, 16, 32, 64] {
        let pipe = gen.pipeline(n, 1, 50);
        let plat = gen.hom_platform(16, 1, 4);
        let bound = repliflow_core::rational::Rat::int(1_000_000);
        let us = time_us(|| {
            let _ = hom_pipeline::min_latency_under_period(&pipe, &plat, bound);
        });
        println!("thm4_bicriteria_dp,{n},16,{us}");
    }

    // Theorem 7: binary search over candidates × packing DP — sweep p
    for &p in &[4usize, 8, 16, 32] {
        let pipe = gen.uniform_pipeline(24, 1, 20);
        let plat = gen.het_platform(p, 1, 20);
        let us = time_us(|| {
            let _ = het_pipeline::min_period_uniform(&pipe, &plat);
        });
        println!("thm7_period_binary_search,24,{p},{us}");
    }
    for &n in &[8usize, 16, 32, 64] {
        let pipe = gen.uniform_pipeline(n, 1, 20);
        let plat = gen.het_platform(12, 1, 20);
        let us = time_us(|| {
            let _ = het_pipeline::min_period_uniform(&pipe, &plat);
        });
        println!("thm7_period_binary_search,{n},12,{us}");
    }

    // Theorem 11: homogeneous fork latency (both models)
    for &n in &[4usize, 8, 16, 24] {
        let fork = gen.uniform_fork(n, 1, 20);
        let plat = gen.hom_platform(8, 1, 4);
        let us = time_us(|| {
            let _ = hom_fork::min_latency(&fork, &plat, true);
        });
        println!("thm11_fork_latency_dp,{n},8,{us}");
        let us = time_us(|| {
            let _ = hom_fork::min_latency(&fork, &plat, false);
        });
        println!("thm11_fork_latency_nodp,{n},8,{us}");
    }

    // Theorem 14: heterogeneous-platform fork, binary search × DP
    for &p in &[4usize, 8, 12, 16] {
        let fork = gen.uniform_fork(12, 1, 20);
        let plat = gen.het_platform(p, 1, 10);
        let us = time_us(|| {
            let _ = het_fork::min_period_uniform(&fork, &plat);
        });
        println!("thm14_fork_period,{p}_leaves12,{p},{us}");
    }

    // Exact solver blow-up (NP-hard evidence): exponential in p, and in
    // the number of fork leaves
    for &p in &[2usize, 3, 4, 5, 6, 7] {
        let pipe = gen.pipeline(6, 1, 20);
        let plat = gen.het_platform(p, 1, 8);
        let us = time_us(|| {
            let _ = repliflow_exact::solve_pipeline(
                &pipe,
                &plat,
                true,
                repliflow_exact::Goal::MinPeriod,
            );
        });
        println!("exact_pipeline_vs_p,6,{p},{us}");
    }
    for n in 2usize..=8 {
        let fork = gen.fork(n, 1, 10);
        let plat = gen.het_platform(4, 1, 5);
        let us = time_us(|| {
            let _ =
                repliflow_exact::solve_fork(&fork, &plat, true, repliflow_exact::Goal::MinLatency);
        });
        println!("exact_fork_vs_leaves,{n},4,{us}");
    }
}
