//! The experiment runner: regenerates every table/figure from DESIGN.md.
//!
//! ```text
//! cargo run -p bda-bench --release --bin experiments            # all
//! cargo run -p bda-bench --release --bin experiments -- f1 f4   # subset
//! cargo run -p bda-bench --release --bin experiments -- --quick # small sizes
//! BDA_FAULT_SEED=7 cargo run -p bda-bench --release --bin experiments -- f6
//! ```
//!
//! `BDA_FAULT_SEED` picks F6's fault stream (default `0xBDA`).

use bda_bench::experiments::*;
use bda_bench::setup::{standard_federation, FederationSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let want = |id: &str| selected.is_empty() || selected.contains(&id);

    let spec = if quick {
        FederationSpec::tiny()
    } else {
        FederationSpec::default()
    };

    println!("bda experiment suite (paper: Maier, CIDR 2015 — desiderata)");
    println!("sizes: {}", if quick { "quick" } else { "full" });
    println!();

    if want("t1") || want("t2") {
        let fed = standard_federation(spec);
        if want("t1") {
            println!("{}", t1_coverage(&fed));
        }
        if want("t2") {
            println!("{}", t2_translatability(&fed));
        }
    }
    if want("t3") {
        println!("{}", t3_portability(spec));
    }
    if want("t4") {
        println!("{}", t4_dimension_awareness(spec));
    }
    if want("f1") {
        let sizes: &[usize] = if quick {
            &[16, 32]
        } else {
            &[32, 64, 128, 192]
        };
        println!("{}", f1_intent(sizes));
    }
    if want("f2") {
        let sizes: &[usize] = if quick { &[8, 16] } else { &[16, 32, 64, 128] };
        println!("{}", f2_interop(sizes));
    }
    if want("f3") {
        let ks: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8, 16] };
        let lats: &[f64] = if quick { &[1e-3] } else { &[1e-4, 1e-3, 1e-2] };
        println!("{}", f3_shipping(ks, lats));
    }
    if want("f4") {
        let sizes: &[usize] = if quick { &[30] } else { &[100, 300, 1000] };
        println!("{}", f4_iteration(sizes));
    }
    if want("f5") {
        let sels: &[f64] = if quick {
            &[0.1]
        } else {
            &[0.01, 0.1, 0.5, 1.0]
        };
        println!("{}", f5_pushdown(sels));
    }
    if want("f6") {
        let sizes: &[usize] = if quick { &[8] } else { &[8, 16, 32] };
        let seed = std::env::var("BDA_FAULT_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0xBDA);
        println!("{}", f6_fault_recovery(sizes, seed));
    }
    if want("f7") {
        let sizes: &[usize] = if quick { &[8, 16] } else { &[16, 64, 128] };
        let reps = if quick { 3 } else { 11 };
        println!("{}", f7_observability(sizes, reps));
    }
    if want("f8") {
        let n = if quick { 16 } else { 48 };
        let reps = if quick { 3 } else { 7 };
        println!("{}", f8_scaling(&[1, 2, 4], n, reps));
    }
}
