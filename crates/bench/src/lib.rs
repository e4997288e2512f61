//! Shared helpers for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation section has a dedicated
//! binary in `src/bin/` that prints the regenerated rows/series:
//!
//! | binary | paper artefact |
//! |--------|----------------|
//! | `table1` | Table I — interface synthesis results |
//! | `fig3` | Fig. 3 — MR transmission spectrum (ON/OFF) |
//! | `fig4` | Fig. 4 — laser electrical power vs optical output |
//! | `fig5` | Fig. 5 — laser power vs target BER per scheme |
//! | `fig6a` | Fig. 6a — channel power breakdown at BER 10⁻¹¹ |
//! | `fig6b` | Fig. 6b — power/performance Pareto trade-off |
//! | `ablation_codes` | code-length ablation (A1) |
//! | `ablation_sensitivity` | geometry/activity sensitivity (A2) |
//! | `runtime_manager` | run-time manager scenario on the NoC simulator (R1) |
//! | `fig_thermal` | 25–85 °C sweep: power per scheme + manager switching (beyond the paper) |
//! | `fig_feedback` | closed-loop activity-driven heating demonstration (beyond the paper) |
//! | `fig_variation` | σ × temperature sweep: pure-heater vs barrel-shift tuning (beyond the paper) |
//! | `fig_assignment` | design-time (GLOW-style) wavelength assignment vs identity (beyond the paper) |
//! | `fig_workload` | hot compute cluster + link self-heating split (beyond the paper) |
//! | `fig_topology` | single ring vs multi-ring vs hybrid mesh → `BENCH_topology.json` (beyond the paper) |
//! | `fig_dvfs` | per-phase vs worst-case wavelength assignment → `BENCH_dvfs.json` (beyond the paper) |
//! | `perf_trajectory` | telemetry-instrumented scaling matrix → `BENCH_scaling.json` (beyond the paper) |
//!
//! Every artifact these binaries write is deterministic; host speed is
//! measured by the separate `hostbench/` package alone.
//!
//! Sweep binaries evaluate their temperature grids with [`parallel_map`]:
//! contiguous shards across `std::thread` workers, merged back in input
//! order, so the printed tables stay deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;

use onoc_link::report::TextTable;

// The ordered-merge parallel map moved to `onoc-parallel` so the simulator's
// epoch engine can shard per-ONI work without depending on this crate; the
// sweep binaries keep using it through this re-export.
pub use onoc_parallel::{default_shards, parallel_map};

/// Prints a standard banner naming the regenerated artefact.
pub fn banner(artifact: &str, description: &str) {
    println!("================================================================");
    println!("{artifact}: {description}");
    println!("(reproduction of 'Energy and Performance Trade-off in Nanophotonic");
    println!(" Interconnects using Coding Techniques', DAC 2017)");
    println!("================================================================");
}

/// Prints a table with a trailing blank line.
pub fn print_table(table: &TextTable) {
    println!("{table}");
}

/// Formats an optional value, printing `--` for `None` (infeasible points).
#[must_use]
pub fn opt(value: Option<f64>, precision: usize) -> String {
    value.map_or_else(|| "--".to_owned(), |v| format!("{v:.precision$}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_formats_values_and_placeholders() {
        assert_eq!(opt(Some(1.234), 2), "1.23");
        assert_eq!(opt(None, 2), "--");
    }

    #[test]
    fn parallel_map_is_re_exported() {
        // The implementation (and its ordering property tests) live in
        // `onoc-parallel`; this pin keeps the bench-facing path alive.
        let items: Vec<u64> = (0..10).collect();
        let expected: Vec<u64> = items.iter().map(|x| x + 1).collect();
        assert_eq!(parallel_map(&items, 4, |&x| x + 1), expected);
        assert!(default_shards() >= 1);
    }
}
