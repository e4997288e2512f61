//! Perf-trajectory benchmark: runs the fixed scenario matrix (fleet size ×
//! decision policy × fabrication variation) with the telemetry registry
//! recorder attached, self-gates that every deterministic counter and the
//! full run report are bit-identical across thread counts, and writes
//! `BENCH_scaling.json` at the repository root.  The file holds no wall
//! clock: two runs write byte-identical files.  The scale-out speedup is
//! printed to stdout only.
//!
//! Exit status is non-zero on any gate violation, so CI can gate on it
//! directly.

use onoc_bench::banner;
use onoc_bench::perf::{
    attach_scale_out, build_document, build_scale_out_section, default_output_path,
    default_snapshot_path, scenario_matrix, DETERMINISM_THREAD_COUNTS, SCALE_OUT_MESSAGES_PER_NODE,
    SCALE_OUT_ONI_COUNT, SCALE_OUT_REDUCED_MESSAGES_PER_NODE, SCALE_OUT_REDUCED_ONI_COUNT,
    SCALE_OUT_THREAD_COUNTS,
};
use onoc_telemetry::Json;

/// The assembled section, or every failure line on stderr and exit status 1.
fn or_exit(section: Result<Json, Vec<String>>, scope: &str) -> Json {
    section.unwrap_or_else(|failures| {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        eprintln!("\nFAIL: {} violation(s) {scope}", failures.len());
        std::process::exit(1);
    })
}

fn main() {
    banner(
        "perf_trajectory",
        "telemetry scaling matrix -> BENCH_scaling.json",
    );

    let cases = scenario_matrix();
    println!(
        "running {} scenarios at thread counts {:?}...\n",
        cases.len(),
        DETERMINISM_THREAD_COUNTS
    );

    let mut document = or_exit(build_document(&cases), "across the matrix");

    println!(
        "running scale-out suite: {SCALE_OUT_ONI_COUNT} ONIs x {SCALE_OUT_MESSAGES_PER_NODE} \
         msgs/node at thread counts {SCALE_OUT_THREAD_COUNTS:?}...\n"
    );
    let snapshot_path = default_snapshot_path();
    let scale_out = or_exit(
        build_scale_out_section(
            SCALE_OUT_ONI_COUNT,
            SCALE_OUT_MESSAGES_PER_NODE,
            SCALE_OUT_REDUCED_ONI_COUNT,
            SCALE_OUT_REDUCED_MESSAGES_PER_NODE,
            &snapshot_path,
        ),
        "in the scale-out suite",
    );
    println!("wrote {}\n", snapshot_path.display());
    attach_scale_out(&mut document, scale_out);

    // Per-case one-liner so the CI log shows the trajectory at a glance.
    if let Some(rendered) = document.get("cases").and_then(|c| c.as_array()) {
        println!(
            "{:<30} {:>8} {:>10} {:>10} {:>9}",
            "case", "messages", "solves", "cache-hit", "epochs"
        );
        for case in rendered {
            let det = case.get("deterministic").and_then(|d| d.get("report"));
            let field = |name: &str| {
                det.and_then(|r| r.get(name))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            println!(
                "{:<30} {:>8} {:>10} {:>9.1}% {:>9}",
                case.get("label").and_then(|l| l.as_str()).unwrap_or("?"),
                field("delivered_messages"),
                field("solver_invocations"),
                100.0 * field("cache_hit_rate"),
                field("epochs"),
            );
        }
    }

    let path = default_output_path();
    let body = document.render_pretty();
    if let Err(e) = std::fs::write(&path, body + "\n") {
        eprintln!("FAIL: could not write {}: {e}", path.display());
        std::process::exit(1);
    }

    println!(
        "\nPASS: deterministic sections bit-identical across thread counts {DETERMINISM_THREAD_COUNTS:?}"
    );
    println!("wrote {}", path.display());
}
