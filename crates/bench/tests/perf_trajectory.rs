//! Schema tests for the perf-trajectory artifact: the document must parse
//! as JSON, carry the deterministic-counter section and nothing else, and
//! self-gate across thread counts.

use onoc_bench::perf::{
    attach_scale_out, build_document, build_scale_out_section, scenario_matrix_with, SCHEMA_VERSION,
};
use onoc_telemetry::Json;

#[test]
fn bench_scaling_document_parses_with_deterministic_counters() {
    // One small fleet size keeps the matrix at 4 scenarios × 2 thread
    // counts — fast enough for a debug-mode test run.
    let cases = scenario_matrix_with(&[3], 10);
    let document = build_document(&cases).expect("determinism self-gate must pass");

    // The artifact must survive a render → parse round trip.
    let rendered = document.render_pretty();
    let parsed = Json::parse(&rendered).expect("rendered document parses");
    assert_eq!(parsed, document);

    assert_eq!(
        parsed.get("schema_version").and_then(Json::as_u64),
        Some(SCHEMA_VERSION)
    );
    assert_eq!(
        parsed
            .get("determinism")
            .and_then(|d| d.get("status"))
            .and_then(Json::as_str),
        Some("ok")
    );

    let rendered_cases = parsed
        .get("cases")
        .and_then(Json::as_array)
        .expect("cases array");
    assert_eq!(rendered_cases.len(), cases.len());
    for case in rendered_cases {
        let deterministic = case.get("deterministic").expect("deterministic section");
        let counters = deterministic
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(Json::as_object)
            .expect("deterministic counter section");
        let solves = counters
            .iter()
            .find(|(k, _)| k == "solver.invocations")
            .and_then(|(_, v)| v.as_u64())
            .expect("solver.invocations counter");
        assert!(solves > 0, "every scenario invokes the solver");
        // Wall-clock timings must stay out of the artifact.
        assert!(
            counters.iter().all(|(k, _)| !k.starts_with("shard.")),
            "shard wall-clock leaked into deterministic counters"
        );
        assert!(case.get("non_deterministic").is_none());
    }
}

#[test]
fn scale_out_section_gates_and_renders_at_reduced_size() {
    let snapshot = std::env::temp_dir().join(format!(
        "onoc_perf_trajectory_snapshot_test_{}.json",
        std::process::id()
    ));
    // Tiny headline and snapshot sizes keep the four runs (two thread
    // counts + cold/warm snapshot) debug-mode fast.
    let section =
        build_scale_out_section(6, 12, 4, 8, &snapshot).expect("scale-out gates must pass");
    let _ = std::fs::remove_file(&snapshot);

    let mut document = build_document(&scenario_matrix_with(&[3], 10)).expect("matrix passes");
    attach_scale_out(&mut document, section);
    let rendered = document.render_pretty();
    let parsed = Json::parse(&rendered).expect("rendered document parses");
    assert_eq!(parsed, document);

    let scale_out = parsed.get("scale_out").expect("scale_out section");
    let deterministic = scale_out.get("deterministic").expect("deterministic");
    let warm_misses = deterministic
        .get("snapshot")
        .and_then(|s| s.get("warm"))
        .and_then(|w| w.get("misses"))
        .and_then(Json::as_u64);
    assert_eq!(warm_misses, Some(0), "warm start is pure hits");
    // The speedup goes to stdout; the section holds no wall clock.
    assert!(scale_out.get("non_deterministic").is_none());
}
