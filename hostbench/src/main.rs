//! Host-time benchmark of the onoc-ecc workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload <solve-sweep|fleet-cold|routed-mesh|permsg-hotspot> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run is timed with tracing off and reports the
//! end-to-end metrics; with `--trace 1` it reports the per-layer metrics of
//! a traced run.  Either way every op is checked, and the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! See `README.md` beside this package for the workloads and the metrics.

mod checks;
mod layers;
mod scenarios;
mod stats;
mod sweep;
mod trace;
mod workloads;

use std::process::ExitCode;

use onoc_telemetry::Json;

use crate::checks::Tally;
use crate::layers::Metric;
use crate::workloads::{ScenarioSpec, Workload};

/// The end-to-end metrics, in output order.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "op_p50_us",
    "op_p99_us",
    "peak_rss_mb",
    "ok_ops_ratio",
];

/// The per-layer metrics every traced run reports (0 where the workload
/// does not run the layer).
const PER_LAYER: [&str; 32] = [
    "ber.erfc_inv_ns",
    "ecc.raw_ber_for_target_ns",
    "photonics.worst_case_crosstalk_ns",
    "photonics.worst_lane_us",
    "photonics.solve_on_wavelength_us",
    "photonics.solve_worst_case_us",
    "photonics.thermal_solve_at_us.25c",
    "photonics.thermal_solve_at_us.55c",
    "thermal.compensate_bank_us",
    "thermal.rc_advance_us",
    "core.operating_point_at_us.uniform",
    "core.operating_point_at_us.varied",
    "core.cache_hit_ns",
    "core.solver_invocations",
    "core.cache_hit_ratio",
    "core.solve_busy_s",
    "core.solve_share_pct",
    "parallel.reask_busy_s",
    "parallel.reask_imbalance",
    "parallel.reask_idle_s",
    "parallel.fanouts",
    "sim.epoch_us_p50",
    "sim.epoch_us_p99",
    "sim.epochs",
    "sim.decisions",
    "sim.hops_per_message",
    "sim.traffic_gen_s",
    "sim.run_s",
    "topology.route_table_ms",
    "topology.elaborate_ms",
    "telemetry.events",
    "telemetry.overhead_pct",
];

/// What one workload run hands back to `main`.
pub struct Outcome {
    pub tally: Tally,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("{problem}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "workload {} seed {} seconds {} trace {} threads {threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut self_test = checks::report_self_test();
    self_test.extend(sweep::op_self_test());
    let mut outcome = match ScenarioSpec::new(args.workload, args.seed, threads) {
        None => sweep::run(args.seed, args.seconds, args.trace, threads),
        Some(spec) => scenarios::run(&spec, args.workload, args.seed, args.seconds, args.trace),
    };
    if !self_test.is_empty() {
        outcome.failures.extend(self_test);
        outcome.tally.fail_all();
    }
    if !args.trace {
        let rss = stats::peak_rss_mib().unwrap_or(0.0);
        outcome.metrics.push(("peak_rss_mb", rss, "MiB"));
        outcome
            .metrics
            .push(("ok_ops_ratio", outcome.tally.ok_ratio(), "ratio"));
    }

    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    names.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    if names != want {
        eprintln!("internal error: metric set {names:?} != {want:?}");
        return ExitCode::from(3);
    }
    if let Some((name, value, _)) = outcome.metrics.iter().find(|m| !m.1.is_finite()) {
        outcome
            .failures
            .push(format!("{name} is not finite ({value})"));
        outcome.tally.fail_all();
    }

    let Tally { attempted, failed } = outcome.tally;
    let correct = failed == 0 && attempted > 0 && outcome.failures.is_empty();
    for failure in &outcome.failures {
        println!("FAILED: {failure}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Json::obj(vec![
                    (
                        "value",
                        Json::Num(if value.is_finite() { value } else { 0.0 }),
                    ),
                    ("unit", unit.into()),
                ]),
            )
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
