//! The scenario workloads (`fleet-cold`, `routed-mesh`, `permsg-hotspot`):
//! each rep builds the scenario from scratch, so every run starts from an
//! empty operating-point cache, then runs it.

use std::sync::Arc;
use std::time::Instant;

use onoc_ecc_codes::EccScheme;
use onoc_sim::RunReport;
use onoc_telemetry::RecorderHandle;
use onoc_units::Celsius;

use crate::checks::{check_report, digest_report, normalized, Tally};
use crate::layers::{self, LayerInputs, Metric};
use crate::stats::{median, percentile, secs};
use crate::trace::{self, Trace, TraceRecorder};
use crate::workloads::{scenario_link, ScenarioSpec, Workload, NOMINAL_BER, SCHEMES};
use crate::Outcome;

/// Fewest reps a run makes, however long they take.
const MIN_REPS: usize = 3;

/// One build + run of the scenario.
struct Rep {
    setup_s: f64,
    run_s: f64,
    report: RunReport,
    problems: Vec<String>,
    /// What a traced rep's recorder saw, split at the build/run boundary.
    trace: Option<RepTrace>,
}

struct RepTrace {
    build: Trace,
    run: Trace,
    /// When the run started, on the recorder's clock.
    run_start_s: f64,
}

/// Builds and runs the scenario, with `recorder` attached when given.
fn rep(spec: &ScenarioSpec, recorder: Option<&Arc<TraceRecorder>>) -> Result<Rep, String> {
    let mut builder = spec.builder.clone();
    if let Some(recorder) = recorder {
        builder = builder.telemetry(RecorderHandle::new(recorder.clone()));
    }
    let start = Instant::now();
    let scenario = builder.build().map_err(|e| format!("build failed: {e}"))?;
    let setup_s = secs(start);
    let build = recorder.map(|r| (r.snapshot(), r.now_s()));
    let start = Instant::now();
    let report = scenario.run();
    let run_s = secs(start);
    let trace = recorder
        .zip(build)
        .map(|(recorder, (build, run_start_s))| RepTrace {
            run: recorder.snapshot().since(&build),
            build,
            run_start_s,
        });
    let problems = check_report(&report, spec.messages);
    Ok(Rep {
        setup_s,
        run_s,
        report,
        problems,
        trace,
    })
}

/// Reps' shared bookkeeping: the first report is the reference every later
/// rep (and the 1-thread check) must repeat bit for bit.
struct Reps {
    name: &'static str,
    messages: u64,
    reference: Option<(RunReport, u64)>,
    tally: Tally,
    failures: Vec<String>,
}

impl Reps {
    fn record(&mut self, rep: Result<Rep, String>) -> Option<Rep> {
        let mut rep = match rep {
            Ok(rep) => rep,
            Err(problem) => {
                self.tally
                    .run(self.messages, std::slice::from_ref(&problem));
                self.failures.push(problem);
                return None;
            }
        };
        let digest = digest_report(&rep.report);
        match &self.reference {
            None => {
                println!(
                    "{}: digest {digest:016x}, {} messages, {:.6e} pJ, {} epochs, {} \
                     decisions, {} solves, {} cache hits",
                    self.name,
                    rep.report.stats.delivered_messages,
                    rep.report.stats.energy_pj,
                    rep.report.epochs,
                    rep.report.decisions,
                    rep.report.solver_cache.misses,
                    rep.report.solver_cache.hits,
                );
                self.reference = Some((rep.report.clone(), digest));
            }
            Some((_, first)) if *first != digest => {
                rep.problems
                    .push("report differs from the first rep".into());
            }
            Some(_) => {}
        }
        self.tally.run(self.messages, &rep.problems);
        self.failures.extend(rep.problems.iter().take(5).cloned());
        Some(rep)
    }

    /// Once per invocation, outside the timed window: the report on
    /// `check_threads` threads must equal the reps' report.
    fn thread_check(&mut self, spec: &ScenarioSpec) {
        let Some((reference, _)) = &self.reference else {
            return;
        };
        let other = spec
            .builder
            .clone()
            .threads(spec.check_threads)
            .build()
            .map(onoc_sim::Scenario::run);
        let same = other.is_ok_and(|report| normalized(&report) == normalized(reference));
        if !same {
            self.failures.push(format!(
                "the {}-thread report differs from the {}-thread report",
                spec.check_threads, spec.threads
            ));
            self.tally.fail_all();
        }
    }
}

pub fn run(
    spec: &ScenarioSpec,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Outcome {
    let name = workload.name();
    let mut reps = Reps {
        name,
        messages: spec.messages,
        reference: None,
        tally: Tally::default(),
        failures: Vec::new(),
    };
    let window = Instant::now();
    let mut metrics = Vec::new();
    if traced {
        // Alternate untraced and traced reps: the traced reps give the
        // per-layer figures, the pair gives the tracing overhead.
        let (mut plain, mut spanned, mut last) = (Vec::new(), Vec::new(), None);
        while spanned.is_empty() || secs(window) < seconds {
            if let Some(r) = reps.record(rep(spec, None)) {
                plain.push(r.setup_s + r.run_s);
            }
            let recorder = Arc::new(TraceRecorder::new());
            let Some(r) = reps.record(rep(spec, Some(&recorder))) else {
                break;
            };
            spanned.push(r.setup_s + r.run_s);
            last = Some(r);
        }
        reps.thread_check(spec);
        if let Some(traced) = &last {
            metrics = traced_metrics(workload, spec.threads, traced);
            metrics.push((
                "telemetry.overhead_pct",
                100.0 * (median(&spanned) / median(&plain) - 1.0),
                "%",
            ));
        }
    } else {
        let (mut setup, mut rates, mut us_per_op) = (Vec::new(), Vec::new(), Vec::new());
        while setup.len() < MIN_REPS || secs(window) < seconds {
            let Some(r) = reps.record(rep(spec, None)) else {
                break;
            };
            let delivered = r.report.stats.delivered_messages.max(1) as f64;
            setup.push(r.setup_s);
            rates.push(delivered / r.run_s);
            us_per_op.push(r.run_s * 1e6 / delivered);
        }
        reps.thread_check(spec);
        println!(
            "{name} seed {seed}: {} reps of {} messages on {} threads; messages/s \
             {:.4e} / {:.4e} / {:.4e}, set-up {:.4} / {:.4} / {:.4} s (fastest / median / \
             slowest rep)",
            setup.len(),
            spec.messages,
            spec.threads,
            percentile(&rates, 100.0),
            median(&rates),
            percentile(&rates, 0.0),
            percentile(&setup, 0.0),
            median(&setup),
            percentile(&setup, 100.0)
        );
        metrics.extend([
            ("setup_s", median(&setup), "s"),
            ("ops_per_s", median(&rates), "1/s"),
            ("op_p50_us", median(&us_per_op), "us"),
            ("op_p99_us", percentile(&us_per_op, 99.0), "us"),
        ]);
    }
    Outcome {
        tally: reps.tally,
        failures: reps.failures,
        metrics,
    }
}

/// The per-layer metrics a scenario-less workload (the sweep) reports as 0.
pub fn absent_scenario_metrics() -> Vec<Metric> {
    vec![
        ("parallel.reask_busy_s", 0.0, "s"),
        ("parallel.reask_imbalance", 0.0, "ratio"),
        ("parallel.reask_idle_s", 0.0, "s"),
        ("parallel.fanouts", 0.0, "count"),
        ("sim.epoch_us_p50", 0.0, "us"),
        ("sim.epoch_us_p99", 0.0, "us"),
        ("sim.epochs", 0.0, "count"),
        ("sim.decisions", 0.0, "count"),
        ("sim.hops_per_message", 0.0, "ratio"),
        ("sim.run_s", 0.0, "s"),
    ]
}

/// The per-layer metrics of a traced rep (none for an untraced one).
fn traced_metrics(workload: Workload, threads: usize, rep: &Rep) -> Vec<Metric> {
    let Some(RepTrace {
        build,
        run,
        run_start_s,
    }) = &rep.trace
    else {
        return Vec::new();
    };
    let run_start_s = *run_start_s;
    let name = workload.name();
    let report = &rep.report;
    let run_s = rep.run_s;
    let calls = trace::fanouts(&run.shards);
    let reask = calls
        .get("epoch-reask")
        .map(|c| trace::totals(c))
        .unwrap_or_default();
    let all: Vec<(String, trace::FanoutTotals)> = calls
        .iter()
        .map(|(label, c)| (label.clone(), trace::totals(c)))
        .collect();
    // Folded from +0.0: an empty `sum` of floats is -0.0.
    let sum = |f: fn(&trace::FanoutTotals) -> f64| all.iter().fold(0.0, |acc, (_, t)| acc + f(t));
    let fanout_window = sum(|t| t.window_s);
    let fanout_busy = sum(|t| t.busy_s);
    let fanout_idle = sum(|t| t.idle_s);
    let serial = (run_s - fanout_window).max(0.0);
    let thread_busy = serial + fanout_busy;
    let solve = run.solve_s();
    let share = if thread_busy > 0.0 {
        solve / thread_busy
    } else {
        0.0
    };

    // Reconciliation: the run span against its children on the main
    // thread (fan-out windows and serial solver spans).
    let children = fanout_window + run.solve_main_s;
    println!(
        "trace {name}: build {:.3} s ({} solver spans {:.3} s) | run {run_s:.3} s = children \
         {children:.3} s (fan-outs {fanout_window:.3} s, serial solver spans {:.3} s) + self \
         {:.3} s",
        rep.setup_s,
        build.solves,
        build.solve_s(),
        run.solve_main_s,
        run_s - children
    );
    for (label, t) in &all {
        println!(
            "  fan-out {label}: {} calls, busy {:.3} s, idle {:.3} s, imbalance {:.2}",
            t.calls, t.busy_s, t.idle_s, t.imbalance
        );
    }
    let budget = run_s * threads as f64;
    let idle_outside = serial * (threads as f64 - 1.0);
    println!(
        "  thread time: run x {threads} threads = {budget:.3} s vs busy {thread_busy:.3} s + \
         idle in fan-outs {fanout_idle:.3} s + idle outside fan-outs {idle_outside:.3} s = {:.3} s",
        thread_busy + fanout_idle + idle_outside
    );
    if workload == Workload::FleetCold {
        println!(
            "split: solver spans are {:.1} % of thread-busy time (want >= 80 %): {}",
            100.0 * share,
            if share >= 0.8 { "ok" } else { "MISSED" }
        );
    } else {
        let run_share = solve / run_s;
        println!(
            "split: solver spans are {:.1} % of run time (want <= 15 %): {}",
            100.0 * run_share,
            if run_share <= 0.15 { "ok" } else { "MISSED" }
        );
    }

    let (epoch_p50, epoch_p99) = trace::epoch_gaps_us(&run.epoch_marks_s, run_start_s);
    let delivered = report.stats.delivered_messages.max(1) as f64;
    let config = &report.config;
    let mut temps: Vec<f64> = report
        .per_oni
        .iter()
        .map(|o| o.peak_temperature_c)
        .collect();
    temps.sort_by(f64::total_cmp);
    let (cold, hot) = (temps[0], temps[temps.len() - 1]);
    let temperatures: Vec<Celsius> = (0..8)
        .map(|i| Celsius::new(cold + (hot - cold) * f64::from(i) / 7.0))
        .collect();
    let requests: Vec<(EccScheme, f64)> = SCHEMES.iter().map(|&s| (s, NOMINAL_BER)).collect();
    let link = scenario_link(config);
    let mut metrics = layers::measure(&LayerInputs {
        link: &link,
        chip: None,
        requests: requests.clone(),
        temperatures: temperatures.clone(),
        scenario: Some(config),
    });
    metrics.extend([
        (
            "core.operating_point_at_us.uniform",
            layers::operating_point_at_us(&link, &requests, &temperatures),
            "us",
        ),
        ("core.operating_point_at_us.varied", 0.0, "us"),
        (
            "core.solver_invocations",
            report.solver_cache.misses as f64,
            "count",
        ),
        (
            "core.cache_hit_ratio",
            report.solver_cache.hit_rate(),
            "ratio",
        ),
        ("core.solve_busy_s", solve, "s"),
        ("core.solve_share_pct", 100.0 * share, "%"),
        ("parallel.reask_busy_s", reask.busy_s, "s"),
        ("parallel.reask_imbalance", reask.imbalance, "ratio"),
        ("parallel.reask_idle_s", reask.idle_s, "s"),
        (
            "parallel.fanouts",
            all.iter().map(|(_, t)| t.calls).sum::<usize>() as f64,
            "count",
        ),
        ("sim.epoch_us_p50", epoch_p50, "us"),
        ("sim.epoch_us_p99", epoch_p99, "us"),
        ("sim.epochs", report.epochs as f64, "count"),
        ("sim.decisions", report.decisions as f64, "count"),
        (
            "sim.hops_per_message",
            report.stats.hops_traversed as f64 / delivered,
            "ratio",
        ),
        ("sim.run_s", run_s, "s"),
        (
            "telemetry.events",
            (build.events + run.events) as f64,
            "count",
        ),
    ]);
    metrics
}
