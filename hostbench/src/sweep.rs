//! `solve-sweep`: seeded cold `operating_point_at` calls on one thread, no
//! cache.  The whole run is the solver pipeline
//! (`ber` → `photonics` → `thermal` → `core`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use onoc_ecc_codes::EccScheme;
use onoc_link::{LinkError, NanophotonicLink, OperatingPoint};
use onoc_parallel::parallel_map;
use onoc_telemetry::RecorderHandle;

use crate::checks::{check_anchors, check_op, digest_op, Tally};
use crate::layers::{self, LayerInputs};
use crate::stats::{median, percentile, secs, Fnv};
use crate::trace::TraceRecorder;
use crate::workloads::{sweep_ops, Bank, SweepLinks, SweepOp};
use crate::Outcome;

/// Link and chip constructions in one set-up batch.
const SETUP_REPS: usize = 20;

/// Ops the thread check re-solves across threads.
const THREAD_CHECK_OPS: usize = 256;

type Solved = Result<OperatingPoint, LinkError>;

/// One checked op: its result (`None` when it panicked), host time and
/// problems.
fn solve(link: &NanophotonicLink, op: &SweepOp) -> (Option<Solved>, f64, Vec<String>) {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        link.operating_point_at(op.scheme, op.ber, op.temperature)
    }));
    let elapsed = secs(start);
    match result {
        Ok(solved) => {
            let problems = check_op(link, op, &solved);
            (Some(solved), elapsed, problems)
        }
        Err(_) => (None, elapsed, vec!["operating_point_at panicked".into()]),
    }
}

/// Builds the links `SETUP_REPS` times, each build timed on its own, and
/// folds build `j`'s time into `fastest[j]`; returns the last build.
fn set_up(seed: u64, fastest: &mut [f64; SETUP_REPS]) -> SweepLinks {
    let mut timed = |slot: usize| {
        let start = Instant::now();
        let links = SweepLinks::build(seed);
        fastest[slot] = fastest[slot].min(secs(start));
        links
    };
    let mut links = timed(0);
    for slot in 1..SETUP_REPS {
        links = timed(slot);
    }
    links
}

/// The pass-level state shared by the timed and the traced runs: the first
/// pass's results are the reference every later pass must repeat.
struct Passes {
    first: Vec<Option<Solved>>,
    digest: Fnv,
    /// Problems of the pass in progress, each tagged with its op.
    pending: Vec<String>,
    tally: Tally,
    failures: Vec<String>,
}

impl Passes {
    fn new() -> Self {
        Self {
            first: Vec::new(),
            digest: Fnv::default(),
            pending: Vec::new(),
            tally: Tally::default(),
            failures: Vec::new(),
        }
    }

    fn record(&mut self, index: usize, solved: Option<Solved>, mut problems: Vec<String>) {
        if index == self.first.len() {
            match &solved {
                Some(result) => digest_op(&mut self.digest, result),
                None => self.digest.u64(2),
            }
            self.first.push(solved);
        } else if self.first[index] != solved {
            problems.push("result differs from the first pass".into());
        }
        self.pending
            .extend(problems.into_iter().map(|p| format!("op {index}: {p}")));
    }

    /// Closes a pass of `ops` ops: one failing op fails every op of the
    /// pass.
    fn end_pass(&mut self, ops: usize) {
        self.tally.run(ops as u64, &self.pending);
        let room = 5usize.saturating_sub(self.failures.len());
        self.failures.extend(self.pending.drain(..).take(room));
    }
}

/// Feeds an intact pass and a pass with one corrupted op through the
/// sweep's checks and counting: the corrupted pass must count both of its
/// ops as failed, the intact one neither.  Returns the problems with the
/// checker.
pub fn op_self_test() -> Vec<String> {
    let link = NanophotonicLink::paper_link();
    let op = SweepOp {
        scheme: EccScheme::Hamming7164,
        ber: 1e-11,
        temperature: link.ambient(),
        bank: Bank::Uniform,
    };
    let good = link.operating_point_at(op.scheme, op.ber, op.temperature);
    let mut corrupted = good.clone();
    if let Ok(point) = &mut corrupted {
        point.channel_power = point.channel_power * 1.5;
    }
    let mut problems = Vec::new();
    for (pass, want_failed) in [([&good, &good], 0), ([&good, &corrupted], 2)] {
        let mut passes = Passes::new();
        for (index, result) in pass.into_iter().enumerate() {
            passes.record(index, Some(result.clone()), check_op(&link, &op, result));
        }
        passes.end_pass(pass.len());
        let want = Tally {
            attempted: 2,
            failed: want_failed,
        };
        if passes.tally != want {
            problems.push(format!(
                "op self-test: {:?}, want {want_failed} of 2 failed",
                passes.tally
            ));
        }
    }
    problems
}

/// Invocation-wide checks: the Fig. 6a anchors and the thread check.  A
/// failure fails every op of the invocation.
fn invocation_checks(links: &SweepLinks, ops: &[SweepOp], passes: &mut Passes, threads: usize) {
    let (anchors, problems) = check_anchors();
    let rendered: Vec<String> = anchors
        .iter()
        .map(|(scheme, mw, error)| format!("{scheme} {mw:.1} mW ({:+.1} %)", 100.0 * error))
        .collect();
    println!(
        "fig6a @25C, 1e-11 vs paper (251 / 136 / 128 mW): {}",
        rendered.join(", ")
    );
    let mut failed = problems;
    let sample = &ops[..THREAD_CHECK_OPS.min(passes.first.len())];
    let parallel = parallel_map(sample, threads, |op| {
        catch_unwind(AssertUnwindSafe(|| {
            links
                .link(op.bank)
                .operating_point_at(op.scheme, op.ber, op.temperature)
        }))
        .ok()
    });
    if parallel[..] != passes.first[..sample.len()] {
        failed.push(format!(
            "results on {threads} threads differ from the 1-thread pass"
        ));
    }
    if !failed.is_empty() {
        passes.failures.extend(failed);
        passes.tally.fail_all();
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool, threads: usize) -> Outcome {
    let mut setup_fastest = [f64::INFINITY; SETUP_REPS];
    let links = set_up(seed, &mut setup_fastest);
    let ops = &sweep_ops(seed);
    let mut passes = Passes::new();
    let mut metrics = Vec::new();

    if traced {
        // Alternate untraced and traced passes; the traced ones attach a
        // recorder to every link and span each op from outside.
        let recorder = Arc::new(TraceRecorder::new());
        let handle = RecorderHandle::new(recorder.clone());
        let traced_links = SweepLinks {
            uniform: links.uniform.clone().with_telemetry(handle.clone()),
            chips: links
                .chips
                .iter()
                .map(|c| c.clone().with_telemetry(handle.clone()))
                .collect(),
        };
        let window = Instant::now();
        let (mut plain, mut spanned) = (Vec::new(), Vec::new());
        let (mut uniform_us, mut varied_us, mut op_s) = (Vec::new(), Vec::new(), 0.0);
        while spanned.is_empty() || secs(window) < seconds {
            for (with_trace, source) in [(false, &links), (true, &traced_links)] {
                let start = Instant::now();
                for (index, op) in ops.iter().enumerate() {
                    let (solved, elapsed, problems) = solve(source.link(op.bank), op);
                    passes.record(index, solved, problems);
                    if with_trace && spanned.is_empty() {
                        op_s += elapsed;
                        match op.bank {
                            Bank::Uniform => uniform_us.push(elapsed * 1e6),
                            Bank::Chip(_) => varied_us.push(elapsed * 1e6),
                        }
                    }
                }
                if with_trace {
                    spanned.push(secs(start));
                } else {
                    plain.push(secs(start));
                }
                passes.end_pass(ops.len());
            }
        }
        let events = recorder.snapshot();
        let parent = spanned[0];
        let share = op_s / parent;
        println!(
            "trace solve-sweep: pass {parent:.3} s = operating_point_at spans {op_s:.3} s \
             ({:.1} %) + self {:.3} s (checks, loop)",
            100.0 * share,
            parent - op_s
        );
        println!(
            "split: solver spans are {:.1} % of thread-busy time (want >= 80 %): {}",
            100.0 * share,
            if share >= 0.8 { "ok" } else { "MISSED" }
        );
        let requests: Vec<_> = ops.iter().take(64).map(|op| (op.scheme, op.ber)).collect();
        let temperatures: Vec<_> = ops.iter().take(8).map(|op| op.temperature).collect();
        metrics.extend(layers::measure(&LayerInputs {
            link: &links.uniform,
            chip: Some(&links.chips[0]),
            requests,
            temperatures,
            scenario: None,
        }));
        metrics.extend([
            (
                "core.operating_point_at_us.uniform",
                median(&uniform_us),
                "us",
            ),
            (
                "core.operating_point_at_us.varied",
                median(&varied_us),
                "us",
            ),
            (
                "core.solver_invocations",
                events.solves as f64 / spanned.len() as f64,
                "count",
            ),
            ("core.cache_hit_ratio", 0.0, "ratio"),
            ("core.solve_busy_s", op_s, "s"),
            ("core.solve_share_pct", 100.0 * share, "%"),
            (
                "telemetry.events",
                events.events as f64 / spanned.len() as f64,
                "count",
            ),
            (
                "telemetry.overhead_pct",
                100.0 * (median(&spanned) / median(&plain) - 1.0),
                "%",
            ),
        ]);
        metrics.extend(crate::scenarios::absent_scenario_metrics());
    } else {
        // Whole passes over the op list until the window closes; every op is
        // timed on its own.  On a shared 2-vCPU VM the solver's speed flips
        // between two states ~1.6x apart, from many times a second to once
        // in several seconds, and the slow state's share of a run moves
        // from run to run.  The p99 over every solve always includes the
        // slow state.  A plain p50 or pass rate jumps between the two
        // states' costs as their shares change, so `op_p50_us` and
        // `ops_per_s` take each op's fastest time over the run's passes
        // first: the op cost without the interference, which repeats.  A
        // pass is short (~0.5 s), so each op is timed 40-50 times, spread
        // over the window, and nearly every op catches a fast moment even
        // when the slow state holds most of the run.  A ~150 us set-up
        // batch falls wholly in one state, so `setup_s` likewise takes each
        // of a batch's builds at its fastest over the run's batches.
        let window = Instant::now();
        let (mut op_us, mut pass_count) = (Vec::new(), 0);
        let mut best_us = vec![f64::INFINITY; ops.len()];
        while pass_count == 0 || secs(window) < seconds {
            // One set-up batch before every pass, so the batches are spread
            // over the window like the solves.
            if pass_count > 0 {
                set_up(seed, &mut setup_fastest);
            }
            for (index, op) in ops.iter().enumerate() {
                let (solved, elapsed, problems) = solve(links.link(op.bank), op);
                passes.record(index, solved, problems);
                op_us.push(elapsed * 1e6);
                best_us[index] = best_us[index].min(elapsed * 1e6);
            }
            passes.end_pass(ops.len());
            pass_count += 1;
        }
        println!(
            "solve-sweep: {} passes of {} ops in {:.2} s; op_p50_us over the {} ops' \
             fastest passes, op_p99_us over all {} solves ({} beyond p99)",
            pass_count,
            ops.len(),
            secs(window),
            ops.len(),
            op_us.len(),
            op_us.len() / 100
        );
        println!(
            "set-up: {pass_count} batches of {SETUP_REPS} builds; setup_s over the {SETUP_REPS} \
             builds' fastest batches, {:.2} / {:.2} / {:.2} us (fastest / median / slowest)",
            1e6 * percentile(&setup_fastest, 0.0),
            1e6 * median(&setup_fastest),
            1e6 * percentile(&setup_fastest, 100.0)
        );
        metrics.extend([
            ("setup_s", median(&setup_fastest), "s"),
            (
                "ops_per_s",
                1e6 * ops.len() as f64 / best_us.iter().sum::<f64>(),
                "1/s",
            ),
            ("op_p50_us", median(&best_us), "us"),
            ("op_p99_us", percentile(&op_us, 99.0), "us"),
        ]);
    }

    let feasible = passes
        .first
        .iter()
        .filter(|r| matches!(r, Some(Ok(_))))
        .count();
    println!(
        "solve-sweep seed {seed}: digest {:016x}, {feasible} of {} ops feasible",
        passes.digest.finish(),
        passes.first.len()
    );
    invocation_checks(&links, ops, &mut passes, threads);
    Outcome {
        tally: passes.tally,
        failures: passes.failures,
        metrics,
    }
}
