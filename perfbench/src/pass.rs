//! One pass: set up a runner and a test source, then drive the workload's
//! fixed number of test-runs through next_test → run_test → feedback.
//!
//! The untraced pass calls `TestRunner::run_test` itself.  The traced pass
//! makes the calls `run_test` makes (per-execution checking, the default) on
//! a `SimHost` of its own, through the same public `HostInterface` methods,
//! and times each call into a layer.  Its [`Fingerprint`] must equal the
//! untraced one, which proves both passes did the same simulated work.

use crate::stats;
use crate::trace::{layer, Tracer};
use crate::workload::Workload;
use mcversi_core::host::{HostInterface, SimHost};
use mcversi_core::{
    AdaptiveCoverage, McVerSiConfig, RunVerdict, TestRunResult, TestRunner, TestSource,
};
use mcversi_mcm::checker::Verdict;
use mcversi_mcm::{CandidateExecution, ExecutionSignature};
use mcversi_sim::BugConfig;
use mcversi_testgen::{RunConflicts, Test};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// What identifies the simulated work of a pass: equal fingerprints mean the
/// same test-runs produced the same cycles, retired operations, verdicts and
/// fitness signal.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Simulated cycles over all test-runs.
    pub cycles: u64,
    /// Retired test operations over all test-runs.
    pub retired_ops: u64,
    /// One letter per test-run: `P`assed, MCM `V`iolation, protocol `F`ault
    /// or `H`ang.
    pub verdicts: String,
    /// Bit pattern of the summed fitness, so equality is exact.
    pub fitness_sum_bits: u64,
}

impl Fingerprint {
    fn record(&mut self, result: &TestRunResult) {
        self.cycles += result.cycles;
        self.retired_ops += result.retired_ops as u64;
        self.verdicts.push(match result.verdict {
            RunVerdict::Passed => 'P',
            RunVerdict::McmViolation(_) => 'V',
            RunVerdict::ProtocolFault(_) => 'F',
            RunVerdict::Hang => 'H',
        });
        let sum = f64::from_bits(self.fitness_sum_bits) + result.fitness;
        self.fitness_sum_bits = sum.to_bits();
    }

    /// Number of test-runs with the given verdict letter.
    pub fn count(&self, verdict: char) -> usize {
        self.verdicts.chars().filter(|&c| c == verdict).count()
    }

    /// Number of test-runs recorded.
    pub fn test_runs(&self) -> usize {
        self.verdicts.len()
    }
}

/// The result of one pass, as a child process prints it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassReport {
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Time to construct the runner (or its traced parts) and the test source.
    pub setup_s: f64,
    /// Time of each test-run, from the start of `next_test` to the end of
    /// `feedback`.
    pub step_s: Vec<f64>,
    /// Time of each test-run inside `TestRunner::run_test`; in the traced
    /// pass, the time of the layer calls `run_test` makes.
    pub run_test_s: Vec<f64>,
    /// Peak resident memory of the pass's process (`VmHWM`), in KiB.
    pub peak_rss_kib: u64,
    /// The simulated work done.
    pub fingerprint: Fingerprint,
    /// Per-layer metrics of a traced pass, by name.
    pub layers: BTreeMap<String, f64>,
    /// Which percentile each tail metric reports, and on how many samples.
    pub notes: Vec<String>,
}

/// Constructs the untraced runner and source; returns them with the setup
/// time.
fn setup(workload: &Workload, cfg: &McVerSiConfig, seed: u64) -> (TestRunner, TestSource, f64) {
    let start = Instant::now();
    let runner = TestRunner::new(cfg.clone(), BugConfig::none());
    let source = new_source(workload, cfg, seed);
    (runner, source, start.elapsed().as_secs_f64())
}

fn new_source(workload: &Workload, cfg: &McVerSiConfig, seed: u64) -> TestSource {
    TestSource::for_model(
        workload.spec.generator,
        cfg.testgen.clone(),
        Workload::source_seed(seed),
        cfg.model,
    )
}

/// Only sets up, for a fresh-process measurement of set-up time.
pub fn setup_only(workload: &Workload, seed: u64) -> f64 {
    let cfg = workload.config(seed);
    let (runner, source, setup_s) = setup(workload, &cfg, seed);
    std::hint::black_box((runner, source));
    setup_s
}

/// Runs one pass of the workload.
pub fn run(workload: &Workload, seed: u64, traced: bool) -> PassReport {
    if traced {
        return run_traced(workload, seed);
    }
    let cfg = workload.config(seed);
    let (mut runner, mut source, setup_s) = setup(workload, &cfg, seed);
    let mut fingerprint = Fingerprint::default();
    let mut step_s = Vec::with_capacity(workload.test_runs);
    let mut run_test_s = Vec::with_capacity(workload.test_runs);
    for _ in 0..workload.test_runs {
        let start = Instant::now();
        let (id, test, _) = source.next_test();
        let run_start = Instant::now();
        let result = runner.run_test(&test);
        run_test_s.push(run_start.elapsed().as_secs_f64());
        source.feedback(id, &result);
        step_s.push(start.elapsed().as_secs_f64());
        fingerprint.record(&result);
    }
    PassReport {
        traced: false,
        setup_s,
        step_s,
        run_test_s,
        peak_rss_kib: peak_rss_kib(),
        fingerprint,
        layers: BTreeMap::new(),
        notes: Vec::new(),
    }
}

/// Counts the traced pass takes at the layer boundaries.
#[derive(Debug, Default)]
struct Counts {
    hang_cycles: u64,
    protocol_faults: u64,
    hangs: u64,
    violations: u64,
    checked_events: u64,
    checked: u64,
    repeated: u64,
}

fn run_traced(workload: &Workload, seed: u64) -> PassReport {
    let cfg = workload.config(seed);
    // The parts `TestRunner::new` builds, constructed directly.
    let start = Instant::now();
    let mut host = SimHost::with_model(cfg.system.clone(), BugConfig::none(), cfg.seed, cfg.model);
    let mut adaptive = AdaptiveCoverage::new(cfg.adaptive);
    let mut source = new_source(workload, &cfg, seed);
    let setup_s = start.elapsed().as_secs_f64();

    let mut tracer = Tracer::default();
    let mut counts = Counts::default();
    let mut fingerprint = Fingerprint::default();
    let mut step_s = Vec::with_capacity(workload.test_runs);
    let mut run_test_s = Vec::with_capacity(workload.test_runs);
    for _ in 0..workload.test_runs {
        let start = Instant::now();
        let (id, test, _) = tracer.time(layer::NEXT_TEST, || source.next_test());
        let before = tracer.total_s(&layer::IN_RUN_TEST);
        let (result, executions) = run_test_traced(
            &mut tracer,
            &mut host,
            &mut adaptive,
            &cfg,
            &test,
            &mut counts,
        );
        run_test_s.push(tracer.total_s(&layer::IN_RUN_TEST) - before);
        tracer.time(layer::FEEDBACK, || source.feedback(id, &result));
        step_s.push(start.elapsed().as_secs_f64());
        // Diagnostics of the benchmark's own, outside the timed test-run.
        let mut seen = HashSet::new();
        for exec in &executions {
            if !seen.insert(ExecutionSignature::of(exec, 0)) {
                counts.repeated += 1;
            }
        }
        fingerprint.record(&result);
    }
    let (layers, notes) = layer_metrics(&tracer, &counts, &fingerprint);
    PassReport {
        traced: true,
        setup_s,
        step_s,
        run_test_s,
        peak_rss_kib: peak_rss_kib(),
        fingerprint,
        layers,
        notes,
    }
}

/// The calls `TestRunner::run_test` makes in per-execution checking mode,
/// in its order, each call into a layer timed.  Returns the result and the
/// complete checked executions (partial ones have no comparable signature).
fn run_test_traced(
    tracer: &mut Tracer,
    host: &mut SimHost,
    adaptive: &mut AdaptiveCoverage,
    cfg: &McVerSiConfig,
    test: &Test,
    counts: &mut Counts,
) -> (TestRunResult, Vec<CandidateExecution>) {
    let iterations = cfg.testgen.iterations.max(1);
    let mut conflicts = RunConflicts::new();
    let mut verdict = RunVerdict::Passed;
    let mut cycles = 0u64;
    let mut retired_ops = 0usize;
    let mut iterations_run = 0usize;
    let mut executions = Vec::with_capacity(iterations);

    host.barrier_wait_coarse();
    tracer.time(layer::LOWER, || host.make_test_thread(test));
    for _ in 0..iterations {
        host.barrier_wait_precise();
        tracer.time(layer::RESET, || host.reset_test_mem());
        let outcome = tracer.time(layer::RUN_ITERATION, || host.execute_test());
        iterations_run += 1;
        cycles += outcome.cycles;
        retired_ops += outcome.retired_ops;
        // An iteration over its cycle budget also raises a deadlock
        // protocol error, so a hang usually ends the run as a fault.
        if outcome.hung {
            counts.hangs += 1;
            counts.hang_cycles += outcome.cycles;
        }
        if let Some(err) = outcome.protocol_errors.first() {
            counts.protocol_faults += 1;
            verdict = RunVerdict::ProtocolFault(err.clone());
            break;
        }
        if outcome.hung {
            verdict = RunVerdict::Hang;
            break;
        }
        tracer.time(layer::ADD_ITERATION, || {
            conflicts.add_iteration(&outcome.execution)
        });
        let checked = tracer.time(layer::CHECK, || host.verify_reset_conflict(&outcome));
        counts.checked += 1;
        counts.checked_events += outcome.execution.len() as u64;
        if outcome.complete {
            executions.push(outcome.execution);
        }
        if let Verdict::Invalid(v) = checked {
            counts.violations += 1;
            verdict = RunVerdict::McmViolation(v);
            break;
        }
    }

    let covered = tracer.time(layer::FINISH_COVERAGE, || {
        host.system_mut().finish_coverage_run()
    });
    // `run_test` copies the coverage universe outside any layer call.
    let universe = host.system().coverage_universe().to_vec();
    let fitness = tracer.time(layer::FITNESS, || {
        adaptive.fitness(&covered, host.system().coverage(), &universe)
    });
    let analysis = tracer.time(layer::ANALYZE, || conflicts.analyze(test));
    let result = TestRunResult {
        verdict,
        fitness,
        analysis,
        covered,
        iterations_run,
        cycles,
        retired_ops,
    };
    (result, executions)
}

fn layer_metrics(
    tracer: &Tracer,
    counts: &Counts,
    fingerprint: &Fingerprint,
) -> (BTreeMap<String, f64>, Vec<String>) {
    let mut m = BTreeMap::new();
    let mut notes = Vec::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    let mut tail = |name: &str, samples: &[f64], wanted: f64| -> f64 {
        match stats::tail(samples, wanted) {
            Some(t) => {
                notes.push(t.describe(name));
                t.value * 1e6
            }
            None => 0.0,
        }
    };
    let iteration = tracer.get(layer::RUN_ITERATION);
    let check = tracer.get(layer::CHECK);
    let iter_p50 = tail("sim.run_iteration.us_p50", &iteration.durations_s, 50.0);
    let iter_p99 = tail("sim.run_iteration.us_p99", &iteration.durations_s, 99.0);
    let check_p50 = tail("mcm.check.us_p50", &check.durations_s, 50.0);
    let check_p99 = tail("mcm.check.us_p99", &check.durations_s, 99.0);

    put("sim.run_iteration.calls", iteration.calls as f64);
    put("sim.run_iteration.self_s", iteration.total_s);
    put("sim.run_iteration.us_p50", iter_p50);
    put("sim.run_iteration.us_p99", iter_p99);
    put("sim.reset.self_s", tracer.get(layer::RESET).total_s);
    put("sim.cycles", fingerprint.cycles as f64);
    put("sim.retired_ops", fingerprint.retired_ops as f64);
    put(
        "sim.ns_per_cycle",
        iteration.total_s * 1e9 / fingerprint.cycles.max(1) as f64,
    );
    put("sim.protocol_faults", counts.protocol_faults as f64);
    put("sim.hangs", counts.hangs as f64);
    put(
        "sim.hang_cycle_share",
        counts.hang_cycles as f64 / fingerprint.cycles.max(1) as f64,
    );
    put("mcm.check.calls", check.calls as f64);
    put("mcm.check.self_s", check.total_s);
    put("mcm.check.us_p50", check_p50);
    put("mcm.check.us_p99", check_p99);
    put("mcm.check.violations", counts.violations as f64);
    put(
        "mcm.exec_events_mean",
        counts.checked_events as f64 / counts.checked.max(1) as f64,
    );
    put(
        "mcm.exec_repeat_share",
        counts.repeated as f64 / counts.checked.max(1) as f64,
    );
    let self_s = [
        ("testgen.next_test.self_s", layer::NEXT_TEST),
        ("testgen.feedback.self_s", layer::FEEDBACK),
        ("ndt.add_iteration.self_s", layer::ADD_ITERATION),
        ("ndt.analyze.self_s", layer::ANALYZE),
        ("coverage.finish_run.self_s", layer::FINISH_COVERAGE),
        ("coverage.fitness.self_s", layer::FITNESS),
        ("lowering.lower.self_s", layer::LOWER),
    ];
    for (metric, span) in self_s {
        put(metric, tracer.get(span).total_s);
    }
    (m, notes)
}

/// Peak resident set size of this process (`VmHWM`), in KiB; 0 where
/// `/proc` is unavailable.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_counts_verdicts_and_sums_fitness_exactly() {
        let mut fp = Fingerprint::default();
        let mut result = TestRunResult {
            verdict: RunVerdict::Passed,
            fitness: 0.25,
            analysis: mcversi_testgen::NdtAnalysis::empty(),
            covered: Default::default(),
            iterations_run: 4,
            cycles: 100,
            retired_ops: 10,
        };
        fp.record(&result);
        result.verdict = RunVerdict::Hang;
        fp.record(&result);
        assert_eq!(fp.verdicts, "PH");
        assert_eq!((fp.count('P'), fp.count('H'), fp.test_runs()), (1, 1, 2));
        assert_eq!((fp.cycles, fp.retired_ops), (200, 20));
        assert_eq!(f64::from_bits(fp.fitness_sum_bits), 0.5);
    }
}
