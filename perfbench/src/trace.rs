//! Per-layer time accumulator for the traced pass.
//!
//! The benchmark times its own calls into each layer's public entry point;
//! nothing inside the program is instrumented.  The timed calls never nest,
//! so a layer's self time is simply the sum of its call times.

use std::collections::BTreeMap;
use std::time::Instant;

/// Span names, one per layer entry point the trace times.
pub mod layer {
    /// `TestSource::next_test`.
    pub const NEXT_TEST: &str = "testgen.next_test";
    /// `TestSource::feedback`.
    pub const FEEDBACK: &str = "testgen.feedback";
    /// `HostInterface::make_test_thread` (`lowering::lower`).
    pub const LOWER: &str = "lowering.lower";
    /// `HostInterface::reset_test_mem` (`System::reset_test_state`).
    pub const RESET: &str = "sim.reset";
    /// `HostInterface::execute_test` (`System::run_iteration`).
    pub const RUN_ITERATION: &str = "sim.run_iteration";
    /// `HostInterface::verify_reset_conflict` (`Checker::try_check`).
    pub const CHECK: &str = "mcm.check";
    /// `RunConflicts::add_iteration`.
    pub const ADD_ITERATION: &str = "ndt.add_iteration";
    /// `RunConflicts::analyze`.
    pub const ANALYZE: &str = "ndt.analyze";
    /// `System::finish_coverage_run`.
    pub const FINISH_COVERAGE: &str = "coverage.finish_run";
    /// `AdaptiveCoverage::fitness`.
    pub const FITNESS: &str = "coverage.fitness";

    /// The spans that lie inside `TestRunner::run_test`.
    pub const IN_RUN_TEST: [&str; 8] = [
        LOWER,
        RESET,
        RUN_ITERATION,
        CHECK,
        ADD_ITERATION,
        ANALYZE,
        FINISH_COVERAGE,
        FITNESS,
    ];
}

/// One layer's calls in a pass.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// Number of calls.
    pub calls: u64,
    /// Total call time in seconds.
    pub total_s: f64,
    /// Every call's duration in seconds, in call order.
    pub durations_s: Vec<f64>,
}

/// Accumulates call times by layer.
#[derive(Debug, Default)]
pub struct Tracer {
    layers: BTreeMap<&'static str, LayerStats>,
}

impl Tracer {
    /// Runs `f` and records its time against `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed().as_secs_f64();
        let stats = self.layers.entry(name).or_default();
        stats.calls += 1;
        stats.total_s += elapsed;
        stats.durations_s.push(elapsed);
        out
    }

    /// The calls recorded against `name` (none if it was never timed).
    pub fn get(&self, name: &str) -> LayerStats {
        self.layers.get(name).cloned().unwrap_or_default()
    }

    /// Total time recorded against the given names.
    pub fn total_s(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .filter_map(|name| self.layers.get(name))
            .map(|stats| stats.total_s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_and_times_accumulate_by_name() {
        let mut t = Tracer::default();
        let sleep = || std::thread::sleep(std::time::Duration::from_millis(3));
        t.time("a", sleep);
        t.time("a", sleep);
        assert_eq!(t.time("b", || 7), 7);
        let a = t.get("a");
        assert_eq!((a.calls, a.durations_s.len(), t.get("b").calls), (2, 2, 1));
        assert!(a.total_s >= 0.006);
        assert_eq!(a.total_s, a.durations_s.iter().sum::<f64>());
        assert_eq!(
            t.total_s(&["a", "b", "never"]),
            a.total_s + t.get("b").total_s
        );
        assert_eq!(t.get("never").calls, 0);
    }
}
