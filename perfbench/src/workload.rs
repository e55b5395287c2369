//! The benchmark workloads: bug-free campaign cells, each a fixed number of
//! test-runs from a seeded test stream.

use mcversi_core::{GeneratorKind, McVerSiConfig, ScenarioSpec};
use mcversi_mcm::ModelKind;
use mcversi_sim::{CoreStrength, ProtocolKind};

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// The campaign cell (always the correct design, per-execution checking).
    pub spec: ScenarioSpec,
    /// Test-runs in one pass (the fixed work).
    pub test_runs: usize,
}

/// Every workload: those `BENCHMARK.json` lists, in its order, then
/// `gp-mesi-1k`, which it leaves out (see below).
pub fn all() -> Vec<Workload> {
    let base = ScenarioSpec {
        cores: 4,
        ..ScenarioSpec::small()
    };
    vec![
        // The checker workload: short litmus shapes over many iterations put
        // about half of host time in `Checker::try_check`.
        Workload {
            name: "litmus-armish",
            spec: ScenarioSpec {
                generator: GeneratorKind::DiyLitmus,
                model: ModelKind::Armish,
                core_strength: CoreStrength::Relaxed,
                protocol: ProtocolKind::TsoCc,
                test_size: 96,
                iterations: 10,
                ..base.clone()
            },
            test_runs: 100,
        },
        // The busy-simulator workload: long random tests keep the host in
        // `System::run_iteration`.
        Workload {
            name: "rand-tsocc-512",
            spec: ScenarioSpec {
                generator: GeneratorKind::McVerSiRand,
                protocol: ProtocolKind::TsoCc,
                test_memory_bytes: 8 * 1024,
                test_size: 512,
                iterations: 4,
                ..base.clone()
            },
            test_runs: 8,
        },
        // The paper's headline generator on its primary protocol at high
        // contention: the only workload with GP feedback and MESI, and the
        // one where the known MESI defect shows.  About a fifth of its
        // test-runs end in `ProtocolFault`, many of them deadlocks that run
        // to the 2M-cycle budget, so the work behind a fixed number of
        // test-runs differs from seed to seed.  `BENCHMARK.json` leaves it
        // out for that reason; run it by name (README.md).
        Workload {
            name: "gp-mesi-1k",
            spec: ScenarioSpec {
                generator: GeneratorKind::McVerSiAll,
                protocol: ProtocolKind::Mesi,
                test_memory_bytes: 1024,
                test_size: 128,
                iterations: 4,
                ..base
            },
            test_runs: 100,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The framework configuration for a benchmark seed: the simulator uses
    /// the seed itself, the test source a derived one (as campaigns do).
    pub fn config(&self, seed: u64) -> McVerSiConfig {
        self.spec.clone().seed(seed).mcversi()
    }

    /// The seed of the test source for a benchmark seed.
    pub fn source_seed(seed: u64) -> u64 {
        seed.wrapping_add(0x9e37_79b9)
    }
}
