//! Fixed-work campaign benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every pass runs in a fresh child process (this executable, `--role pass`),
//! so set-up time and peak memory never inherit another pass's process-wide
//! caches (the enumerated litmus corpus is one).  Passes of identical work
//! repeat until `--seconds` have elapsed, each followed by set-up-only child
//! processes.  Rates take each test-run's fastest time over the passes and
//! `setup_s` the fastest set-up; the other metrics are medians.  With
//! `--trace 0` the last line of standard output carries the end-to-end
//! metrics, with `--trace 1` the per-layer metrics of traced passes
//! (untraced passes alternate with them, for the fingerprint gate,
//! `run_test` itself and the tracing overhead).  See README.md next to this
//! package.

mod pass;
mod stats;
mod trace;
mod workload;

use pass::{Fingerprint, PassReport};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::Workload;

/// Fresh-process set-up measurements after every pass, besides the pass's
/// own, so that they spread over the whole run.
const SETUP_PROBES_PER_PASS: usize = 4;

/// Seeds the calibration kernel's xorshift state.
const PROBE_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
/// Xorshift steps in the calibration kernel.
const PROBE_STEPS: u64 = 40_000_000;

#[derive(Debug)]
struct Args {
    role: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|key| ["role", "workload", "seed", "seconds", "trace"].contains(key))
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |key: &str| flags.get(key).map(String::as_str);
    let name = get("workload").ok_or("--workload is required")?;
    let workload = workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = workload::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let number = |key: &str, default: &str| -> Result<f64, String> {
        let raw = get(key).unwrap_or(default);
        raw.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("--{key} {raw:?} is not a non-negative number"))
    };
    let seed = get("seed").unwrap_or("1");
    Ok(Args {
        role: get("role").unwrap_or("run").to_string(),
        workload,
        seed: seed
            .parse()
            .map_err(|_| format!("--seed {seed:?} is not an unsigned integer"))?,
        seconds: number("seconds", "10")?,
        trace: match get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other:?} is not 0 or 1")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.role.as_str() {
        "setup" => {
            println!("{}", pass::setup_only(&args.workload, args.seed));
            ExitCode::SUCCESS
        }
        "pass" | "traced-pass" => {
            let report = pass::run(&args.workload, args.seed, args.role == "traced-pass");
            println!(
                "{}",
                serde_json::to_string(&report).expect("reports serialize")
            );
            ExitCode::SUCCESS
        }
        "run" => match run(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
        other => {
            eprintln!("perfbench: unknown role {other:?}");
            ExitCode::from(2)
        }
    }
}

/// Runs this executable in `role` and returns the last line it printed.
fn child(args: &Args, role: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--role", role, "--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a {role} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{role} child failed: {}", output.status));
    }
    String::from_utf8(output.stdout)
        .ok()
        .and_then(|out| out.lines().last().map(str::to_string))
        .ok_or_else(|| format!("{role} child printed nothing"))
}

fn run_pass(args: &Args, traced: bool) -> Result<PassReport, String> {
    let role = if traced { "traced-pass" } else { "pass" };
    let line = child(args, role)?;
    serde_json::from_str(&line).map_err(|e| format!("{role} child report: {e:?}"))
}

/// A fixed integer kernel; its time tracks host speed, not the program.
fn calibration_probe() -> f64 {
    let start = Instant::now();
    let mut x = PROBE_SEED;
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = std::hint::black_box(x);
    }
    start.elapsed().as_secs_f64()
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let probe_start = calibration_probe();
    let mut setups = Vec::new();

    // Whole passes until the time is up: untraced only, or alternating
    // untraced and traced passes for a traced run.
    let start = Instant::now();
    let mut untraced: Vec<PassReport> = Vec::new();
    let mut traced: Vec<PassReport> = Vec::new();
    loop {
        let want_traced = args.trace && traced.len() < untraced.len();
        let report = run_pass(args, want_traced)?;
        setups.push(report.setup_s);
        for _ in 0..SETUP_PROBES_PER_PASS {
            let line = child(args, "setup")?;
            setups.push(
                line.trim()
                    .parse::<f64>()
                    .map_err(|e| format!("setup child printed {line:?}: {e}"))?,
            );
        }
        if want_traced {
            traced.push(report);
        } else {
            untraced.push(report);
        }
        let done = start.elapsed().as_secs_f64() >= args.seconds;
        if done && (!args.trace || traced.len() == untraced.len()) {
            break;
        }
    }
    let probe_end = calibration_probe();

    let all: Vec<&PassReport> = untraced.iter().chain(&traced).collect();
    let mut mismatches = fingerprint_mismatches(&all);
    let fp = &untraced[0].fingerprint;
    if let Some(recorded) = check_build_fingerprint(args, fp)? {
        mismatches.push(recorded);
    }

    println!(
        "perfbench {} seed {}: {} untraced + {} traced passes of {} test-runs",
        args.workload.name,
        args.seed,
        untraced.len(),
        traced.len(),
        fp.test_runs()
    );
    println!(
        "verdicts per pass: passed {} mcm_violation {} protocol_fault {} hang {}",
        fp.count('P'),
        fp.count('V'),
        fp.count('F'),
        fp.count('H')
    );
    println!(
        "fingerprint: cycles {} retired_ops {} fitness_sum {} verdicts {}",
        fp.cycles,
        fp.retired_ops,
        f64::from_bits(fp.fitness_sum_bits),
        fp.verdicts
    );
    println!("host drift probe: start {probe_start:.4} s, end {probe_end:.4} s");
    let totals: Vec<String> = untraced
        .iter()
        .map(|p| format!("{:.4}", p.step_s.iter().sum::<f64>()))
        .collect();
    println!("untraced pass times (s): {}", totals.join(" "));
    let setup_quantiles: Vec<String> = [0.0, 10.0, 25.0, 50.0, 100.0]
        .iter()
        .map(|&p| format!("p{p} {:.6}", stats::percentile(&setups, p)))
        .collect();
    println!(
        "set-up times (s) over {} samples: {}",
        setups.len(),
        setup_quantiles.join(", ")
    );
    for m in &mismatches {
        println!("FINGERPRINT MISMATCH: {m}");
    }

    let passes = untraced.len() + traced.len();
    let attempted = passes * fp.test_runs();
    let failed = passes * (fp.test_runs() - fp.count('P'));
    let metrics = if args.trace {
        let (metrics, notes) = per_layer(&untraced, &traced);
        for note in notes {
            println!("tail: {note}");
        }
        metrics
    } else {
        end_to_end(&untraced, &setups)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The same-work gate: describes every pass whose fingerprint differs from
/// the first pass's.
fn fingerprint_mismatches(passes: &[&PassReport]) -> Vec<String> {
    let reference = &passes[0].fingerprint;
    passes
        .iter()
        .enumerate()
        .filter(|(_, p)| &p.fingerprint != reference)
        .map(|(i, p)| format!("pass {i} (traced: {}) differs from pass 0", p.traced))
        .collect()
}

type Metric = (String, f64, &'static str);

fn median_of(passes: &[PassReport], f: impl Fn(&PassReport) -> f64) -> f64 {
    stats::median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// The fastest-per-test-run total (see [`stats::fastest_total`]) of one
/// per-test-run series of the passes.
fn fastest_total(passes: &[PassReport], series: impl Fn(&PassReport) -> &[f64]) -> f64 {
    stats::fastest_total(&passes.iter().map(series).collect::<Vec<_>>())
}

fn end_to_end(passes: &[PassReport], setups: &[f64]) -> Vec<Metric> {
    let fp = &passes[0].fingerprint;
    let work_s = fastest_total(passes, |p| &p.step_s);
    vec![
        (
            "test_runs_per_s".into(),
            fp.test_runs() as f64 / work_s,
            "1/s",
        ),
        (
            "sim_cycles_per_s".into(),
            fp.cycles as f64 / work_s,
            "cycles/s",
        ),
        (
            "passed_share".into(),
            fp.count('P') as f64 / fp.test_runs() as f64,
            "fraction",
        ),
        // The fastest fresh-process set-up, for the reason the rates take
        // each test-run's fastest time: the work is the same every time.
        ("setup_s".into(), stats::percentile(setups, 0.0), "s"),
        (
            "peak_rss_mb".into(),
            median_of(passes, |p| p.peak_rss_kib as f64 * 1024.0 / 1e6),
            "MB",
        ),
    ]
}

/// The traced passes' layer metrics (medians over passes) and the `runner`
/// and `trace` metrics, which set them against the untraced passes' own
/// `TestRunner::run_test`.  Returns them with the tail notes.
fn per_layer(untraced: &[PassReport], traced: &[PassReport]) -> (Vec<Metric>, Vec<String>) {
    let mut out: Vec<Metric> = traced[0]
        .layers
        .keys()
        .map(|name| {
            let value = median_of(traced, |p| p.layers[name]);
            (name.clone(), value, unit_of(name))
        })
        .collect();
    let mut notes = traced[0].notes.clone();
    let run_test_s = stats::fastest_each(
        &untraced
            .iter()
            .map(|p| p.run_test_s.as_slice())
            .collect::<Vec<_>>(),
    );
    for (name, wanted) in [
        ("runner.run_test.ms_p50", 50.0),
        ("runner.run_test.ms_p90", 90.0),
    ] {
        let tail = stats::tail(&run_test_s, wanted).expect("a pass has test-runs");
        notes.push(tail.describe(name));
        out.push((name.into(), tail.value * 1e3, "ms"));
    }
    // Shares of the program's own `run_test` and test-run time.
    let run_test_total: f64 = run_test_s.iter().sum();
    let in_layers = fastest_total(traced, |p| &p.run_test_s);
    out.push((
        "runner.unattributed_share".into(),
        1.0 - in_layers / run_test_total,
        "fraction",
    ));
    out.push((
        "trace.overhead_share".into(),
        fastest_total(traced, |p| &p.step_s) / fastest_total(untraced, |p| &p.step_s) - 1.0,
        "fraction",
    ));
    (out, notes)
}

fn unit_of(name: &str) -> &'static str {
    match name.rsplit('.').next().unwrap_or("") {
        "self_s" => "s",
        "calls" | "protocol_faults" | "hangs" | "violations" => "count",
        "cycles" => "cycles",
        "retired_ops" => "ops",
        "ns_per_cycle" => "ns/cycle",
        "us_p50" | "us_p99" => "us",
        "exec_events_mean" => "events",
        _ => "fraction",
    }
}

/// Compares the fingerprint with the one an earlier run of this very
/// executable recorded for the same workload and seed (and records it on the
/// first run).  Returns a description of a mismatch.
fn check_build_fingerprint(args: &Args, fp: &Fingerprint) -> Result<Option<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let modified = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let build = format!("{}-{modified}", meta.len());
    let dir: PathBuf = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("perfbench-fingerprints");
    let file = dir.join(format!("{}-{}.json", args.workload.name, args.seed));
    let current = serde_json::to_string(fp).expect("fingerprints serialize");
    if let Ok(text) = std::fs::read_to_string(&file) {
        if let Some((recorded_build, recorded)) = text.split_once('\n') {
            if recorded_build == build {
                return Ok((recorded != current)
                    .then(|| format!("differs from the one recorded in {}", file.display())));
            }
        }
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(&file, format!("{build}\n{current}"))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(traced: bool, fingerprint: Fingerprint) -> PassReport {
        PassReport {
            traced,
            setup_s: 0.01,
            step_s: vec![1.0],
            run_test_s: vec![0.9],
            peak_rss_kib: 4096,
            fingerprint,
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    #[test]
    fn a_perturbed_fingerprint_fails_the_gate() {
        let fp = Fingerprint {
            cycles: 1_000,
            retired_ops: 96,
            verdicts: "PPFP".into(),
            fitness_sum_bits: 0.75f64.to_bits(),
        };
        let same = [report(false, fp.clone()), report(true, fp.clone())];
        assert!(fingerprint_mismatches(&same.iter().collect::<Vec<_>>()).is_empty());

        let perturbations: [fn(&mut Fingerprint); 4] = [
            |f| f.cycles += 1,
            |f| f.retired_ops -= 1,
            |f| f.verdicts = "PPPP".into(),
            |f| f.fitness_sum_bits = (0.75f64 + f64::EPSILON).to_bits(),
        ];
        for perturb in perturbations {
            let mut other = fp.clone();
            perturb(&mut other);
            let passes = [report(false, fp.clone()), report(true, other)];
            let mismatches = fingerprint_mismatches(&passes.iter().collect::<Vec<_>>());
            assert_eq!(mismatches, ["pass 1 (traced: true) differs from pass 0"]);
        }
    }
}
