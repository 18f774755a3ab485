//! End-to-end and per-layer benchmark of the hybrid neutral-atom
//! compiler.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper15|mega100|serve_http|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Workloads (why each was chosen):
//!
//! * `paper15` — the paper's own evaluation: the full-scale Table 1b suite
//!   on the three 15×15/200-atom Table 1c machines, hybrid α = 1, baseline
//!   on, one closed-loop thread. Scheduling dominates the gate machine's
//!   QFT/QPE compiles; candidate evaluation dominates the shuttling and
//!   mixed machines. The seed sets the compile order.
//! * `mega100` — a 100×100 lattice with 4000 atoms: QFT-128 and QAOA-256
//!   hybrid, and a CCZ-heavy 192-qubit random circuit gate-only, the one
//!   path where the routing distance cache is hot and evicts. Mapping
//!   dominates. The seed sets the compile order.
//! * `serve_http` — seeded, paced arrivals over TCP loopback into an
//!   `HttpServer` with one worker, 6×6 mixed-preset documents, 30% from a
//!   hot set (artifact-cache reads). Transport, admission and cache
//!   dominate; mapper and scheduler work per request is under a
//!   millisecond.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it calls each layer's public functions inside spans of its
//! own and reports per-layer metrics, writing the spans to
//! `.bench_trace/<workload>-seed<n>.jsonl`. Every artifact is checked:
//! library artifacts against the reference digests in
//! `expected/digests.txt` and by physical replay, service responses
//! against `handle_json_document` of the same document. The last line of
//! standard output is one JSON object with the result.

mod check;
mod host;
mod library;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use check::{parse_digests, render_digests, Digests};
use trace::Tracer;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["paper15", "mega100", "serve_http"];

/// End-to-end metrics and their units: every workload reports each.
/// `p50_ms`/`tail_ms` are per-circuit `Compiler::compile` times on the
/// library workloads, where the tail leaves ten samples beyond it, and
/// client-observed request latency at the nominal rate on `serve_http`,
/// where the tail is the 90th percentile; `rate_per_s` is input ops
/// compiled per second on the library workloads and requests completed
/// per second at the top of the rate ladder on `serve_http`. Compile and
/// set-up times are at reference host speed (see [`host`]); request
/// latencies, which are mostly waiting, are as measured. The Table 1a
/// sums are over one pass (the hot set on `serve_http`); ΔT is time on
/// the quantum machine, not benchmark wall time, hence its unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("delta_f_sum", "log10"),
    ("delta_cz_sum", "count"),
    ("delta_t_ms_sum", "exec_ms"),
];

/// Per-layer metrics of the traced run and their units. On the library
/// workloads times and counts are totals over one pass of the circuits
/// (median over passes); on `serve_http` they are medians per request.
/// A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("arch.target_build_us", "us"),
    ("circuit.qasm_parse_us", "us"),
    ("circuit.qasm_bytes", "bytes"),
    ("core.map_ms", "ms"),
    ("core.rounds", "count"),
    ("core.commits", "count"),
    ("core.commits_per_round", "ratio"),
    ("core.swaps", "count"),
    ("core.shuttle_moves", "count"),
    ("core.gates_gate_routed", "count"),
    ("core.gates_shuttle_routed", "count"),
    ("core.route_cache.hits", "count"),
    ("core.route_cache.misses", "count"),
    ("core.route_cache.hit_ratio", "ratio"),
    ("core.route_cache.sites_settled", "count"),
    ("core.route_cache.evictions", "count"),
    ("core.route_cache.corridor_queries", "count"),
    ("core.route_cache.corridor_pruned", "count"),
    ("schedule.schedule_ms", "ms"),
    ("schedule.compare_ms", "ms"),
    ("schedule.lower_validate_ms", "ms"),
    ("schedule.items", "count"),
    ("schedule.aod_batches", "count"),
    ("schedule.aod_moves", "count"),
    ("pipeline.compile_ms", "ms"),
    ("pipeline.fusion_ratio", "ratio"),
    ("pipeline.phase.map_us", "us"),
    ("pipeline.phase.schedule_us", "us"),
    ("pipeline.phase.lower_us", "us"),
    ("pipeline.unattributed_share", "ratio"),
    ("pipeline.to_json_ms", "ms"),
    ("pipeline.artifact_bytes", "bytes"),
    ("pipeline.handle_json_ms", "ms"),
    ("serve.submit_wait_us", "us"),
    ("serve.transport_hit_us", "us"),
    ("serve.transport_miss_us", "us"),
    ("serve.connect_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.coalesced", "count"),
    ("serve.rejected_busy", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// Reference digests of every library artifact, recorded once with
/// `--record-digests`.
const EXPECTED_DIGESTS: &str = include_str!("../expected/digests.txt");

/// Operations attempted and failed by one run.
#[derive(Debug)]
pub struct Outcome {
    /// Compiles or requests attempted.
    pub attempted: u64,
    /// Attempts that errored, were refused, timed out, or produced an
    /// artifact that failed a check.
    pub failed: u64,
}

/// Metric values of one run, printed as they are produced.
pub struct Report {
    workload: &'static str,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    fn new(workload: &'static str) -> Self {
        Report {
            workload,
            values: BTreeMap::new(),
        }
    }

    /// Prints one free-form report line.
    pub fn line(&self, text: String) {
        println!("{text}");
    }

    /// Prints a workload-specific metric by name, with its unit.
    pub fn named(&self, name: &str, value: f64, unit: &str, note: String) {
        println!("{} {name} {value:.4} {unit} ({note})", self.workload);
    }

    /// Sets a registered metric (see [`END_TO_END`] and [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// Command-line settings.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_owned(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-digests" {
            args.record_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse::<u32>().map_err(bad)?.max(1).into(),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid value `{value}` for {flag}")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (expected one of {WORKLOADS:?} or all)",
            args.workload
        ));
    }
    Ok(args)
}

/// Resets the kernel's peak-RSS mark for this process, so the next
/// [`peak_rss_mib`] covers only what runs after it.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `make` [`SETUP_REPEATS`] times and returns the last result with
/// the median set-up time at reference host speed (see [`host`]).
/// `discard` tears each earlier result down.
fn timed_setup<T>(mut make: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut host = host::HostSpeed::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        last = Some(host.time(&mut make).0);
    }
    let median_of =
        |f: &dyn Fn(usize) -> f64| stats::median(&(0..SETUP_REPEATS).map(f).collect::<Vec<_>>());
    let raw = median_of(&|i| host.raw_s(i));
    println!("setup raw wall time: median {raw:.6} s over {SETUP_REPEATS} set-ups");
    let scaled = median_of(&|i| host.scaled_s(i));
    (last.expect("at least one set-up"), scaled)
}

/// Runs one workload and returns its outcome and metric values.
fn run_workload(
    workload: &'static str,
    args: &Args,
    expected: &Digests,
    recorded: &mut Digests,
) -> (Outcome, Report) {
    let mut report = Report::new(workload);
    let mut tr = Tracer::new();
    let (outcome, setup_s, peak) = match workload {
        "serve_http" => {
            let (setup, setup_s) = timed_setup(
                || serve::setup(args.seed, args.seconds, args.trace),
                serve::Setup::stop,
            );
            reset_peak_rss();
            let outcome = if args.trace {
                serve::run_traced(&setup, &mut tr, &mut report)
            } else {
                serve::run(&setup, &mut report)
            };
            let peak = peak_rss_mib();
            setup.stop();
            (outcome, setup_s, peak)
        }
        _ => {
            let make = match workload {
                "paper15" => library::setup_paper15,
                _ => library::setup_mega100,
            };
            let (lib, setup_s) = timed_setup(make, drop);
            reset_peak_rss();
            let outcome = if args.trace {
                library::run_traced(
                    &lib,
                    args.seed,
                    args.seconds,
                    expected,
                    recorded,
                    &mut tr,
                    &mut report,
                )
            } else {
                library::run(
                    &lib,
                    args.seed,
                    args.seconds,
                    expected,
                    recorded,
                    &mut report,
                )
            };
            (outcome, setup_s, peak_rss_mib())
        }
    };
    report.set("setup_s", setup_s);
    report.set("peak_rss_mib", peak);
    report.named(
        "failed_ratio",
        library::ratio(outcome.failed as f64, outcome.attempted as f64),
        "ratio",
        format!("{} of {} failed", outcome.failed, outcome.attempted),
    );
    if args.trace {
        report.set("trace.spans", tr.len() as f64);
        for (name, us) in tr.self_time_us() {
            report.line(format!("{workload} span {name} self_time={:.1}us", us));
        }
        let path = PathBuf::from(format!(".bench_trace/{workload}-seed{}.jsonl", args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => report.line(format!("{workload} spans written to {}", path.display())),
            Err(e) => report.line(format!("{workload} could not write spans: {e}")),
        }
    }
    (outcome, report)
}

/// Renders the registered metrics of `report` as JSON members, printing
/// each by name with its unit. A metric the workload did not set takes
/// `missing`, or invalidates the run when `missing` is `None`. Returns
/// the members and whether every value is a finite number.
fn metric_members(
    report: &Report,
    registry: &[(&str, &str)],
    prefix: &str,
    missing: Option<f64>,
) -> (Vec<String>, bool) {
    let mut valid = true;
    let members = registry
        .iter()
        .map(|&(name, unit)| {
            let value = match report.values.get(name).copied().or(missing) {
                Some(v) if v.is_finite() => v,
                _ => {
                    valid = false;
                    0.0
                }
            };
            println!("{} {name} {value} {unit}", report.workload);
            format!("\"{prefix}{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    (members, valid)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let expected = parse_digests(EXPECTED_DIGESTS);
    let mut recorded = Digests::new();
    // A layer a workload does not exercise reports 0; every end-to-end
    // metric must be measured.
    let (registry, missing): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, Some(0.0))
    } else {
        (&END_TO_END, None)
    };
    let workloads: Vec<&'static str> = WORKLOADS
        .into_iter()
        .filter(|w| args.workload == "all" || args.workload == *w)
        .collect();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut members = Vec::new();
    for &workload in &workloads {
        println!(
            "== {workload} seed={} seconds={} trace={}",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        let (outcome, report) = run_workload(workload, &args, &expected, &mut recorded);
        let prefix = if workloads.len() > 1 {
            format!("{workload}/")
        } else {
            String::new()
        };
        let (m, valid) = metric_members(&report, registry, &prefix, missing);
        members.extend(m);
        attempted += outcome.attempted;
        failed += outcome.failed;
        correct &= valid && outcome.failed == 0;
    }
    if args.record_digests {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/digests.txt");
        let mut all =
            std::fs::read_to_string(path).map_or_else(|_| Digests::new(), |t| parse_digests(&t));
        all.extend(recorded);
        if let Err(e) = std::fs::write(path, render_digests(&all)) {
            eprintln!("perfbench: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("recorded digests to {path}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        members.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's registration, as the harness reads it.
    fn registration() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root")
    }

    #[test]
    fn every_metric_is_registered_with_its_unit() {
        let json = registration();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(!unit.is_empty(), "{name} has no unit");
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json registers a metric the program does not report"
        );
    }

    #[test]
    fn every_workload_is_registered() {
        let json = registration();
        for workload in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
        }
        assert_eq!(json.matches("\"why\":").count(), WORKLOADS.len());
    }
}
