//! End-to-end and per-layer benchmark of the ntv-simd stack.
//!
//! ```text
//! bash perfbench/run.sh --workload <serve-hot|serve-cold|repro> --seed N \
//!     --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! it replays the workload in process with a span around every layer call
//! and prints every per-layer metric. The last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero when an output check fails.

mod gen;
mod layers;
mod load;
mod repro;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use ntv_device::TechNode;
use ntv_serve::json;
use ntv_units::Volts;

use crate::gen::{Generator, Traffic};
use crate::layers::Metric;
use crate::repro::Spans;
use crate::stats::{median, sorted, tail};
use crate::trace::Tracer;

/// The workloads.
const WORKLOADS: [&str; 3] = ["serve-hot", "serve-cold", "repro"];

/// Threads of the host the benchmark is sized for (`nproc`).
const NPROC: usize = 2;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ntv: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        ntv: "ntv".to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} expects a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => out.workload.clone_from(value),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => out.trace = value == "1",
            "--ntv" => out.ntv.clone_from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(out)
}

/// What a run prints.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn extend(&mut self, more: Vec<Metric>) {
        self.metrics.extend(more);
    }

    fn json(&self) -> String {
        let metrics: Vec<(&str, String)> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = json::obj(&[("value", json::num(*value)), ("unit", json::str_val(unit))]);
                (name.as_str(), v)
            })
            .collect();
        json::obj(&[
            ("correct", (self.failed == 0).to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", json::obj(&metrics)),
        ])
    }
}

/// Where the traced run writes its spans (inside the build directory).
fn trace_path(workload: &str, seed: u64, what: &str) -> String {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    format!("{dir}/perfbench-trace/{workload}-{seed}-{what}.jsonl")
}

fn e2e_metrics(report: &mut Report, e: &serve::E2e) {
    report.push("setup_s", e.setup_s, "s");
    report.push("qps", e.qps, "1/s");
    report.push("p50_us", e.p50_us, "us");
    report.push("p99_us", e.p99_us, "us");
    report.push("cpu_us_per_query", e.cpu_us_per_query, "us");
    report.push("rss_mib", e.rss_mib, "MiB");
}

/// Operating points a workload's layer probes run on.
fn op_points(workload: &str, seed: u64) -> Vec<(TechNode, Volts)> {
    let grid = |nodes: &[TechNode], vdds: &[f64]| {
        nodes
            .iter()
            .flat_map(|&n| vdds.iter().map(move |&v| (n, Volts(v))))
            .collect::<Vec<_>>()
    };
    match workload {
        "serve-hot" => {
            let vdds: Vec<f64> = (0..16).map(|k| 0.50 + 0.01 * f64::from(k)).collect();
            grid(&[TechNode::Gp90, TechNode::Gp45], &vdds)
        }
        "serve-cold" => {
            let gen = Generator::new(Traffic::Cold, seed);
            let mut points = Vec::new();
            for i in 0.. {
                for q in gen.queries(i) {
                    let Ok(v) = json::parse(&q) else { continue };
                    let node = v.get("node").and_then(json::Value::as_str).map(str::parse);
                    let vdd = v
                        .get("vdd")
                        .or(v.get("vdd_start"))
                        .and_then(json::Value::as_f64);
                    if let (Some(Ok(node)), Some(vdd)) = (node, vdd) {
                        points.push((node, Volts(vdd)));
                    }
                }
                if points.len() >= 32 {
                    break;
                }
            }
            points
        }
        _ => grid(&TechNode::ALL, &[0.50, 0.55, 0.60, 0.65, 0.70]),
    }
}

/// Per-layer serve metrics from a replay and the TCP run it shadows.
fn serve_layer(
    report: &mut Report,
    replay: &serve::Replay,
    e: &serve::E2e,
    lines: &mut Vec<String>,
) {
    let t = &replay.tracer;
    let med = |name: &str| median(&t.durations(name)).unwrap_or(0.0);
    let mut spans = 0.0;
    for name in serve::REQUEST_SPANS {
        let us = med(name);
        report.push(&format!("{name}_us"), us, "us");
        spans += us;
    }
    let mut probed = Vec::new();
    for kind in serve::KINDS {
        let name = serve::run_span(kind);
        let mut runs = t.durations(name);
        if runs.is_empty() {
            runs = replay.kind_probes.durations(name);
            probed.push(kind);
        }
        report.push(
            &format!("serve.run_us.{kind}"),
            median(&runs).unwrap_or(0.0),
            "us",
        );
    }
    if !probed.is_empty() {
        lines.push(format!(
            "serve.run_us of {} from a per-kind phase (kinds the stream does not send)",
            probed.join(", ")
        ));
    }
    let inproc = serve::inprocess_request_us(t);
    report.push("serve.transport_us", e.p50_us - inproc, "us");
    report.push("serve.requests", e.stat("server", "requests"), "count");
    report.push("serve.queries", e.stat("server", "queries"), "count");
    report.push("serve.mc_shed", e.stat("server", "mc_shed"), "count");
    let (open_p50, open_p99, late_ms) = e.open.unwrap_or_default();
    report.push("serve.open_p50_us", open_p50, "us");
    report.push("serve.open_p99_us", open_p99, "us");
    report.push("serve.gen_late_ms", late_ms, "ms");
    lines.push(format!(
        "accounting: p50_us {:.1} = in-process request {:.1} (framing/parse/render {:.1}) + transport {:.1}",
        e.p50_us,
        inproc,
        spans,
        e.p50_us - inproc
    ));
}

fn cache_metrics(report: &mut Report, hits: f64, misses: f64, evictions: f64, coalesced: f64) {
    report.push("core.cache_hits", hits, "count");
    report.push("core.cache_misses", misses, "count");
    report.push("core.cache_evictions", evictions, "count");
    report.push("core.cache_coalesced", coalesced, "count");
    let lookups = hits + misses + coalesced;
    report.push(
        "core.cache_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
    );
}

/// Every per-layer metric from the repro side: section times and residual,
/// from the 1-thread regenerations (the ones `repro`'s `p50_us` times).
fn bench_layer(report: &mut Report, runs: &[repro::Regeneration]) {
    for name in repro::SECTIONS {
        let ms = repro::median_of(runs, 1, |r| {
            r.sections.iter().find(|s| s.0 == name).map_or(0.0, |s| s.1)
        });
        report.push(&format!("bench.section_ms.{name}"), ms, "ms");
    }
    report.push(
        "bench.repro_ms",
        repro::median_of(runs, NPROC, |r| r.wall_ms),
        "ms",
    );
    report.push(
        "bench.repro_serial_ms",
        repro::median_of(runs, 1, |r| r.wall_ms),
        "ms",
    );
    let residual = repro::median_of(runs, 1, |r| {
        r.wall_ms - r.sections.iter().map(|s| s.1).sum::<f64>()
    });
    report.push("bench.residual_ms", residual, "ms");
}

/// `trace.overhead_pct`: the replay's wall time with spans on over the
/// same requests with spans off.
fn overhead_metric(report: &mut Report, replay: &serve::Replay, lines: &mut Vec<String>) {
    let overhead = replay.overhead_pct();
    report.push("trace.overhead_pct", overhead, "%");
    lines.push(format!(
        "tracing overhead: in-process replay with spans {:.1} ms - without {:.1} ms (same requests) = {overhead:.2} %",
        replay.traced_us / 1e3,
        replay.bare_us / 1e3
    ));
}

fn self_time_lines(label: &str, t: &Tracer, lines: &mut Vec<String>) {
    let layers = t.self_time_by_layer();
    let text: Vec<String> = layers
        .iter()
        .map(|(l, us)| format!("{l} {:.1} ms", us / 1e3))
        .collect();
    lines.push(format!("self time by layer ({label}): {}", text.join(", ")));
}

fn run_serve(args: &Args, hot: bool, lines: &mut Vec<String>) -> Result<Report, String> {
    let mut report = Report::default();
    let traffic = if hot { Traffic::Hot } else { Traffic::Cold };
    lines.push(format!(
        "{} mix: {}",
        args.workload,
        gen::shares_line(traffic)
    ));
    if !args.trace {
        let e = serve::run(&args.ntv, hot, args.seed, args.seconds, false)?;
        lines.push(format!(
            "{}: {} latency samples, error_ratio {} ({} failed of {} queries; {} infeasible min_spares answers, counted correct)",
            args.workload,
            e.latency_samples,
            e.checked.error_ratio(),
            e.checked.failed,
            e.checked.attempted,
            e.checked.infeasible
        ));
        report.attempted = e.checked.attempted;
        report.failed = e.checked.failed;
        e2e_metrics(&mut report, &e);
        return Ok(report);
    }
    // Replay first: this process's cache must start as fresh as the
    // server's.
    let first = if hot { 1u64 << 40 } else { 0 };
    let indices: Vec<u64> = (first..first + 4000).collect();
    let replay = serve::replay(hot, args.seed, &indices, Duration::from_secs(3));
    let mut client = Tracer::new();
    let e = serve::run(&args.ntv, hot, args.seed, args.seconds, true)?;
    for s in &e.samples {
        client.record("client.request", s.sent, s.done, s.index);
    }
    report.attempted = e.checked.attempted;
    report.failed = e.checked.failed;
    serve_layer(&mut report, &replay, &e, lines);
    cache_metrics(
        &mut report,
        e.stat("cache", "hits"),
        e.stat("cache", "misses"),
        e.stat("cache", "evictions"),
        e.stat("cache", "coalesced"),
    );
    // Grid builds happen inside `Query::run`, out of the spans' reach:
    // their share is the replay's build count times the measured cost of
    // one build, over the replay's server time.
    let server_us: f64 = replay.tracer.durations("serve.request").iter().sum();
    let mut t = Tracer::new();
    let core = layers::core(&mut t, &op_points(&args.workload, args.seed), args.seed);
    let grid_build_us = core
        .iter()
        .find(|m| m.0 == "core.grid_build_us")
        .map_or(0.0, |m| m.1);
    #[allow(clippy::cast_precision_loss)]
    let share = replay.grid_builds as f64 * grid_build_us / server_us.max(1e-9);
    report.push("core.grid_time_share", share, "ratio");
    lines.push(format!(
        "survival-grid builds: {} in the replay x {grid_build_us:.0} us = {:.1} % of {:.0} ms server time",
        replay.grid_builds,
        share * 100.0,
        server_us / 1e3
    ));
    report.extend(core);
    report.extend(layers::kernels(
        &mut t,
        &op_points(&args.workload, args.seed),
        args.seed,
    ));
    report.extend(layers::soda(&mut t, args.seed));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = trace_path(&args.workload, args.seed, "repro");
    let exe = exe.to_string_lossy();
    let runs = [
        repro::regenerate(&exe, args.seed, NPROC, Spans::Write(&path))?,
        repro::regenerate(&exe, args.seed, 1, Spans::On)?,
    ];
    bench_layer(&mut report, &runs);
    overhead_metric(&mut report, &replay, lines);
    self_time_lines("replay", &replay.tracer, lines);
    self_time_lines("probes", &t, lines);
    for (tracer, what) in [
        (&replay.tracer, "replay"),
        (&t, "probes"),
        (&client, "client"),
    ] {
        let path = trace_path(&args.workload, args.seed, what);
        tracer
            .write(std::path::Path::new(&path))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(report)
}

fn run_repro(args: &Args, lines: &mut Vec<String>) -> Result<Report, String> {
    let reference = std::fs::read_to_string(repro::REFERENCE)
        .map_err(|e| format!("cannot read {}: {e}", repro::REFERENCE))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let exe = exe.to_string_lossy();
    // Two untimed warm-up regenerations (the first few after a pause run
    // slow); their output is still checked. The untraced run records no
    // spans at all.
    let spans = if args.trace { Spans::On } else { Spans::Off };
    let mut checked = vec![
        repro::regenerate(&exe, args.seed, NPROC, Spans::Off)?,
        repro::regenerate(&exe, args.seed, 1, Spans::Off)?,
    ];
    let started = std::time::Instant::now();
    let path = trace_path(&args.workload, args.seed, "repro");
    let mut runs = Vec::new();
    let mut bare = Vec::new();
    // Mostly 1-thread regenerations: they are the latency sample, because
    // on a host of nproc shared vCPUs an nproc-thread regeneration waits at
    // every join for whichever vCPU a neighbour holds, and so measures the
    // neighbours more than the program. Every fourth round adds an
    // nproc-thread one for `bench.repro_ms` and the identity check. In the
    // traced run every other 1-thread regeneration records no spans: the
    // two sets give the tracing overhead.
    let mut round = 0u32;
    while round < 4 || started.elapsed().as_secs_f64() < args.seconds {
        if args.trace && round % 2 == 1 {
            bare.push(repro::regenerate(&exe, args.seed, 1, Spans::Off)?);
        } else {
            let first = if args.trace && round == 0 {
                Spans::Write(&path)
            } else {
                spans
            };
            runs.push(repro::regenerate(&exe, args.seed, 1, first)?);
        }
        if round.is_multiple_of(4) {
            runs.push(repro::regenerate(&exe, args.seed, NPROC, spans)?);
        }
        round += 1;
    }
    checked.extend(runs.iter().chain(&bare).cloned());
    let (attempted, failed) = repro::check(&checked, &reference);
    let mut report = Report {
        attempted,
        failed,
        metrics: Vec::new(),
    };
    let wall = repro::median_of(&runs, 1, |r| r.wall_ms);
    let wall_nproc = repro::median_of(&runs, NPROC, |r| r.wall_ms);
    lines.push(format!(
        "repro: {} timed regenerations; repro_serial_s {:.3} at 1 thread, repro_s {:.3} at {NPROC} threads; {failed} of {attempted} sections failed their check",
        runs.len(),
        wall / 1e3,
        wall_nproc / 1e3
    ));
    if !args.trace {
        // One query of this workload is one whole 1-thread regeneration.
        let walls = sorted(
            runs.iter()
                .filter(|r| r.threads == 1)
                .map(|r| r.wall_ms * 1e3)
                .collect(),
        );
        let (p99, pct) = tail(&walls).unwrap_or((0.0, 0.0));
        lines.push(format!(
            "regeneration latency: {} samples at 1 thread, tail at p{:.0}",
            walls.len(),
            pct * 100.0
        ));
        let setup = median(&runs.iter().map(|r| r.setup_s).collect::<Vec<_>>()).unwrap_or(0.0);
        report.push("setup_s", setup, "s");
        report.push("qps", 1e3 / wall, "1/s");
        report.push("p50_us", wall * 1e3, "us");
        report.push("p99_us", p99, "us");
        // CPU time comes in 10 ms clock ticks per child; the mean over the
        // children resolves it, where a median would repeat one tick count.
        let cpu: Vec<f64> = runs
            .iter()
            .filter(|r| r.threads == 1)
            .map(|r| r.field("cpu_s"))
            .collect();
        #[allow(clippy::cast_precision_loss)]
        let cpu = cpu.iter().sum::<f64>() / cpu.len().max(1) as f64;
        report.push("cpu_us_per_query", cpu * 1e6, "us");
        let rss = repro::median_of(&runs, 1, |r| r.field("rss_mib"));
        report.push("rss_mib", rss, "MiB");
        return Ok(report);
    }
    // Serve layers from a short serve-hot replay and run at this seed.
    let indices: Vec<u64> = ((1u64 << 40)..(1u64 << 40) + 1000).collect();
    let replay = serve::replay(true, args.seed, &indices, Duration::from_secs(1));
    let e = serve::run(&args.ntv, true, args.seed, 3.0, true)?;
    report.attempted += e.checked.attempted;
    report.failed += e.checked.failed;
    serve_layer(&mut report, &replay, &e, lines);
    let field = |key: &str| repro::median_of(&runs, 1, |r| r.field(key));
    cache_metrics(
        &mut report,
        field("cache_hits"),
        field("cache_misses"),
        field("cache_evictions"),
        field("cache_coalesced"),
    );
    // Repro has no server, and its serve-hot replay never builds a grid.
    report.push("core.grid_time_share", 0.0, "ratio");
    let mut t = Tracer::new();
    let points = op_points(&args.workload, args.seed);
    report.extend(layers::core(&mut t, &points, args.seed));
    report.extend(layers::kernels(&mut t, &points, args.seed));
    report.extend(layers::soda(&mut t, args.seed));
    bench_layer(&mut report, &runs);
    let untraced = repro::median_of(&bare, 1, |r| r.wall_ms);
    let overhead = 100.0 * (wall - untraced) / untraced;
    report.push("trace.overhead_pct", overhead, "%");
    lines.push(format!(
        "tracing overhead: repro wall with section spans {wall:.1} ms - without {untraced:.1} ms = {overhead:.2} %"
    ));
    let sections = repro::median_of(&runs, 1, |r| r.sections.iter().map(|s| s.1).sum());
    let residual = repro::median_of(&runs, 1, |r| {
        r.wall_ms - r.sections.iter().map(|s| s.1).sum::<f64>()
    });
    lines.push(format!(
        "accounting (medians over regenerations): repro wall {wall:.1} ms, sections {sections:.1} ms, residual {residual:.1} ms"
    ));
    self_time_lines("probes", &t, lines);
    let path = trace_path(&args.workload, args.seed, "probes");
    t.write(std::path::Path::new(&path))
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(report)
}

/// Whether `name` is a valid metric name: a letter or digit, then at most
/// 63 more letters, digits, `_`, `.` or `-`.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares for this kind
/// of run (`per_layer` when traced, `end_to_end` otherwise).
fn declared(benchmark: &str, trace: bool) -> Option<Vec<(String, String)>> {
    let v = json::parse(benchmark).ok()?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    v.get(key)?
        .as_arr()?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// The run must print exactly the metrics `BENCHMARK.json` declares, with
/// the declared units, under valid names.
fn check_declared(report: &Report, benchmark: &str, trace: bool) -> Result<(), String> {
    let mut printed: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), (*u).to_string()))
        .collect();
    let mut want = declared(benchmark, trace).ok_or("BENCHMARK.json lists no metrics")?;
    printed.sort();
    want.sort();
    if let Some((bad, _)) = printed.iter().find(|(n, _)| !valid_name(n)) {
        return Err(format!("invalid metric name {bad}"));
    }
    if printed == want {
        Ok(())
    } else {
        Err(format!(
            "printed metrics {printed:?} differ from BENCHMARK.json {want:?}"
        ))
    }
}

fn child_main(args: &[String]) -> ExitCode {
    let (mut seed, mut threads, mut spans, mut trace_out) = (1u64, 1usize, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().cloned().unwrap_or_default();
        match flag.as_str() {
            "--seed" => seed = value.parse().unwrap_or(seed),
            "--threads" => threads = value.parse().unwrap_or(threads),
            "--spans" => spans = value == "1",
            "--trace-out" => trace_out = Some(value),
            _ => return ExitCode::from(2),
        }
    }
    let spans = match (spans, trace_out.as_deref()) {
        (false, _) => Spans::Off,
        (true, None) => Spans::On,
        (true, Some(path)) => Spans::Write(path),
    };
    repro::child(seed, threads, spans);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("repro-child") {
        return child_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut lines = Vec::new();
    let result = match args.workload.as_str() {
        "serve-hot" => run_serve(&args, true, &mut lines),
        "serve-cold" => run_serve(&args, false, &mut lines),
        _ => run_repro(&args, &mut lines),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Ok(benchmark) = std::fs::read_to_string("BENCHMARK.json") {
        if let Err(e) = check_declared(&report, &benchmark, args.trace) {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    for line in &lines {
        println!("{line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<34} {value:>14.4} {unit}");
    }
    println!("{}", report.json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_validity() {
        for good in [
            "p50_us",
            "serve.run_us.min_spares",
            "bench.section_ms.fig1",
            "9a-b",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "p50 us", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn declared_metrics_are_valid_and_unique() {
        let benchmark = include_str!("../../../../BENCHMARK.json");
        for trace in [false, true] {
            let names = declared(benchmark, trace).expect("metrics");
            assert!(!names.is_empty());
            let mut seen = std::collections::BTreeSet::new();
            for (name, _) in &names {
                assert!(valid_name(name), "{name}");
                assert!(seen.insert(name.clone()), "{name} twice");
            }
        }
    }

    #[test]
    fn a_report_must_match_the_declaration() {
        let benchmark = r#"{"end_to_end":[{"name":"setup_s","unit":"s"}]}"#;
        let mut report = Report::default();
        report.push("setup_s", 0.5, "s");
        assert!(check_declared(&report, benchmark, false).is_ok());
        report.push("extra", 1.0, "s");
        assert!(check_declared(&report, benchmark, false).is_err());
    }
}
