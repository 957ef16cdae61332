//! The repro workload: regenerate the paper in a fresh process.
//!
//! Each regeneration is a child process of this binary (`repro-child`),
//! because `OpPointCache::global()` carries state across calls. The child
//! calls every `experiments::*::run_with` in `repro`'s order (and
//! `placement::run`) with the benchmark seed at the stated sample counts,
//! prints the report, then one JSON line with its timings. The parent
//! runs children mostly at one thread, and every fourth at `nproc`.

use std::fmt::Display;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Command, Stdio};
use std::time::Instant;

use ntv_bench::experiments::{
    fig1, fig11, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, placement, table1, table2, table3,
    table4,
};
use ntv_core::{Executor, OpPointCache};
use ntv_device::TechNode;
use ntv_serve::json;

use crate::stats::median;
use crate::trace::Tracer;

/// Architecture-level Monte-Carlo samples per experiment.
pub const ARCH_SAMPLES: usize = 2_000;
/// Circuit-level Monte-Carlo samples per experiment.
pub const CIRCUIT_SAMPLES: usize = 200;

/// Sections in `repro`'s order.
pub const SECTIONS: [&str; 15] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig11",
    "table1",
    "table2",
    "table3",
    "table4",
    "placement",
];

/// Sections computed analytically: their text must equal the reference
/// captured at the parent commit, whatever the seed.
pub const ANALYTIC: [&str; 6] = ["fig7", "fig8", "fig9", "table1", "table2", "table3"];

/// Reference text of the analytic sections, relative to the checkout root.
pub const REFERENCE: &str = "perfbench/reference/analytic.txt";

/// Marker line opening a section in the child's report.
fn marker(name: &str) -> String {
    format!("=== {name} ===\n")
}

fn section<R: Display>(
    tracer: &mut Tracer,
    report: &mut String,
    name: &str,
    run: impl FnOnce() -> R,
) {
    let result = tracer.span(&format!("bench.section.{name}"), None, 0, |_, _| run());
    report.push_str(&marker(name));
    let _ = writeln!(report, "{result}");
}

/// Span recording in one regeneration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spans<'a> {
    /// No spans: the child times only its whole run.
    Off,
    /// A span per section, reported in the summary.
    On,
    /// As `On`, and the spans are also written as JSON lines to the path.
    Write(&'a str),
}

/// Body of `repro-child`: one regeneration, then a JSON summary line.
pub fn child(seed: u64, threads: usize, spans: Spans<'_>) {
    println!("start");
    let _ = std::io::stdout().flush();
    let exec = Executor::new(threads);
    let (arch, circuit) = (ARCH_SAMPLES, CIRCUIT_SAMPLES);
    let mut t = if spans == Spans::Off {
        Tracer::off()
    } else {
        Tracer::new()
    };
    let mut r = String::new();
    let started = Instant::now();
    section(&mut t, &mut r, "fig1", || {
        fig1::run_with(circuit, seed, exec)
    });
    section(&mut t, &mut r, "fig2", || {
        fig2::run_with(circuit, seed, exec)
    });
    section(&mut t, &mut r, "fig3", || fig3::run_with(arch, seed, exec));
    section(&mut t, &mut r, "fig4", || fig4::run_with(arch, seed, exec));
    section(&mut t, &mut r, "fig5", || fig5::run_with(arch, seed, exec));
    section(&mut t, &mut r, "fig6", || fig6::run_with(arch, seed, exec));
    section(&mut t, &mut r, "fig7", || fig7::run_with(arch, seed, exec));
    section(&mut t, &mut r, "fig8", || fig8::run_with(arch, seed, exec));
    section(&mut t, &mut r, "fig9", || {
        TechNode::ALL
            .iter()
            .map(|&node| format!("{}\n", fig9::run_for(node)))
            .collect::<String>()
    });
    section(&mut t, &mut r, "fig11", || {
        fig11::run_with(circuit, seed, exec)
    });
    section(&mut t, &mut r, "table1", || {
        table1::run_with(arch, seed, exec)
    });
    section(&mut t, &mut r, "table2", || {
        table2::run_with(arch, seed, exec)
    });
    section(&mut t, &mut r, "table3", || {
        table3::run_with(arch, seed, exec)
    });
    section(&mut t, &mut r, "table4", || {
        table4::run_with(arch, seed, exec)
    });
    section(&mut t, &mut r, "placement", || placement::run(seed));
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    if let Spans::Write(path) = spans {
        if let Err(e) = t.write(std::path::Path::new(path)) {
            eprintln!("cannot write spans to {path}: {e}");
        }
    }
    let sections: Vec<(&str, String)> = t
        .spans()
        .iter()
        .map(|s| {
            let name = s.name.trim_start_matches("bench.section.");
            (
                SECTIONS
                    .iter()
                    .find(|&&n| n == name)
                    .copied()
                    .unwrap_or("?"),
                json::num(s.us() / 1e3),
            )
        })
        .collect();
    let cache = OpPointCache::global().stats();
    #[allow(clippy::cast_precision_loss)]
    let summary = json::obj(&[
        ("wall_ms", json::num(wall_ms)),
        ("sections", json::obj(&sections)),
        (
            "cpu_s",
            json::num(crate::load::cpu_seconds(std::process::id()).unwrap_or(0.0)),
        ),
        (
            "rss_mib",
            json::num(crate::load::peak_rss_mib("self").unwrap_or(0.0)),
        ),
        ("cache_hits", json::num(cache.hits as f64)),
        ("cache_misses", json::num(cache.misses as f64)),
        ("cache_evictions", json::num(cache.evictions as f64)),
        ("cache_coalesced", json::num(cache.coalesced as f64)),
    ]);
    print!("{r}");
    println!("{summary}");
}

/// One finished regeneration, as the parent saw it.
#[derive(Debug, Clone)]
pub struct Regeneration {
    /// Threads it ran on.
    pub threads: usize,
    /// Spawn until the first section started, s.
    pub setup_s: f64,
    /// First section start to last section end, ms.
    pub wall_ms: f64,
    /// `(section, ms)` in repro's order; empty when spans were off.
    pub sections: Vec<(String, f64)>,
    /// The report text.
    pub report: String,
    /// Child summary fields (cpu_s, rss_mib, cache counters).
    pub summary: json::Value,
}

impl Regeneration {
    /// A numeric summary field.
    #[must_use]
    pub fn field(&self, key: &str) -> f64 {
        self.summary
            .get(key)
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0)
    }

    /// The text of the analytic sections, in order.
    #[must_use]
    pub fn analytic_text(&self) -> String {
        split_sections(&self.report)
            .into_iter()
            .filter(|(name, _)| ANALYTIC.contains(&name.as_str()))
            .map(|(name, body)| format!("{}{body}", marker(&name)))
            .collect()
    }
}

/// Split a child report into `(section, text)` pairs.
fn split_sections(report: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in report.split_inclusive('\n') {
        if let Some(name) = line
            .strip_prefix("=== ")
            .and_then(|l| l.strip_suffix(" ===\n"))
        {
            out.push((name.to_string(), String::new()));
        } else if let Some((_, body)) = out.last_mut() {
            body.push_str(line);
        }
    }
    out
}

/// Spawn one regeneration of `exe repro-child` and wait for it.
///
/// # Errors
///
/// Returns a message when the child cannot start, fails, or prints no
/// summary.
pub fn regenerate(
    exe: &str,
    seed: u64,
    threads: usize,
    spans: Spans<'_>,
) -> Result<Regeneration, String> {
    let spawned = Instant::now();
    let mut cmd = Command::new(exe);
    cmd.args(["repro-child", "--seed"])
        .arg(seed.to_string())
        .arg("--threads")
        .arg(threads.to_string());
    match spans {
        Spans::Off => {}
        Spans::On => {
            cmd.args(["--spans", "1"]);
        }
        Spans::Write(path) => {
            cmd.args(["--spans", "1", "--trace-out", path]);
        }
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start {exe}: {e}"))?;
    let mut lines = Vec::new();
    let mut setup_s = None;
    if let Some(out) = child.stdout.take() {
        for line in BufReader::new(out).lines() {
            let Ok(line) = line else { break };
            if setup_s.is_none() && line == "start" {
                setup_s = Some(spawned.elapsed().as_secs_f64());
                continue;
            }
            lines.push(line);
        }
    }
    let status = child.wait().map_err(|e| format!("repro child: {e}"))?;
    if !status.success() {
        return Err(format!("repro child exited with {status}"));
    }
    let summary_line = lines.pop().ok_or("repro child printed nothing")?;
    let summary = json::parse(&summary_line).map_err(|e| format!("repro summary: {e}"))?;
    let timed = if spans == Spans::Off {
        &[][..]
    } else {
        &SECTIONS[..]
    };
    let sections = timed
        .iter()
        .map(|&name| {
            let ms = summary
                .get("sections")
                .and_then(|s| s.get(name))
                .and_then(json::Value::as_f64);
            ms.map(|ms| (name.to_string(), ms))
                .ok_or(format!("repro summary lacks section {name}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut report = lines.join("\n");
    report.push('\n');
    Ok(Regeneration {
        threads,
        setup_s: setup_s.ok_or("repro child never started")?,
        wall_ms: summary
            .get("wall_ms")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0),
        sections,
        report,
        summary,
    })
}

/// Output checks over a run's regenerations: every analytic section must
/// equal the reference, and every report must equal the first (1 and
/// `nproc` threads alike). Returns `(attempted, failed)` in sections.
#[must_use]
pub fn check(runs: &[Regeneration], reference: &str) -> (u64, u64) {
    let mut failed = 0;
    let first = runs.first().map(|r| r.report.as_str()).unwrap_or_default();
    for run in runs {
        if run.analytic_text() != reference {
            failed += ANALYTIC.len() as u64;
            eprintln!("repro: analytic sections differ from {REFERENCE}");
        }
        let sections = split_sections(&run.report);
        let baseline = split_sections(first);
        for (name, text) in &sections {
            let same = baseline.iter().any(|(n, t)| n == name && t == text);
            if !same {
                failed += 1;
                eprintln!("repro: section {name} differs between thread counts");
            }
        }
    }
    (runs.len() as u64 * SECTIONS.len() as u64, failed)
}

/// Median of `f` over the regenerations at `threads`.
#[must_use]
pub fn median_of(runs: &[Regeneration], threads: usize, f: impl Fn(&Regeneration) -> f64) -> f64 {
    let v: Vec<f64> = runs
        .iter()
        .filter(|r| r.threads == threads)
        .map(f)
        .collect();
    median(&v).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_split_on_markers() {
        let report = format!("{}a\nb\n{}c\n", marker("fig7"), marker("fig8"));
        let parts = split_sections(&report);
        assert_eq!(parts[0], ("fig7".to_string(), "a\nb\n".to_string()));
        assert_eq!(parts[1], ("fig8".to_string(), "c\n".to_string()));
    }
}
