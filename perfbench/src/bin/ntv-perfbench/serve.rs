//! The serve workloads, end to end and traced.
//!
//! Both workloads run a closed loop over two connections in one-second
//! rounds. Throughput is the median over the rounds and latency the median
//! over windows of whole rounds holding at least 1000 requests (one round
//! of serve-hot, two of serve-cold), so a slow spell of the host moves
//! them little.
//! The traced run adds an open loop at a fixed offered rate, timed from
//! each request's due time.
//!
//! * `serve-hot`: cache warmed during set-up, bound far above the working
//!   set, so every lookup hits.
//! * `serve-cold`: fresh operating points, bound below the working set.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use ntv_core::engine::VariationMode;
use ntv_core::{Executor, OpPointCache};
use ntv_serve::{http, json, wire, Query};

use crate::gen::{batch_body, hot_vdd, Generator, Traffic};
use crate::load::{self, Checked, Sample, Server, CONNECTIONS};
use crate::stats::{median, nearest_rank, sorted, tail};
use crate::trace::Tracer;

/// Server cache bound for serve-hot: far above its ~200 operating points.
pub const HOT_CACHE_BOUND: usize = 4096;
/// Server cache bound for serve-cold: far below its stream of fresh points.
pub const COLD_CACHE_BOUND: usize = 64;
/// Open-loop offered rates (requests/s) of the traced run, serve-hot and
/// serve-cold: a seventh and a quarter of each workload's two-connection
/// closed-loop capacity on a 2-core host.
const OPEN_RATE: [f64; 2] = [1000.0, 300.0];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// One closed-loop round.
const ROUND: Duration = Duration::from_millis(1000);
/// Fewest requests in a latency window: enough for a p99 with 10 samples
/// beyond it.
const WINDOW_REQUESTS: usize = 1000;
/// Share of a traced run spent in the open loop.
const OPEN_SHARE: f64 = 0.3;

/// End-to-end figures of one serve run.
#[derive(Debug, Clone, Default)]
pub struct E2e {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Closed-loop queries/s over two connections (median over rounds).
    pub qps: f64,
    /// Median request latency over two connections, µs (median over
    /// windows).
    pub p50_us: f64,
    /// Tail request latency (see [`tail`]), µs (median over windows).
    pub p99_us: f64,
    /// Samples behind the latency figures.
    pub latency_samples: usize,
    /// Server CPU per completed query, µs.
    pub cpu_us_per_query: f64,
    /// Server peak RSS, MiB.
    pub rss_mib: f64,
    /// Output check.
    pub checked: Checked,
    /// Open-loop median and tail latency from the due time, µs, and the
    /// generator's lateness at its 99th percentile, ms (traced run only).
    pub open: Option<(f64, f64, f64)>,
    /// `/stats` after the run.
    pub stats: Option<json::Value>,
    /// Every request sent in the timed phases.
    pub samples: Vec<Sample>,
}

impl E2e {
    /// A counter from the server's `/stats` (`section.key`), 0 if absent.
    #[must_use]
    pub fn stat(&self, section: &str, key: &str) -> f64 {
        self.stats
            .as_ref()
            .and_then(|s| s.get(section))
            .and_then(|s| s.get(key))
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0)
    }
}

fn traffic_of(hot: bool) -> (Traffic, usize) {
    if hot {
        (Traffic::Hot, HOT_CACHE_BOUND)
    } else {
        (Traffic::Cold, COLD_CACHE_BOUND)
    }
}

/// Spawn the server and make it ready to time: listening, and for
/// serve-hot with every query of the working set answered once.
fn set_up(ntv: &str, gen: &Generator, bound: usize) -> Result<Server, String> {
    let server = Server::spawn(ntv, bound)?;
    let set = gen.working_set();
    if !set.is_empty() {
        let mut conn =
            ntv_serve::Connection::open(server.addr()).map_err(|e| format!("warm: {e}"))?;
        for chunk in set.chunks(16) {
            let r = conn
                .query(&batch_body(chunk))
                .map_err(|e| format!("warm: {e}"))?;
            if r.status != 200 {
                return Err(format!("warm: status {} {}", r.status, r.body));
            }
        }
    }
    Ok(server)
}

/// Median and tail latency (µs) of a set of requests.
fn latency<'a>(samples: impl Iterator<Item = &'a Sample>) -> (Option<f64>, Option<f64>) {
    let lat = sorted(samples.map(Sample::latency_us).collect());
    (nearest_rank(&lat, 0.5), tail(&lat).map(|t| t.0))
}

/// Median and tail latency (µs) per window of whole rounds holding at
/// least [`WINDOW_REQUESTS`] requests; the figures are their medians over
/// the windows, so a slow spell of the host spoils a few windows, not the
/// figure. Rounds left over at the end count only when they are all there
/// is.
fn window_latencies(rounds: &[Vec<Sample>]) -> (Vec<f64>, Vec<f64>) {
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let mut window: Vec<&Sample> = Vec::new();
    for (i, round) in rounds.iter().enumerate() {
        window.extend(round);
        if window.len() >= WINDOW_REQUESTS || (i + 1 == rounds.len() && p50s.is_empty()) {
            let (p50, p99) = latency(window.drain(..));
            p50s.extend(p50);
            p99s.extend(p99);
        }
    }
    (p50s, p99s)
}

/// Queries completed per second over a closed loop that took `len`.
fn rate(samples: &[Sample], len: Duration) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let queries = samples.iter().map(|s| s.queries).sum::<usize>() as f64;
    queries / len.as_secs_f64()
}

/// Run serve-hot (`hot`) or serve-cold end to end for `seconds`; with
/// `open`, start with an open loop (the traced run's latency phase).
///
/// # Errors
///
/// Returns a message when the server cannot be started or warmed.
pub fn run(ntv: &str, hot: bool, seed: u64, seconds: f64, open: bool) -> Result<E2e, String> {
    let (traffic, bound) = traffic_of(hot);
    let gen = Generator::new(traffic, seed);
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let t = Instant::now();
        server = Some(set_up(ntv, &gen, bound)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let server = server.ok_or("no server")?;
    let addr = server.addr();
    let cpu0 = load::cpu_seconds(server.pid()).unwrap_or(0.0);
    let mut samples = Vec::new();
    let mut out = E2e::default();

    let mut closed_budget = seconds;
    if open {
        let rate = OPEN_RATE[usize::from(!hot)];
        let start = Instant::now() + Duration::from_millis(10);
        let len = Duration::from_secs_f64(seconds * OPEN_SHARE);
        let phase = load::open_loop(addr, &gen, 1 << 40, rate, start, len);
        let (p50, p99) = latency(phase.iter());
        let late = sorted(phase.iter().map(Sample::late_us).collect());
        let late_ms = nearest_rank(&late, 0.99).unwrap_or(0.0) / 1e3;
        out.open = Some((p50.unwrap_or(0.0), p99.unwrap_or(0.0), late_ms));
        samples.extend(phase);
        closed_budget -= seconds * OPEN_SHARE;
    }

    let next = AtomicU64::new(0);
    let mut rounds = Vec::new();
    let mut qps = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < closed_budget || qps.len() < 2 {
        let t = Instant::now();
        let round = load::closed_loop(addr, &gen, &next, CONNECTIONS, ROUND);
        qps.push(rate(&round, t.elapsed()));
        rounds.push(round);
    }
    let (p50s, p99s) = window_latencies(&rounds);
    out.latency_samples = rounds.iter().map(Vec::len).sum();
    samples.extend(rounds.into_iter().flatten());
    let cpu = load::cpu_seconds(server.pid()).unwrap_or(0.0) - cpu0;
    out.stats = load::server_stats(addr);
    out.rss_mib = load::peak_rss_mib(&server.pid().to_string()).unwrap_or(0.0);
    drop(server);

    let queries: usize = samples.iter().map(|s| s.queries).sum();
    out.checked = load::check(&gen, &samples, bound);
    #[allow(clippy::cast_precision_loss)]
    let cpu_us_per_query = cpu * 1e6 / queries.max(1) as f64;
    out.cpu_us_per_query = cpu_us_per_query;
    out.setup_s = median(&setups).unwrap_or(0.0);
    out.qps = median(&qps).unwrap_or(0.0);
    out.p50_us = median(&p50s).unwrap_or(0.0);
    out.p99_us = median(&p99s).unwrap_or(0.0);
    out.samples = samples;
    Ok(out)
}

/// The bytes a client puts on the wire for `body` (what
/// `ntv_serve::client::Connection::query` writes).
fn wire_request(body: &str) -> String {
    format!(
        "POST /v1/query HTTP/1.1\r\nhost: ntv\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// In-process replay of the server's request path with a span around each
/// layer call: `http::read_request`, `json::parse`, `wire::parse_batch`,
/// each `Query::run`, and the render plus `http::write_response`.
#[derive(Debug, Default)]
pub struct Replay {
    /// Spans of the replay.
    pub tracer: Tracer,
    /// `Query::run` spans of the kinds the workload's stream never sends,
    /// from a per-kind phase after the replay.
    pub kind_probes: Tracer,
    /// Survival-grid builds during the traced replay: the cache misses of
    /// skewed-iid quantiles and sweeps, the only generated queries that
    /// read the grid.
    pub grid_builds: u64,
    /// Wall time of the replayed blocks with spans off, µs.
    pub bare_us: f64,
    /// Wall time of the same blocks with spans on, µs.
    pub traced_us: f64,
}

impl Replay {
    /// Tracing overhead of the replay: spans on over spans off, in %.
    #[must_use]
    pub fn overhead_pct(&self) -> f64 {
        100.0 * (self.traced_us - self.bare_us) / self.bare_us.max(1e-9)
    }
}

/// Requests per replay block. Each block runs twice, once with spans off
/// and once with spans on, in alternating order; a serve-cold block holds
/// more fresh operating points than the cache bound, so its second pass
/// misses the cache as often as its first.
const REPLAY_BLOCK: usize = 128;

/// Replay one request through the server's layers under `t`'s spans.
/// Counts the survival-grid builds of its queries into `grid_builds`.
fn replay_request(t: &mut Tracer, raw: &str, index: u64, exec: &Executor, grid_builds: &mut u64) {
    let cache = OpPointCache::global();
    t.span("serve.request", None, index, |t, root| {
        let request = t.span("serve.http_read", Some(root), index, |_, _| {
            http::read_request(&mut BufReader::new(raw.as_bytes()))
        });
        let Ok(Some(request)) = request else { return };
        let parsed = t.span("serve.json_parse", Some(root), index, |_, _| {
            json::parse(&request.body)
        });
        let Ok(parsed) = parsed else { return };
        let batch = t.span("serve.parse_batch", Some(root), index, |_, _| {
            wire::parse_batch(&parsed, usize::MAX)
        });
        let Ok(batch) = batch else { return };
        let mut results = Vec::with_capacity(batch.len());
        for q in &batch {
            let skewed = matches!(q,
                Query::Quantile { mode, .. } | Query::Sweep { mode, .. }
                    if *mode == VariationMode::SkewedIid);
            let before = cache.stats().misses;
            let name = run_span(q.kind_name());
            results.push(t.span(name, Some(root), index, |_, _| q.run(exec)));
            if skewed {
                *grid_builds += cache.stats().misses - before;
            }
        }
        t.span("serve.render", Some(root), index, |_, _| {
            let body = json::obj(&[("results", json::arr(&results))]);
            let mut buf = Vec::with_capacity(body.len() + 128);
            http::write_response(&mut buf, 200, &body, true).expect("write to a Vec");
            buf
        });
    });
}

/// Replay requests `indices` of the workload in this process, block by
/// block with spans off and on, until `budget` runs out. Must run before
/// anything else touches the process-wide cache, so its state matches the
/// server's: same bound, and for serve-hot the same warm-up.
#[must_use]
pub fn replay(hot: bool, seed: u64, indices: &[u64], budget: Duration) -> Replay {
    let (traffic, bound) = traffic_of(hot);
    let gen = Generator::new(traffic, seed);
    OpPointCache::global().set_bound(Some(bound));
    let exec = Executor::serial();
    for q in gen.working_set() {
        let parsed = json::parse(&q).expect("generated query is valid JSON");
        for query in wire::parse_batch(&parsed, 1).expect("generated query is valid") {
            let _ = query.run(&exec);
        }
    }
    let mut out = Replay::default();
    let mut bare = Tracer::off();
    let mut uncounted = 0;
    let started = Instant::now();
    for (b, block) in indices.chunks(REPLAY_BLOCK).enumerate() {
        if started.elapsed() > budget {
            break;
        }
        let raws: Vec<String> = block
            .iter()
            .map(|&i| wire_request(&gen.request(i)))
            .collect();
        let order = if b % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            let (t, builds) = if traced {
                (&mut out.tracer, &mut out.grid_builds)
            } else {
                (&mut bare, &mut uncounted)
            };
            let pass = Instant::now();
            for (raw, &index) in raws.iter().zip(block) {
                replay_request(t, raw, index, &exec, builds);
            }
            let us = pass.elapsed().as_secs_f64() * 1e6;
            if traced {
                out.traced_us += us;
            } else {
                out.bare_us += us;
            }
        }
    }
    out.kind_probes = kind_phase(&out.tracer, &exec);
    out
}

/// `serve_load`'s per-kind phase for the kinds a replay never ran: each
/// kind at 90 nm over serve-hot's 16-point voltage grid, once untimed to
/// warm it, then twice under a `serve.run.<kind>` span per query.
fn kind_phase(replayed: &Tracer, exec: &Executor) -> Tracer {
    let mut t = Tracer::new();
    for kind in KINDS {
        let name = run_span(kind);
        if !replayed.durations(name).is_empty() {
            continue;
        }
        let queries: Vec<Query> = (0..16u8)
            .map(|step| {
                let vdd = hot_vdd(step);
                let q = match kind {
                    "dse" => {
                        format!(r#"{{"kind":"dse","node":"90nm","vdd":{vdd},"spares":[0,2,8]}}"#)
                    }
                    _ => format!(r#"{{"kind":"{kind}","node":"90nm","vdd":{vdd}}}"#),
                };
                let parsed = json::parse(&q).expect("per-kind query is valid JSON");
                wire::parse_batch(&parsed, 1)
                    .expect("per-kind query is valid")
                    .remove(0)
            })
            .collect();
        for round in 0..3u64 {
            for (i, q) in (0u64..).zip(&queries) {
                if round == 0 {
                    let _ = q.run(exec);
                } else {
                    t.span(name, None, round * 16 + i, |_, _| q.run(exec));
                }
            }
        }
    }
    t
}

/// The serve layer's per-request framing spans, each reported as
/// `<name>_us`.
pub const REQUEST_SPANS: [&str; 4] = [
    "serve.http_read",
    "serve.json_parse",
    "serve.parse_batch",
    "serve.render",
];

/// Query kinds, for `serve.run_us.<kind>`.
pub const KINDS: [&str; 5] = ["quantile", "margin", "sweep", "min_spares", "dse"];

/// Name of the `Query::run` span of `kind`: `serve.run.<kind>`.
#[must_use]
pub fn run_span(kind: &str) -> &'static str {
    match kind {
        "quantile" => "serve.run.quantile",
        "margin" => "serve.run.margin",
        "sweep" => "serve.run.sweep",
        "min_spares" => "serve.run.min_spares",
        "dse" => "serve.run.dse",
        _ => "serve.run.other",
    }
}

/// Median in-process cost of one request (µs): the sum over the request
/// spans and over its `Query::run` spans.
#[must_use]
pub fn inprocess_request_us(tracer: &Tracer) -> f64 {
    let mut per_request: BTreeMap<u64, f64> = BTreeMap::new();
    for s in tracer.spans() {
        if s.parent.is_some() {
            *per_request.entry(s.request).or_insert(0.0) += s.us();
        }
    }
    median(&per_request.into_values().collect::<Vec<_>>()).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(n: usize, us: u64) -> Vec<Sample> {
        let t = Instant::now();
        (0..n)
            .map(|i| Sample {
                index: i as u64,
                queries: 1,
                due: t,
                sent: t,
                done: t + Duration::from_micros(us),
                status: 200,
                body: String::new(),
            })
            .collect()
    }

    #[test]
    fn latency_windows_are_whole_rounds_of_at_least_1000_requests() {
        // 600 + 600 make one window; the last 600 are left over.
        let rounds = vec![round(600, 100), round(600, 100), round(600, 900)];
        let (p50s, p99s) = window_latencies(&rounds);
        assert_eq!(p50s.len(), 1);
        assert!((p50s[0] - 100.0).abs() < 1e-9 && (p99s[0] - 100.0).abs() < 1e-9);
        // One big round per window.
        let rounds = vec![round(1000, 100), round(1000, 300), round(1000, 200)];
        let (p50s, _) = window_latencies(&rounds);
        assert_eq!(p50s.len(), 3);
        // A short run still gives one window.
        let (p50s, _) = window_latencies(&[round(50, 100)]);
        assert_eq!(p50s.len(), 1);
    }
}
