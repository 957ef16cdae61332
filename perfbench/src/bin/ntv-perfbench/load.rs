//! The server under test and the load generator that drives it.
//!
//! `ntv serve` runs as a child process; the generator is this process,
//! with at most two client threads, each holding one keep-alive
//! connection. Every response is kept so the output check can compare it
//! byte for byte with the in-process result of the same queries.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ntv_core::{Executor, OpPointCache};
use ntv_serve::client::Connection;
use ntv_serve::{json, wire};

use crate::gen::Generator;

/// Client connections, and server workers: the host's `nproc`.
pub const CONNECTIONS: usize = 2;

/// A running `ntv serve` child. Dropping it kills the child and waits for
/// it to exit.
#[derive(Debug)]
pub struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawn `ntv serve` with `--workers 2` and the given cache bound, and
    /// wait until it is listening.
    ///
    /// # Errors
    ///
    /// Returns a message when the binary cannot be started or never
    /// reports its address.
    pub fn spawn(ntv: &str, cache_bound: usize) -> Result<Self, String> {
        let mut child = Command::new(ntv)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(CONNECTIONS.to_string())
            .arg("--cache-bound")
            .arg(cache_bound.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {ntv}: {e}"))?;
        let mut line = String::new();
        let read = match child.stdout.take() {
            Some(out) => BufReader::new(out).read_line(&mut line),
            None => Ok(0),
        };
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(n), Some(addr)) if n > 0 => Ok(Self { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "{ntv} serve did not report its address (got `{}`)",
                    line.trim()
                ))
            }
        }
    }

    /// The listening address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The child's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// User + system CPU time of process `pid`, in seconds, from
/// `/proc/<pid>/stat` (clock ticks of 1/100 s).
#[must_use]
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set of process `pid` in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One request as the generator saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Stream index of the request.
    pub index: u64,
    /// Queries in the request.
    pub queries: usize,
    /// When the request was due: its schedule slot in an open loop; in a
    /// closed loop the moment it was sent, so the generator's own work
    /// between two requests does not count as latency.
    pub due: Instant,
    /// When its first byte was written.
    pub sent: Instant,
    /// When its response was read in full.
    pub done: Instant,
    /// HTTP status, or 0 after a transport error.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl Sample {
    /// Latency from the due time, µs.
    #[must_use]
    pub fn latency_us(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }

    /// How late the generator sent the request, µs.
    #[must_use]
    pub fn late_us(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }
}

/// Send request `index` with its `queries` rendered into `body` on `conn`
/// (reconnecting after a transport error). The body is built before the
/// call, outside the timed span; `due` is `None` in a closed loop.
fn send(
    addr: SocketAddr,
    conn: &mut Option<Connection>,
    index: u64,
    queries: usize,
    body: &str,
    due: Option<Instant>,
) -> Sample {
    let sent = Instant::now();
    let response = match conn {
        Some(c) => c.query(body),
        None => Connection::open(addr).and_then(|mut c| {
            let r = c.query(body);
            *conn = Some(c);
            r
        }),
    };
    let done = Instant::now();
    let (status, body) = match response {
        Ok(r) => (r.status, r.body),
        Err(e) => {
            *conn = None;
            (0, e.to_string())
        }
    };
    Sample {
        index,
        queries,
        due: due.unwrap_or(sent),
        sent,
        done,
        status,
        body,
    }
}

/// Request `index` of `gen`: its query count and body.
fn build(gen: &Generator, index: u64) -> (usize, String) {
    let queries = gen.queries(index);
    (queries.len(), crate::gen::batch_body(&queries))
}

/// Closed loop: `conns` connections each send their next request as soon
/// as the previous response arrives and the next body is built, for
/// `duration`. Stream indices are handed out from `next`.
#[must_use]
pub fn closed_loop(
    addr: SocketAddr,
    gen: &Generator,
    next: &AtomicU64,
    conns: usize,
    duration: Duration,
) -> Vec<Sample> {
    let deadline = Instant::now() + duration;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(move || {
                    let mut conn = Connection::open(addr).ok();
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let (queries, body) = build(gen, index);
                        out.push(send(addr, &mut conn, index, queries, &body, None));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client thread panicked"))
            .collect()
    })
}

/// Wait until `due`: sleep most of the way, then spin, so the send lands
/// on its slot rather than a scheduler tick later.
fn wait_until(due: Instant) {
    let spin = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + spin {
        std::thread::sleep(due - now - spin);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The due time of slot `i` of an open loop at `rate` requests/s.
#[must_use]
pub fn due_time(start: Instant, rate: f64, i: u64) -> Instant {
    #[allow(clippy::cast_precision_loss)]
    let offset = i as f64 / rate;
    start + Duration::from_secs_f64(offset)
}

/// Open loop: requests are due at a fixed `rate` (requests/s) from
/// `start` for `duration`, slots dealt round-robin to the connections. A
/// connection still waiting on a response sends its next request late;
/// the latency of every request counts from its due time.
#[must_use]
pub fn open_loop(
    addr: SocketAddr,
    gen: &Generator,
    first: u64,
    rate: f64,
    start: Instant,
    duration: Duration,
) -> Vec<Sample> {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let slots = (rate * duration.as_secs_f64()) as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS as u64)
            .map(|lane| {
                scope.spawn(move || {
                    let mut conn = Connection::open(addr).ok();
                    let mut out = Vec::new();
                    let mut slot = lane;
                    while slot < slots {
                        let due = due_time(start, rate, slot);
                        let (queries, body) = build(gen, first + slot);
                        wait_until(due);
                        out.push(send(
                            addr,
                            &mut conn,
                            first + slot,
                            queries,
                            &body,
                            Some(due),
                        ));
                        slot += CONNECTIONS as u64;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop client thread panicked"))
            .collect()
    })
}

/// The in-band body of a query that panicked inside the solver.
pub const REGIME_PANIC: &str = "query outside the model's regime";

/// The in-band body of an infeasible `min_spares` (a correct answer).
pub const INFEASIBLE: &str = "spares required";

/// Outcome of checking every response against the in-process result.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checked {
    /// Queries sent.
    pub attempted: u64,
    /// Queries in failed requests (non-200, transport error, byte
    /// mismatch) plus queries answered with the caught-panic body.
    pub failed: u64,
    /// `min_spares` answers reporting that no spare count suffices.
    pub infeasible: u64,
}

impl Checked {
    /// Failed ÷ attempted.
    #[must_use]
    pub fn error_ratio(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let r = self.failed as f64 / self.attempted.max(1) as f64;
        r
    }
}

/// The server's response to `body`, computed in this process through the
/// same parse → run → render path, with per-query results memoised.
fn expected(body: &str, memo: &mut HashMap<String, String>) -> Option<String> {
    let parsed = json::parse(body).ok()?;
    let queries = wire::parse_batch(&parsed, usize::MAX).ok()?;
    let exec = Executor::serial();
    let results: Vec<String> = queries
        .iter()
        .map(|q| {
            let key = format!("{q:?}");
            memo.entry(key).or_insert_with(|| q.run(&exec)).clone()
        })
        .collect();
    Some(json::obj(&[("results", json::arr(&results))]))
}

/// Check one response. `request` is the body that was sent.
fn check_one(request: &str, sample: &Sample, memo: &mut HashMap<String, String>) -> Checked {
    let attempted = sample.queries as u64;
    let ok = sample.status == 200 && expected(request, memo).as_deref() == Some(&sample.body);
    let failed = if ok {
        sample.body.matches(REGIME_PANIC).count() as u64
    } else {
        attempted
    };
    Checked {
        attempted,
        failed,
        infeasible: sample.body.matches(INFEASIBLE).count() as u64,
    }
}

/// Check every sample against the in-process result of the same request,
/// on `CONNECTIONS` threads. The in-process cache gets `cache_bound` so a
/// long cold stream cannot grow it without limit; eviction never changes
/// bytes.
#[must_use]
pub fn check(gen: &Generator, samples: &[Sample], cache_bound: usize) -> Checked {
    OpPointCache::global().set_bound(Some(cache_bound));
    let chunk = samples.len().div_ceil(CONNECTIONS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = samples
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut memo = HashMap::new();
                    let mut total = Checked::default();
                    for s in part {
                        let c = check_one(&gen.request(s.index), s, &mut memo);
                        total.attempted += c.attempted;
                        total.failed += c.failed;
                        total.infeasible += c.infeasible;
                    }
                    total
                })
            })
            .collect();
        handles.into_iter().fold(Checked::default(), |mut acc, h| {
            let c = h.join().expect("check thread panicked");
            acc.attempted += c.attempted;
            acc.failed += c.failed;
            acc.infeasible += c.infeasible;
            acc
        })
    })
}

/// `/stats` of a running server, parsed.
#[must_use]
pub fn server_stats(addr: SocketAddr) -> Option<json::Value> {
    let mut conn = Connection::open(addr).ok()?;
    let response = conn.request("GET", "/stats", "").ok()?;
    json::parse(&response.body).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Traffic};
    use ntv_serve::{serve, ServeConfig};

    #[test]
    fn due_times_follow_the_schedule_and_lateness_counts() {
        let start = Instant::now();
        let rate = 1000.0;
        assert_eq!(due_time(start, rate, 0), start);
        let d = due_time(start, rate, 250).duration_since(start);
        assert!((d.as_secs_f64() - 0.25).abs() < 1e-9);
        // A request sent 3 ms after its slot and answered 1 ms later has
        // 3 ms of lateness and 4 ms of latency.
        let due = due_time(start, rate, 5);
        let sample = Sample {
            index: 5,
            queries: 1,
            due,
            sent: due + Duration::from_millis(3),
            done: due + Duration::from_millis(4),
            status: 200,
            body: String::new(),
        };
        assert!((sample.late_us() - 3000.0).abs() < 1e-6);
        assert!((sample.latency_us() - 4000.0).abs() < 1e-6);
    }

    #[test]
    fn open_loop_sends_every_slot_no_earlier_than_due() {
        let handle = serve(&ServeConfig::default()).expect("bind");
        let gen = Generator::new(Traffic::Hot, 5);
        let start = Instant::now() + Duration::from_millis(5);
        let samples = open_loop(
            handle.addr(),
            &gen,
            0,
            400.0,
            start,
            Duration::from_millis(100),
        );
        assert_eq!(samples.len(), 40);
        for s in &samples {
            assert!(s.sent >= s.due);
            assert_eq!(s.due, due_time(start, 400.0, s.index));
        }
        assert_eq!(check(&gen, &samples, 4096).failed, 0);
        handle.shutdown();
    }

    #[test]
    fn malformed_request_raises_the_error_ratio() {
        let handle = serve(&ServeConfig::default()).expect("bind");
        let gen = Generator::new(Traffic::Hot, 9);
        let next = AtomicU64::new(0);
        let mut samples = closed_loop(handle.addr(), &gen, &next, 1, Duration::from_millis(50));
        assert_eq!(check(&gen, &samples, 4096).failed, 0);
        // Closed-loop latency runs from the send, not from building the body.
        assert!(samples.iter().all(|s| s.due == s.sent));
        // Truncated JSON: the server answers 400, and the check fails it.
        let mut conn = Connection::open(handle.addr()).expect("connect");
        let now = Instant::now();
        let bad = conn
            .query(r#"{"queries":[{"kind":"quantile""#)
            .expect("response");
        assert_eq!(bad.status, 400);
        samples.push(Sample {
            index: 0,
            queries: 1,
            due: now,
            sent: now,
            done: now,
            status: bad.status,
            body: bad.body,
        });
        let checked = check(&gen, &samples, 4096);
        assert!(checked.error_ratio() > 0.0);
        assert_eq!(checked.failed, 1);
        handle.shutdown();
    }
}
