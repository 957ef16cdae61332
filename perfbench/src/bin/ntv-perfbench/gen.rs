//! Seeded request generator for the serve workloads.
//!
//! Request `i` of a workload is a pure function of `(seed, workload, i)`:
//! its draws come from the counter-based stream
//! `CounterRng::new(seed, workload).at(i)`, so any thread can generate
//! any request, the same seed always gives a byte-identical stream, and a
//! different seed gives a different one.

use ntv_mc::{CounterRng, SampleStream};

/// One entry of a query mix: `kind/mode` and its share of the queries.
/// The shares of a mix sum to 1.
pub type Share = (&'static str, f64);

/// Share of 11-step sweeps in serve-hot. `serve_load` keeps sweeps out of
/// its probe mix; here one query in 32 is a sweep, so a sweep-path change
/// shows on serve-hot while the rest keeps `serve_load`'s proportions.
pub const HOT_SWEEP: f64 = 1.0 / 32.0;

/// serve-hot: analytic probes at warm operating points over 90/45 nm on a
/// 16-point voltage grid. `serve_load`'s probe mix — per 16 queries, 14
/// plain quantiles, one quantile with 2 spares and one margin solve —
/// scaled by `1 - HOT_SWEEP`, plus the sweeps. `min_spares` and `dse`
/// are left out, as in `serve_load`; their warm cost is timed in a
/// per-kind phase of the traced run instead (see `serve::replay`).
pub const HOT_MIX: [Share; 4] = [
    ("quantile/paper-normal", 14.0 / 16.0 * (1.0 - HOT_SWEEP)),
    (
        "quantile+spares/paper-normal",
        1.0 / 16.0 * (1.0 - HOT_SWEEP),
    ),
    ("margin/paper-normal", 1.0 / 16.0 * (1.0 - HOT_SWEEP)),
    ("sweep/paper-normal", HOT_SWEEP),
];

/// serve-hot batch sizes, drawn uniformly.
pub const HOT_BATCHES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// serve-cold: design-space traffic at fresh operating points, voltages
/// drawn continuously in 0.45–0.70 V across all four nodes. The
/// skewed-iid share is what makes the 288×1024 survival-grid builds a
/// third to two thirds of server time. Shares keep the reported
/// percentiles inside a cost cluster rather than on the edge between two:
/// the median inside the margin solves, the tail inside the hierarchical
/// quantiles (~30 ms each, 2 % of queries). Those stay rare so a handful
/// of giant queries does not decide a run's throughput.
pub const COLD_MIX: [Share; 9] = [
    ("quantile/paper-normal", 0.18),
    ("margin/paper-normal", 0.42),
    ("min_spares/paper-normal", 0.12),
    ("dse/paper-normal", 0.137),
    ("sweep/paper-normal", 0.08),
    ("quantile/skewed-iid", 0.04),
    ("sweep/skewed-iid", 0.003),
    ("quantile/hierarchical", 0.017),
    ("sweep/hierarchical", 0.003),
];

/// serve-cold batch size: a DSE script asks one question at a time.
pub const COLD_BATCHES: [usize; 1] = [1];

/// Lowest and highest serve-cold supply voltage.
pub const COLD_VDD: (f64, f64) = (0.45, 0.70);

/// Nodes of the serve-hot grid.
pub const HOT_NODES: [&str; 2] = ["90nm", "45nm"];

/// Supply voltage of serve-hot grid step `step`: 0.50 V + 10 mV × step.
#[must_use]
pub fn hot_vdd(step: u8) -> String {
    format!("{:.2}", 0.50 + 0.01 * f64::from(step))
}

/// All four nodes, for serve-cold.
const ALL_NODES: [&str; 4] = ["90nm", "45nm", "32nm", "22nm"];

/// Which traffic a generator produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Warm analytic probes.
    Hot,
    /// Fresh design-space queries.
    Cold,
}

impl Traffic {
    fn label(self) -> &'static str {
        match self {
            Traffic::Hot => "serve-hot",
            Traffic::Cold => "serve-cold",
        }
    }

    fn mix(self) -> &'static [Share] {
        match self {
            Traffic::Hot => &HOT_MIX,
            Traffic::Cold => &COLD_MIX,
        }
    }

    fn batches(self) -> &'static [usize] {
        match self {
            Traffic::Hot => &HOT_BATCHES,
            Traffic::Cold => &COLD_BATCHES,
        }
    }
}

/// A seeded request stream.
#[derive(Debug, Clone, Copy)]
pub struct Generator {
    traffic: Traffic,
    stream: CounterRng,
}

/// Pick `items[floor(u * len)]`.
fn pick<T: Copy>(items: &[T], u: f64) -> T {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let i = ((u * items.len() as f64) as usize).min(items.len() - 1);
    items[i]
}

/// Index of the share that `u` falls into.
fn pick_share(mix: &[Share], u: f64) -> usize {
    let mut acc = 0.0;
    for (i, s) in mix.iter().enumerate() {
        acc += s.1;
        if u < acc {
            return i;
        }
    }
    mix.len() - 1
}

impl Generator {
    /// The stream of `traffic` for `seed`.
    #[must_use]
    pub fn new(traffic: Traffic, seed: u64) -> Self {
        Self {
            traffic,
            stream: CounterRng::new(seed, traffic.label()),
        }
    }

    /// The queries of request `index`, each a JSON object.
    #[must_use]
    pub fn queries(&self, index: u64) -> Vec<String> {
        let mut draws = self.stream.at(index);
        let batch = pick(self.traffic.batches(), draws.uniform());
        (0..batch)
            .map(|_| {
                let kind = pick_share(self.traffic.mix(), draws.uniform());
                match self.traffic {
                    Traffic::Hot => hot_query(kind, &mut draws),
                    Traffic::Cold => cold_query(kind, &mut draws),
                }
            })
            .collect()
    }

    /// The body of request `index`.
    #[must_use]
    pub fn request(&self, index: u64) -> String {
        batch_body(&self.queries(index))
    }

    /// Every distinct query serve-hot can send — the set the server's
    /// cache is warmed with. Empty for serve-cold, whose points are fresh.
    #[must_use]
    pub fn working_set(&self) -> Vec<String> {
        if self.traffic == Traffic::Cold {
            return Vec::new();
        }
        let mut all = Vec::new();
        for kind in 0..HOT_MIX.len() {
            for node in HOT_NODES {
                for step in 0..16 {
                    all.push(hot_render(kind, node, step));
                }
            }
        }
        all.sort();
        all.dedup();
        all
    }
}

/// The generator's shares as they are recorded in `BENCHMARK.json`'s
/// `why` of each workload: kind shares for serve-hot (all paper-normal),
/// mode shares for serve-cold.
#[must_use]
pub fn shares_line(traffic: Traffic) -> String {
    let shares: Vec<(String, f64)> = match traffic {
        Traffic::Hot => HOT_MIX
            .iter()
            .map(|(label, share)| (label.split('/').next().unwrap_or(label).to_string(), *share))
            .collect(),
        Traffic::Cold => mode_shares(&COLD_MIX),
    };
    shares
        .iter()
        .map(|(name, share)| format!("{:.1}% {name}", share * 100.0))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Shares of each variation mode in `mix`, in order of first appearance.
#[must_use]
pub fn mode_shares(mix: &[Share]) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    for (label, share) in mix {
        let mode = label.split_once('/').map_or("paper-normal", |p| p.1);
        match out.iter_mut().find(|m| m.0 == mode) {
            Some(m) => m.1 += share,
            None => out.push((mode.to_string(), *share)),
        }
    }
    out
}

/// `{"queries":[...]}` over rendered queries.
#[must_use]
pub fn batch_body(queries: &[String]) -> String {
    format!(r#"{{"queries":[{}]}}"#, queries.join(","))
}

fn hot_query(kind: usize, draws: &mut impl SampleStream) -> String {
    let node = pick(&HOT_NODES, draws.uniform());
    let step = pick(
        &[0u8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
        draws.uniform(),
    );
    hot_render(kind, node, step)
}

/// A serve-hot query: kind index into [`HOT_MIX`], node, and grid step.
/// As in `serve_load`, spares quantiles are asked at 90 nm and margins at
/// 45 nm; plain quantiles and sweeps take `node`. Sweeps start at one of
/// two grid points.
fn hot_render(kind: usize, node: &str, step: u8) -> String {
    let vdd = hot_vdd(step);
    match kind {
        0 => format!(r#"{{"kind":"quantile","node":"{node}","vdd":{vdd}}}"#),
        1 => format!(r#"{{"kind":"quantile","node":"90nm","vdd":{vdd},"spares":2}}"#),
        2 => format!(r#"{{"kind":"margin","node":"45nm","vdd":{vdd}}}"#),
        _ => {
            let start = if step < 8 { "0.50" } else { "0.55" };
            let stop = if step < 8 { "0.60" } else { "0.65" };
            format!(
                r#"{{"kind":"sweep","node":"{node}","vdd_start":{start},"vdd_stop":{stop},"steps":11}}"#
            )
        }
    }
}

fn cold_query(kind: usize, draws: &mut impl SampleStream) -> String {
    let node = pick(&ALL_NODES, draws.uniform());
    let (lo, hi) = COLD_VDD;
    let vdd = lo + (hi - lo) * draws.uniform();
    let (kind, mode) = COLD_MIX[kind]
        .0
        .split_once('/')
        .unwrap_or(("quantile", "paper-normal"));
    match kind {
        "quantile" => {
            format!(r#"{{"kind":"quantile","node":"{node}","vdd":{vdd:.6},"mode":"{mode}"}}"#)
        }
        "margin" => format!(r#"{{"kind":"margin","node":"{node}","vdd":{vdd:.6}}}"#),
        "min_spares" => format!(r#"{{"kind":"min_spares","node":"{node}","vdd":{vdd:.6}}}"#),
        "dse" => format!(r#"{{"kind":"dse","node":"{node}","vdd":{vdd:.6},"spares":[0,2,8]}}"#),
        _ => {
            let stop = (vdd + 0.05).min(hi);
            // Each sweep point of a grid-backed mode is a fresh build.
            let steps = if mode == "paper-normal" { 6 } else { 3 };
            format!(
                r#"{{"kind":"sweep","node":"{node}","vdd_start":{vdd:.6},"vdd_stop":{stop:.6},"steps":{steps},"mode":"{mode}"}}"#
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for traffic in [Traffic::Hot, Traffic::Cold] {
            let a: Vec<String> = (0..200)
                .map(|i| Generator::new(traffic, 7).request(i))
                .collect();
            let b: Vec<String> = (0..200)
                .map(|i| Generator::new(traffic, 7).request(i))
                .collect();
            let c: Vec<String> = (0..200)
                .map(|i| Generator::new(traffic, 8).request(i))
                .collect();
            assert_eq!(a.concat().as_bytes(), b.concat().as_bytes());
            assert_ne!(a, c);
        }
    }

    #[test]
    fn shares_sum_to_one_and_are_realised() {
        for traffic in [Traffic::Hot, Traffic::Cold] {
            let total: f64 = traffic.mix().iter().map(|s| s.1).sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{traffic:?} shares sum to {total}"
            );
        }
        let gen = Generator::new(Traffic::Hot, 1);
        let queries: Vec<String> = (0..4000).flat_map(|i| gen.queries(i)).collect();
        #[allow(clippy::cast_precision_loss)]
        let quantiles = queries
            .iter()
            .filter(|q| q.contains(r#""quantile""#) && !q.contains("spares"))
            .count() as f64
            / queries.len() as f64;
        assert!(
            (quantiles - HOT_MIX[0].1).abs() < 0.02,
            "quantile share {quantiles}"
        );
    }

    /// The mixes are written down twice more, in `record.json` and in the
    /// `why` of each workload in `BENCHMARK.json`; both must match them.
    #[test]
    fn recorded_shares_match_the_generator() {
        use ntv_serve::json::Value;
        let record =
            ntv_serve::json::parse(include_str!("../../../record.json")).expect("record.json");
        let benchmark = ntv_serve::json::parse(include_str!("../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json");
        for (traffic, mix, batches) in [
            (Traffic::Hot, &HOT_MIX[..], &HOT_BATCHES[..]),
            (Traffic::Cold, &COLD_MIX[..], &COLD_BATCHES[..]),
        ] {
            let w = record
                .get("workloads")
                .and_then(|w| w.get(traffic.label()))
                .expect("workload in record.json");
            let shares = w.get("query_shares").expect("query_shares");
            assert!(
                matches!(shares, Value::Obj(m) if m.len() == mix.len()),
                "{traffic:?}: record.json lists other kinds than the generator"
            );
            for (label, share) in mix {
                let got = shares.get(label).and_then(Value::as_f64);
                assert!(
                    got.is_some_and(|g| (g - share).abs() < 1e-12),
                    "{traffic:?} {label}: record.json {got:?}, generator {share}"
                );
            }
            let modes = w.get("mode_shares").expect("mode_shares");
            for (mode, share) in mode_shares(mix) {
                let got = modes.get(&mode).and_then(Value::as_f64);
                assert!(
                    got.is_some_and(|g| (g - share).abs() < 1e-12),
                    "{traffic:?} mode {mode}: record.json {got:?}, generator {share}"
                );
            }
            let sizes: Vec<f64> = w
                .get("batch_sizes")
                .and_then(Value::as_arr)
                .expect("batch_sizes")
                .iter()
                .filter_map(Value::as_f64)
                .collect();
            #[allow(clippy::cast_precision_loss)]
            let want: Vec<f64> = batches.iter().map(|&b| b as f64).collect();
            assert_eq!(format!("{sizes:?}"), format!("{want:?}"));
            let why = benchmark
                .get("workloads")
                .and_then(Value::as_arr)
                .and_then(|ws| {
                    ws.iter()
                        .find(|x| x.get("name").and_then(Value::as_str) == Some(traffic.label()))
                })
                .and_then(|x| x.get("why"))
                .and_then(Value::as_str)
                .expect("workload in BENCHMARK.json");
            let line = shares_line(traffic);
            assert!(why.contains(&line), "why `{why}` lacks `{line}`");
        }
    }

    #[test]
    fn hot_stream_stays_inside_the_warmed_working_set() {
        let gen = Generator::new(Traffic::Hot, 3);
        let set = gen.working_set();
        for i in 0..2000 {
            for q in gen.queries(i) {
                assert!(set.binary_search(&q).is_ok(), "{q} not warmed");
            }
        }
    }
}
