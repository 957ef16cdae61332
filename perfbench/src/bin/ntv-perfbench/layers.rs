//! Per-layer probes: timed calls into each crate's public functions on
//! the operating points a workload generates, each call inside a span.

use std::time::Instant;

use ntv_circuit::path_model::PathModel;
use ntv_core::dse::DseStudy;
use ntv_core::duplication::DuplicationStudy;
use ntv_core::engine::VariationMode;
use ntv_core::margining::MarginStudy;
use ntv_core::{
    perf, ChipQuantileSolver, DatapathConfig, DatapathEngine, Evaluation, Executor, OpPointCache,
};
use ntv_device::{ChipSample, TechModel, TechNode};
use ntv_mc::{normal, order, CounterRng, StreamRng};
use ntv_serve::wire::paper_engine;
use ntv_soda::{kernels, FaultModel, ProcessingElement};
use ntv_units::Volts;

use crate::stats::median;
use crate::trace::Tracer;

/// Path length of the paper's datapath.
const PATH_LENGTH: usize = 50;

/// A named per-layer figure.
pub type Metric = (String, f64, &'static str);

/// Median over `reps` spans of `f`, each divided by `per` (elements or
/// inner calls per span). Returns the median span duration in µs / `per`.
fn timed<T>(t: &mut Tracer, name: &str, reps: usize, per: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for rep in 0..reps {
        t.span(name, None, rep as u64, |_, _| {
            std::hint::black_box(f());
        });
        let us = t.spans().last().map_or(0.0, crate::trace::Span::us);
        #[allow(clippy::cast_precision_loss)]
        v.push(us / per as f64);
    }
    median(&v).unwrap_or(0.0)
}

/// Voltages of `points` at `node`, or the whole set's voltages if `node`
/// has none.
fn voltages(points: &[(TechNode, Volts)], node: TechNode) -> Vec<Volts> {
    let v: Vec<Volts> = points.iter().filter(|p| p.0 == node).map(|p| p.1).collect();
    if v.is_empty() {
        points.iter().map(|p| p.1).collect()
    } else {
        v
    }
}

/// The mc, device and circuit kernels.
#[must_use]
pub fn kernels(t: &mut Tracer, points: &[(TechNode, Volts)], seed: u64) -> Vec<Metric> {
    let rng = CounterRng::new(seed, "perfbench-layers");
    let mut out = Vec::new();

    // erfc over the survival grid's shape: 288 mixture components × 1024
    // grid points, arguments spread the way the standardised grid is.
    let (comps, grid) = (288usize, 1024usize);
    let mut offsets = vec![0.0; comps];
    rng.stream("erfc").standard_normal_batch(0, &mut offsets);
    #[allow(clippy::cast_precision_loss)]
    let xs: Vec<f64> = (0..comps * grid)
        .map(|i| {
            let x = -8.0 + 20.0 * (i % grid) as f64 / grid as f64;
            (x + 0.5 * offsets[i / grid]) / std::f64::consts::SQRT_2
        })
        .collect();
    let mut ys = vec![0.0; xs.len()];
    let us = timed(t, "mc.erfc_slice", 7, xs.len(), || {
        normal::erfc_slice(&xs, &mut ys);
        std::hint::black_box(&ys);
    });
    out.push(("mc.erfc_slice_ns".to_string(), us * 1e3, "ns"));

    let mut draws = vec![0.0; 1 << 16];
    let normals = rng.stream("normal");
    let us = timed(t, "mc.normal_batch", 7, draws.len(), || {
        normals.standard_normal_batch(0, &mut draws);
        std::hint::black_box(&draws);
    });
    out.push(("mc.normal_batch_ns".to_string(), us * 1e3, "ns"));

    let mut ps = vec![0.0; 1 << 16];
    rng.stream("p").uniform_open_batch(0, &mut ps);
    let us = timed(t, "mc.normal_quantile", 7, ps.len(), || {
        ps.iter().map(|&p| normal::quantile(p)).fold(0.0, f64::max)
    });
    out.push(("mc.normal_quantile_ns".to_string(), us * 1e3, "ns"));

    // Device EKV batch kernels at each operating point.
    let mut dvth = vec![0.0; 4096];
    rng.stream("dvth").standard_normal_batch(0, &mut dvth);
    let mut per_gate = Vec::new();
    let mut per_fo4 = Vec::new();
    let mut per_moments = Vec::new();
    for node in TechNode::ALL {
        let tech = TechModel::new(node);
        let vdds = voltages(points, node);
        let sigma = tech.params().sigma_vth_random.get();
        let dv: Vec<Volts> = dvth.iter().map(|&z| Volts(sigma * z)).collect();
        let mut buf = vec![0.0; dv.len()];
        let chip = ChipSample::nominal();
        for &vdd in vdds.iter().take(4) {
            per_gate.push(timed(t, "device.gate_delay_batch", 3, dv.len(), || {
                tech.gate_delay_ps_dvth_batch(vdd, &chip, &dv, 0.0, &mut buf);
                std::hint::black_box(&buf);
            }));
        }
        let grid: Vec<Volts> = vdds.iter().cycle().take(4096).copied().collect();
        let mut fo4 = vec![0.0; grid.len()];
        per_fo4.push(timed(t, "device.fo4_grid", 3, grid.len(), || {
            tech.fo4_delay_ps_grid(&grid, &mut fo4);
            std::hint::black_box(&fo4);
        }));
        let model = PathModel::new(&tech, PATH_LENGTH);
        per_moments.push(timed(t, "circuit.moments_grid", 3, 1, || {
            model.conditional_moments_grid(&vdds, &chip)
        }));
    }
    out.push((
        "device.gate_delay_batch_ns".to_string(),
        median(&per_gate).unwrap_or(0.0) * 1e3,
        "ns",
    ));
    out.push((
        "device.fo4_grid_ns".to_string(),
        median(&per_fo4).unwrap_or(0.0) * 1e3,
        "ns",
    ));
    out.push((
        "circuit.moments_grid_us".to_string(),
        median(&per_moments).unwrap_or(0.0),
        "us",
    ));
    out
}

/// Core: builds on a private cache, warm solvers, samplers, executor.
#[must_use]
pub fn core(t: &mut Tracer, points: &[(TechNode, Volts)], seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    let config = DatapathConfig::paper_default();
    let n = config.critical_path_count();

    // Cold builds through a private cache, so `ntv::uncached-build` holds
    // and the process-wide cache is untouched.
    let (mut builds, mut grids) = (Vec::new(), Vec::new());
    let private = OpPointCache::new();
    for &(node, vdd) in points.iter().take(16) {
        let tech = TechModel::new(node);
        builds.push(timed(t, "core.op_build", 1, 1, || {
            private.get_or_build(&tech, VariationMode::PaperNormal, vdd, PATH_LENGTH)
        }));
        let dist = private.get_or_build(&tech, VariationMode::SkewedIid, vdd, PATH_LENGTH);
        let target = order::max_survival_target(0.99, n);
        grids.push(timed(t, "core.grid_build", 1, 1, || {
            dist.quantile_by_survival(target)
        }));
    }
    out.push((
        "core.op_build_us".to_string(),
        median(&builds).unwrap_or(0.0),
        "us",
    ));
    out.push((
        "core.grid_build_us".to_string(),
        median(&grids).unwrap_or(0.0),
        "us",
    ));

    // Warm analytic solvers on the paper engines.
    let mut figures: [Vec<f64>; 5] = Default::default();
    for &(node, vdd) in points.iter().take(16) {
        let engine = paper_engine(node, VariationMode::PaperNormal);
        let solver = ChipQuantileSolver::new(engine);
        let target = perf::baseline_q99_fo4_analytic(engine);
        let margin = MarginStudy::new(engine).with_evaluation(Evaluation::Analytic);
        let spares = DuplicationStudy::new(engine);
        let dse = DseStudy::new(engine).with_evaluation(Evaluation::Analytic);
        let ladder = [0, 2, 8];
        // Warm every operating point the solvers touch.
        let _ = (
            solver.spares_quantile_fo4(vdd, 2, 0.99),
            margin.solve(vdd, 0, 0),
        );
        let _ = (
            spares.min_spares_for(vdd, target, 128),
            dse.explore(vdd, &ladder, 0, 0),
        );
        figures[0].push(timed(t, "core.quantile", 3, 100, || {
            (0..100)
                .map(|_| solver.chip_quantile_fo4(vdd, 0.99))
                .sum::<f64>()
        }));
        figures[1].push(timed(t, "core.spares_quantile", 3, 10, || {
            (0..10)
                .map(|_| solver.spares_quantile_fo4(vdd, 2, 0.99))
                .sum::<f64>()
        }));
        figures[2].push(timed(t, "core.margin_solve", 3, 1, || {
            margin.solve(vdd, 0, 0)
        }));
        figures[3].push(timed(t, "core.min_spares", 3, 1, || {
            spares.min_spares_for(vdd, target, 128)
        }));
        figures[4].push(timed(t, "core.dse_explore", 3, 1, || {
            dse.explore(vdd, &ladder, 0, 0)
        }));
    }
    for (name, v) in [
        "quantile",
        "spares_quantile",
        "margin_solve",
        "min_spares",
        "dse_explore",
    ]
    .iter()
    .zip(&figures)
    {
        out.push((format!("core.{name}_us"), median(v).unwrap_or(0.0), "us"));
    }

    // Monte-Carlo samplers and the executor, at the first operating point.
    let (node, vdd) = points[0];
    let tech = TechModel::new(node);
    let stream = CounterRng::new(seed, "perfbench-core");
    for (mode, chips, name) in [
        (VariationMode::PaperNormal, 8192usize, "paper_normal"),
        (VariationMode::Hierarchical, 512, "hierarchical"),
    ] {
        let engine = DatapathEngine::with_mode(&tech, config, mode);
        let mut buf = vec![0.0; chips];
        engine.sample_chip_delays_fo4_batch(vdd, &stream, 0, &mut buf[..1]);
        let us = timed(t, &format!("core.sample_chip.{name}"), 5, chips, || {
            engine.sample_chip_delays_fo4_batch(vdd, &stream, 0, &mut buf);
            std::hint::black_box(&buf);
        });
        out.push((format!("core.sample_chip_ns.{name}"), us * 1e3, "ns"));
    }
    let engine = DatapathEngine::with_mode(&tech, config, VariationMode::SkewedIid);
    let samples = 50_000;
    let nproc = Executor::new(0);
    let _ = engine.chip_delay_distribution_par(vdd, 64, &stream, nproc);
    let par = timed(t, "core.chip_dist_par", 5, 1, || {
        engine.chip_delay_distribution_par(vdd, samples, &stream, nproc)
    });
    let serial = timed(t, "core.chip_dist_serial", 5, 1, || {
        engine.chip_delay_distribution_par(vdd, samples, &stream, Executor::serial())
    });
    let path = timed(t, "core.path_dist_par", 5, 1, || {
        engine.path_delay_distribution_par(vdd, samples, &stream, nproc)
    });
    out.push(("core.chip_dist_par_ms".to_string(), par / 1e3, "ms"));
    out.push(("core.path_dist_par_ms".to_string(), path / 1e3, "ms"));
    #[allow(clippy::cast_precision_loss)]
    let efficiency = serial / (nproc.threads() as f64 * par);
    out.push(("core.exec_efficiency".to_string(), efficiency, "ratio"));
    out
}

/// Soda: a FIR kernel program on one processing element under a seeded
/// fault model. Returns instructions/s and the simulated cycle count,
/// which must repeat exactly for a seed.
#[must_use]
pub fn soda(t: &mut Tracer, seed: u64) -> Vec<Metric> {
    let mut pe = ProcessingElement::new();
    let mut probs = vec![0.0; 128];
    CounterRng::new(seed, "perfbench-soda").uniform_batch(0, &mut probs);
    let probs: Vec<f64> = probs.iter().map(|u| 1e-3 * u).collect();
    pe.set_fault_model(
        FaultModel::from_probabilities(probs),
        StreamRng::from_seed(seed),
    );
    #[allow(clippy::cast_possible_truncation)]
    let signal: Vec<i16> = (0..1024).map(|i| ((i * 37) % 200 - 100) as i16).collect();
    let coeffs = [3i16, -1, 4, 1, -5, 9, 2, -6];
    let started = Instant::now();
    let runs = 20;
    for run in 0..runs {
        let out = t.span("soda.fir", None, run, |_, _| {
            kernels::fir(&mut pe, &signal, &coeffs, 4)
        });
        if let Err(e) = out {
            eprintln!("soda probe: {e}");
        }
    }
    let secs = started.elapsed().as_secs_f64();
    let stats = pe.stats();
    #[allow(clippy::cast_precision_loss)]
    let (instructions, cycles) = (stats.instructions as f64, stats.cycles as f64);
    vec![
        ("soda.instr_per_s".to_string(), instructions / secs, "1/s"),
        ("soda.cycles".to_string(), cycles, "count"),
    ]
}
