//! The per-layer panel: calls into each layer's public functions, timed
//! from outside, on the inputs of the workload being traced.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use kshape::extraction::EigenMethod;
use kshape::sbd::{PreparedSeries, SbdScratch};
use kshape::{GramAccumulator, SpectraEngine};
use tsdata::distort::shift_zero_pad;
use tsexperiments::CheckpointStore;
use tslinalg::dominant::try_dominant_symmetric_eigen;
use tslinalg::matrix::Matrix;
use tsserve::wire::{push_series_json, SeriesRequest};
use tsserve::{Model, PreparedModel};

use crate::report::Metric;
use crate::stats::median;

/// Repetitions of each heavy probe (its median is reported).
const HEAVY_REPS: usize = 3;
/// Repetitions of each microsecond-scale probe.
const LIGHT_REPS: usize = 200;
/// Repetitions of the checkpoint write.
const STORE_REPS: usize = 20;

/// What the panel runs on.
pub struct Panel<'a> {
    /// Z-normalized rows of the workload.
    pub rows: &'a [Vec<f64>],
    /// The centroids the workload ended with.
    pub centroids: &'a [Vec<f64>],
    /// A few z-normalized rows, serialized as one assign request body.
    pub request_rows: &'a [Vec<f64>],
    /// A payload the size of what the workload persists.
    pub checkpoint_payload: &'a str,
    /// Scratch directory for the checkpoint write.
    pub dir: &'a Path,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

/// Runs every probe; an `Err` names a probe whose layer call failed.
pub fn run(p: &Panel<'_>) -> Result<Vec<Metric>, String> {
    let n = p.rows.len();
    let k = p.centroids.len();
    let m = p.rows[0].len();

    // tsfft / kshape::spectra: one rFFT per row into the spectra cache.
    let mut rfft = Vec::with_capacity(HEAVY_REPS);
    for _ in 0..HEAVY_REPS {
        let t = Instant::now();
        let engine = SpectraEngine::new(p.rows, 0).map_err(|e| format!("SpectraEngine: {e}"))?;
        rfft.push(ms(t));
        black_box(&engine);
    }
    let engine = SpectraEngine::new(p.rows, 0).map_err(|e| format!("SpectraEngine: {e}"))?;
    let plan = engine.plan();
    let cents: Vec<PreparedSeries> = p.centroids.iter().map(|c| plan.prepare(c)).collect();

    // kshape::sbd: every (row, centroid) pair through the pair kernel,
    // single-threaded; the sweep also yields each row's nearest centroid
    // and alignment shift for the extraction probe.
    let mut sweep = Vec::with_capacity(HEAVY_REPS);
    let mut nearest = vec![(0usize, 0isize); n];
    let mut scratch = SbdScratch::default();
    for _ in 0..HEAVY_REPS {
        let t = Instant::now();
        for (i, slot) in nearest.iter_mut().enumerate() {
            let mut best = (f64::INFINITY, 0usize, 0isize);
            for (j, c) in cents.iter().enumerate() {
                let (d, s) = plan.sbd_spectra(c, engine.spectrum(i), &mut scratch);
                if d < best.0 {
                    best = (d, j, s);
                }
            }
            *slot = (best.1, best.2);
        }
        sweep.push(ms(t));
        black_box(&nearest);
    }
    let sweep_ms = median(&sweep);

    // kshape::extraction / tslinalg: Gram accumulation and the eigen-solve
    // over the largest cluster's aligned members.
    let mut sizes = vec![0usize; k];
    for &(j, _) in &nearest {
        sizes[j] += 1;
    }
    let big = (0..k).max_by_key(|&j| sizes[j]).unwrap_or(0);
    let aligned: Vec<Vec<f64>> = nearest
        .iter()
        .enumerate()
        .filter(|(_, &(j, _))| j == big)
        .map(|(i, &(_, s))| shift_zero_pad(&p.rows[i], s))
        .collect();
    let (mut gram, mut eigen) = (Vec::new(), Vec::new());
    for _ in 0..HEAVY_REPS {
        let t = Instant::now();
        let mut acc = GramAccumulator::new(m);
        for row in &aligned {
            acc.push_aligned(row);
        }
        gram.push(ms(t));
        let t = Instant::now();
        black_box(acc.extract(EigenMethod::Full));
        eigen.push(ms(t));
    }
    let members = aligned.len() as f64;
    let mf = m as f64;
    let steps = lanczos_steps(&aligned, m) as f64;
    // Lanczos with full reorthogonalization: a 2m² mat-vec per step plus
    // 4mj flops to orthogonalize step j; 0 steps means the dense
    // Householder + QL fallback answered (≈ 6m³ with vectors).
    let eigen_flops = if steps > 0.0 {
        2.0 * mf * mf * steps + 2.0 * mf * steps * steps
    } else {
        6.0 * mf * mf * mf
    };

    // tsserve::wire and ::registry: parse an assign body, then assign its
    // rows against the workload's centroids.
    let body = series_body(p.request_rows);
    let model = PreparedModel::new(Model {
        name: "kbench".into(),
        k,
        m,
        channels: 1,
        rung: "kshape".into(),
        converged: true,
        iterations: 0,
        centroids: p.centroids.to_vec(),
    })
    .map_err(|e| format!("PreparedModel: {e}"))?;
    let (mut parse, mut assign) = (Vec::new(), Vec::new());
    for _ in 0..LIGHT_REPS {
        let t = Instant::now();
        let req = SeriesRequest::parse(body.as_bytes()).map_err(|e| format!("parse: {e}"))?;
        parse.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(&req);
        let t = Instant::now();
        for row in p.request_rows {
            black_box(model.assign_one(row, &mut scratch));
        }
        assign.push(t.elapsed().as_secs_f64() * 1e6 / p.request_rows.len() as f64);
    }

    // tsexperiments::checkpoint: the atomic write every persisted model
    // and stream goes through.
    let store = CheckpointStore::new(p.dir);
    let mut writes = Vec::with_capacity(STORE_REPS);
    for _ in 0..STORE_REPS {
        let t = Instant::now();
        store
            .store_named("kbench_probe", p.checkpoint_payload)
            .map_err(|e| format!("store_named: {e}"))?;
        writes.push(ms(t));
    }

    Ok(vec![
        metric("spectra.series_rfft_ms", median(&rfft), "ms"),
        metric("sbd.pair_sweep_ms", sweep_ms, "ms"),
        metric("sbd.ns_per_pair", sweep_ms * 1e6 / (n * k) as f64, "ns"),
        metric("extraction.gram_ms", median(&gram), "ms"),
        metric("extraction.eigen_ms", median(&eigen), "ms"),
        metric("extraction.gram_flops", 2.0 * members * mf * mf, "flop"),
        metric("extraction.eigen_flops", eigen_flops, "flop"),
        metric("wire.parse_us", median(&parse), "us"),
        metric("registry.assign_one_us", median(&assign), "us"),
        metric("checkpoint.store_ms", median(&writes), "ms"),
        metric(
            "checkpoint.bytes",
            p.checkpoint_payload.len() as f64,
            "bytes",
        ),
    ])
}

/// `{"series":[[..],..]}`, the body of an assign request.
pub fn series_body(rows: &[Vec<f64>]) -> String {
    let mut body = String::from("{\"series\":");
    push_series_json(&mut body, rows);
    body.push('}');
    body
}

/// Lanczos steps the dominant-eigen solver takes on the same Gram matrix
/// `GramAccumulator` builds (0 when the dense solver answers).
fn lanczos_steps(aligned: &[Vec<f64>], m: usize) -> usize {
    let mut mat = Matrix::zeros(m, m);
    let mut centered = vec![0.0; m];
    for row in aligned {
        let mean = row.iter().sum::<f64>() / m as f64;
        for (o, v) in centered.iter_mut().zip(row) {
            *o = v - mean;
        }
        mat.rank_one_update(&centered, 1.0);
    }
    try_dominant_symmetric_eigen(&mat).map_or(0, |e| e.steps)
}
