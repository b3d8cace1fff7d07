//! `fit_wide` and `fit_long`: batch k-Shape over CBF, in memory
//! (`KShape::fit_with`) and out of core (`kshape::fit_store` over the same
//! rows held in a spilled `SeriesStore`).

use std::path::Path;
use std::time::{Duration, Instant};

use kshape::{KShape, KShapeOptions, KShapeResult};
use tsdata::generators::{cbf, GenParams};
use tsdata::store::{ElemType, SeriesStore, SpillConfig, SpillStats};
use tseval::rand_index;
use tsobs::MemorySink;
use tsrand::StdRng;
use tsserve::Model;

use crate::layers::{self, Panel};
use crate::report::{Metric, Outcome, Tally};
use crate::stats::{median, tail};
use crate::Args;

/// One batch-fit workload.
pub struct Shape {
    /// CBF series per class (3 classes).
    pub per_class: usize,
    /// Series length.
    pub m: usize,
    /// Clusters.
    pub k: usize,
    /// Fixed refinement rounds per fit. Rounds to convergence depend on
    /// the seed (28–71 on `fit_wide`, 8–14 on `fit_long` in a probe), which
    /// alone spreads a fit's time 3×; a fixed budget keeps the work per fit
    /// the same on every seed, so the timings compare code, not seeds.
    pub rounds: usize,
    /// Lowest Rand index against the CBF classes that counts as correct.
    pub rand_floor: f64,
    /// Worker threads per fit; 0 takes the library's default resolution.
    pub threads: usize,
    /// Datasets drawn from the seed; fits cycle over them and each figure
    /// is the mean over datasets of that dataset's median.
    pub datasets: usize,
}

/// Many short series and k well above the 3 classes: the n·k pair sweep
/// of the assignment step dominates.
pub const WIDE: Shape = Shape {
    per_class: 1000,
    m: 128,
    k: 8,
    rounds: 15,
    rand_floor: 0.6,
    threads: 0,
    datasets: 1,
};

/// Fewer, longer series with clusters about as large as m or larger: Gram
/// accumulation and the m×m eigen-solve of the refinement step dominate.
///
/// The work of a fit here depends on the data far more than on
/// `fit_wide`: which clusters share a worker (the refinement hands the 3
/// clusters to 2 workers round-robin; 1.6× between seeds 3 and 8 in a
/// probe) and how hard each cluster's eigen-solve is (still 1.5× between
/// seeds run serially). So fits run on one worker thread and cycle over
/// three datasets per seed.
pub const LONG: Shape = Shape {
    per_class: 600,
    m: 512,
    k: 3,
    rounds: 6,
    rand_floor: 0.6,
    threads: 1,
    datasets: 3,
};

/// Rows per sealed spill segment.
const ROWS_PER_SEGMENT: usize = 256;
/// Times the set-up is repeated (its median is `setup_s`).
const SETUP_REPS: usize = 5;

struct Data {
    rows: Vec<Vec<f64>>,
    truth: Vec<usize>,
    store: SeriesStore,
}

/// Generates the seed's CBF rows, z-normalizes them and spills the same
/// rows into a store under `dir`.
fn build(shape: &Shape, seed: u64, dir: &Path) -> Result<Data, String> {
    let params = GenParams {
        n_per_class: shape.per_class,
        len: shape.m,
        ..GenParams::default()
    };
    let mut ds = cbf::generate(&params, &mut StdRng::seed_from_u64(seed));
    ds.try_z_normalize()
        .map_err(|e| format!("z-normalize: {e}"))?;
    let spill = SpillConfig::new(dir).rows_per_segment(ROWS_PER_SEGMENT);
    let mut store =
        SeriesStore::spilled(shape.m, ElemType::F64, spill).map_err(|e| format!("spill: {e}"))?;
    for row in &ds.series {
        store
            .push_row(row)
            .map_err(|e| format!("spill push: {e}"))?;
    }
    Ok(Data {
        rows: ds.series,
        truth: ds.labels,
        store,
    })
}

/// Labels of a fit must repeat exactly across the fits of a run and
/// reach the Rand floor.
fn check(
    what: &str,
    fit: &KShapeResult,
    first: &mut Option<Vec<usize>>,
    truth: &[usize],
    floor: f64,
) -> Result<f64, String> {
    let ri = rand_index(&fit.labels, truth);
    if ri < floor {
        return Err(format!("{what}: Rand index {ri:.4} below floor {floor}"));
    }
    match first {
        Some(labels) if *labels != fit.labels => {
            Err(format!("{what}: labels differ from the run's first fit"))
        }
        Some(_) => Ok(ri),
        None => {
            *first = Some(fit.labels.clone());
            Ok(ri)
        }
    }
}

#[derive(Default)]
struct Spans {
    fits: usize,
    fit_ns: u64,
    refine_ns: u64,
    assign_ns: u64,
    series_ffts: u64,
    pairs: u64,
    iterations: u64,
}

impl Spans {
    fn add(&mut self, sink: &MemorySink, prefix: &str) {
        self.fits += 1;
        self.fit_ns += sink.span_total_ns(&format!("{prefix}.fit"));
        self.refine_ns += sink.span_total_ns(&format!("{prefix}.refinement"));
        self.assign_ns += sink.span_total_ns(&format!("{prefix}.assignment"));
        self.series_ffts += sink.counter_total("sbd.spectra.series_ffts");
        self.pairs += sink.counter_total("sbd.spectra.pair_sweeps");
        self.iterations += sink.counter_total("kshape.iterations");
    }

    /// Per-fit mean of a total.
    fn per_fit(&self, total: u64, scale: f64) -> f64 {
        if self.fits == 0 {
            return 0.0;
        }
        total as f64 * scale / self.fits as f64
    }
}

/// Per-dataset results of a run.
#[derive(Default)]
struct PerData {
    mem_s: Vec<f64>,
    ooc_s: Vec<f64>,
    /// In-memory fit times of a traced run, armed and unarmed.
    traced_s: Vec<f64>,
    plain_s: Vec<f64>,
    first_mem: Option<Vec<usize>>,
    first_ooc: Option<Vec<usize>>,
    rand: f64,
}

/// Mean over datasets of `stat` over each dataset's samples.
fn mean_of(per: &[PerData], pick: fn(&PerData) -> &[f64], stat: fn(&[f64]) -> f64) -> f64 {
    per.iter().map(|d| stat(pick(d))).sum::<f64>() / per.len() as f64
}

pub fn run(shape: &Shape, args: &Args, work: &Path) -> Outcome {
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut data = Vec::new();
    for rep in 0..SETUP_REPS {
        // Drop the previous stores first: they remove their segment files.
        data.clear();
        let t = Instant::now();
        for d in 0..shape.datasets {
            let seed = args.seed.wrapping_add((d as u64) << 32);
            match build(shape, seed, &work.join(format!("spill{rep}-{d}"))) {
                Ok(built) => data.push(built),
                Err(e) => {
                    tally.op(Err(e));
                    return Outcome::aborted(tally);
                }
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);
    let opts = KShapeOptions::new(shape.k)
        .with_seed(args.seed)
        .with_max_iter(shape.rounds)
        .with_threads(shape.threads);

    // In-memory and out-of-core fits alternate until the time is up,
    // cycling over the datasets. A traced run arms a recorder on every
    // other cycle, so the same run also yields the untraced twin its
    // overhead is measured against.
    let mut per: Vec<PerData> = (0..shape.datasets).map(|_| PerData::default()).collect();
    let (mut mem_spans, mut ooc_spans) = (Spans::default(), Spans::default());
    let mut spill = SpillStats::default();
    let mut last_fit = None;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut pair = 0usize;
    let min_pairs = shape.datasets * if args.trace { 2 } else { 1 };
    while pair < min_pairs.max(2) || start.elapsed() < budget {
        let d = pair % shape.datasets;
        let (set, res) = (&data[d], &mut per[d]);
        let armed = args.trace && (pair / shape.datasets).is_multiple_of(2);
        pair += 1;
        let sink = MemorySink::new();
        let o = if armed {
            opts.clone().with_recorder(&sink)
        } else {
            opts.clone()
        };

        let t = Instant::now();
        let fit = KShape::fit_with(&set.rows, &o);
        let dt = t.elapsed().as_secs_f64();
        res.mem_s.push(dt);
        if args.trace {
            if armed {
                &mut res.traced_s
            } else {
                &mut res.plain_s
            }
            .push(dt);
        }
        match fit {
            Ok(fit) => {
                let checked = check(
                    "in-memory fit",
                    &fit,
                    &mut res.first_mem,
                    &set.truth,
                    shape.rand_floor,
                );
                if let Ok(ri) = checked {
                    res.rand = ri;
                }
                tally.op(checked.map(|_| ()));
                if d == 0 {
                    last_fit = Some(fit);
                }
            }
            Err(e) => tally.op(Err(format!("in-memory fit: {e}"))),
        }
        if armed {
            mem_spans.add(&sink, "kshape");
        }

        let sink = MemorySink::new();
        let o = if armed {
            opts.clone().with_recorder(&sink)
        } else {
            opts.clone()
        };
        let before = set.store.spill_stats().unwrap_or_default();
        let t = Instant::now();
        let fit = kshape::fit_store(&set.store, &o);
        res.ooc_s.push(t.elapsed().as_secs_f64());
        match fit {
            Ok(fit) => {
                let checked = check(
                    "out-of-core fit",
                    &fit,
                    &mut res.first_ooc,
                    &set.truth,
                    shape.rand_floor,
                );
                tally.op(checked.map(|_| ()));
            }
            Err(e) => tally.op(Err(format!("out-of-core fit: {e}"))),
        }
        if armed {
            ooc_spans.add(&sink, "kshape.ooc");
            let after = set.store.spill_stats().unwrap_or_default();
            spill.loads += after.loads - before.loads;
            spill.hits += after.hits - before.hits;
        }
    }

    let n = data[0].rows.len();
    let fits = per.iter().map(|d| d.mem_s.len()).sum::<usize>();
    let fit_s = mean_of(&per, |d| &d.mem_s, median);
    let store_s = mean_of(&per, |d| &d.ooc_s, median);
    let tail_s = mean_of(&per, |d| &d.mem_s, |xs| tail(xs).0);
    let tail_label = tail(&per[0].mem_s).1;
    let ri_mem = per.iter().map(|d| d.rand).sum::<f64>() / per.len() as f64;
    let timed = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples: Some(samples),
    };
    let plain = |name, value, unit| Metric {
        name,
        value,
        unit,
        samples: None,
    };
    let mut notes = vec![
        ("fits", format!("{fits}")),
        ("datasets", format!("{}", shape.datasets)),
        (
            "fit_threads",
            format!("{}", kshape::spectra::resolve_threads(shape.threads)),
        ),
        ("fit_tail", format!("\"{tail_label}\"")),
    ];
    if let Some(fit) = &last_fit {
        notes.push(("iterations", format!("{}", fit.iterations)));
    }

    if !args.trace {
        let metrics = vec![
            plain("setup_s", setup_s, "s"),
            timed("op_p50_ms", fit_s * 1e3, "ms", fits),
            timed("op_tail_ms", tail_s * 1e3, "ms", fits),
            timed("op2_p50_ms", store_s * 1e3, "ms", fits),
            plain("throughput_per_s", n as f64 / fit_s, "1/s"),
            plain("rand_index", ri_mem, "ratio"),
            plain("ok_share", tally.ok_share(), "share"),
        ];
        let named = vec![
            plain("setup_s", setup_s, "s"),
            timed("fit_s", fit_s, "s", fits),
            timed("fit_store_s", store_s, "s", fits),
            plain("fit_rand_index", ri_mem, "ratio"),
            plain("failed_share", 1.0 - tally.ok_share(), "share"),
        ];
        return Outcome {
            tally,
            metrics,
            named,
            notes,
        };
    }

    // Per-layer panel on this workload's rows and final centroids.
    let mut metrics = Vec::new();
    if let Some(fit) = &last_fit {
        let model = Model {
            name: "kbench".into(),
            k: shape.k,
            m: shape.m,
            channels: 1,
            rung: "kshape".into(),
            converged: fit.converged,
            iterations: fit.iterations,
            centroids: fit.centroids.clone(),
        };
        let panel = Panel {
            rows: &data[0].rows,
            centroids: &fit.centroids,
            request_rows: &data[0].rows[..3],
            checkpoint_payload: &model.to_json(),
            dir: &work.join("checkpoints"),
        };
        match layers::run(&panel) {
            Ok(m) => metrics.extend(m),
            Err(e) => tally.op(Err(format!("layer panel: {e}"))),
        }
    }
    let ms = 1e-6;
    let self_ns = mem_spans
        .fit_ns
        .saturating_sub(mem_spans.refine_ns + mem_spans.assign_ns);
    let loads = spill.loads as f64;
    let reads = (spill.loads + spill.hits) as f64;
    let segment_bytes = (ROWS_PER_SEGMENT * shape.m * 8) as f64;
    metrics.extend([
        plain(
            "sbd.spectra.series_ffts",
            mem_spans.per_fit(mem_spans.series_ffts, 1.0),
            "count",
        ),
        plain(
            "sbd.pairs",
            mem_spans.per_fit(mem_spans.pairs, 1.0),
            "count",
        ),
        plain(
            "kshape.refinement_ms",
            mem_spans.per_fit(mem_spans.refine_ns, ms),
            "ms",
        ),
        plain(
            "kshape.assignment_ms",
            mem_spans.per_fit(mem_spans.assign_ns, ms),
            "ms",
        ),
        plain("kshape.fit_self_ms", mem_spans.per_fit(self_ns, ms), "ms"),
        plain(
            "kshape.iterations",
            mem_spans.per_fit(mem_spans.iterations, 1.0),
            "count",
        ),
        plain(
            "kshape.ooc.refinement_ms",
            ooc_spans.per_fit(ooc_spans.refine_ns, ms),
            "ms",
        ),
        plain(
            "kshape.ooc.assignment_ms",
            ooc_spans.per_fit(ooc_spans.assign_ns, ms),
            "ms",
        ),
        plain(
            "store.segment_loads",
            ooc_spans.per_fit(spill.loads, 1.0),
            "count",
        ),
        plain(
            "store.segment_hit_ratio",
            if reads > 0.0 {
                1.0 - loads / reads
            } else {
                0.0
            },
            "ratio",
        ),
        plain(
            "store.bytes_decoded",
            ooc_spans.per_fit(spill.loads, segment_bytes),
            "bytes",
        ),
        plain(
            "trace.overhead_pct",
            100.0
                * (mean_of(&per, |d| &d.traced_s, median) / mean_of(&per, |d| &d.plain_s, median)
                    - 1.0),
            "%",
        ),
    ]);
    Outcome {
        tally,
        metrics,
        named: Vec::new(),
        notes,
    }
}
