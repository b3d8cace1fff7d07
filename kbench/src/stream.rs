//! `stream_feed`: an in-process `StreamKShape` fed a long arrival sequence
//! with regime changes (which trigger drift reseeds) and a fixed share of
//! corrupt arrivals (which must be quarantined), snapshotted with
//! `to_json` every so often.

use std::path::Path;
use std::time::{Duration, Instant};

use kshape::{KShape, KShapeOptions, PushOutcome, StreamConfig, StreamKShape};
use tsdata::corrupt::{StreamFault, StreamFaultSchedule};
use tsdata::normalize::try_z_normalize;
use tseval::rand_index;
use tsexperiments::stream_eval::{arrival_rng, class_series};
use tsobs::{MemorySink, Obs};
use tsrand::Rng;

use crate::layers::{self, Panel};
use crate::report::{Metric, Outcome, Tally};
use crate::stats::{median, tail};
use crate::Args;

/// Series length of an arrival.
const M: usize = 64;
/// Clusters, and shape classes in the feed.
const K: usize = 3;
/// Arrivals generated per seed; the run cycles over them.
const FEED_LEN: usize = 40_000;
/// Arrivals per regime; every regime change swaps every class's shape.
const REGIME: usize = 10_000;
/// Share of arrivals hit by a `StreamFault`.
const CORRUPT_P: f64 = 0.05;
/// Arrivals between two `to_json` snapshots.
const SNAPSHOT_EVERY: usize = 5_000;
/// Arrivals a restored snapshot is fed beside the live engine.
const VERIFY_ARRIVALS: usize = 256;
/// Arrivals per armed or unarmed block of a traced run.
const TRACE_BLOCK: usize = 2_000;
/// Pushes per block of the throughput statistic.
const RATE_BLOCK: usize = 50_000;
/// Times the set-up is repeated (its median is `setup_s`).
const SETUP_REPS: usize = 5;

struct Arrival {
    class: usize,
    series: Vec<f64>,
    fault: Option<StreamFault>,
}

fn feed(seed: u64) -> Vec<Arrival> {
    let schedule = StreamFaultSchedule::all(CORRUPT_P);
    (0..FEED_LEN)
        .map(|i| {
            let mut rng = arrival_rng(seed, i as u64);
            let class = rng.gen_range(0..K);
            let rotated = (i / REGIME) % 2 == 1;
            let mut series = class_series(class, K, rotated, M, &mut rng);
            let fault = schedule.apply(&mut series, &mut rng);
            Arrival {
                class,
                series,
                fault,
            }
        })
        .collect()
}

fn config(seed: u64) -> StreamConfig {
    StreamConfig::new(K, M).with_seed(seed).with_warmup(8 * K)
}

/// Builds the feed and pushes until the bootstrap fit has run; returns
/// the engine and the feed position after it.
fn bootstrap(seed: u64) -> Result<(Vec<Arrival>, StreamKShape, usize), String> {
    let arrivals = feed(seed);
    let mut engine = StreamKShape::new(config(seed)).map_err(|e| format!("stream config: {e}"))?;
    for (i, a) in arrivals.iter().enumerate() {
        if let PushOutcome::Bootstrapped { .. } = engine.push(&a.series) {
            return Ok((arrivals, engine, i + 1));
        }
    }
    Err("stream never bootstrapped".into())
}

/// An outcome is wrong when a clean arrival is quarantined or an
/// invalidating fault is let through.
fn judge(a: &Arrival, outcome: &PushOutcome) -> Result<(), String> {
    let quarantined = matches!(outcome, PushOutcome::Quarantined(_));
    match a.fault {
        None if quarantined => Err(format!("clean arrival quarantined: {outcome:?}")),
        Some(f) if f.invalidates() && !quarantined => {
            Err(format!("corrupt arrival ({f:?}) not quarantined"))
        }
        _ => Ok(()),
    }
}

/// Mean Rand index over regimes, each read from the assigned clean
/// arrivals in its second half (after the drift reseed has settled).
fn regime_rand(by_regime: &[(Vec<usize>, Vec<usize>)]) -> f64 {
    let scores: Vec<f64> = by_regime
        .iter()
        .filter(|(labels, _)| labels.len() >= 100)
        .map(|(labels, truth)| rand_index(labels, truth))
        .collect();
    if scores.is_empty() {
        return 0.0;
    }
    scores.iter().sum::<f64>() / scores.len() as f64
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        match bootstrap(args.seed) {
            Ok(s) => state = Some(s),
            Err(e) => {
                tally.op(Err(e));
                break;
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let Some((arrivals, mut engine, mut cursor)) = state else {
        return Outcome::aborted(tally);
    };
    let setup_s = median(&setups);
    let stats0 = engine.stats();

    let sink = MemorySink::new();
    let mut push_ns: Vec<f64> = Vec::with_capacity(1 << 20);
    let (mut traced_ns, mut plain_ns) = (Vec::new(), Vec::new());
    let (mut reseed_ms, mut quarantine_us) = (Vec::new(), Vec::new());
    let mut snapshot_ms = Vec::new();
    let mut snapshot_bytes = 0usize;
    let mut by_regime: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    let mut window: Vec<Vec<f64>> = Vec::new();
    let mut since_snapshot = 0usize;

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut pushed = 0usize;
    while start.elapsed() < budget {
        let idx = cursor % FEED_LEN;
        let a = &arrivals[idx];
        let armed = args.trace && (pushed / TRACE_BLOCK).is_multiple_of(2);
        let t = Instant::now();
        let outcome = if armed {
            engine.push_with(&a.series, Obs::new(&sink))
        } else {
            engine.push(&a.series)
        };
        let ns = t.elapsed().as_nanos() as f64;
        push_ns.push(ns);
        pushed += 1;
        cursor += 1;
        if args.trace {
            if armed { &mut traced_ns } else { &mut plain_ns }.push(ns);
        }
        tally.op(judge(a, &outcome));
        match outcome {
            PushOutcome::Quarantined(_) => quarantine_us.push(ns * 1e-3),
            PushOutcome::Assigned(asg) => {
                if asg.reseeded {
                    reseed_ms.push(ns * 1e-6);
                }
                let regime = (cursor - 1) / REGIME;
                if a.fault.is_none() && idx % REGIME >= REGIME / 2 {
                    if by_regime.len() <= regime {
                        by_regime.resize_with(regime + 1, Default::default);
                    }
                    let (labels, truth) = &mut by_regime[regime];
                    if labels.len() < 500 {
                        labels.push(asg.label);
                        truth.push(a.class);
                    }
                }
                if args.trace && a.fault.is_none() {
                    if window.len() == 256 {
                        window.remove(0);
                    }
                    if let Ok(z) = try_z_normalize(&a.series) {
                        window.push(z);
                    }
                }
            }
            _ => {}
        }

        since_snapshot += 1;
        if since_snapshot == SNAPSHOT_EVERY {
            since_snapshot = 0;
            let t = Instant::now();
            let json = engine.to_json();
            snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
            snapshot_bytes = json.len();
            // The snapshot, restored, must continue exactly as the live
            // engine does.
            let verdict = verify(&json, &mut engine, &arrivals, &mut cursor, &mut tally);
            tally.op(verdict);
        }
    }
    if engine.centroids().iter().flatten().any(|v| !v.is_finite()) {
        tally.op(Err("non-finite centroid".into()));
    }
    let stats = engine.stats();

    let p50_ms = median(&push_ns) * 1e-6;
    let (tail_ns, tail_label) = tail(&push_ns);
    let ri = regime_rand(&by_regime);
    // Arrivals per second of push time, per block of pushes: the median
    // block is immune to a host stall landing inside a few pushes.
    let rates: Vec<f64> = push_ns
        .chunks(RATE_BLOCK)
        .map(|block| block.len() as f64 * 1e9 / block.iter().sum::<f64>())
        .collect();
    let arrivals_per_s = median(&rates);
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
    let notes = vec![
        ("arrivals", format!("{pushed}")),
        ("push_tail", format!("\"{tail_label}\"")),
        ("reseeds", format!("{}", stats.reseeds - stats0.reseeds)),
    ];

    if !args.trace {
        let metrics = vec![
            plain("setup_s", setup_s, "s"),
            timed("op_p50_ms", p50_ms, "ms", push_ns.len()),
            timed("op_tail_ms", tail_ns * 1e-6, "ms", push_ns.len()),
            timed("op2_p50_ms", median(&snapshot_ms), "ms", snapshot_ms.len()),
            plain("throughput_per_s", arrivals_per_s, "1/s"),
            plain("rand_index", ri, "ratio"),
            plain("ok_share", tally.ok_share(), "share"),
        ];
        let named = vec![
            plain("setup_s", setup_s, "s"),
            timed("stream_push_p50_us", p50_ms * 1e3, "us", push_ns.len()),
            timed("stream_push_p99_us", tail_ns * 1e-3, "us", push_ns.len()),
            plain("stream_arrivals_per_s", arrivals_per_s, "1/s"),
            plain("failed_share", 1.0 - tally.ok_share(), "share"),
        ];
        return Outcome {
            tally,
            metrics,
            named,
            notes,
        };
    }

    if window.len() < K {
        tally.op(Err("too few clean arrivals for the layer panel".into()));
        return Outcome::aborted(tally);
    }
    // The stream's bootstrap and reseed fits run inside `push` without a
    // recorder; replay one on the newest clean window to attribute it.
    let mut metrics = Vec::new();
    let fit_sink = MemorySink::new();
    let cfg = config(args.seed);
    let replay = KShape::fit_with(
        &window,
        &KShapeOptions::new(K)
            .with_seed(args.seed)
            .with_max_iter(cfg.max_iter)
            .with_recorder(&fit_sink),
    );
    if let Err(e) = replay {
        tally.op(Err(format!("reseed replay fit: {e}")));
    }
    let centroids = engine.centroids().to_vec();
    let json = engine.to_json();
    let panel = Panel {
        rows: &window,
        centroids: &centroids,
        request_rows: &window[..3],
        checkpoint_payload: &json,
        dir: &work.join("checkpoints"),
    };
    match layers::run(&panel) {
        Ok(m) => metrics.extend(m),
        Err(e) => tally.op(Err(format!("layer panel: {e}"))),
    }
    let ns_ms = 1e-6;
    let fit_ns = fit_sink.span_total_ns("kshape.fit");
    let refine_ns = fit_sink.span_total_ns("kshape.refinement");
    let assign_ns = fit_sink.span_total_ns("kshape.assignment");
    let count = |name: &str| sink.counter_total(name) as f64;
    metrics.extend([
        plain(
            "sbd.spectra.series_ffts",
            fit_sink.counter_total("sbd.spectra.series_ffts") as f64,
            "count",
        ),
        plain(
            "sbd.pairs",
            fit_sink.counter_total("sbd.spectra.pair_sweeps") as f64,
            "count",
        ),
        plain("kshape.refinement_ms", refine_ns as f64 * ns_ms, "ms"),
        plain("kshape.assignment_ms", assign_ns as f64 * ns_ms, "ms"),
        plain(
            "kshape.fit_self_ms",
            fit_ns.saturating_sub(refine_ns + assign_ns) as f64 * ns_ms,
            "ms",
        ),
        plain(
            "kshape.iterations",
            fit_sink.counter_total("kshape.iterations") as f64,
            "count",
        ),
        plain("stream.arrivals", pushed as f64, "count"),
        plain(
            "stream.refresh",
            (stats.refreshes - stats0.refreshes) as f64,
            "count",
        ),
        plain(
            "stream.reseed",
            (stats.reseeds - stats0.reseeds) as f64,
            "count",
        ),
        plain("stream.drift", count("stream.drift"), "count"),
        plain(
            "stream.quarantine",
            (stats.quarantined - stats0.quarantined) as f64,
            "count",
        ),
        plain("stream.reseed_push_ms", median(&reseed_ms), "ms"),
        plain("stream.quarantine_push_us", median(&quarantine_us), "us"),
        plain("stream.checkpoint_ms", median(&snapshot_ms), "ms"),
        plain("stream.checkpoint_bytes", snapshot_bytes as f64, "bytes"),
        plain(
            "trace.overhead_pct",
            100.0 * (median(&traced_ns) / median(&plain_ns) - 1.0),
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

/// Restores `json` and feeds it the next arrivals beside the live engine
/// (both untimed); every outcome and the final snapshot must match.
fn verify(
    json: &str,
    engine: &mut StreamKShape,
    arrivals: &[Arrival],
    cursor: &mut usize,
    tally: &mut Tally,
) -> Result<(), String> {
    let Some(mut replica) = StreamKShape::from_json(json) else {
        return Err("snapshot did not load with from_json".into());
    };
    for _ in 0..VERIFY_ARRIVALS {
        let a = &arrivals[*cursor % FEED_LEN];
        *cursor += 1;
        let live = engine.push(&a.series);
        tally.op(judge(a, &live));
        if replica.push(&a.series) != live {
            return Err("restored snapshot diverged from the live engine".into());
        }
    }
    if replica.to_json() != engine.to_json() {
        return Err("restored snapshot ended in a different state".into());
    }
    Ok(())
}
