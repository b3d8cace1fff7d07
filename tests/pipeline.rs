//! End-to-end pipelines spanning the whole workspace:
//! generate → normalize → cluster → score.

use kshape_repro::prelude::*;
use tsdata::collection::{synthetic_collection, CollectionSpec};
use tsdata::generators::{cbf, ecg, seasonal, sines, GenParams};
use tsdist::EuclideanDistance;
use tseval::rand_index::rand_index;
use tsrand::StdRng;

fn small_params(len: usize) -> GenParams {
    GenParams {
        n_per_class: 12,
        len,
        noise: 0.2,
        max_shift_frac: 0.2,
        amp_jitter: 1.4,
    }
}

#[test]
fn kshape_beats_kavg_ed_on_phase_shifted_ecg() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut data = ecg::generate(&small_params(96), &mut rng);
    data.z_normalize();
    let ks =
        KShape::fit_with(&data.series, &KShapeOptions::new(2).with_seed(3)).expect("clean series");
    let km = kmeans_with(
        &data.series,
        &EuclideanDistance,
        &KMeansOptions::new(2).with_seed(3),
    )
    .expect("clean series");
    let ks_rand = rand_index(&ks.labels, &data.labels);
    let km_rand = rand_index(&km.labels, &data.labels);
    assert!(
        ks_rand > km_rand,
        "k-Shape {ks_rand} must beat k-AVG+ED {km_rand} on out-of-phase data"
    );
    assert!(ks_rand > 0.8, "k-Shape Rand too low: {ks_rand}");
}

#[test]
fn kshape_recovers_cbf_classes_reasonably() {
    let mut rng = StdRng::seed_from_u64(5);
    let params = GenParams {
        n_per_class: 15,
        len: 128,
        ..small_params(128)
    };
    let mut data = cbf::generate(&params, &mut rng);
    data.z_normalize();
    let ks =
        KShape::fit_with(&data.series, &KShapeOptions::new(3).with_seed(1)).expect("clean series");
    let r = rand_index(&ks.labels, &data.labels);
    assert!(r > 0.6, "Rand {r} too low on CBF");
}

#[test]
fn kshape_perfect_on_clean_waveforms() {
    let mut rng = StdRng::seed_from_u64(8);
    let params = GenParams {
        n_per_class: 10,
        len: 96,
        noise: 0.05,
        max_shift_frac: 0.2,
        amp_jitter: 1.2,
    };
    // Harmonic mixtures are near-orthogonal shapes: the clean-data case
    // k-Shape should solve essentially perfectly.
    let mut data = seasonal::generate(3, 2.0, &params, &mut rng);
    data.z_normalize();
    let ks =
        KShape::fit_with(&data.series, &KShapeOptions::new(3).with_seed(2)).expect("clean series");
    let r = rand_index(&ks.labels, &data.labels);
    assert!(r > 0.95, "Rand {r} on nearly clean waveforms");
    // Waveform families (sine vs square vs sawtooth) share their
    // fundamental and are a genuinely harder instance; just require
    // better-than-chance there.
    let mut rng = StdRng::seed_from_u64(8);
    let mut hard = sines::generate(3, 3.0, &params, &mut rng);
    hard.z_normalize();
    let ks =
        KShape::fit_with(&hard.series, &KShapeOptions::new(3).with_seed(2)).expect("clean series");
    let r = rand_index(&ks.labels, &hard.labels);
    assert!(r > 0.5, "Rand {r} on waveform families");
}

#[test]
fn multi_restart_never_hurts_best_objective() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut data = seasonal::generate(3, 2.0, &small_params(80), &mut rng);
    data.z_normalize();
    let cfg = KShapeConfig {
        k: 3,
        seed: 50,
        ..Default::default()
    };
    let single = KShape::fit_with(&data.series, &KShapeOptions::from(cfg)).expect("clean series");
    let best = kshape::multi::try_fit_best(&cfg, &data.series, 4).expect("clean series");
    assert!(best.inertia <= single.inertia + 1e-9);
}

#[test]
fn collection_pipeline_clusters_every_dataset() {
    // Smoke the whole collection through k-Shape at minimum size: no
    // panics, sane outputs, labels within range.
    let collection = synthetic_collection(&CollectionSpec {
        seed: 17,
        size_factor: 0.34,
    });
    assert_eq!(collection.len(), 48);
    for split in collection.iter().step_by(7) {
        let fused = split.fused();
        let k = split.n_classes();
        let ks = KShape::fit_with(
            &fused.series,
            &KShapeOptions::new(k).with_seed(4).with_max_iter(15),
        )
        .expect("clean series");
        assert_eq!(ks.labels.len(), fused.n_series());
        assert!(ks.labels.iter().all(|&l| l < k), "{}", split.name());
        let r = rand_index(&ks.labels, &fused.labels);
        assert!((0.0..=1.0).contains(&r));
    }
}

#[test]
fn ucr_roundtrip_preserves_clustering_input() {
    // Save a generated dataset in UCR format, reload it, and verify the
    // clustering outcome is identical — the I/O layer is lossless enough.
    let mut rng = StdRng::seed_from_u64(3);
    let mut data = ecg::generate(&small_params(64), &mut rng);
    data.z_normalize();
    let dir = std::env::temp_dir().join(format!("kshape-it-{}", std::process::id()));
    let split = tsdata::collection::split_alternating(data);
    tsdata::ucr::save_split(&dir, &split).expect("save");
    let reloaded = tsdata::ucr::load_split(&dir, split.name()).expect("load");
    std::fs::remove_dir_all(&dir).ok();

    let a = KShape::fit_with(&split.fused().series, &KShapeOptions::new(2).with_seed(1))
        .expect("clean series");
    let b = KShape::fit_with(
        &reloaded.fused().series,
        &KShapeOptions::new(2).with_seed(1),
    )
    .expect("clean series");
    assert_eq!(a.labels, b.labels);
}
