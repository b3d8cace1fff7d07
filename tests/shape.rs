//! Shape-aware data-model properties: the multichannel SBD kernel and
//! the variable-length [`RaggedStore`].
//!
//! Four contracts pinned here:
//!
//! * Multichannel SBD **is** summed per-channel NCC: the cached-spectra
//!   kernel must match a naive time-domain reference (numerator summed
//!   over channels at a shared lag, denominator the product of summed
//!   channel energies), and the distance must be symmetric bit for bit;
//! * the univariate **reduction** is exact: a 1-channel slice through
//!   [`SbdPlan::sbd_spectra_multi`] returns the same bits as the plain
//!   [`SbdPlan::sbd_spectra`] hot path — the redesign cannot move a
//!   single existing univariate result;
//! * [`CentroidBank::nearest`] — the one nearest-centroid rule behind
//!   every fit, the stream and the server — is exactly the first-minimum
//!   argmin of the pair kernel over the centroids, for fixed rows of one
//!   and three channels and for ragged rows, with duplicate (tied) and
//!   all-zero centroids in the set;
//! * [`RaggedStore`] round-trips bit-exactly, resident and spilled, and
//!   a sealed segment hit by any [`ByteFault`] surfaces as a typed
//!   `CorruptData` — never a panic, never a garbage row.
//!
//! Each failure line prints a `TSCHECK_SEED` for deterministic replay:
//! `TSCHECK_SEED=0x... cargo test --test shape`.

use kshape::bank::CentroidBank;
use kshape::sbd::{PreparedSeries, SbdPlan, SbdScratch};
use kshape::{Sbd, SbdOptions};
use tsdata::corrupt::{corrupt_bytes, ByteFault};
use tsdata::distort::shift_zero_pad;
use tsdata::store::{ElemType, RaggedStore, SeriesView, SpillConfig};
use tserror::TsError;
use tsrand::{Rng, StdRng};

/// A fresh spill directory unique to this test case.
fn spill_dir(tag: &str, case: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("shape_it_{tag}_{}_{case:016x}", std::process::id()))
}

/// Random finite series of length `n` in `[-1, 1]`.
fn random_series(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Naive summed per-channel NCC maximum: for every shared lag, sum the
/// per-channel dot products of `x` against `y` shifted by that lag, and
/// normalize by the summed channel energies. Returns `1 - max_w NCC_w`.
fn naive_multichannel_sbd(x: &[f64], y: &[f64], channels: usize) -> f64 {
    let m = x.len() / channels;
    let r0 = |s: &[f64]| -> f64 {
        s.chunks_exact(m)
            .map(|ch| ch.iter().map(|v| v * v).sum::<f64>())
            .sum()
    };
    let denom = (r0(x) * r0(y)).sqrt();
    if denom == 0.0 {
        return if r0(x) == 0.0 && r0(y) == 0.0 {
            0.0
        } else {
            1.0
        };
    }
    let mut best = f64::NEG_INFINITY;
    for shift in -(m as isize - 1)..=(m as isize - 1) {
        let mut num = 0.0;
        for (xc, yc) in x.chunks_exact(m).zip(y.chunks_exact(m)) {
            let shifted = shift_zero_pad(yc, shift);
            num += xc.iter().zip(&shifted).map(|(a, b)| a * b).sum::<f64>();
        }
        best = best.max(num);
    }
    1.0 - best / denom
}

/// `k ≥ 3` random centroids of `len` samples where the last duplicates
/// the first (a tie) and the second is all zero.
fn bank_centroids(k: usize, len: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut cents: Vec<Vec<f64>> = (0..k).map(|_| random_series(len, rng)).collect();
    cents[1] = vec![0.0; len];
    cents[k - 1] = cents[0].clone();
    cents
}

/// The reference rule: `(label, distance, shift)` of the first minimum.
fn first_min(pairs: impl Iterator<Item = (f64, isize)>) -> (usize, f64, isize) {
    let mut best = (0usize, f64::INFINITY, 0isize);
    for (j, (d, s)) in pairs.enumerate() {
        if d < best.1 {
            best = (j, d, s);
        }
    }
    best
}

fn assert_same(got: (usize, f64, isize), want: (usize, f64, isize), what: &str) {
    assert_eq!(got.0, want.0, "{what}: label");
    assert_eq!(got.1.to_bits(), want.1.to_bits(), "{what}: distance bits");
    assert_eq!(got.2, want.2, "{what}: shift");
}

tscheck::props! {
    #[cases(32)]
    fn centroid_bank_nearest_is_the_first_minimum_of_the_pair_kernel(g) {
        let m = g.usize_in(4..40);
        let k = g.usize_in(3..7);
        let mut rng = StdRng::seed_from_u64(g.u64_in(0..u64::MAX));
        let plan = SbdPlan::new(m);
        let mut scratch = SbdScratch::default();
        let mut bank_scratch = SbdScratch::default();

        for channels in [1usize, 3] {
            let cents = bank_centroids(k, channels * m, &mut rng);
            let mut bank = CentroidBank::fixed(m, channels).expect("shape");
            bank.load(&cents).expect("centroids");
            let prep = |s: &[f64]| -> Vec<PreparedSeries> {
                s.chunks_exact(m).map(|ch| plan.prepare(ch)).collect()
            };
            let cent_spectra: Vec<Vec<PreparedSeries>> = cents.iter().map(|c| prep(c)).collect();
            let mut rows: Vec<Vec<f64>> =
                (0..5).map(|_| random_series(channels * m, &mut rng)).collect();
            rows.push(cents[0].clone());
            for row in &rows {
                let row_spectra = prep(row);
                let want = first_min(
                    cent_spectra
                        .iter()
                        .map(|c| plan.sbd_spectra_multi(c, &row_spectra, &mut scratch)),
                );
                assert_same(bank.nearest(row, &mut bank_scratch), want, "raw row");
                assert_same(
                    bank.nearest_prepared(&row_spectra, &mut bank_scratch),
                    want,
                    "prepared row",
                );
                assert_eq!(bank.shift_to(want.0, row, &mut bank_scratch), want.2);
            }
        }

        // Ragged rows shorter than the frame, through the public
        // unequal-length SBD (centroid as x, row as y).
        let cents = bank_centroids(k, m, &mut rng);
        let mut bank = CentroidBank::ragged(m).expect("shape");
        bank.load(&cents).expect("centroids");
        let s = Sbd::new();
        let mut rows: Vec<Vec<f64>> = (0..5)
            .map(|_| random_series(g.usize_in(1..m), &mut rng))
            .collect();
        rows.push(cents[0][..g.usize_in(1..m)].to_vec());
        for row in &rows {
            let want = first_min(cents.iter().map(|c| {
                let r = s.distance(c, row, &SbdOptions::new()).expect("finite input");
                (r.dist, r.shift)
            }));
            assert_same(bank.nearest(row, &mut bank_scratch), want, "ragged row");
            assert_eq!(bank.shift_to(want.0, row, &mut bank_scratch), want.2);
        }
    }

    #[cases(24)]
    fn multichannel_sbd_matches_summed_ncc_and_is_symmetric(g) {
        let channels = g.usize_in(1..4);
        let m = g.usize_in(4..24);
        let mut rng = StdRng::seed_from_u64(g.u64_in(0..u64::MAX));
        let x = random_series(channels * m, &mut rng);
        let y = random_series(channels * m, &mut rng);

        let s = Sbd::new();
        let opts = SbdOptions::new().with_channels(channels);
        let fwd = s.distance(&x, &y, &opts).expect("finite input");
        let rev = s.distance(&y, &x, &opts).expect("finite input");

        // Symmetric up to FFT roundoff: the reverse direction correlates
        // conj(Y)·X instead of conj(X)·Y, so the last ulps may differ,
        // but nothing more.
        assert!(
            (fwd.dist - rev.dist).abs() <= 1e-12,
            "multichannel SBD must be symmetric: {} vs {}",
            fwd.dist,
            rev.dist
        );
        assert!((0.0..=2.0 + 1e-12).contains(&fwd.dist), "SBD range: {}", fwd.dist);
        assert_eq!(fwd.aligned.len(), channels * m, "aligned spans all channels");

        // The kernel is the summed per-channel NCC, nothing else.
        let reference = naive_multichannel_sbd(&x, &y, channels);
        assert!(
            (fwd.dist - reference).abs() <= 1e-9,
            "cached-spectra kernel {} vs naive summed-NCC reference {}",
            fwd.dist,
            reference
        );
    }

    #[cases(24)]
    fn one_channel_multichannel_kernel_is_bit_identical_to_univariate(g) {
        let m = g.usize_in(4..48);
        let mut rng = StdRng::seed_from_u64(g.u64_in(0..u64::MAX));
        let x = random_series(m, &mut rng);
        let y = random_series(m, &mut rng);

        let plan = SbdPlan::new(m);
        let px = plan.prepare(&x);
        let py = plan.prepare(&y);
        let mut scratch = SbdScratch::default();
        let (d_uni, s_uni) = plan.sbd_spectra(&px, &py, &mut scratch);
        let (d_multi, s_multi) = plan.sbd_spectra_multi(
            std::slice::from_ref(&px),
            std::slice::from_ref(&py),
            &mut scratch,
        );
        assert_eq!(
            d_uni.to_bits(),
            d_multi.to_bits(),
            "channels=1 reduction must not move a single bit: {d_uni} vs {d_multi}"
        );
        assert_eq!(s_uni, s_multi, "shared shift must match the univariate shift");
    }

    #[cases(16)]
    fn ragged_store_round_trips_resident_and_spilled(g) {
        let n = g.usize_in(4..16);
        let mut rng = StdRng::seed_from_u64(g.u64_in(0..u64::MAX));
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| random_series(g.usize_in(1..32), &mut rng))
            .collect();
        let max_len = rows.iter().map(Vec::len).max().unwrap();

        let resident = RaggedStore::from_rows(&rows).expect("resident store");
        let dir = spill_dir("roundtrip", g.case_seed());
        let mut spilled = RaggedStore::spilled(
            ElemType::F64,
            SpillConfig::new(&dir).rows_per_segment(3).resident_segments(1),
        )
        .expect("spill tier");
        for row in &rows {
            spilled.push_row(row).expect("clean push");
        }

        for store in [&resident, &spilled] {
            assert!(store.is_ragged());
            assert_eq!(store.channels(), 1);
            assert_eq!(store.n_series(), n);
            assert_eq!(store.series_len(), max_len, "series_len is the max row length");
            let mut scratch = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(store.row_len(i), row.len());
                let shape = store.row_shape(i);
                assert_eq!((shape.channels, shape.len), (1, row.len()));
                let got = store.try_row(i, &mut scratch).expect("clean read");
                assert_eq!(got, row.as_slice(), "row {i} must round-trip bit-exactly");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cases(16)]
    fn corrupted_ragged_segments_surface_typed_errors(g) {
        let per_seg = g.usize_in(2..5);
        let n = g.usize_in(3 * per_seg..6 * per_seg);
        let mut rng = StdRng::seed_from_u64(g.u64_in(0..u64::MAX));
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| random_series(g.usize_in(1..24), &mut rng))
            .collect();

        let dir = spill_dir("chaos", g.case_seed());
        let mut store = RaggedStore::spilled(
            ElemType::F64,
            SpillConfig::new(&dir)
                .rows_per_segment(per_seg)
                .resident_segments(1),
        )
        .expect("spill tier");
        for row in &rows {
            store.push_row(row).expect("clean push");
        }
        let paths = store.spill_segment_paths();
        assert!(paths.len() >= 2, "need several sealed segments");

        // Warm pass: every row reads back clean before corruption.
        let mut scratch = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let got = store.try_row(i, &mut scratch).expect("clean read");
            assert_eq!(got, row.as_slice());
        }

        // Fault one sealed segment on disk.
        let target = g.usize_in(0..paths.len());
        let kind = ByteFault::ALL[g.usize_in(0..ByteFault::ALL.len())];
        let clean_bytes = std::fs::read(&paths[target]).expect("read segment");
        let mut bytes = clean_bytes.clone();
        corrupt_bytes(&mut bytes, kind, &mut rng);
        let changed = bytes != clean_bytes;
        std::fs::write(&paths[target], &bytes).expect("write fault");

        // Evict the target from the one-segment resident window by
        // touching a row that lives in a different segment.
        let other_seg = (target + 1) % paths.len();
        let _ = store.try_row(other_seg * per_seg, &mut scratch);

        // Contract: every read is Ok-with-clean-bits or a typed
        // CorruptData — never a panic, never a garbage row.
        let mut saw_corrupt = false;
        for (i, row) in rows.iter().enumerate() {
            match store.try_row(i, &mut scratch) {
                Ok(got) => assert_eq!(got, row.as_slice(), "garbage row {i} after {kind:?}"),
                Err(TsError::CorruptData { .. }) => saw_corrupt = true,
                Err(other) => panic!("row {i}: expected CorruptData, got {other:?}"),
            }
        }
        assert_eq!(
            saw_corrupt, changed,
            "{kind:?} changed bytes: {changed}, but corrupt reads: {saw_corrupt}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Deterministic companion: a 3-channel dataset whose channels carry
/// consistent class evidence clusters end-to-end through the public
/// `Sbd::distance` seam — near-zero self-distance, clearly separated
/// cross-class distance.
#[test]
fn multichannel_distance_separates_shape_classes() {
    let m = 64usize;
    let tri: Vec<f64> = (0..m)
        .map(|i| 1.0 - ((i as f64 / (m - 1) as f64) * 2.0 - 1.0).abs())
        .collect();
    let sin: Vec<f64> = (0..m)
        .map(|i| (i as f64 / m as f64 * std::f64::consts::TAU * 2.0).sin())
        .collect();
    let mut a = tri.clone();
    a.extend_from_slice(&sin);
    // Same shapes, circularly shifted: SBD must align them back.
    let rot = |s: &[f64], by: usize| -> Vec<f64> {
        let mut out = s[by..].to_vec();
        out.extend_from_slice(&s[..by]);
        out
    };
    let mut b = rot(&tri, 5);
    b.extend_from_slice(&rot(&sin, 5));
    // A genuinely different shape pair.
    let mut c: Vec<f64> = (0..m).map(|i| if i < m / 2 { 1.0 } else { -1.0 }).collect();
    c.extend_from_slice(&(0..m).map(|i| (i % 7) as f64).collect::<Vec<f64>>());

    let s = Sbd::new();
    let opts = SbdOptions::new().with_channels(2);
    let same = s.distance(&a, &b, &opts).expect("clean input").dist;
    let diff = s.distance(&a, &c, &opts).expect("clean input").dist;
    assert!(same < 0.25, "shifted same-class pair should align: {same}");
    assert!(
        diff > 2.0 * same,
        "cross-class pair should stand apart: {diff} vs {same}"
    );
}
