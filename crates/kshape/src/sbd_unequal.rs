//! SBD for sequences of different lengths.
//!
//! The paper restricts the exposition to equal lengths "for simplicity"
//! (footnote 3) but the measure itself needs no such restriction: the
//! cross-correlation sequence simply spans lags `−(|y|−1)..=(|x|−1)` and
//! the coefficient normalization is unchanged. The aligned copy of `y` is
//! placed into a buffer of `x`'s length so downstream consumers (shape
//! extraction, plotting) receive comparable arrays.
//!
//! The public entry is [`crate::sbd::Sbd::distance`] (and
//! [`crate::sbd::Sbd::try_sbd_unequal`]), which dispatches here for
//! univariate inputs of different lengths; with
//! [`crate::sbd::SbdOptions::with_rescale`] it instead stretches the
//! shorter input (the uniform-scaling invariance of Section 2.2). This
//! module holds the crate-private kernels: the padded-plan distance and
//! shift, shared with [`crate::bank::CentroidBank`]'s ragged rows, and
//! the frame placement that aligns a row. A plan for the longer input
//! always has enough power-of-two padding for the full `nx + ny − 1` lag
//! range, so unequal-length queries share plans with the equal-length
//! hot path.

use crate::sbd::{PreparedSeries, SbdPlan, SbdResult, SbdScratch};

/// Unequal-length SBD of validated (non-empty, finite) inputs, with
/// `plan` serving the longer length.
pub(crate) fn unequal_with_plan(plan: &SbdPlan, x: &[f64], y: &[f64]) -> SbdResult {
    let (px, py) = (plan.prepare_padded(x), plan.prepare_padded(y));
    let mut scratch = SbdScratch::default();
    let (dist, shift) = unequal_dist_shift(plan, &px, x.len(), &py, y.len(), &mut scratch);
    let mut aligned = vec![0.0; x.len()];
    place_into_frame(y, shift, &mut aligned);
    SbdResult {
        dist,
        shift,
        aligned,
    }
}

/// Distance and shift between padded-prepared `x` (length `nx`) and `y`
/// (length `ny`), normalized by their prepared energies `R₀`, with no
/// aligned copy built. Ties between lags go to the last maximum.
pub(crate) fn unequal_dist_shift(
    plan: &SbdPlan,
    px: &PreparedSeries,
    nx: usize,
    py: &PreparedSeries,
    ny: usize,
    scratch: &mut SbdScratch,
) -> (f64, isize) {
    let (x_r0, y_r0) = (px.energy(), py.energy());
    let denom = (x_r0 * y_r0).sqrt();
    if denom == 0.0 {
        let both_zero = x_r0 == 0.0 && y_r0 == 0.0;
        return (if both_zero { 0.0 } else { 1.0 }, 0);
    }
    let mut cc = std::mem::take(&mut scratch.lags);
    plan.cross_correlate_padded(px, nx, py, ny, &mut cc, scratch);
    let (best_idx, best) = cc
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty correlation");
    scratch.lags = cc;
    let shift = best_idx as isize - (ny as isize - 1);
    (1.0 - best / denom, shift)
}

/// Places `y` into the (possibly longer) frame `out` at offset `shift`,
/// zero-filling everything `y` does not cover.
pub(crate) fn place_into_frame(y: &[f64], shift: isize, out: &mut [f64]) {
    let n = out.len();
    out.fill(0.0);
    for (l, &v) in y.iter().enumerate() {
        let t = l as isize + shift;
        if (0..n as isize).contains(&t) {
            out[t as usize] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::sbd::{sbd, Sbd, SbdOptions, SbdResult};
    use tsdata::distort::resample;
    use tsdata::normalize::z_normalize;
    use tserror::{TsError, TsResult};

    fn bump(m: usize, center: f64, width: f64) -> Vec<f64> {
        (0..m)
            .map(|i| (-((i as f64 - center) / width).powi(2)).exp())
            .collect()
    }

    fn unequal(x: &[f64], y: &[f64]) -> TsResult<SbdResult> {
        Sbd::new().distance(x, y, &SbdOptions::new())
    }

    fn rescaled(x: &[f64], y: &[f64]) -> TsResult<SbdResult> {
        Sbd::new().distance(x, y, &SbdOptions::new().with_rescale(true))
    }

    #[test]
    fn equal_lengths_delegate_to_plain_sbd() {
        let x = bump(32, 12.0, 3.0);
        let y = bump(32, 18.0, 3.0);
        let a = unequal(&x, &y).unwrap();
        let b = sbd(&x, &y);
        assert!((a.dist - b.dist).abs() < 1e-12);
        assert_eq!(a.shift, b.shift);
    }

    #[test]
    fn finds_sub_sequence() {
        // y is a clean window of x: distance near the window's share of
        // energy, shift recovering the window offset.
        let x = bump(64, 30.0, 4.0);
        let y = x[22..46].to_vec();
        let r = unequal(&x, &y).unwrap();
        assert_eq!(r.shift, 22);
        assert!(r.dist < 0.05, "dist {}", r.dist);
        assert_eq!(r.aligned.len(), 64);
        // The aligned copy overlays the original window.
        for (t, &v) in r.aligned.iter().enumerate() {
            if (22..46).contains(&t) {
                assert!((v - x[t]).abs() < 1e-12);
            } else {
                assert_eq!(v, 0.0);
            }
        }
    }

    #[test]
    fn distance_range_holds() {
        let x = bump(40, 10.0, 2.0);
        let y: Vec<f64> = (0..23).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let d = unequal(&x, &y).unwrap().dist;
        assert!((0.0..=2.0 + 1e-9).contains(&d));
        // Swapped arguments give the same distance (negated lags).
        let d2 = unequal(&y, &x).unwrap().dist;
        assert!((d - d2).abs() < 1e-9);
    }

    #[test]
    fn rescaled_recognizes_uniformly_stretched_copy() {
        // y is x at 2x the sampling rate: uniform scaling invariance.
        let x = z_normalize(&bump(48, 20.0, 4.0));
        let y = resample(&x, 96);
        let r = rescaled(&x, &y).unwrap();
        assert!(r.dist < 0.01, "dist {}", r.dist);
    }

    #[test]
    fn zero_energy_edge_cases() {
        let z = vec![0.0; 8];
        let x = bump(12, 6.0, 2.0);
        assert_eq!(unequal(&z, &x).unwrap().dist, 1.0);
        assert_eq!(unequal(&z, &[0.0; 5]).unwrap().dist, 0.0);
    }

    #[test]
    fn unequal_and_rescaled_inputs_report_typed_errors() {
        assert!(matches!(unequal(&[], &[1.0]), Err(TsError::EmptyInput)));
        assert!(matches!(rescaled(&[1.0], &[]), Err(TsError::EmptyInput)));
        assert!(matches!(
            unequal(&[1.0, f64::NAN], &[1.0]),
            Err(TsError::NonFinite {
                series: 0,
                index: 1
            })
        ));
        assert!(matches!(
            rescaled(&[1.0, 2.0], &[1.0, f64::INFINITY, 3.0]),
            Err(TsError::NonFinite {
                series: 1,
                index: 1
            })
        ));
    }

    #[test]
    fn cached_entries_agree_and_share_plans() {
        let x = bump(64, 30.0, 4.0);
        let y = x[22..46].to_vec();
        let sbd_cached = Sbd::new();
        let a = sbd_cached.try_sbd_unequal(&x, &y).expect("clean data");
        let b = unequal(&x, &y).unwrap();
        assert_eq!(a.shift, b.shift);
        assert_eq!(a.dist.to_bits(), b.dist.to_bits());
        assert_eq!(a.aligned, b.aligned);
        // The plan is cached under the longer length — the same key the
        // equal-length hot path uses for length-64 series.
        assert!(sbd_cached.has_cached_plan_for(64));
        assert_eq!(sbd_cached.cache_stats().misses, 1);
        let _ = sbd_cached.try_sbd_unequal(&x, &y).expect("clean data");
        assert_eq!(sbd_cached.cache_stats().hits, 1);
        // Equal lengths through the cached entry agree with `sbd`.
        let z = bump(64, 40.0, 5.0);
        let eq = sbd_cached.try_sbd_unequal(&x, &z).expect("clean data");
        let plain = sbd(&x, &z);
        assert_eq!(eq.shift, plain.shift);
        assert!((eq.dist - plain.dist).abs() < 1e-15);
    }

    #[test]
    fn padded_plan_correlation_matches_naive() {
        use crate::sbd::{SbdPlan, SbdScratch};
        use tsfft::unequal::cross_correlate_unequal_naive;
        let x = bump(40, 10.0, 2.0);
        let y: Vec<f64> = (0..23).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let plan = SbdPlan::new(40);
        let (px, py) = (plan.prepare_padded(&x), plan.prepare_padded(&y));
        let mut cc = Vec::new();
        let mut scratch = SbdScratch::default();
        plan.cross_correlate_padded(&px, 40, &py, 23, &mut cc, &mut scratch);
        let naive = cross_correlate_unequal_naive(&x, &y);
        assert_eq!(cc.len(), naive.len());
        for (i, (a, b)) in cc.iter().zip(naive.iter()).enumerate() {
            assert!((a - b).abs() < 1e-9, "lag {i}: {a} vs {b}");
        }
    }
}
