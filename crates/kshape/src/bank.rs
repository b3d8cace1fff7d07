//! The one nearest-centroid rule of k-Shape's assignment step
//! (Algorithm 3): every series goes to its SBD-nearest centroid, keeping
//! the winning shift.
//!
//! A [`CentroidBank`] owns the prepared spectra of one centroid set for
//! one row shape: `channels` channel-major channels of a fixed length
//! (summed per-channel NCC under one shared shift), or single-channel
//! rows of any length up to the centroid frame (the unequal-length SBD of
//! paper footnote 3). The in-memory sweep ([`crate::SpectraEngine`]), the
//! out-of-core fit and sweep ([`crate::fit_store`],
//! [`crate::assign_store`]), the stream engine and the `tsserve` model
//! registry all ask it the same questions:
//!
//! * which centroid is nearest, with distance and shift
//!   ([`CentroidBank::nearest`] from a raw row, prepared into reused
//!   [`SbdScratch`] slots, or [`CentroidBank::nearest_prepared`] from
//!   cached row spectra);
//! * the shift toward one given centroid ([`CentroidBank::shift_to`]);
//! * for the fits and the stream, the row aligned by that shift, ready
//!   for the Gram fold.
//!
//! The argument order is fixed: the centroid is SBD's `x` and the row its
//! `y`, so the shift aligns the row toward the centroid, which is what
//! the Gram fold of the next refinement consumes. Ties go to the lowest
//! centroid index; a NaN distance never wins.

use tsdata::distort::shift_zero_pad_into;
use tsdata::store::SeriesView;
use tserror::{TsError, TsResult};

use crate::sbd::{PreparedSeries, SbdPlan, SbdScratch};
use crate::sbd_unequal::{place_into_frame, unequal_dist_shift};

/// Prepared centroid spectra for one row shape. See the module docs.
#[derive(Debug)]
pub struct CentroidBank {
    plan: SbdPlan,
    channels: usize,
    ragged: bool,
    /// `k · channels` spectra, channel-major per centroid. A spectrum's
    /// energy is the centroid channel's `R₀`, which the unequal-length
    /// kernel normalizes by.
    spectra: Vec<PreparedSeries>,
}

impl CentroidBank {
    /// An empty bank for fixed-length rows of `channels · m` samples,
    /// channel-major.
    ///
    /// # Errors
    ///
    /// [`TsError::EmptyInput`] for `m = 0`, [`TsError::NumericalFailure`]
    /// for `channels = 0`.
    pub fn fixed(m: usize, channels: usize) -> TsResult<Self> {
        if channels == 0 {
            return Err(TsError::NumericalFailure {
                context: "a row shape needs at least one channel".into(),
            });
        }
        Ok(CentroidBank {
            plan: SbdPlan::try_new(m)?,
            channels,
            ragged: false,
            spectra: Vec::new(),
        })
    }

    /// An empty bank for single-channel rows of `1..=m` samples, compared
    /// with `m`-sample centroids over the full `m + len − 1` lag range.
    ///
    /// # Errors
    ///
    /// [`TsError::EmptyInput`] for `m = 0`.
    pub fn ragged(m: usize) -> TsResult<Self> {
        Ok(CentroidBank {
            ragged: true,
            ..CentroidBank::fixed(m, 1)?
        })
    }

    /// The empty bank that serves `view`'s rows: ragged when the view is,
    /// with the view's channel count and its (maximum) row length.
    ///
    /// # Errors
    ///
    /// [`TsError::EmptyInput`] for zero-length rows,
    /// [`TsError::NumericalFailure`] for a view reporting zero channels or
    /// combining ragged rows with several channels.
    pub(crate) fn for_view<V: SeriesView + ?Sized>(view: &V) -> TsResult<Self> {
        if !view.is_ragged() {
            return CentroidBank::fixed(view.series_len(), view.channels());
        }
        if view.channels() != 1 {
            return Err(TsError::NumericalFailure {
                context: "ragged multichannel views are unsupported: pad rows to a fixed \
                          length before stacking channels"
                    .into(),
            });
        }
        CentroidBank::ragged(view.series_len())
    }

    /// Prepares `centroids` (each `channels · m` samples), replacing the
    /// previous set and reusing its spectrum buffers.
    ///
    /// # Errors
    ///
    /// [`TsError::LengthMismatch`] naming the first centroid of the wrong
    /// length; the bank is left unchanged.
    pub fn load(&mut self, centroids: &[Vec<f64>]) -> TsResult<()> {
        let m = self.plan.series_len();
        let width = self.channels * m;
        if let Some((j, c)) = centroids.iter().enumerate().find(|(_, c)| c.len() != width) {
            return Err(TsError::LengthMismatch {
                expected: width,
                found: c.len(),
                series: j,
            });
        }
        self.spectra
            .resize_with(centroids.len() * self.channels, PreparedSeries::empty);
        let mut fft = Vec::new();
        let chunks = centroids.iter().flat_map(|c| c.chunks_exact(m));
        for (slot, chunk) in self.spectra.iter_mut().zip(chunks) {
            self.plan.prepare_into(chunk, slot, &mut fft);
        }
        Ok(())
    }

    /// Number of loaded centroids.
    pub(crate) fn k(&self) -> usize {
        self.spectra.len() / self.channels
    }

    /// Execution-control units one row's sweep costs: `k · channels · m`.
    pub(crate) fn row_cost(&self) -> u64 {
        (self.spectra.len() * self.plan.series_len()) as u64
    }

    /// Nearest centroid to a raw row: `(label, distance, shift)`.
    ///
    /// A fixed-shape row holds `channels · m` samples; a ragged row holds
    /// `1..=m`. The row's spectra go into reused `scratch` slots, so a
    /// sweep allocates nothing per row once the scratch is warm. An empty
    /// bank answers `(0, ∞, 0)`.
    ///
    /// # Panics
    ///
    /// Panics if the row does not fit the bank's shape.
    pub fn nearest(&self, row: &[f64], scratch: &mut SbdScratch) -> (usize, f64, isize) {
        self.with_prepared(row, scratch, |slots, scratch| {
            self.argmin(slots, row.len(), scratch)
        })
    }

    /// [`Self::nearest`] for a fixed-shape row whose per-channel spectra
    /// are already cached (`channels` entries, prepared with a plan of
    /// the bank's length).
    ///
    /// # Panics
    ///
    /// Panics on a ragged bank or a wrong channel count.
    pub fn nearest_prepared(
        &self,
        row: &[PreparedSeries],
        scratch: &mut SbdScratch,
    ) -> (usize, f64, isize) {
        assert!(!self.ragged, "ragged rows are prepared from raw samples");
        self.argmin(row, self.plan.series_len(), scratch)
    }

    /// The shift that aligns a raw row toward centroid `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= k` or the row does not fit the bank's shape.
    pub fn shift_to(&self, j: usize, row: &[f64], scratch: &mut SbdScratch) -> isize {
        assert!(j < self.k(), "centroid {j} out of range");
        self.with_prepared(row, scratch, |slots, scratch| {
            self.pair(j, slots, row.len(), scratch).1
        })
    }

    /// Writes `row` aligned by `shift` into `out` (`channels · m`
    /// samples): every channel shifted with zero fill, or a ragged row
    /// placed into the centroid frame at offset `shift`.
    pub(crate) fn align_into(&self, row: &[f64], shift: isize, out: &mut [f64]) {
        if self.ragged {
            place_into_frame(row, shift, out);
            return;
        }
        let m = self.plan.series_len();
        for (chunk, o) in row.chunks_exact(m).zip(out.chunks_exact_mut(m)) {
            shift_zero_pad_into(chunk, shift, o);
        }
    }

    /// The first-minimum argmin over every centroid.
    fn argmin(
        &self,
        row: &[PreparedSeries],
        len: usize,
        scratch: &mut SbdScratch,
    ) -> (usize, f64, isize) {
        let mut best = (0usize, f64::INFINITY, 0isize);
        for j in 0..self.k() {
            let (d, s) = self.pair(j, row, len, scratch);
            if d < best.1 {
                best = (j, d, s);
            }
        }
        best
    }

    /// Distance and shift between centroid `j` and a prepared row of
    /// native length `len` (centroid as `x`, row as `y`).
    fn pair(
        &self,
        j: usize,
        row: &[PreparedSeries],
        len: usize,
        scratch: &mut SbdScratch,
    ) -> (f64, isize) {
        if self.ragged {
            let m = self.plan.series_len();
            unequal_dist_shift(&self.plan, &self.spectra[j], m, &row[0], len, scratch)
        } else {
            let c = self.channels;
            self.plan
                .sbd_spectra_multi(&self.spectra[j * c..(j + 1) * c], row, scratch)
        }
    }

    /// Prepares `row` into the scratch's reused slots and hands them to
    /// `f` together with the rest of the scratch.
    fn with_prepared<T>(
        &self,
        row: &[f64],
        scratch: &mut SbdScratch,
        f: impl FnOnce(&[PreparedSeries], &mut SbdScratch) -> T,
    ) -> T {
        let m = self.plan.series_len();
        let mut slots = std::mem::take(&mut scratch.rows);
        slots.resize_with(self.channels, PreparedSeries::empty);
        if self.ragged {
            self.plan
                .prepare_padded_into(row, &mut slots[0], &mut scratch.rfft);
        } else {
            assert_eq!(
                row.len(),
                self.channels * m,
                "row must hold channels·m samples"
            );
            for (slot, chunk) in slots.iter_mut().zip(row.chunks_exact(m)) {
                self.plan.prepare_into(chunk, slot, &mut scratch.rfft);
            }
        }
        let out = f(&slots, scratch);
        scratch.rows = slots;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::CentroidBank;
    use crate::sbd::{SbdPlan, SbdScratch};
    use tsdata::distort::shift_zero_pad;
    use tsdata::store::{ChannelView, RaggedStore};
    use tserror::TsError;

    fn wave(m: usize, phase: f64) -> Vec<f64> {
        (0..m).map(|t| (t as f64 * 0.31 + phase).sin()).collect()
    }

    #[test]
    fn raw_and_prepared_rows_agree_and_ties_pick_the_first_centroid() {
        let m = 24;
        let cents = vec![wave(m, 0.0), wave(m, 1.3), wave(m, 0.0)];
        let mut bank = CentroidBank::fixed(m, 1).unwrap();
        bank.load(&cents).unwrap();
        let plan = SbdPlan::new(m);
        let mut scratch = SbdScratch::default();
        for phase in [0.0, 0.4, 1.3, 2.2] {
            let row = wave(m, phase);
            let raw = bank.nearest(&row, &mut scratch);
            let prepared = bank.nearest_prepared(&[plan.prepare(&row)], &mut scratch);
            assert_eq!(raw.0, prepared.0);
            assert_eq!(raw.1.to_bits(), prepared.1.to_bits());
            assert_eq!(raw.2, prepared.2);
            assert_ne!(raw.0, 2, "the duplicate of centroid 0 never wins");
            assert_eq!(bank.shift_to(raw.0, &row, &mut scratch), raw.2);
        }
    }

    #[test]
    fn align_into_shifts_every_channel_or_places_into_the_frame() {
        let row: Vec<f64> = (0..12).map(f64::from).collect();
        let bank = CentroidBank::fixed(6, 2).unwrap();
        let mut out = vec![9.0; 12];
        bank.align_into(&row, 2, &mut out);
        assert_eq!(&out[..6], &shift_zero_pad(&row[..6], 2)[..]);
        assert_eq!(&out[6..], &shift_zero_pad(&row[6..], 2)[..]);

        let bank = CentroidBank::ragged(8).unwrap();
        let mut out = vec![9.0; 8];
        bank.align_into(&[1.0, 2.0, 3.0], 6, &mut out);
        assert_eq!(out, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn shapes_and_loads_report_typed_errors() {
        assert!(matches!(
            CentroidBank::fixed(0, 1),
            Err(TsError::EmptyInput)
        ));
        assert!(matches!(
            CentroidBank::fixed(4, 0),
            Err(TsError::NumericalFailure { .. })
        ));
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        let ragged = RaggedStore::from_rows(&rows).unwrap();
        assert!(CentroidBank::for_view(&ragged).is_ok());
        let fixed = [vec![0.5; 6]];
        let view = ChannelView::new(&fixed[..], 3).unwrap();
        let mut bank = CentroidBank::for_view(&view).unwrap();
        assert!(matches!(
            bank.load(&[vec![0.0; 6], vec![0.0; 5]]),
            Err(TsError::LengthMismatch {
                expected: 6,
                found: 5,
                series: 1
            })
        ));
        assert_eq!(bank.k(), 0);
        bank.load(&[vec![0.0; 6]]).unwrap();
        assert_eq!((bank.k(), bank.row_cost()), (1, 6));
    }
}
