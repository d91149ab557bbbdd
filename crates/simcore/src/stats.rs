//! Summary statistics matching the paper's reporting conventions.
//!
//! The paper reports, per configuration: the average, the 50th/75th/95th/99th
//! percentiles, and the maximum completion time; box plots use the
//! 25th/50th/75th percentiles with 1.5·IQR whiskers and the mean marked
//! separately. This module implements exactly those aggregations.
//!
//! Every percentile is the linear-interpolation estimator of
//! [`percentile_sorted`]: quantile `q` of `n` values reads the order
//! statistics at ranks `lo = floor(q(n-1))` and `lo + 1`. One selection
//! helper, [`select_percentiles`], finds exactly the ranks its caller
//! reports by selection (Hoare's FIND; Floyd & Rivest, CACM 1975) instead of
//! sorting: nested `select_nth_unstable` calls, each running inside the part
//! of the slice the previous one left, in expected O(n) total, over integer
//! keys in `f64::total_cmp` order (one integer comparison each). It consumes
//! the buffer it is given: [`BoxPlot`] and [`percentile`] give it one copy
//! of their data, and a caller that has just built a buffer it
//! no longer needs (the metrics crate's `MetricSummary`) gives it that
//! buffer. Minimum and maximum are the ranks `0` and `n - 1` of the same
//! selection. An order statistic is one value whatever order the input
//! came in, so the results equal the sorted path bit for bit (one
//! exception: a tie between `-0.0` and `0.0` may come out with either
//! sign). Means are the [`compensated_sum`] in input order.
//! [`sorted_copy`] and [`percentile_sorted`] remain as the reference
//! estimator.

use serde::{Deserialize, Serialize};

/// Where the linear-interpolation estimator reads quantile `q` of `n`
/// values: the rank `lo = floor(q(n-1))` and the weight of rank `lo + 1`.
fn position(n: usize, q: f64) -> (usize, f64) {
    assert!(n > 0, "percentile of empty data");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    (lo, pos - lo as f64)
}

/// The estimate from the order statistics at ranks `lo` and (when
/// `frac > 0`) `lo + 1`, as `at(rank)` reads them.
fn interpolate(at: impl Fn(usize) -> f64, (lo, frac): (usize, f64)) -> f64 {
    if frac == 0.0 {
        at(lo)
    } else {
        at(lo) * (1.0 - frac) + at(lo + 1) * frac
    }
}

/// Linear-interpolation percentile on a pre-sorted slice (the same estimator
/// NumPy uses by default, which is what the paper's plotting stack used).
///
/// `q` is in `[0, 1]`. Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    interpolate(|rank| sorted[rank], position(sorted.len(), q))
}

/// Panic on a NaN: it always indicates an upstream modelling bug.
fn reject_nan(data: &[f64]) {
    assert!(
        !data.iter().any(|x| x.is_nan()),
        "statistics input contained NaN"
    );
}

/// Sort a copy of the data and return it; NaNs are rejected with a panic
/// because they always indicate an upstream modelling bug.
pub fn sorted_copy(data: &[f64]) -> Vec<f64> {
    reject_nan(data);
    let mut v = data.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN was rejected above"));
    v
}

/// Map `f64` bits to bits whose signed-integer order is `f64::total_cmp`'s
/// order: negative values get their magnitude bits flipped. The map is its
/// own inverse.
fn flip_order(bits: u64) -> u64 {
    bits ^ (((bits as i64 >> 63) as u64) >> 1)
}

/// The bits of `x` as an unsigned integer whose order is
/// `f64::total_cmp`'s order (so `-0.0` sorts below `0.0`): a heap key
/// that packs an `f64` with a tie-break compares in one integer
/// comparison.
pub fn total_order_bits(x: f64) -> u64 {
    flip_order(x.to_bits()) ^ (1 << 63)
}

/// Move the order statistic of every rank in `ranks` (ascending, distinct,
/// relative to the whole slice; `v` starts at rank `offset`) to its index.
/// `v` holds [`flip_order`]ed bits, so each comparison is one integer
/// comparison.
///
/// Each selection runs inside the part the previous one left: the first
/// rank at or past the middle of `v` (else the last) splits it, the ranks
/// below recurse into the left part and those above into the right. A rank
/// at either end of its part (an interpolation partner `lo + 1`, the
/// minimum, the maximum) costs one scan: `select_nth_unstable` places a
/// part's first or last element by a minimum or maximum search.
fn select_ranks(v: &mut [u64], offset: usize, ranks: &[usize]) {
    if ranks.is_empty() {
        return;
    }
    let mid = ranks
        .partition_point(|&r| r < offset + v.len() / 2)
        .min(ranks.len() - 1);
    let (left, _, right) = v.select_nth_unstable_by_key(ranks[mid] - offset, |&b| b as i64);
    select_ranks(left, offset, &ranks[..mid]);
    select_ranks(right, ranks[mid] + 1, &ranks[mid + 1..]);
}

/// [`percentile_sorted`]'s estimator at each of `qs`, selecting in
/// `values` only the ranks it reads (see the module docs), in expected
/// O(n). `values` is consumed as the selection's scratch (its allocation
/// is reused). The results equal sorting the values and reading each
/// quantile bit for bit, except that a tie between `-0.0` and `0.0` may
/// come out with either sign. Every `q` is in `[0, 1]`. Panics on empty
/// input or NaNs.
pub fn select_percentiles<const K: usize>(values: Vec<f64>, qs: [f64; K]) -> [f64; K] {
    reject_nan(&values);
    let reads = qs.map(|q| position(values.len(), q));
    let mut ranks: Vec<usize> = reads
        .iter()
        .flat_map(|&(lo, frac)| [Some(lo), (frac > 0.0).then_some(lo + 1)])
        .flatten()
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    let mut keys: Vec<u64> = values
        .into_iter()
        .map(|x| flip_order(x.to_bits()))
        .collect();
    select_ranks(&mut keys, 0, &ranks);
    reads.map(|read| interpolate(|rank| f64::from_bits(flip_order(keys[rank])), read))
}

/// Linear-interpolation percentile ([`percentile_sorted`]'s estimator) of
/// unsorted data, for callers that need a single quantile.
///
/// Copies the data once and selects the one or two order statistics the
/// estimator reads ([`select_percentiles`]); the result equals
/// `percentile_sorted(&sorted_copy(data), q)` bit for bit, except that a
/// tie between `-0.0` and `0.0` may come out with either sign. `q` is in
/// `[0, 1]`. Panics on empty input or NaNs.
pub fn percentile(data: &[f64], q: f64) -> f64 {
    let [p] = select_percentiles(data.to_vec(), [q]);
    p
}

/// A running Neumaier-compensated sum: the rounding error of each addition
/// is tracked and folded back in when the value is read, so the value is
/// correct to one rounding of the true sum regardless of length or
/// magnitude mix. [`compensated_sum`] folds a slice through it; the GPS
/// kernel keeps its incremental partition sums in it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompensatedSum {
    sum: f64,
    compensation: f64,
}

impl CompensatedSum {
    /// The empty sum.
    pub const ZERO: CompensatedSum = CompensatedSum {
        sum: 0.0,
        compensation: 0.0,
    };

    /// Add `x`, tracking the rounding error of the addition.
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        self.compensation += if self.sum.abs() >= x.abs() {
            (self.sum - t) + x
        } else {
            (x - t) + self.sum
        };
        self.sum = t;
    }

    /// The compensated sum of every value added so far.
    pub fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

/// Compensated (Neumaier) summation in input order, through
/// [`CompensatedSum`]. The grid experiments average hundreds of thousands
/// of response times; naive left-to-right summation loses small addends
/// against the accumulated total.
pub fn compensated_sum(data: &[f64]) -> f64 {
    let mut acc = CompensatedSum::ZERO;
    for &x in data {
        acc.add(x);
    }
    acc.value()
}

/// Arithmetic mean via [`compensated_sum`]. Panics on empty input.
pub fn mean(data: &[f64]) -> f64 {
    assert!(!data.is_empty(), "mean of empty data");
    compensated_sum(data) / data.len() as f64
}

/// The five-number box-plot summary used by the paper's figures:
/// hinges at the quartiles, whiskers at the most extreme data point within
/// 1.5 × IQR of the hinges, mean marked separately.
///
/// The hinges and median are [`percentile_sorted`]'s estimator, found by
/// selection in one copy of the data (expected O(n), see the module docs),
/// so they equal the sorted path's bit for bit. The same selection yields
/// the data's extremes; one pass after it finds both whiskers and counts
/// the outliers (a whisker collapsed onto its hinge costs a second count).
/// The mean is the [`compensated_sum`] in input order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxPlot {
    /// Lower whisker: smallest observation ≥ `p25 - 1.5*IQR`.
    pub whisker_lo: f64,
    /// Lower hinge (25th percentile).
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// Upper hinge (75th percentile).
    pub p75: f64,
    /// Upper whisker: largest observation ≤ `p75 + 1.5*IQR`.
    pub whisker_hi: f64,
    /// Arithmetic mean (the green triangle in the paper's plots).
    pub mean: f64,
    /// Number of observations outside the whiskers.
    pub outliers: usize,
}

impl BoxPlot {
    /// Compute box-plot statistics from unsorted data. Panics on empty
    /// input or NaNs.
    pub fn from_data(data: &[f64]) -> BoxPlot {
        assert!(!data.is_empty(), "boxplot of empty data");
        let [min, p25, median, p75, max] =
            select_percentiles(data.to_vec(), [0.0, 0.25, 0.50, 0.75, 1.0]);
        let iqr = p75 - p25;
        let lo_fence = p25 - 1.5 * iqr;
        let hi_fence = p75 + 1.5 * iqr;
        // One pass finds the innermost observation inside each fence and
        // counts the observations beyond it (a NaN fence, from infinite
        // hinges, is never scanned below).
        let (mut inside_lo, mut inside_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut below_fence, mut above_fence) = (0usize, 0usize);
        for &x in data {
            if x >= lo_fence {
                inside_lo = inside_lo.min(x);
            } else {
                below_fence += 1;
            }
            if x <= hi_fence {
                inside_hi = inside_hi.max(x);
            } else {
                above_fence += 1;
            }
        }
        // A whisker is the innermost observation inside its fence when the
        // fence has data on both sides, else the data's extreme (with no
        // observation beyond it), clamped to its hinge.
        let (lo, beyond_lo) = if min < lo_fence && max >= lo_fence {
            (inside_lo, below_fence)
        } else {
            (min, 0)
        };
        let (hi, beyond_hi) = if max > hi_fence && min <= hi_fence {
            (inside_hi, above_fence)
        } else {
            (max, 0)
        };
        let whisker_lo = lo.min(p25);
        let whisker_hi = hi.max(p75);
        // With sparse data no observation may fall between a fence and the
        // interpolated hinge, and the whisker collapses onto the hinge;
        // rounding can even leave p25 an ulp above p75 on tied data. Only
        // then do the outliers take a counting pass of their own.
        let outliers = if whisker_lo == lo && whisker_hi == hi && whisker_lo <= whisker_hi {
            beyond_lo + beyond_hi
        } else {
            data.iter()
                .filter(|&&x| x < whisker_lo || x > whisker_hi)
                .count()
        };
        BoxPlot {
            whisker_lo,
            p25,
            median,
            p75,
            whisker_hi,
            mean: mean(data),
            outliers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_endpoints() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&data, 0.0), 1.0);
        assert_eq!(percentile_sorted(&data, 1.0), 4.0);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [0.0, 10.0];
        assert!((percentile_sorted(&data, 0.25) - 2.5).abs() < 1e-12);
        assert!((percentile_sorted(&data, 0.5) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile_sorted(&[7.0], 0.5), 7.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile_sorted(&[], 0.5);
    }

    /// Every entry point rejects NaN at every length, including n = 1,
    /// where no comparison ever runs.
    #[test]
    fn nan_input_panics_at_every_length() {
        type Entry = fn(&[f64]);
        let entries: [(&str, Entry); 4] = [
            ("sorted_copy", |d| {
                sorted_copy(d);
            }),
            ("percentile", |d| {
                percentile(d, 0.5);
            }),
            ("select_percentiles", |d| {
                select_percentiles(d.to_vec(), [0.0, 0.5, 1.0]);
            }),
            ("BoxPlot", |d| {
                BoxPlot::from_data(d);
            }),
        ];
        for (name, entry) in entries {
            for data in [&[f64::NAN][..], &[1.0, f64::NAN], &[f64::NAN, 2.0, 3.0]] {
                let err = std::panic::catch_unwind(|| entry(data))
                    .expect_err(&format!("{name} accepted NaN in {data:?}"));
                let msg = err
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| err.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                assert_eq!(msg, "statistics input contained NaN", "{name} {data:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_nothing_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    fn selection_reads_the_end_ranks_and_the_quartiles() {
        let data = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert!((mean(&data) - 3.0).abs() < 1e-12);
        let [min, p25, p50, p75, max] =
            select_percentiles(data.to_vec(), [0.0, 0.25, 0.50, 0.75, 1.0]);
        assert_eq!([min, p25, p50, p75, max], [1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn selected_percentiles_are_monotone() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let p = select_percentiles(data, [0.0, 0.25, 0.50, 0.75, 0.95, 0.99, 1.0]);
        assert!(p.windows(2).all(|w| w[0] <= w[1]), "{p:?}");
    }

    #[test]
    fn boxplot_no_outliers_on_uniform_data() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b = BoxPlot::from_data(&data);
        assert_eq!(b.outliers, 0);
        assert_eq!(b.whisker_lo, 0.0);
        assert_eq!(b.whisker_hi, 99.0);
        assert!((b.mean - 49.5).abs() < 1e-12);
    }

    #[test]
    fn boxplot_detects_outlier() {
        let mut data: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        data.push(1000.0);
        let b = BoxPlot::from_data(&data);
        assert_eq!(b.outliers, 1);
        assert!(b.whisker_hi < 1000.0);
    }

    #[test]
    fn boxplot_constant_data() {
        // All-equal data: IQR is zero, both fences coincide with the value,
        // whiskers collapse onto the hinges, nothing is an outlier.
        let b = BoxPlot::from_data(&[5.0; 10]);
        assert_eq!(b.median, 5.0);
        assert_eq!(b.p25, 5.0);
        assert_eq!(b.p75, 5.0);
        assert_eq!(b.whisker_lo, 5.0);
        assert_eq!(b.whisker_hi, 5.0);
        assert_eq!(b.mean, 5.0);
        assert_eq!(b.outliers, 0);
    }

    #[test]
    fn boxplot_single_element() {
        // Degenerate but legal (a grid cell with one observation): every
        // statistic collapses onto that observation.
        let b = BoxPlot::from_data(&[7.25]);
        assert_eq!(b.whisker_lo, 7.25);
        assert_eq!(b.p25, 7.25);
        assert_eq!(b.median, 7.25);
        assert_eq!(b.p75, 7.25);
        assert_eq!(b.whisker_hi, 7.25);
        assert_eq!(b.mean, 7.25);
        assert_eq!(b.outliers, 0);
    }

    #[test]
    fn mean_survives_catastrophic_cancellation() {
        // Regression: the naive left-to-right sum of the sorted data
        // [-1e16, 1.0, 1e16] loses the 1.0 entirely (-1e16 + 1.0 == -1e16
        // in f64) and reports a mean of 0. Compensated summation recovers
        // the exact sum of 1.0.
        assert_eq!(mean(&[1e16, 1.0, -1e16]), 1.0 / 3.0);
        let b = BoxPlot::from_data(&[1e16, 1.0, -1e16]);
        assert_eq!(b.mean, 1.0 / 3.0);
    }

    #[test]
    fn mean_of_many_small_values_is_exact() {
        // Regression: summing 1e6 copies of 0.1 naively accumulates ~1e-11
        // of rounding drift against ulp-of-100000-sized addend steps; the
        // compensated sum keeps the mean within one rounding of 0.1.
        let data = vec![0.1; 1_000_000];
        let m = mean(&data);
        assert!((m - 0.1).abs() < 1e-15, "mean drifted to {m:.17}");
        assert_eq!(select_percentiles(data, [0.0, 1.0]), [0.1, 0.1]);
    }

    #[test]
    fn compensated_sum_matches_naive_on_benign_data() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64 * 0.25).collect();
        let naive: f64 = data.iter().sum();
        assert!((compensated_sum(&data) - naive).abs() < 1e-9);
        assert_eq!(compensated_sum(&[]), 0.0);
    }
}
