//! Simulated time.
//!
//! All simulation time in the workspace is kept as an integer number of
//! nanoseconds since the start of the experiment. Integer time makes event
//! ordering exact (no float comparison fuzz) and keeps every experiment
//! reproducible across platforms.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Number of nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Number of nanoseconds in one millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;

/// An instant in simulated time, measured in nanoseconds from the start of
/// the simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, measured in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds. Negative values clamp to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// Raw nanosecond value.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Elapsed time since `earlier`, saturating to zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds. Negative values clamp to zero; NaN
    /// clamps to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// Raw nanosecond value.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Value in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating duration addition.
    #[inline]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Saturating duration subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

/// Convert fractional seconds to saturating nanoseconds, clamping negatives
/// and NaN to zero.
fn secs_to_nanos(secs: f64) -> u64 {
    // `!(secs > 0.0)` catches NaN, zero and negatives in one comparison.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(secs > 0.0) {
        return 0;
    }
    let nanos = secs * NANOS_PER_SEC as f64;
    if nanos >= u64::MAX as f64 {
        u64::MAX
    } else {
        round_non_negative(nanos)
    }
}

/// `x.round() as u64` for `x` in `[0, 2^64)`, without `f64::round`'s libm
/// call: `t` is `x` truncated, so `x - t` is exact (Sterbenz) and so is
/// its comparison with one half. Halves round up, as `f64::round` rounds
/// them away from zero. The comparison is added, not branched on: the
/// fraction of a drawn time is a coin toss no branch predictor can learn.
fn round_non_negative(x: f64) -> u64 {
    let t = x as u64;
    t + u64::from(x - t as f64 >= 0.5)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Saturating difference; panics are never acceptable in the hot loop.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < NANOS_PER_MILLI {
            write!(f, "{}ns", self.0)
        } else if self.0 < NANOS_PER_SEC {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `secs_to_nanos` rounding through `f64::round`.
    fn reference_secs_to_nanos(secs: f64) -> u64 {
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(secs > 0.0) {
            return 0;
        }
        let nanos = secs * NANOS_PER_SEC as f64;
        if nanos >= u64::MAX as f64 {
            u64::MAX
        } else {
            nanos.round() as u64
        }
    }

    proptest! {
        /// The libm-free rounding equals `f64::round` on any bit pattern
        /// (NaNs, infinities, negatives and subnormals included), on exact
        /// halves, on random fractions and on `[2^52, 2^53)`, where every
        /// value is an integer.
        #[test]
        fn rounding_matches_f64_round(
            bits in any::<u64>(),
            k in 0u64..1 << 52,
            fraction in 0.0f64..1.0,
        ) {
            let secs = f64::from_bits(bits);
            prop_assert_eq!(secs_to_nanos(secs), reference_secs_to_nanos(secs));
            let subnormal = f64::from_bits(k);
            let exact_integer = (1u64 << 52) as f64 + k as f64;
            for x in [k as f64 + 0.5, k as f64 + fraction, exact_integer, subnormal] {
                prop_assert_eq!(round_non_negative(x), x.round() as u64, "{}", x);
            }
        }
    }

    #[test]
    fn rounding_matches_f64_round_at_the_edges() {
        // The largest f64 below 2^64, and the seconds around saturation.
        let below = f64::from_bits((u64::MAX as f64).to_bits() - 1);
        assert_eq!(round_non_negative(below), below.round() as u64);
        let edge = u64::MAX as f64 / NANOS_PER_SEC as f64;
        for step in 0..64 {
            for secs in [edge.to_bits() - step, edge.to_bits() + step].map(f64::from_bits) {
                assert_eq!(secs_to_nanos(secs), reference_secs_to_nanos(secs), "{secs}");
            }
        }
        for x in [
            0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            (1u64 << 52) as f64 - 0.5,
        ] {
            assert_eq!(round_non_negative(x), x.round() as u64, "{x}");
        }
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_nanos(3_000_000));
        assert_eq!(SimDuration::from_secs(1).as_nanos(), NANOS_PER_SEC);
    }

    #[test]
    fn f64_roundtrip() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-5.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.0), SimDuration::ZERO);
    }

    #[test]
    fn saturating_arithmetic() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(late - early, SimDuration::from_secs(4));
        // Subtracting a later time saturates instead of wrapping.
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_millis(999) < SimTime::from_secs(1));
        assert!(SimDuration::from_nanos(1) > SimDuration::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }

    #[test]
    fn add_assign_accumulates() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_millis(1);
        t += SimDuration::from_millis(2);
        assert_eq!(t, SimTime::from_millis(3));
        let mut d = SimDuration::ZERO;
        d += SimDuration::from_secs(1);
        assert_eq!(d, SimDuration::from_secs(1));
    }
}
