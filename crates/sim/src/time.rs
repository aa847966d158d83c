//! Virtual time. The simulation clock counts microseconds from the start of
//! the run; all latencies of the cost model ([`crate::config`]) are
//! expressed in the same unit. `SimTime` is a point on the clock,
//! `SimDuration` a distance.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }
    pub const fn as_micros(self) -> u64 {
        self.0
    }
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }
    /// Saturating difference between two points in time.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }
    pub const fn as_micros(self) -> u64 {
        self.0
    }
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }
    /// Scale by an integer factor (used for retry backoff).
    pub const fn mul(self, k: u64) -> Self {
        SimDuration(self.0 * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}us", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{}.{:06}s", self.0 / 1_000_000, self.0 % 1_000_000)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10) + SimDuration::from_micros(5);
        assert_eq!(t.as_micros(), 15);
        assert_eq!(t.since(SimTime::from_micros(3)).as_micros(), 12);
        // saturating, never panics
        assert_eq!(SimTime::from_micros(3).since(t), SimDuration::ZERO);
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
        assert_eq!(SimTime::from_micros(2_500_000).as_millis(), 2_500);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_micros(1_500_000).to_string(), "1.500000s");
        assert_eq!(SimTime::from_micros(42).to_string(), "42us");
        assert_eq!(SimDuration::from_micros(7).to_string(), "7us");
    }

    #[test]
    fn ordering_and_mul() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert_eq!(SimDuration::from_micros(3).mul(4).as_micros(), 12);
        assert_eq!(
            (SimDuration::from_micros(9) - SimDuration::from_micros(4)).as_micros(),
            5
        );
    }
}
