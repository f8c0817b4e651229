//! The virtual clock.
//!
//! All campaign scheduling in the reproduction — daily scans started at the
//! same hour (§5), hourly scans of a rotation pool (Figure 10), rotation
//! events in the early-morning hours — is expressed against this clock, so
//! experiments are instantaneous to run and perfectly repeatable.

use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// Seconds in a minute.
pub(crate) const SECS_PER_MINUTE: u64 = 60;
/// Seconds in an hour.
pub(crate) const SECS_PER_HOUR: u64 = 3_600;
/// Seconds in a day.
pub(crate) const SECS_PER_DAY: u64 = 86_400;

/// A span of virtual time, in seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// A duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// A duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * SECS_PER_HOUR)
    }

    /// A duration of `days` days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * SECS_PER_DAY)
    }

    /// The duration in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }
}

/// An instant of virtual time: seconds since the simulation epoch (midnight
/// of day 0).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch: midnight of day 0.
    pub const EPOCH: SimTime = SimTime(0);

    /// An instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Midnight of day `day`.
    pub const fn from_days(day: u64) -> Self {
        SimTime(day * SECS_PER_DAY)
    }

    /// `hour` o'clock on day `day`.
    pub const fn at(day: u64, hour: u64) -> Self {
        SimTime(day * SECS_PER_DAY + hour * SECS_PER_HOUR)
    }

    /// Seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The day number this instant falls in (0-based).
    pub const fn day(self) -> u64 {
        self.0 / SECS_PER_DAY
    }

    /// The hour of the day, `0..24`.
    pub const fn hour_of_day(self) -> u64 {
        (self.0 % SECS_PER_DAY) / SECS_PER_HOUR
    }

    /// The duration elapsed since `earlier`, saturating at zero if `earlier`
    /// is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "day {} {:02}:{:02}:{:02}",
            self.day(),
            self.hour_of_day(),
            (self.0 % SECS_PER_HOUR) / SECS_PER_MINUTE,
            self.0 % SECS_PER_MINUTE
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::at(44, 6);
        assert_eq!(t.day(), 44);
        assert_eq!(t.hour_of_day(), 6);
        assert_eq!(t.as_secs() % SECS_PER_DAY, 6 * SECS_PER_HOUR);
        assert_eq!(SimTime::from_days(2).as_secs(), 2 * SECS_PER_DAY);
        assert_eq!(SimTime::EPOCH.day(), 0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_days(10) + SimDuration::from_hours(3);
        assert_eq!(t.day(), 10);
        assert_eq!(t.hour_of_day(), 3);
        let back = t - SimDuration::from_days(1);
        assert_eq!(back.day(), 9);
        assert_eq!(t.since(back), SimDuration::from_days(1));
        assert_eq!(back.since(t), SimDuration::from_secs(0));
        // Subtraction saturates at the epoch.
        assert_eq!(SimTime::EPOCH - SimDuration::from_days(5), SimTime::EPOCH);
    }

    #[test]
    fn add_assign() {
        let mut t = SimTime::EPOCH;
        t += SimDuration::from_secs(90 * 60);
        assert_eq!(t.as_secs(), 90 * 60);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_days(2).as_secs(), 172_800);
        assert_eq!(SimDuration::from_hours(24), SimDuration::from_days(1));
    }

    #[test]
    fn display_format() {
        let t = SimTime::at(3, 14) + SimDuration::from_secs(15 * 60 + 9);
        assert_eq!(t.to_string(), "day 3 14:15:09");
    }
}
