//! Operating performance points (frequency/voltage pairs).

use serde::{Deserialize, Serialize};

use mpt_units::{Hertz, Volts};

use crate::{Result, SocError};

/// A single operating performance point: a clock frequency paired with the
/// minimum stable supply voltage at that frequency.
///
/// # Examples
///
/// ```
/// use mpt_soc::OperatingPoint;
/// use mpt_units::{Hertz, Volts};
///
/// let opp = OperatingPoint::new(Hertz::from_mhz(600), Volts::new(1.0));
/// assert_eq!(opp.frequency().as_mhz(), 600);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    frequency: Hertz,
    voltage: Volts,
}

impl OperatingPoint {
    /// Creates an operating point.
    #[must_use]
    pub const fn new(frequency: Hertz, voltage: Volts) -> Self {
        Self { frequency, voltage }
    }

    /// The clock frequency.
    #[must_use]
    pub const fn frequency(&self) -> Hertz {
        self.frequency
    }

    /// The supply voltage.
    #[must_use]
    pub const fn voltage(&self) -> Volts {
        self.voltage
    }
}

/// An ordered table of operating points for one component.
///
/// Invariants enforced at construction:
/// - at least one point,
/// - frequencies strictly increasing,
/// - voltages non-decreasing with frequency.
///
/// # Examples
///
/// ```
/// use mpt_soc::OppTable;
/// use mpt_units::{Hertz, Volts};
///
/// // The Adreno 430 GPU frequencies from the paper's Figures 2 and 4.
/// let mhz = [180u64, 305, 390, 450, 510, 600];
/// let table = OppTable::from_points(
///     mhz.iter().map(|&m| (Hertz::from_mhz(m), Volts::new(0.8 + m as f64 / 3000.0))),
/// )?;
/// assert_eq!(table.len(), 6);
/// assert_eq!(table.step_down(Hertz::from_mhz(510)).unwrap().as_mhz(), 450);
/// # Ok::<(), mpt_soc::SocError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OppTable {
    points: Vec<OperatingPoint>,
}

impl OppTable {
    /// Builds a table from `(frequency, voltage)` pairs.
    ///
    /// # Errors
    ///
    /// - [`SocError::EmptyOppTable`] if no points are given.
    /// - [`SocError::UnorderedOpps`] if frequencies are not strictly
    ///   increasing.
    /// - [`SocError::NonMonotoneVoltage`] if a voltage decreases with
    ///   frequency.
    pub fn from_points<I>(points: I) -> Result<Self>
    where
        I: IntoIterator<Item = (Hertz, Volts)>,
    {
        let points: Vec<OperatingPoint> = points
            .into_iter()
            .map(|(f, v)| OperatingPoint::new(f, v))
            .collect();
        if points.is_empty() {
            return Err(SocError::EmptyOppTable);
        }
        for pair in points.windows(2) {
            if pair[1].frequency() <= pair[0].frequency() {
                return Err(SocError::UnorderedOpps {
                    frequency: pair[1].frequency(),
                });
            }
            if pair[1].voltage() < pair[0].voltage() {
                return Err(SocError::NonMonotoneVoltage {
                    frequency: pair[1].frequency(),
                });
            }
        }
        Ok(Self { points })
    }

    /// Number of operating points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the table is empty (never true for a constructed table;
    /// provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over the points, lowest frequency first.
    pub fn iter(&self) -> std::slice::Iter<'_, OperatingPoint> {
        self.points.iter()
    }

    /// The point at `index` (0 = lowest frequency).
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&OperatingPoint> {
        self.points.get(index)
    }

    /// The lowest-frequency point.
    #[must_use]
    pub fn lowest(&self) -> &OperatingPoint {
        self.points.first().expect("opp table is never empty")
    }

    /// The highest-frequency point.
    #[must_use]
    pub fn highest(&self) -> &OperatingPoint {
        self.points.last().expect("opp table is never empty")
    }

    /// All frequencies, ascending.
    pub fn frequencies(&self) -> impl Iterator<Item = Hertz> + '_ {
        self.points.iter().map(OperatingPoint::frequency)
    }

    /// The index of an exact frequency, if present.
    #[must_use]
    pub fn index_of(&self, frequency: Hertz) -> Option<usize> {
        self.points
            .binary_search_by_key(&frequency, |p| p.frequency())
            .ok()
    }

    /// The highest point whose frequency is `<= cap`.
    ///
    /// Returns the lowest point if `cap` is below every frequency: a
    /// frequency cap can slow a component down but never power it off.
    #[must_use]
    pub fn at_or_below(&self, cap: Hertz) -> &OperatingPoint {
        match self.points.binary_search_by_key(&cap, |p| p.frequency()) {
            Ok(i) => &self.points[i],
            Err(0) => self.lowest(),
            Err(i) => &self.points[i - 1],
        }
    }

    /// The next point below `frequency`, or `None` at the bottom of the
    /// table. `frequency` must be an exact operating point.
    #[must_use]
    pub fn step_down(&self, frequency: Hertz) -> Option<Hertz> {
        let i = self.index_of(frequency)?;
        if i == 0 {
            None
        } else {
            Some(self.points[i - 1].frequency())
        }
    }

    /// The next point above `frequency`, or `None` at the top of the table.
    /// `frequency` must be an exact operating point.
    #[must_use]
    pub fn step_up(&self, frequency: Hertz) -> Option<Hertz> {
        let i = self.index_of(frequency)?;
        self.points.get(i + 1).map(OperatingPoint::frequency)
    }
}

impl<'a> IntoIterator for &'a OppTable {
    type Item = &'a OperatingPoint;
    type IntoIter = std::slice::Iter<'a, OperatingPoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn adreno430() -> OppTable {
        let mhz = [180u64, 305, 390, 450, 510, 600];
        OppTable::from_points(
            mhz.iter()
                .map(|&m| (Hertz::from_mhz(m), Volts::new(0.8 + m as f64 / 3000.0))),
        )
        .unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            OppTable::from_points(std::iter::empty()).unwrap_err(),
            SocError::EmptyOppTable
        );
    }

    #[test]
    fn rejects_unordered_frequencies() {
        let err = OppTable::from_points([
            (Hertz::from_mhz(400), Volts::new(0.9)),
            (Hertz::from_mhz(300), Volts::new(1.0)),
        ])
        .unwrap_err();
        assert!(matches!(err, SocError::UnorderedOpps { .. }));
    }

    #[test]
    fn rejects_duplicate_frequencies() {
        let err = OppTable::from_points([
            (Hertz::from_mhz(400), Volts::new(0.9)),
            (Hertz::from_mhz(400), Volts::new(1.0)),
        ])
        .unwrap_err();
        assert!(matches!(err, SocError::UnorderedOpps { .. }));
    }

    #[test]
    fn rejects_decreasing_voltage() {
        let err = OppTable::from_points([
            (Hertz::from_mhz(300), Volts::new(1.0)),
            (Hertz::from_mhz(400), Volts::new(0.9)),
        ])
        .unwrap_err();
        assert!(matches!(err, SocError::NonMonotoneVoltage { .. }));
    }

    #[test]
    fn lowest_and_highest() {
        let t = adreno430();
        assert_eq!(t.lowest().frequency().as_mhz(), 180);
        assert_eq!(t.highest().frequency().as_mhz(), 600);
    }

    #[test]
    fn at_or_below_snaps_down() {
        let t = adreno430();
        assert_eq!(
            t.at_or_below(Hertz::from_mhz(500)).frequency().as_mhz(),
            450
        );
        assert_eq!(
            t.at_or_below(Hertz::from_mhz(510)).frequency().as_mhz(),
            510
        );
        assert_eq!(
            t.at_or_below(Hertz::from_mhz(100)).frequency().as_mhz(),
            180
        );
        assert_eq!(
            t.at_or_below(Hertz::from_mhz(10_000)).frequency().as_mhz(),
            600
        );
    }

    #[test]
    fn stepping() {
        let t = adreno430();
        assert_eq!(t.step_down(Hertz::from_mhz(600)).unwrap().as_mhz(), 510);
        assert_eq!(t.step_up(Hertz::from_mhz(600)), None);
        assert_eq!(t.step_down(Hertz::from_mhz(180)), None);
        assert_eq!(t.step_up(Hertz::from_mhz(180)).unwrap().as_mhz(), 305);
        // Not an exact point:
        assert_eq!(t.step_down(Hertz::from_mhz(200)), None);
    }

    proptest! {
        #[test]
        fn prop_at_or_below_is_max_not_exceeding(cap_mhz in 1u64..1000) {
            let t = adreno430();
            let cap = Hertz::from_mhz(cap_mhz);
            let chosen = t.at_or_below(cap).frequency();
            // The chosen point never exceeds the cap unless the cap is
            // below the whole table (then it is the lowest point).
            if cap >= t.lowest().frequency() {
                prop_assert!(chosen <= cap);
                // And no better point exists.
                for p in t.iter() {
                    if p.frequency() <= cap {
                        prop_assert!(p.frequency() <= chosen);
                    }
                }
            } else {
                prop_assert_eq!(chosen, t.lowest().frequency());
            }
        }

        #[test]
        fn prop_step_up_down_inverse(idx in 0usize..5) {
            let t = adreno430();
            let f = t.get(idx).unwrap().frequency();
            if let Some(up) = t.step_up(f) {
                prop_assert_eq!(t.step_down(up).unwrap(), f);
            }
        }

        #[test]
        fn prop_voltage_monotone(a in 0usize..6, b in 0usize..6) {
            let t = adreno430();
            let (pa, pb) = (t.get(a).unwrap(), t.get(b).unwrap());
            if pa.frequency() < pb.frequency() {
                prop_assert!(pa.voltage() <= pb.voltage());
            }
        }
    }
}
