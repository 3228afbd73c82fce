//! Race reports: pairs of conflicting events unordered by a partial order.

use std::collections::BTreeSet;
use std::fmt;

use crate::event::EventId;
use crate::ids::{Location, VarId};
use crate::trace::Trace;

/// Which analysis flagged a race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaceKind {
    /// Unordered by happens-before.
    Hb,
    /// Unordered by weak-causally-precedes (the paper's contribution).
    Wcp,
    /// Unordered by causally-precedes.
    Cp,
    /// Witnessed by the windowed maximal-causal-model search.
    Mcm,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RaceKind::Hb => "HB",
            RaceKind::Wcp => "WCP",
            RaceKind::Cp => "CP",
            RaceKind::Mcm => "MCM",
        };
        f.write_str(name)
    }
}

/// A single race: two conflicting events unordered by the analysis relation.
///
/// `first` is the earlier event in trace order, `second` the later one (the
/// event at which the streaming detectors raise the warning, §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Race {
    /// The earlier conflicting event.
    pub first: EventId,
    /// The later conflicting event (where the detector flagged the race).
    pub second: EventId,
    /// The variable both events access.
    pub variable: VarId,
    /// Program location of the earlier event.
    pub first_location: Location,
    /// Program location of the later event.
    pub second_location: Location,
    /// Which analysis reported the race.
    pub kind: RaceKind,
}

impl Race {
    /// The unordered pair of program locations, normalized so that the
    /// smaller location comes first.  The paper counts *distinct race pairs*
    /// as distinct values of this pair (§4).
    pub fn location_pair(&self) -> (Location, Location) {
        if self.first_location <= self.second_location {
            (self.first_location, self.second_location)
        } else {
            (self.second_location, self.first_location)
        }
    }

    /// The race *distance*: the number of events separating the two accesses
    /// in the original trace (§4.3).
    pub fn distance(&self) -> usize {
        self.second.index().saturating_sub(self.first.index())
    }
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} race on {} between {} and {}",
            self.kind, self.variable, self.first, self.second
        )
    }
}

/// The collection of races reported by one analysis run over one trace.
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    races: Vec<Race>,
}

impl RaceReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        RaceReport::default()
    }

    /// Records a race.
    pub fn push(&mut self, race: Race) {
        self.races.push(race);
    }

    /// All recorded races, in detection order.
    pub fn races(&self) -> &[Race] {
        &self.races
    }

    /// Total number of recorded race events (not deduplicated).
    pub fn len(&self) -> usize {
        self.races.len()
    }

    /// Returns true when no race was recorded.
    pub fn is_empty(&self) -> bool {
        self.races.is_empty()
    }

    /// The distinct unordered pairs of program locations in race — the
    /// number the paper's Table 1 reports per benchmark (columns 6–10).
    pub fn distinct_location_pairs(&self) -> BTreeSet<(Location, Location)> {
        self.races.iter().map(Race::location_pair).collect()
    }

    /// Number of distinct location pairs (the paper's "#Races").
    pub fn distinct_pairs(&self) -> usize {
        self.distinct_location_pairs().len()
    }

    /// Maximum race distance over all recorded races (§4.3 reports races
    /// millions of events apart).
    pub fn max_distance(&self) -> usize {
        self.races.iter().map(Race::distance).max().unwrap_or(0)
    }

    /// Minimum distance per distinct location pair: the paper defines the
    /// distance of a race between program locations as the *minimum*
    /// separation among event pairs exhibiting it.
    pub fn pair_distances(&self) -> Vec<((Location, Location), usize)> {
        let mut distances: Vec<((Location, Location), usize)> = Vec::new();
        for pair in self.distinct_location_pairs() {
            let distance = self
                .races
                .iter()
                .filter(|race| race.location_pair() == pair)
                .map(Race::distance)
                .min()
                .unwrap_or(0);
            distances.push((pair, distance));
        }
        distances
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: RaceReport) {
        self.races.extend(other.races);
    }

    /// Renders a human-readable summary using the trace's interned names.
    pub fn summary(&self, trace: &Trace) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} race event(s), {} distinct location pair(s)\n",
            self.len(),
            self.distinct_pairs()
        ));
        for race in &self.races {
            let variable = trace
                .variable_name(race.variable)
                .map(str::to_owned)
                .unwrap_or_else(|| race.variable.to_string());
            let loc1 = trace
                .location_name(race.first_location)
                .map(str::to_owned)
                .unwrap_or_else(|| race.first_location.to_string());
            let loc2 = trace
                .location_name(race.second_location)
                .map(str::to_owned)
                .unwrap_or_else(|| race.second_location.to_string());
            out.push_str(&format!(
                "  [{}] {} vs {} on {} ({} .. {}, distance {})\n",
                race.kind,
                loc1,
                loc2,
                variable,
                race.first,
                race.second,
                race.distance()
            ));
        }
        out
    }
}

/// A drain cursor over a growing [`RaceReport`]: hands out each recorded
/// race exactly once, in detection order.
///
/// Every streaming detector core appends races to its report as events are
/// pushed, and its `on_event` must return only the races flagged *at that
/// event*.  The cursor encapsulates that pattern (previously hand-rolled as
/// an `emitted` counter in each core): call [`RaceDrain::fresh`] after
/// updating the report and it returns the not-yet-emitted suffix.
///
/// # Examples
///
/// ```
/// use rapid_trace::{RaceDrain, RaceReport};
///
/// let mut report = RaceReport::new();
/// let mut drain = RaceDrain::new();
/// assert!(drain.fresh(&report).is_empty());
/// # let some_race = rapid_trace::Race {
/// #     first: rapid_trace::EventId::new(0),
/// #     second: rapid_trace::EventId::new(1),
/// #     variable: rapid_trace::VarId::new(0),
/// #     first_location: rapid_trace::Location::new(0),
/// #     second_location: rapid_trace::Location::new(1),
/// #     kind: rapid_trace::RaceKind::Hb,
/// # };
/// report.push(some_race);
/// assert_eq!(drain.fresh(&report).len(), 1);
/// assert!(drain.fresh(&report).is_empty(), "each race is emitted once");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RaceDrain {
    emitted: usize,
}

impl RaceDrain {
    /// Creates a cursor at the start of a report.
    pub fn new() -> Self {
        RaceDrain::default()
    }

    /// Returns the races recorded in `report` since the previous call,
    /// advancing the cursor past them.
    pub fn fresh(&mut self, report: &RaceReport) -> Vec<Race> {
        let fresh = report.races()[self.emitted..].to_vec();
        self.emitted = report.len();
        fresh
    }

    /// Number of races emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }
}

impl FromIterator<Race> for RaceReport {
    fn from_iter<I: IntoIterator<Item = Race>>(iter: I) -> Self {
        RaceReport { races: iter.into_iter().collect() }
    }
}

impl Extend<Race> for RaceReport {
    fn extend<I: IntoIterator<Item = Race>>(&mut self, iter: I) {
        self.races.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn race(first: u32, second: u32, loc1: u32, loc2: u32) -> Race {
        Race {
            first: EventId::new(first),
            second: EventId::new(second),
            variable: VarId::new(0),
            first_location: Location::new(loc1),
            second_location: Location::new(loc2),
            kind: RaceKind::Wcp,
        }
    }

    #[test]
    fn location_pair_is_normalized() {
        let a = race(0, 5, 9, 2);
        let b = race(1, 6, 2, 9);
        assert_eq!(a.location_pair(), b.location_pair());
    }

    #[test]
    fn distance_counts_event_separation() {
        assert_eq!(race(3, 10, 0, 1).distance(), 7);
        assert_eq!(race(3, 3, 0, 1).distance(), 0);
    }

    #[test]
    fn distinct_pairs_deduplicates() {
        let mut report = RaceReport::new();
        report.push(race(0, 5, 1, 2));
        report.push(race(7, 9, 2, 1)); // same pair, swapped
        report.push(race(3, 4, 1, 3));
        assert_eq!(report.len(), 3);
        assert_eq!(report.distinct_pairs(), 2);
        assert!(!report.is_empty());
    }

    #[test]
    fn max_distance_and_pair_distances() {
        let mut report = RaceReport::new();
        report.push(race(0, 100, 1, 2));
        report.push(race(50, 55, 1, 2));
        report.push(race(10, 20, 3, 4));
        assert_eq!(report.max_distance(), 100);
        let distances = report.pair_distances();
        assert_eq!(distances.len(), 2);
        let short = distances
            .iter()
            .find(|(pair, _)| *pair == (Location::new(1), Location::new(2)))
            .unwrap();
        assert_eq!(short.1, 5, "minimum distance per pair");
    }

    #[test]
    fn merge_and_collect() {
        let mut a: RaceReport = vec![race(0, 1, 0, 1)].into_iter().collect();
        let b: RaceReport = vec![race(2, 3, 2, 3)].into_iter().collect();
        a.merge(b);
        assert_eq!(a.len(), 2);
        let mut c = RaceReport::new();
        c.extend(vec![race(4, 5, 4, 5)]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn empty_report() {
        let report = RaceReport::new();
        assert!(report.is_empty());
        assert_eq!(report.max_distance(), 0);
        assert_eq!(report.distinct_pairs(), 0);
    }

    #[test]
    fn kind_display() {
        assert_eq!(RaceKind::Hb.to_string(), "HB");
        assert_eq!(RaceKind::Wcp.to_string(), "WCP");
        assert_eq!(RaceKind::Cp.to_string(), "CP");
        assert_eq!(RaceKind::Mcm.to_string(), "MCM");
    }
}
