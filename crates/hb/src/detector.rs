//! The Djit⁺-style vector-clock happens-before detector.

use std::collections::HashMap;

use rapid_trace::{
    Event, EventId, EventKind, Location, Race, RaceDrain, RaceKind, RaceReport, Trace, VarId,
};
use rapid_vc::{ThreadId, VectorClock};

/// Information about the last access of a given kind to a variable by a
/// particular thread, kept for race-pair reporting.
#[derive(Debug, Clone, Copy)]
struct LastAccess {
    /// Local time of the accessing thread when the access happened.
    epoch: u64,
    /// The access event.
    event: EventId,
    /// Its program location.
    location: Location,
}

/// Per-variable access history: the last read and last write of each thread.
#[derive(Debug, Clone, Default)]
struct VarHistory {
    reads: HashMap<ThreadId, LastAccess>,
    writes: HashMap<ThreadId, LastAccess>,
}

/// The vector-clock happens-before race detector (Djit⁺ style).
///
/// The detector performs a single forward pass over the trace, maintaining a
/// vector clock `C_t` per thread and `L_l` per lock.  An access is in race
/// with an earlier conflicting access `a` (by thread `u`) iff the local time
/// of `a` exceeds `C_t(u)` at the time of the access — i.e. the two are
/// unordered by HB.
#[derive(Debug, Default, Clone)]
pub struct HbDetector {
    _private: (),
}

/// The HB timestamps (`C_e` for every event `e`) of a trace, mainly used by
/// tests and the reference closure comparison.
#[derive(Debug, Clone)]
pub struct HbTimestamps {
    clocks: Vec<VectorClock>,
}

impl HbTimestamps {
    /// The HB time of event `e`.
    pub fn clock(&self, event: EventId) -> &VectorClock {
        &self.clocks[event.index()]
    }

    /// Returns true when `a` happens before (or equals) `b` according to the
    /// computed timestamps, for `a` earlier than `b` in trace order.
    pub fn ordered(&self, a: EventId, b: EventId) -> bool {
        self.clock(a).le(self.clock(b))
    }

    /// Number of events timestamped.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// Returns true when no event was timestamped.
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }
}

#[derive(Debug)]
struct HbState {
    /// `C_t` for each thread.
    clocks: Vec<VectorClock>,
    /// `L_l` for each lock: the clock of the last release.
    lock_clocks: HashMap<rapid_trace::LockId, VectorClock>,
    /// Per-variable access history for race reporting.
    history: HashMap<VarId, VarHistory>,
    report: RaceReport,
}

impl HbState {
    fn new(threads: usize) -> Self {
        let mut clocks = Vec::with_capacity(threads);
        for t in 0..threads.max(1) {
            // Each thread starts at local time 1 so that "never communicated"
            // components (0) compare strictly below every real access.
            clocks.push(VectorClock::singleton(ThreadId::new(t as u32), 1));
        }
        HbState {
            clocks,
            lock_clocks: HashMap::new(),
            history: HashMap::new(),
            report: RaceReport::new(),
        }
    }

    fn clock_mut(&mut self, thread: ThreadId) -> &mut VectorClock {
        let index = thread.index();
        if index >= self.clocks.len() {
            for t in self.clocks.len()..=index {
                self.clocks.push(VectorClock::singleton(ThreadId::new(t as u32), 1));
            }
        }
        &mut self.clocks[index]
    }

    fn clock(&mut self, thread: ThreadId) -> VectorClock {
        self.clock_mut(thread).clone()
    }

    fn increment(&mut self, thread: ThreadId) {
        let clock = self.clock_mut(thread);
        let next = clock.get(thread) + 1;
        clock.set(thread, next);
    }

    /// Records race pairs between `event` and every earlier conflicting
    /// access that is not HB-ordered before it.
    fn check_and_record(&mut self, event: &Event, var: VarId, kind: RaceKind) {
        let thread = event.thread();
        let clock = self.clock(thread);
        let history = self.history.entry(var).or_default();
        let mut found: Vec<(LastAccess, bool)> = Vec::new();

        // A write conflicts with earlier reads and writes; a read only with
        // earlier writes.
        for (&other, access) in &history.writes {
            if other != thread && access.epoch > clock.get(other) {
                found.push((*access, true));
            }
        }
        if event.kind().is_write() {
            for (&other, access) in &history.reads {
                if other != thread && access.epoch > clock.get(other) {
                    found.push((*access, false));
                }
            }
        }
        for (access, _) in found {
            self.report.push(Race {
                first: access.event,
                second: event.id(),
                variable: var,
                first_location: access.location,
                second_location: event.location(),
                kind,
            });
        }

        // Update the history with this access.
        let entry =
            LastAccess { epoch: clock.get(thread), event: event.id(), location: event.location() };
        let history = self.history.entry(var).or_default();
        if event.kind().is_write() {
            history.writes.insert(thread, entry);
        } else {
            history.reads.insert(thread, entry);
        }
    }
}

/// The push-based streaming core of the Djit⁺ HB detector.
///
/// Feed events in trace order with [`HbStream::on_event`]; each call returns
/// the races detected *at* that event.  [`HbStream::finish`] yields the
/// accumulated [`RaceReport`].  State is `O(threads · (threads + variables +
/// locks))` — independent of trace length — and threads are discovered as
/// their events arrive, so the stream can run over a trace file without ever
/// materializing a [`Trace`].  [`HbDetector::detect`] is a thin wrapper that
/// streams a materialized trace through this core (batch = stream +
/// collect).
#[derive(Debug)]
pub struct HbStream {
    state: HbState,
    drain: RaceDrain,
    events: usize,
}

impl Default for HbStream {
    fn default() -> Self {
        HbStream::new()
    }
}

impl HbStream {
    /// Creates a stream that discovers threads on the fly.
    pub fn new() -> Self {
        HbStream::with_threads(0)
    }

    /// Creates a stream pre-sized for `threads` threads (identical results;
    /// avoids re-allocation when the count is known up front).
    pub fn with_threads(threads: usize) -> Self {
        HbStream { state: HbState::new(threads), drain: RaceDrain::new(), events: 0 }
    }

    /// Processes one event, returning the races detected at it.
    pub fn on_event(&mut self, event: &Event) -> Vec<Race> {
        let state = &mut self.state;
        let thread = event.thread();
        self.events += 1;
        match event.kind() {
            EventKind::Acquire(lock) => {
                if let Some(lock_clock) = state.lock_clocks.get(&lock).cloned() {
                    state.clock_mut(thread).join(&lock_clock);
                }
            }
            EventKind::Release(lock) => {
                let clock = state.clock(thread);
                state.lock_clocks.insert(lock, clock);
                state.increment(thread);
            }
            EventKind::Read(var) => {
                state.check_and_record(event, var, RaceKind::Hb);
            }
            EventKind::Write(var) => {
                state.check_and_record(event, var, RaceKind::Hb);
            }
            EventKind::Fork(child) => {
                let clock = state.clock(thread);
                state.clock_mut(child).join(&clock);
                state.increment(thread);
            }
            EventKind::Join(child) => {
                let clock = state.clock(child);
                state.clock_mut(thread).join(&clock);
            }
        }
        self.drain.fresh(&self.state.report)
    }

    /// The HB timestamp `C_e` of the event just processed — the thread's
    /// clock after the event, with the post-event increment of releases and
    /// forks undone (those events belong to the old local time).
    pub fn timestamp_of_last(&mut self, event: &Event) -> VectorClock {
        let thread = event.thread();
        let mut clock = self.state.clock(thread);
        if matches!(event.kind(), EventKind::Release(_) | EventKind::Fork(_)) {
            let current = clock.get(thread);
            clock.set(thread, current - 1);
        }
        clock
    }

    /// Number of events processed so far.
    pub fn events_seen(&self) -> usize {
        self.events
    }

    /// Races found so far (the report grows as events are pushed).
    pub fn report(&self) -> &RaceReport {
        &self.state.report
    }

    /// The run's typed counters so far.
    pub fn stats(&self) -> HbStats {
        HbStats { events: self.events, race_events: self.state.report.len() }
    }

    /// Ends the stream, returning the accumulated race report.
    pub fn finish(&mut self) -> RaceReport {
        std::mem::take(&mut self.state.report)
    }
}

/// Typed counters describing one HB-family streaming run
/// ([`HbStream`] or [`FastTrackStream`](crate::FastTrackStream)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HbStats {
    /// Number of events processed.
    pub events: usize,
    /// Number of race events reported (not deduplicated by location pair).
    pub race_events: usize,
}

impl HbDetector {
    /// Creates a detector.
    pub fn new() -> Self {
        HbDetector::default()
    }

    /// Runs the analysis over `trace` and reports all HB races.
    pub fn detect(&self, trace: &Trace) -> RaceReport {
        self.run(trace, false).0
    }

    /// Runs the analysis and additionally returns the HB timestamp of every
    /// event (linear memory; intended for tests and cross-checks).
    pub fn detect_with_timestamps(&self, trace: &Trace) -> (RaceReport, HbTimestamps) {
        let (report, clocks) = self.run(trace, true);
        (report, HbTimestamps { clocks: clocks.expect("timestamps requested") })
    }

    fn run(&self, trace: &Trace, keep_timestamps: bool) -> (RaceReport, Option<Vec<VectorClock>>) {
        let mut stream = HbStream::with_threads(trace.num_threads());
        let mut timestamps = keep_timestamps.then(|| Vec::with_capacity(trace.len()));

        for event in trace.events() {
            stream.on_event(event);
            if let Some(timestamps) = timestamps.as_mut() {
                timestamps.push(stream.timestamp_of_last(event));
            }
        }
        (stream.finish(), timestamps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_gen::figures;
    use rapid_trace::TraceBuilder;

    #[test]
    fn detects_textbook_unprotected_race() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let x = b.variable("x");
        b.write(t1, x);
        b.write(t2, x);
        let report = HbDetector::new().detect(&b.finish());
        assert_eq!(report.len(), 1);
        assert_eq!(report.distinct_pairs(), 1);
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let l = b.lock("l");
        let x = b.variable("x");
        b.critical_section(t1, l, |b| {
            b.write(t1, x);
        });
        b.critical_section(t2, l, |b| {
            b.write(t2, x);
        });
        let report = HbDetector::new().detect(&b.finish());
        assert!(report.is_empty());
    }

    #[test]
    fn same_thread_accesses_never_race() {
        let mut b = TraceBuilder::new();
        let t = b.thread("t");
        let x = b.variable("x");
        b.write(t, x);
        b.read(t, x);
        b.write(t, x);
        assert!(HbDetector::new().detect(&b.finish()).is_empty());
    }

    #[test]
    fn read_read_sharing_is_not_a_race() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let x = b.variable("x");
        b.read(t1, x);
        b.read(t2, x);
        assert!(HbDetector::new().detect(&b.finish()).is_empty());
    }

    #[test]
    fn fork_join_create_order() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main");
        let worker = b.thread("worker");
        let x = b.variable("x");
        b.write(main, x);
        b.fork(main, worker);
        b.write(worker, x);
        b.join(main, worker);
        b.write(main, x);
        assert!(HbDetector::new().detect(&b.finish()).is_empty());
    }

    #[test]
    fn missing_fork_edge_races() {
        let mut b = TraceBuilder::new();
        let main = b.thread("main");
        let worker = b.thread("worker");
        let x = b.variable("x");
        b.write(main, x);
        b.write(worker, x);
        b.join(main, worker);
        b.write(main, x);
        let report = HbDetector::new().detect(&b.finish());
        // Only the first pair is unordered; after join the main write is
        // ordered after the worker write.
        assert_eq!(report.distinct_pairs(), 1);
    }

    #[test]
    fn matches_paper_expectations_on_all_figures() {
        for figure in figures::paper_figures() {
            let report = HbDetector::new().detect(&figure.trace);
            let racy = report.races().iter().any(|race| {
                (race.first == figure.first && race.second == figure.second)
                    || (race.first == figure.second && race.second == figure.first)
            });
            assert_eq!(
                racy, figure.hb_race,
                "{}: HB verdict on the focal pair should be {}",
                figure.name, figure.hb_race
            );
        }
    }

    #[test]
    fn timestamps_reflect_hb_ordering() {
        let figure = figures::figure_1b();
        let (_, timestamps) = HbDetector::new().detect_with_timestamps(&figure.trace);
        assert_eq!(timestamps.len(), figure.trace.len());
        assert!(!timestamps.is_empty());
        // Thread order is always preserved.
        assert!(timestamps.ordered(rapid_trace::EventId::new(0), rapid_trace::EventId::new(1)));
        // rel(l) by t1 (event 3) happens before acq(l) by t2 (event 4).
        assert!(timestamps.ordered(rapid_trace::EventId::new(3), rapid_trace::EventId::new(4)));
        // w(y) and r(y) are HB ordered in Figure 1b (that is why HB misses it).
        assert!(timestamps.ordered(figure.first, figure.second));
    }

    #[test]
    fn race_distance_is_reported() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let x = b.variable("x");
        let local = b.variable("local");
        b.write(t1, x);
        for _ in 0..100 {
            b.read(t1, local);
        }
        b.write(t2, x);
        let report = HbDetector::new().detect(&b.finish());
        assert_eq!(report.len(), 1);
        assert_eq!(report.max_distance(), 101);
    }
}
