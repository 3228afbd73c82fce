//! The unified [`Detector`] trait, its implementations, and the
//! [`DetectorSpec`] configuration that names a detector set.

use rapid_trace::{Event, NameResolver, Race};

use crate::outcome::{Metrics, Outcome};

/// A push-based race detector: one event in, zero or more races out.
///
/// All detectors in the workspace implement this trait through their
/// streaming cores ([`HbStream`](rapid_hb::HbStream),
/// [`FastTrackStream`](rapid_hb::FastTrackStream),
/// [`WcpStream`](rapid_wcp::WcpStream), [`McmStream`](rapid_mcm::McmStream)),
/// so one pass over an event stream can drive any combination of analyses —
/// that is what [`Engine`](crate::Engine) does.
///
/// Contract: events are fed in trace order; [`Detector::finish`] is called
/// exactly once, after the last event, with a
/// [`NameResolver`](rapid_trace::NameResolver) for the ids the events used —
/// the detector resolves its raw per-trace race report into the name-keyed,
/// mergeable [`Outcome`] at that boundary.  Windowed detectors may buffer
/// and report races late (at window boundaries or at `finish`), so per-event
/// return values are a *progress* signal, not a completeness guarantee — the
/// final [`Outcome::races`] is.
pub trait Detector {
    /// The detector's display name.
    fn name(&self) -> String;

    /// Processes the next event of the stream, returning the races flagged
    /// at (or unlocked by) it.
    fn on_event(&mut self, event: &Event) -> Vec<Race>;

    /// Ends the stream and returns the accumulated outcome, with race pairs
    /// resolved to names through `names`.
    fn finish(&mut self, names: &dyn NameResolver) -> Outcome;
}

/// A named detector configuration: which detectors to build, plus the MCM
/// window parameters.  This is the unit the `engine` CLI parses from
/// `--detectors`/`--window`/`--timeout` — and the unit the distributed
/// coordinator ships to workers in its `WELCOME` message, so every worker
/// in a fleet builds byte-identical detector sets without being configured
/// by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorSpec {
    /// Detector names, in registration order (`wcp`, `hb`, `fasttrack`/`ft`,
    /// `mcm`).
    pub detectors: Vec<String>,
    /// MCM window size (ignored unless `mcm` is listed).
    pub window: usize,
    /// MCM solver timeout in seconds (ignored unless `mcm` is listed).
    pub timeout_secs: u64,
}

impl Default for DetectorSpec {
    /// The CLI default: WCP + HB, MCM parameters at their defaults.
    fn default() -> Self {
        let mcm = rapid_mcm::McmConfig::default();
        DetectorSpec {
            detectors: vec!["wcp".to_owned(), "hb".to_owned()],
            window: mcm.window_size,
            timeout_secs: mcm.solver_timeout_secs,
        }
    }
}

impl DetectorSpec {
    /// Builds one fresh detector set (threads are discovered from the event
    /// stream).
    ///
    /// # Errors
    ///
    /// An unknown detector name.
    pub fn build(&self) -> Result<Vec<Box<dyn Detector>>, String> {
        self.detectors
            .iter()
            .map(|name| -> Result<Box<dyn Detector>, String> {
                Ok(match name.as_str() {
                    "wcp" => Box::new(rapid_wcp::WcpStream::new()),
                    "hb" => Box::new(rapid_hb::HbStream::new()),
                    "fasttrack" | "ft" => Box::new(rapid_hb::FastTrackStream::new()),
                    "mcm" => Box::new(rapid_mcm::McmStream::new(rapid_mcm::McmConfig::new(
                        self.window,
                        self.timeout_secs,
                    ))),
                    other => {
                        return Err(format!(
                            "unknown detector `{other}` (expected wcp, hb, fasttrack or mcm)"
                        ))
                    }
                })
            })
            .collect()
    }

    /// Checks the spec without keeping the built detectors — call once up
    /// front so worker factories cannot fail mid-run.
    ///
    /// # Errors
    ///
    /// An unknown detector name.
    pub fn validate(&self) -> Result<(), String> {
        self.build().map(drop)
    }
}

impl Detector for rapid_hb::HbStream {
    fn name(&self) -> String {
        "hb".to_owned()
    }

    fn on_event(&mut self, event: &Event) -> Vec<Race> {
        rapid_hb::HbStream::on_event(self, event)
    }

    fn finish(&mut self, names: &dyn NameResolver) -> Outcome {
        let stats = self.stats();
        let report = rapid_hb::HbStream::finish(self);
        let mut metrics = Metrics::new();
        metrics.record_sum("race_events", stats.race_events as f64);
        Outcome::from_report(Detector::name(self), stats.events, &report, metrics, names)
    }
}

impl Detector for rapid_hb::FastTrackStream {
    fn name(&self) -> String {
        "hb-fasttrack".to_owned()
    }

    fn on_event(&mut self, event: &Event) -> Vec<Race> {
        rapid_hb::FastTrackStream::on_event(self, event)
    }

    fn finish(&mut self, names: &dyn NameResolver) -> Outcome {
        let stats = self.stats();
        let report = rapid_hb::FastTrackStream::finish(self);
        let mut metrics = Metrics::new();
        metrics.record_sum("race_events", stats.race_events as f64);
        Outcome::from_report(Detector::name(self), stats.events, &report, metrics, names)
    }
}

impl Detector for rapid_wcp::WcpStream {
    fn name(&self) -> String {
        "wcp".to_owned()
    }

    fn on_event(&mut self, event: &Event) -> Vec<Race> {
        rapid_wcp::WcpStream::on_event(self, event)
    }

    fn finish(&mut self, names: &dyn NameResolver) -> Outcome {
        let outcome = rapid_wcp::WcpStream::finish(self);
        let stats = &outcome.stats;
        let mut metrics = Metrics::new();
        metrics.record_max("max_queue_percentage", stats.max_queue_percentage());
        metrics.record_max("max_queue_entries", stats.max_queue_entries as f64);
        metrics.record_max("threads", stats.threads as f64);
        metrics.record_max("locks", stats.locks as f64);
        metrics.record_sum("queue_enqueues", stats.queue_enqueues as f64);
        metrics.record_sum("clock_joins", stats.clock_joins as f64);
        metrics.record_sum("race_events", stats.race_events as f64);
        metrics.record_sum("epoch_fast_reads", stats.epoch_fast_reads as f64);
        metrics.record_sum("epoch_fast_writes", stats.epoch_fast_writes as f64);
        metrics.record_sum("pool_taken", stats.pool_taken as f64);
        metrics.record_sum("pool_recycled", stats.pool_recycled as f64);
        Outcome::from_report(Detector::name(self), stats.events, &outcome.report, metrics, names)
    }
}

impl Detector for rapid_mcm::McmStream {
    fn name(&self) -> String {
        format!("mcm({})", self.config().label())
    }

    fn on_event(&mut self, event: &Event) -> Vec<Race> {
        rapid_mcm::McmStream::on_event(self, event)
    }

    fn finish(&mut self, names: &dyn NameResolver) -> Outcome {
        let name = Detector::name(self);
        let events = self.events_seen();
        let (report, stats) = rapid_mcm::McmStream::finish(self);
        let mut metrics = Metrics::new();
        metrics.record_sum("windows", stats.windows as f64);
        metrics.record_sum("candidate_pairs", stats.candidate_pairs as f64);
        metrics.record_sum("witnessed_pairs", stats.witnessed_pairs as f64);
        metrics.record_sum("budget_exhausted_pairs", stats.budget_exhausted_pairs as f64);
        metrics.record_sum("race_events", report.len() as f64);
        Outcome::from_report(name, events, &report, metrics, names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_trace::TraceBuilder;

    #[test]
    fn trait_objects_cover_all_detectors() {
        let mut b = TraceBuilder::new();
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let l = b.lock("l");
        let x = b.variable("x");
        let y = b.variable("y");
        b.critical_section(t1, l, |b| {
            b.write(t1, y);
        });
        b.critical_section(t2, l, |b| {
            b.read(t2, y);
        });
        b.write(t1, x);
        b.write(t2, x);
        let trace = b.finish();

        let mut detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(rapid_hb::HbStream::new()),
            Box::new(rapid_hb::FastTrackStream::new()),
            Box::new(rapid_wcp::WcpStream::new()),
            Box::new(rapid_mcm::McmStream::new(rapid_mcm::McmConfig::default())),
        ];
        for detector in &mut detectors {
            for event in trace.events() {
                detector.on_event(event);
            }
            let outcome = detector.finish(&trace);
            assert_eq!(outcome.distinct_pairs(), 1, "{}", outcome.detector);
            assert_eq!(outcome.shards, 1);
            assert_eq!(outcome.metric("race_events"), Some(1.0), "{}", outcome.detector);
            assert!(!outcome.telemetry().is_empty());
            let pair = outcome.races.keys().next().expect("one race pair");
            assert_eq!(pair.variable, "x", "{}", outcome.detector);
        }

        // Each WCP and MCM metric equals the stats field it names.  The typed
        // and the trait `finish` both consume a stream, so twin streams see
        // the same events.
        let mut wcp = [rapid_wcp::WcpStream::new(), rapid_wcp::WcpStream::new()];
        let mcm_of = || rapid_mcm::McmStream::new(rapid_mcm::McmConfig::default());
        let mut mcm = [mcm_of(), mcm_of()];
        for event in trace.events() {
            for stream in &mut wcp {
                stream.on_event(event);
            }
            for stream in &mut mcm {
                stream.on_event(event);
            }
        }
        let stats = wcp[0].finish().stats;
        let metrics = Detector::finish(&mut wcp[1], &trace).metrics;
        for (name, value) in [
            ("max_queue_entries", stats.max_queue_entries as u64),
            ("threads", stats.threads as u64),
            ("locks", stats.locks as u64),
            ("queue_enqueues", stats.queue_enqueues),
            ("clock_joins", stats.clock_joins),
            ("race_events", stats.race_events as u64),
            ("epoch_fast_reads", stats.epoch_fast_reads),
            ("epoch_fast_writes", stats.epoch_fast_writes),
            ("pool_taken", stats.pool_taken),
            ("pool_recycled", stats.pool_recycled),
        ] {
            assert_eq!(metrics.get(name), Some(value as f64), "wcp {name}");
        }
        let (_, stats) = mcm[0].finish();
        let metrics = Detector::finish(&mut mcm[1], &trace).metrics;
        for (name, value) in [
            ("windows", stats.windows),
            ("candidate_pairs", stats.candidate_pairs),
            ("witnessed_pairs", stats.witnessed_pairs),
            ("budget_exhausted_pairs", stats.budget_exhausted_pairs),
        ] {
            assert_eq!(metrics.get(name), Some(value as f64), "mcm {name}");
        }
    }
}
