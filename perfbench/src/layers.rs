//! Calls into each layer's public functions, the way the benchmark times
//! them: the fused job exactly as `engine stream` runs it, and the same
//! analysis split layer by layer, with a span around each layer call.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Duration;

use rapid_engine::driver::{self, DriverConfig};
use rapid_engine::outcome::wire;
use rapid_engine::{fold_runs, Detector, DetectorRun, Engine, Metrics, Outcome, ShardRun};
use rapid_trace::format::{AnyReader, StreamNames, TextFormat};
use rapid_trace::{Event, NameResolver, Race, RaceReport};

use crate::inputs::{self, spec_of, Expected};
use crate::spans::Tracer;

/// Events per detector-core and dispatch span: large enough that span
/// bookkeeping stays far below the work it times.
const BLOCK: usize = 1 << 16;

/// A detector that does nothing: registered in an [`Engine`] once per real
/// detector, it isolates the engine's own per-event dispatch cost.
struct Noop;

impl Detector for Noop {
    fn name(&self) -> String {
        "noop".to_owned()
    }

    fn on_event(&mut self, event: &Event) -> Vec<Race> {
        black_box(event);
        Vec::new()
    }

    fn finish(&mut self, names: &dyn NameResolver) -> Outcome {
        Outcome::from_report("noop", 0, &RaceReport::new(), Metrics::new(), names)
    }
}

fn on_event_span(detector: &str) -> &'static str {
    match detector {
        "wcp" => "wcp.on_event",
        "hb" => "hb.on_event",
        _ => "fasttrack.on_event",
    }
}

fn open(path: &Path) -> Result<AnyReader, String> {
    AnyReader::open(path, TextFormat::from_path(path), true)
        .map_err(|error| format!("cannot open {}: {error}", path.display()))
}

/// Checks every run of a report against the known answer.
pub fn verify(runs: &[DetectorRun], detectors: &[&str], expected: &Expected) -> Result<(), String> {
    if runs.len() != detectors.len() {
        return Err(format!("{} detector runs for {} detectors", runs.len(), detectors.len()));
    }
    runs.iter().try_for_each(|run| {
        let outcome = &run.outcome;
        inputs::check(&outcome.detector, outcome.events, outcome.distinct_pairs(), expected)
    })
}

/// The untraced stream job: open, fan out through one engine, finish — the
/// calls `engine stream` makes.
pub fn fused(path: &Path, detectors: &[&str]) -> Result<Vec<DetectorRun>, String> {
    let mut reader = open(path)?;
    let mut engine = Engine::new();
    for detector in spec_of(detectors).build()? {
        engine.register(detector);
    }
    engine.run(&mut reader).map_err(|error| format!("cannot parse {}: {error}", path.display()))?;
    Ok(engine.finish(reader.names()))
}

/// One shard's decoded events and name tables.
pub struct Decoded {
    pub events: Vec<Event>,
    pub names: StreamNames,
    source: &'static str,
}

pub fn decode(path: &Path) -> Result<Decoded, String> {
    let mut reader = open(path)?;
    let source = reader.source();
    let events = reader
        .by_ref()
        .collect::<Result<Vec<Event>, _>>()
        .map_err(|error| format!("cannot parse {}: {error}", path.display()))?;
    Ok(Decoded { events, names: reader.into_names(), source })
}

/// Feeds `events` to one detector core in blocks, one span per block.
fn feed(
    tracer: &mut Tracer,
    job: usize,
    span: &'static str,
    detector: &mut dyn Detector,
    events: &[Event],
) {
    for block in events.chunks(BLOCK) {
        tracer.span(span, job, || {
            for event in block {
                black_box(detector.on_event(event));
            }
        });
    }
}

/// One shard analyzed layer by layer: decode, detector set-up, engine
/// dispatch (no-op probe), each detector core, finish.  Returns the shard's
/// result and its decoded events for further probes.
pub fn layered(
    tracer: &mut Tracer,
    job: usize,
    path: &Path,
    detectors: &[&str],
) -> Result<(ShardRun, Decoded), String> {
    let decoded = tracer.span("format.decode", job, || decode(path))?;
    let mut cores = tracer.span("detector.setup", job, || spec_of(detectors).build())?;

    let mut engine = Engine::new();
    for _ in detectors {
        engine.register(Box::new(Noop));
    }
    for block in decoded.events.chunks(BLOCK) {
        tracer.span("engine.dispatch", job, || {
            for event in block {
                black_box(engine.on_event(event));
            }
        });
    }
    black_box(engine.finish(&decoded.names));

    for (name, core) in detectors.iter().zip(cores.iter_mut()) {
        feed(tracer, job, on_event_span(name), core.as_mut(), &decoded.events);
    }
    let runs = tracer.span("detector.finish", job, || {
        cores
            .iter_mut()
            .map(|core| DetectorRun { outcome: core.finish(&decoded.names), time: Duration::ZERO })
            .collect()
    });
    let run = ShardRun {
        path: path.to_path_buf(),
        source: decoded.source,
        events: decoded.events.len(),
        wall: Duration::ZERO,
        runs,
    };
    Ok((run, decoded))
}

/// Runs the cores a job does not use over its decoded events, so every
/// core's cost is measured on every workload's input.
pub fn probe_cores(
    tracer: &mut Tracer,
    job: usize,
    decoded: &Decoded,
    used: &[&str],
) -> Result<(), String> {
    for name in ["wcp", "hb", "fasttrack"].into_iter().filter(|name| !used.contains(name)) {
        let mut core = spec_of(&[name]).build()?.remove(0);
        feed(tracer, job, on_event_span(name), core.as_mut(), &decoded.events);
        black_box(core.finish(&decoded.names));
    }
    Ok(())
}

/// Encodes every outcome to RWO, returning the bytes produced.
pub fn encode(tracer: &mut Tracer, job: usize, shards: &[ShardRun]) -> usize {
    tracer.span("outcome.encode", job, || {
        shards
            .iter()
            .flat_map(|shard| &shard.runs)
            .map(|run| wire::to_bytes(&run.outcome).len())
            .sum()
    })
}

pub fn fold(tracer: &mut Tracer, job: usize, shards: &[ShardRun]) -> Vec<DetectorRun> {
    tracer.span("driver.fold", job, || fold_runs(shards))
}

/// The local driver over the job's files with `jobs` worker threads.
pub fn local(
    tracer: &mut Tracer,
    span: &'static str,
    job: usize,
    paths: &[PathBuf],
    detectors: &[&str],
    jobs: usize,
) -> Result<Vec<DetectorRun>, String> {
    let spec = spec_of(detectors);
    let factory = || spec.build().expect("the workload's detector names are valid");
    let config = DriverConfig { jobs, ..DriverConfig::default() };
    tracer
        .span(span, job, || driver::run_shards(paths, factory, &config))
        .map(|report| report.merged)
        .map_err(|error| error.to_string())
}
