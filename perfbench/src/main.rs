//! `perfbench`: the race engine's layered benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --engine PATH --source DIGEST
//! perfbench generate --workload NAME --seed N --dir DIR
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of one workload; with
//! `--trace 1` the per-layer metrics, measured from spans this file opens
//! around calls into each layer.  The last stdout line is the result object;
//! the line before it is the full record.  Inputs and results go under
//! `.perfbench/` in the working directory.  See `perfbench/README.md`.

mod host;
mod inputs;
mod layers;
mod service;
mod spans;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use rapid_engine::dist::SubmitReport;
use rapid_engine::DetectorRun;

use host::{json_string, Instrument};
use inputs::{Expected, Plan, Workload};
use service::{Service, Submitted, QUICK_PATIENCE, SUBMIT_TIMEOUT, SUMMARY_PATIENCE};
use spans::Tracer;

/// Where inputs, logs and results go, relative to the checkout root.
const WORK: &str = ".perfbench";
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Timed service jobs per requested second (~0.5 s each on a 2-core
/// host).  The service workload runs a fixed job count rather than a fixed
/// time: the coordinator keeps every job's uploaded shards, so its peak RSS
/// grows with the number of jobs, and a time-bounded run would bill a
/// faster service for more memory.
const SERVICE_JOBS_PER_SECOND: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    engine: PathBuf,
    /// Digest of the sources built, recorded beside the git commit.
    source: String,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2).find(|pair| pair[0] == name).map(|pair| pair[1].as_str())
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let number = |name: &str| -> Result<u64, String> {
        required(args, name)?.parse().map_err(|_| format!("{name} takes a whole number"))
    };
    let trace = match required(args, "--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".to_owned()),
    };
    Ok(Args {
        workload: Workload::parse(required(args, "--workload")?)?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1) as f64,
        trace,
        engine: PathBuf::from(required(args, "--engine")?),
        source: required(args, "--source")?.to_owned(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("generate") {
        generate(&args)
    } else {
        parse_args(&args).and_then(|args| {
            let result = run(&args);
            let _ = fs::remove_dir_all(Path::new(WORK).join("inputs"));
            result
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn generate(args: &[String]) -> Result<(), String> {
    let workload = Workload::parse(required(args, "--workload")?)?;
    let seed = required(args, "--seed")?.parse().map_err(|_| "--seed takes a whole number")?;
    inputs::generate(workload, seed, Path::new(required(args, "--dir")?))
}

/// Everything a run measures against: the inputs on disk and, for the
/// service workload and for traced runs, a running service.
struct Setup {
    plan: Plan,
    events: Vec<usize>,
    sizes: Vec<u64>,
    paths: Vec<PathBuf>,
    service: Option<Service>,
    /// Service submits of the run, warm-up excluded.
    submits: Vec<Submitted>,
}

/// One job: its files, their total size, and its known answer.
struct Job {
    paths: Vec<PathBuf>,
    bytes: u64,
    expected: Expected,
}

impl Setup {
    fn job(&self, k: usize) -> Job {
        let shards = self.plan.job(k);
        Job {
            paths: shards.iter().map(|&index| self.paths[index].clone()).collect(),
            bytes: shards.iter().map(|&index| self.sizes[index]).sum(),
            expected: inputs::expected(&self.plan, &self.events, &shards),
        }
    }

    fn submit(&mut self, job: &Job, detectors: &[&str]) -> Result<&Submitted, JobError> {
        let spec = inputs::spec_of(detectors);
        let service = self.service.as_mut().expect("service runs are set up with a service");
        let submitted = service.submit(&job.paths, &spec);
        let verdict = check_report(&submitted.report, job, detectors);
        self.submits.push(submitted);
        verdict.map(|()| self.submits.last().expect("just pushed"))
    }
}

/// Generates the inputs in a child process and, where the run needs one,
/// starts the service and sends it one verified warm-up job.
fn setup(args: &Args) -> Result<Setup, String> {
    let dir = Path::new(WORK).join("inputs");
    let _ = fs::remove_dir_all(&dir);
    let exe = std::env::current_exe().map_err(|error| format!("cannot locate myself: {error}"))?;
    let status = Command::new(exe)
        .arg("generate")
        .args(["--workload", args.workload.name(), "--seed", &args.seed.to_string()])
        .arg("--dir")
        .arg(&dir)
        .status()
        .map_err(|error| format!("cannot start the generator: {error}"))?;
    if !status.success() {
        return Err(format!("input generation failed ({status})"));
    }
    let plan = inputs::plan(args.workload, args.seed);
    let events = inputs::read_manifest(&plan, &dir)?;
    let paths: Vec<PathBuf> = plan.shards.iter().map(|shard| dir.join(&shard.file)).collect();
    let sizes = paths
        .iter()
        .map(|path| fs::metadata(path).map(|meta| meta.len()))
        .collect::<Result<_, _>>()
        .map_err(|error| format!("cannot stat an input: {error}"))?;
    let mut setup = Setup { plan, events, sizes, paths, service: None, submits: Vec::new() };
    if args.workload == Workload::ServiceShards || args.trace {
        setup.service = Some(Service::start(&args.engine, Path::new(WORK))?);
        let warm_up = setup.job(0);
        setup
            .submit(&warm_up, args.workload.detectors())
            .map_err(|error| format!("warm-up job failed: {}", error.message))?;
        setup.submits.clear();
    }
    Ok(setup)
}

/// Why a job did not count: a wrong verdict, or an error or timeout.
struct JobError {
    wrong: bool,
    message: String,
}

fn wrong(message: String) -> JobError {
    JobError { wrong: true, message }
}

fn failed(message: String) -> JobError {
    JobError { wrong: false, message }
}

fn check_report(
    report: &Result<SubmitReport, String>,
    job: &Job,
    detectors: &[&str],
) -> Result<(), JobError> {
    let report = report.as_ref().map_err(|error| failed(error.clone()))?;
    if report.shards != job.paths.len() {
        return Err(wrong(format!("report folds {} of {} shards", report.shards, job.paths.len())));
    }
    layers::verify(&report.merged, detectors, &job.expected).map_err(wrong)
}

fn check_runs(
    runs: Result<Vec<DetectorRun>, String>,
    job: &Job,
    detectors: &[&str],
) -> Result<(), JobError> {
    layers::verify(&runs.map_err(failed)?, detectors, &job.expected).map_err(wrong)
}

/// Job outcomes of a run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    wrong: usize,
    /// Wall time per job; a failed job counts as the submit timeout, so it
    /// misses any latency limit.
    walls: Vec<f64>,
    events: usize,
}

impl Tally {
    /// Counts one timed job.
    fn record(&mut self, wall: Duration, events: usize, verdict: Result<(), JobError>) {
        let ok = self.check(verdict);
        if ok {
            self.events += events;
        }
        let wall = wall.as_secs_f64();
        self.walls.push(if ok { wall } else { wall.max(SUBMIT_TIMEOUT.as_secs_f64()) });
    }

    /// Counts one verified operation; returns whether it passed.
    fn check(&mut self, verdict: Result<(), JobError>) -> bool {
        self.attempted += 1;
        let Err(error) = verdict else { return true };
        if self.failed < 5 {
            eprintln!("perfbench: operation {} failed: {}", self.attempted, error.message);
        }
        self.failed += 1;
        self.wrong += usize::from(error.wrong);
        false
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn run(args: &Args) -> Result<(), String> {
    fs::create_dir_all(Path::new(WORK))
        .map_err(|error| format!("cannot create {WORK}: {error}"))?;
    let instrument = Instrument::measure(&args.source);
    let mut setup_samples = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_state = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous set-up down first, outside the timed set-up.
        if let Some(Setup { service: Some(service), .. }) = setup_state.take() {
            service.stop(QUICK_PATIENCE);
        }
        let start = Instant::now();
        setup_state = Some(setup(args)?);
        setup_samples.push(start.elapsed().as_secs_f64());
    }
    let mut setup = setup_state.expect("at least one set-up");

    let outcome = if args.trace { traced(args, &mut setup) } else { untraced(args, &mut setup) };
    // Stop the service on every path.  Only traced runs wait for the
    // worker's shard summary, which they report.
    let worker_done = setup.service.take().and_then(|service| {
        let submitted = service.shards_submitted;
        if args.trace {
            Some((submitted, service.stop(SUMMARY_PATIENCE)))
        } else {
            service.stop(QUICK_PATIENCE);
            None
        }
    });
    let (tally, mut metrics, spans) = outcome?;
    if let Some((submitted, done)) = worker_done {
        let unaccounted = submitted as f64 - done as f64;
        metrics.push(Metric { name: "dist.shards_unaccounted", value: unaccounted, unit: "count" });
    }
    if !args.trace {
        metrics.insert(0, Metric { name: "setup_s", value: median(&setup_samples), unit: "s" });
    }

    let result = result_json(&tally, &metrics);
    // Per submit: contributing workers (0 for a failed submit).
    let workers: Vec<usize> = setup
        .submits
        .iter()
        .map(|submitted| submitted.report.as_ref().map_or(0, |report| report.workers))
        .collect();
    let record = format!(
        "{{\"instrument\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"setup_s_samples\":{:?},\"job_s_samples\":{:?},\"submit_workers\":{:?},\
         \"shards_submitted_and_done\":{},\"result\":{result}}}",
        instrument.to_json(),
        json_string(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        setup_samples,
        tally.walls,
        workers,
        worker_done.map_or("null".to_owned(), |(submitted, done)| format!("[{submitted},{done}]")),
    );
    let results = Path::new(WORK).join("results");
    let stem = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    let written = fs::create_dir_all(&results)
        .and_then(|()| fs::write(results.join(format!("{stem}.json")), format!("{record}\n")))
        .and_then(|()| match &spans {
            Some(tracer) => {
                fs::write(results.join(format!("{stem}.spans.jsonl")), tracer.to_jsonl())
            }
            None => Ok(()),
        });
    written
        .map_err(|error| format!("cannot write results under {}: {error}", results.display()))?;
    println!("{record}");
    println!("{result}");
    Ok(())
}

fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|metric| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                metric.name,
                json_number(metric.value),
                metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.wrong == 0 && tally.failed < tally.attempted,
        tally.attempted,
        tally.failed,
        body.join(",")
    )
}

/// JSON has no NaN or infinity; an undefined value prints as -1.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "-1".to_owned()
    }
}

type Measured = (Tally, Vec<Metric>, Option<Tracer>);

/// The untraced run: closed-loop jobs for `seconds`, timed from outside.
fn untraced(args: &Args, setup: &mut Setup) -> Result<Measured, String> {
    let detectors = args.workload.detectors();
    let pids: Vec<u32> = match &setup.service {
        Some(service) => {
            let (coordinator, worker) = service.pids();
            vec![coordinator, worker]
        }
        None => vec![std::process::id()],
    };
    let cpu = |pids: &[u32]| -> Result<f64, String> {
        pids.iter().map(|&pid| host::cpu_seconds(pid)).sum()
    };
    for &pid in &pids {
        host::reset_peak_rss(pid)?;
    }
    let cpu_before = cpu(&pids)?;
    let mut tally = Tally::default();
    let start = Instant::now();
    let service_jobs = (args.seconds * SERVICE_JOBS_PER_SECOND) as usize;
    let more = |done: usize| match args.workload {
        Workload::ServiceShards => done < service_jobs,
        _ => start.elapsed().as_secs_f64() < args.seconds,
    };
    let mut k = 1;
    while more(tally.attempted) {
        let job = setup.job(k);
        k += 1;
        let job_start = Instant::now();
        let verdict = if args.workload == Workload::ServiceShards {
            setup.submit(&job, detectors).map(drop)
        } else {
            check_runs(layers::fused(&job.paths[0], detectors), &job, detectors)
        };
        tally.record(job_start.elapsed(), job.expected.events, verdict);
    }
    let timed = tally.walls.iter().sum::<f64>();
    let cpu_s = (cpu(&pids)? - cpu_before) / tally.attempted as f64;
    let peak = pids.iter().map(|&pid| host::peak_rss_mb(pid)).sum::<Result<f64, String>>()?;
    let metrics = vec![
        Metric { name: "job_s", value: median(&tally.walls), unit: "s" },
        Metric { name: "events_per_s", value: tally.events as f64 / timed, unit: "1/s" },
        Metric { name: "cpu_s", value: cpu_s, unit: "s" },
        Metric { name: "peak_rss_mb", value: peak, unit: "MiB" },
        Metric {
            name: "ok_frac",
            value: (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
            unit: "frac",
        },
    ];
    Ok((tally, metrics, None))
}

/// Per-iteration per-layer samples, reduced to medians at the end.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }
}

/// The traced run: each iteration runs one untraced job (the baseline for
/// the tracing overhead), one traced job, and the probes of the layers the
/// job's path does not show, each under its own root span.
fn traced(args: &Args, setup: &mut Setup) -> Result<Measured, String> {
    let detectors = args.workload.detectors();
    let service_job = args.workload == Workload::ServiceShards;
    let (coordinator, worker) = setup.service.as_ref().expect("traced runs start a service").pids();
    host::reset_peak_rss(coordinator)?;
    host::reset_peak_rss(worker)?;
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut untraced_walls = Vec::new();
    let mut samples = Samples::default();
    let mut rwo_bytes = Vec::new();
    let mut wcp = Vec::new();
    let start = Instant::now();
    let mut k = 1;
    let mut iteration = 0;
    while iteration == 0 || start.elapsed().as_secs_f64() < args.seconds {
        // Untraced baseline.
        let job = setup.job(k);
        let job_start = Instant::now();
        let verdict = if service_job {
            k += 1;
            setup.submit(&job, detectors).map(drop)
        } else {
            check_runs(layers::fused(&job.paths[0], detectors), &job, detectors)
        };
        untraced_walls.push(job_start.elapsed().as_secs_f64());
        tally.record(job_start.elapsed(), job.expected.events, verdict);

        // Traced job.
        let job = setup.job(k);
        let job_start = Instant::now();
        let root = tracer.open("job", iteration);
        let (verdict, shard_runs) = if service_job {
            k += 1;
            let verdict =
                tracer.span("dist.submit", iteration, || setup.submit(&job, detectors).map(drop));
            (verdict, Vec::new())
        } else {
            match layers::layered(&mut tracer, iteration, &job.paths[0], detectors) {
                Ok((run, decoded)) => {
                    let verdict = tracer.span("verify", iteration, || {
                        layers::verify(&run.runs, detectors, &job.expected).map_err(wrong)
                    });
                    (verdict, vec![(run, decoded)])
                }
                Err(error) => (Err(failed(error)), Vec::new()),
            }
        };
        tracer.close(root);
        tally.record(job_start.elapsed(), job.expected.events, verdict);

        // Probes, over the same job's files.
        let probe = tracer.open("probe", iteration);
        let mut shard_runs = shard_runs;
        if service_job {
            for path in &job.paths {
                let layered = layers::layered(&mut tracer, iteration, path, detectors)?;
                shard_runs.push(layered);
            }
        }
        for (_, decoded) in &shard_runs {
            layers::probe_cores(&mut tracer, iteration, decoded, detectors)?;
        }
        let runs: Vec<_> = shard_runs.into_iter().map(|(run, _)| run).collect();
        rwo_bytes.push(layers::encode(&mut tracer, iteration, &runs) as f64);
        let folded = layers::fold(&mut tracer, iteration, &runs);
        if let Some(first) = folded.first() {
            wcp.push(first.outcome.clone());
        }
        tally.check(layers::verify(&folded, detectors, &job.expected).map_err(wrong));
        let jobs = rapid_engine::driver::available_jobs();
        let local =
            layers::local(&mut tracer, "driver.local_job", iteration, &job.paths, detectors, jobs);
        tally.check(check_runs(local, &job, detectors));
        let local1 =
            layers::local(&mut tracer, "driver.local_jobs1", iteration, &job.paths, detectors, 1);
        tally.check(check_runs(local1, &job, detectors));
        if !service_job {
            let verdict =
                tracer.span("dist.submit", iteration, || setup.submit(&job, detectors).map(drop));
            tally.check(verdict);
        }
        tracer.close(probe);

        // Per-iteration samples from this iteration's spans and submit.
        let own = tracer.self_by_job().remove(&iteration).unwrap_or_default();
        let span = |name: &str| own.get(name).copied().unwrap_or(0.0);
        let events = job.expected.events as f64;
        samples.add("format.decode_s", span("format.decode"));
        samples.add("format.decode_events_per_s", events / span("format.decode"));
        samples.add("format.input_bytes", job.bytes as f64);
        samples.add("engine.dispatch_s", span("engine.dispatch"));
        samples.add("engine.finish_s", span("detector.finish"));
        samples.add("wcp.on_event_s", span("wcp.on_event"));
        samples.add("hb.on_event_s", span("hb.on_event"));
        samples.add("fasttrack.on_event_s", span("fasttrack.on_event"));
        samples.add("detector.setup_finish_s", span("detector.setup") + span("detector.finish"));
        samples.add("outcome.encode_s", span("outcome.encode"));
        samples.add("driver.fold_s", span("driver.fold"));
        samples.add("driver.local_job_s", span("driver.local_job"));
        samples.add("driver.local_jobs1_s", span("driver.local_jobs1"));
        if let Some(submitted) = setup.submits.last() {
            samples.add("dist.overhead_s", submitted.wall.as_secs_f64() - span("driver.local_job"));
            samples.add("dist.coordinator_cpu_s", submitted.coordinator_cpu_s);
            samples.add("dist.worker_cpu_s", submitted.worker_cpu_s);
            samples.add("dist.upload_bytes", job.bytes as f64);
            // A failed submit has no report: its figures are undefined.
            let report = submitted.report.as_ref().ok();
            let scheduling = |name: &str| {
                report.map_or(f64::NAN, |report| report.scheduling.get(name).unwrap_or(0.0))
            };
            let report_wall = report.map_or(f64::NAN, |report| report.wall.as_secs_f64());
            let shards = report.map_or(f64::NAN, |report| report.shards as f64);
            samples.add("dist.report_wall_s", report_wall);
            samples.add("dist.client_overhead_s", submitted.wall.as_secs_f64() - report_wall);
            samples.add("dist.bytes_transferred", scheduling("bytes_transferred"));
            samples.add("dist.cache_hit_frac", scheduling("cache_hits") / shards);
            samples.add("dist.leases_stolen", scheduling("leases_stolen"));
        }
        iteration += 1;
    }

    let mut metrics: Vec<Metric> = Vec::new();
    let units = |name: &str| match name {
        name if name.ends_with("_per_s") => "1/s",
        name if name.ends_with("_s") => "s",
        name if name.ends_with("_bytes") || name.ends_with("bytes_transferred") => "B",
        name if name.ends_with("_frac") => "frac",
        _ => "count",
    };
    for (name, values) in &samples.0 {
        metrics.push(Metric { name, value: median(values), unit: units(name) });
    }
    let wcp_metric = |name: &str| {
        median(&wcp.iter().map(|outcome| outcome.metric(name).unwrap_or(0.0)).collect::<Vec<_>>())
    };
    let wcp_events = median(&wcp.iter().map(|outcome| outcome.events as f64).collect::<Vec<_>>());
    metrics.extend([
        Metric { name: "wcp.queue_enqueues", value: wcp_metric("queue_enqueues"), unit: "count" },
        Metric {
            name: "wcp.max_queue_entries",
            value: wcp_metric("max_queue_entries"),
            unit: "count",
        },
        Metric { name: "wcp.clock_joins", value: wcp_metric("clock_joins"), unit: "count" },
        Metric {
            name: "wcp.epoch_fast_frac",
            value: (wcp_metric("epoch_fast_reads") + wcp_metric("epoch_fast_writes")) / wcp_events,
            unit: "frac",
        },
        Metric {
            name: "wcp.pool_hit_frac",
            value: wcp_metric("pool_recycled") / wcp_metric("pool_taken"),
            unit: "frac",
        },
        Metric { name: "outcome.rwo_bytes", value: median(&rwo_bytes), unit: "B" },
    ]);
    let workers_min = setup
        .submits
        .iter()
        .map(|submitted| submitted.report.as_ref().map_or(0, |report| report.workers))
        .min()
        .unwrap_or(0);
    let traced_walls: Vec<f64> = tracer.roots("job").iter().map(|(wall, _)| *wall).collect();
    let coverage: Vec<f64> = tracer.roots("job").iter().map(|(_, share)| *share).collect();
    let untraced_median = median(&untraced_walls);
    metrics.extend([
        Metric { name: "dist.workers_per_job_min", value: workers_min as f64, unit: "count" },
        Metric {
            name: "dist.coordinator_rss_mb",
            value: host::peak_rss_mb(coordinator)?,
            unit: "MiB",
        },
        Metric { name: "dist.worker_rss_mb", value: host::peak_rss_mb(worker)?, unit: "MiB" },
        Metric {
            name: "trace.overhead_frac",
            value: (median(&traced_walls) - untraced_median) / untraced_median,
            unit: "frac",
        },
        Metric { name: "trace.coverage_frac", value: median(&coverage), unit: "frac" },
        Metric {
            name: "failed_frac",
            value: tally.failed as f64 / tally.attempted as f64,
            unit: "frac",
        },
    ]);
    Ok((tally, metrics, Some(tracer)))
}
