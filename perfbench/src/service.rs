//! The resident service under test: one `engine serve` coordinator and one
//! `engine work --jobs 2` worker process, both at their shipped defaults,
//! driven by one closed-loop submit connection from this process.

use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rapid_engine::dist::{self, SubmitConfig, SubmitReport};
use rapid_engine::DetectorSpec;

use crate::host;

/// Every submit gives up after this long; a job that hits it counts as
/// failed.
pub const SUBMIT_TIMEOUT: Duration = Duration::from_secs(30);
/// How long teardown waits for the worker to exit after the drain when its
/// summary is wanted: a worker whose connections did not all end cleanly
/// walks its reconnect ladder first (3 retries, each trying to connect for
/// up to 10 s).
pub const SUMMARY_PATIENCE: Duration = Duration::from_secs(45);
/// The wait before killing a process whose summary is not needed.
pub const QUICK_PATIENCE: Duration = Duration::from_secs(2);

pub struct Service {
    addr: String,
    coordinator: Child,
    worker: Child,
    coordinator_stderr: Option<JoinHandle<()>>,
    worker_stdout: Option<JoinHandle<String>>,
    jobs_opened: usize,
    /// Shards submitted to this service instance, warm-up included.
    pub shards_submitted: usize,
}

/// What one submit returned, with the CPU the service spent on it.
pub struct Submitted {
    pub wall: Duration,
    pub report: Result<SubmitReport, String>,
    pub coordinator_cpu_s: f64,
    pub worker_cpu_s: f64,
}

impl Service {
    pub fn start(engine: &Path, logs: &Path) -> Result<Service, String> {
        let log = |name: &str| -> Result<File, String> {
            let path = logs.join(name);
            File::create(&path)
                .map_err(|error| format!("cannot create {}: {error}", path.display()))
        };
        let mut coordinator = Command::new(engine)
            .args(["serve", "--bind", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(log("serve.out")?)
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|error| format!("cannot start {} serve: {error}", engine.display()))?;
        let stderr = coordinator.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr);
        let mut first = String::new();
        let addr = match lines.read_line(&mut first) {
            Ok(_) => first
                .strip_prefix("serving on ")
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_owned),
            Err(_) => None,
        };
        let Some(addr) = addr else {
            let _ = coordinator.kill();
            let _ = coordinator.wait();
            return Err(format!("engine serve did not report its address: {first:?}"));
        };
        // Keep draining the coordinator's stderr so it never blocks on it.
        let coordinator_stderr = std::thread::spawn(move || {
            let _ = std::io::copy(&mut lines, &mut std::io::sink());
        });

        let worker = Command::new(engine)
            .args(["work", &addr, "--jobs", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log("work.err")?)
            .spawn();
        let mut worker = match worker {
            Ok(worker) => worker,
            Err(error) => {
                let _ = coordinator.kill();
                let _ = coordinator.wait();
                return Err(format!("cannot start {} work: {error}", engine.display()));
            }
        };
        let mut stdout = worker.stdout.take().expect("stdout is piped");
        let worker_stdout = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = stdout.read_to_string(&mut text);
            text
        });
        Ok(Service {
            addr,
            coordinator,
            worker,
            coordinator_stderr: Some(coordinator_stderr),
            worker_stdout: Some(worker_stdout),
            jobs_opened: 0,
            shards_submitted: 0,
        })
    }

    pub fn pids(&self) -> (u32, u32) {
        (self.coordinator.id(), self.worker.id())
    }

    /// Opens a new job over `paths`, waits for its report, and measures the
    /// wall time and the CPU both service processes spent meanwhile.
    pub fn submit(&mut self, paths: &[PathBuf], spec: &DetectorSpec) -> Submitted {
        self.jobs_opened += 1;
        self.shards_submitted += paths.len();
        let config = SubmitConfig {
            job: Some(format!("job{}", self.jobs_opened)),
            paths: paths.to_vec(),
            spec: spec.clone(),
            timeout: Some(SUBMIT_TIMEOUT),
            ..SubmitConfig::default()
        };
        let (coordinator_pid, worker_pid) = self.pids();
        let cpu = |pid| host::cpu_seconds(pid).unwrap_or(0.0);
        let (coordinator_before, worker_before) = (cpu(coordinator_pid), cpu(worker_pid));
        let start = Instant::now();
        let report = dist::submit(&self.addr, &config);
        let wall = start.elapsed();
        Submitted {
            wall,
            report,
            coordinator_cpu_s: cpu(coordinator_pid) - coordinator_before,
            worker_cpu_s: cpu(worker_pid) - worker_before,
        }
    }

    /// Drains the coordinator, waits up to `patience` for each process to
    /// exit (killing whichever does not), and returns the shard count of
    /// the worker's `worker done: N shard(s)` summary — 0 when it printed
    /// none.  A service that does not stop cleanly shows in that count; it
    /// does not abort the run.
    pub fn stop(mut self, patience: Duration) -> usize {
        if let Err(error) = dist::shutdown(&self.addr) {
            eprintln!("perfbench: shutdown of {} failed: {error}", self.addr);
        }
        wait_or_kill(&mut self.worker, patience);
        wait_or_kill(&mut self.coordinator, patience);
        if let Some(handle) = self.coordinator_stderr.take() {
            let _ = handle.join();
        }
        let stdout = self.worker_stdout.take().map(|handle| handle.join().unwrap_or_default());
        stdout.as_deref().and_then(worker_done_shards).unwrap_or(0)
    }
}

impl Drop for Service {
    /// Error paths never leave processes behind.
    fn drop(&mut self) {
        for child in [&mut self.worker, &mut self.coordinator] {
            if let Ok(None) = child.try_wait() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

fn wait_or_kill(child: &mut Child, patience: Duration) {
    let deadline = Instant::now() + patience;
    while Instant::now() < deadline {
        match child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(_) => break,
        }
    }
    let _ = child.kill();
    let _ = child.wait();
}

/// Parses `worker done: N shard(s), …`.
fn worker_done_shards(stdout: &str) -> Option<usize> {
    stdout.lines().find_map(|line| {
        line.strip_prefix("worker done: ")?.split_whitespace().next()?.parse().ok()
    })
}
