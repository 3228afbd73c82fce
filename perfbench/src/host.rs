//! What the benchmark reads about processes and the host: CPU time and
//! peak RSS from `/proc`, and the instrument record every result carries.

use std::fs;
use std::process::Command;
use std::time::Instant;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`, 100
/// on every Linux ABI the benchmark targets).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of process `pid` (all its threads).
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = fs::read_to_string(&path).map_err(|error| format!("cannot read {path}: {error}"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, rest)| rest).ok_or_else(|| format!("bad {path}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |index: usize| -> Result<f64, String> {
        fields
            .get(index)
            .and_then(|field| field.parse::<f64>().ok())
            .ok_or_else(|| format!("bad {path}"))
    };
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_SECOND)
}

/// Peak resident set size of `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status =
        fs::read_to_string(&path).map_err(|error| format!("cannot read {path}: {error}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// Resets the peak RSS of `pid` to its current RSS, so the peak read later
/// covers only what follows.
pub fn reset_peak_rss(pid: u32) -> Result<(), String> {
    let path = format!("/proc/{pid}/clear_refs");
    fs::write(&path, "5").map_err(|error| format!("cannot reset peak RSS via {path}: {error}"))
}

/// Host and build facts that let a reader judge the numbers.
pub struct Instrument {
    pub host_parallelism: usize,
    pub clock_read_ns: f64,
    pub git_commit: String,
    pub source_sha256: String,
    pub rustc: String,
}

impl Instrument {
    pub fn measure(source_sha256: &str) -> Instrument {
        Instrument {
            host_parallelism: rapid_engine::driver::available_jobs(),
            clock_read_ns: clock_read_ns(),
            git_commit: command_output("git", &["rev-parse", "HEAD"]),
            source_sha256: source_sha256.to_owned(),
            rustc: command_output("rustc", &["--version"]),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"host_parallelism\":{},\"clock_read_ns\":{},\"git_commit\":{},\
             \"source_sha256\":{},\"rustc\":{}}}",
            self.host_parallelism,
            self.clock_read_ns,
            json_string(&self.git_commit),
            json_string(&self.source_sha256),
            json_string(&self.rustc)
        )
    }
}

/// The median cost of one `Instant::now()` over five batches.
fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[2]
}

/// The trimmed first line of a command's output, or `unknown` (a checkout
/// without git metadata has no commit to report).
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .and_then(|text| text.lines().next().map(|line| line.trim().to_owned()))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
