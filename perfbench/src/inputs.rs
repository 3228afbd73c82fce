//! Seeded workload inputs: what each workload generates, which shards make
//! up each job, and the Table 1 known answer every job is checked against.
//!
//! Generation runs in a child process (`perfbench generate …`), so its CPU
//! time and memory never reach the measured process.  The plan itself is a
//! pure function of the workload and the seed: parent and child derive the
//! same shard list independently.

use std::collections::BTreeSet;
use std::fs;
use std::io::Write;
use std::path::Path;

use rapid_engine::DetectorSpec;
use rapid_gen::benchmarks;

/// The three workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One ≥ 2M-event eclipse model as `.rwf` through `wcp,hb,fasttrack`.
    StreamRwf3Det,
    /// One ≥ 2M-event moldyn model as std text through `wcp` alone.
    StreamTextWcp,
    /// ~64 `.rwf` shards per job through a resident coordinator and worker.
    ServiceShards,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "stream-rwf-3det" => Ok(Workload::StreamRwf3Det),
            "stream-text-wcp" => Ok(Workload::StreamTextWcp),
            "service-shards" => Ok(Workload::ServiceShards),
            other => Err(format!(
                "unknown workload `{other}` (expected stream-rwf-3det, stream-text-wcp or \
                 service-shards)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamRwf3Det => "stream-rwf-3det",
            Workload::StreamTextWcp => "stream-text-wcp",
            Workload::ServiceShards => "service-shards",
        }
    }

    /// The detector names a job of this workload runs, in registration order.
    pub fn detectors(self) -> &'static [&'static str] {
        match self {
            Workload::StreamRwf3Det => &["wcp", "hb", "fasttrack"],
            Workload::StreamTextWcp => &["wcp"],
            Workload::ServiceShards => &["wcp", "hb"],
        }
    }
}

/// The detector set of the given names, other parameters at their defaults.
pub fn spec_of(detectors: &[&str]) -> DetectorSpec {
    DetectorSpec {
        detectors: detectors.iter().map(|name| name.to_string()).collect(),
        ..DetectorSpec::default()
    }
}

/// Events of each stream workload's single model, before the seeded extra.
const STREAM_EVENTS: usize = 2_000_000;
/// Shards in the service workload's circular pool.  Large enough that a
/// shard leaving the job window is evicted from the worker's 64 MiB cache
/// before it comes round again, so every "new" shard is a real miss.
const POOL_SHARDS: usize = 256;
/// Shards per service job, and how many of them change between jobs.
const JOB_SHARDS: usize = 64;
const JOB_STRIDE: usize = 16;

/// One input file: which Table 1 row it models and its event budget.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    pub row: &'static str,
    pub events: usize,
    pub file: String,
}

/// All input files of a workload and how jobs draw on them.
#[derive(Debug, Clone)]
pub struct Plan {
    pub shards: Vec<ShardPlan>,
    window: usize,
    stride: usize,
}

impl Plan {
    /// The shard indices of job `k`: a window sliding over the pool, so
    /// consecutive jobs share `window - stride` shards.
    pub fn job(&self, k: usize) -> Vec<usize> {
        (0..self.window).map(|i| (self.stride * k + i) % self.shards.len()).collect()
    }
}

/// SplitMix64: a tiny, well-mixed generator for seeded choices.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

pub fn plan(workload: Workload, seed: u64) -> Plan {
    let mut rng = Rng::new(seed);
    let single = |row: &'static str, extension: &str, rng: &mut Rng| {
        let events = STREAM_EVENTS + rng.below(1 << 14);
        Plan {
            shards: vec![ShardPlan { row, events, file: format!("{row}-{events}.{extension}") }],
            window: 1,
            stride: 0,
        }
    };
    match workload {
        Workload::StreamRwf3Det => single("eclipse", "rwf", &mut rng),
        Workload::StreamTextWcp => single("moldyn", "std", &mut rng),
        Workload::ServiceShards => {
            let mut rows = benchmarks::benchmark_names();
            let mut seen = BTreeSet::new();
            let mut shards = Vec::with_capacity(POOL_SHARDS);
            while shards.len() < POOL_SHARDS {
                // Every 18 consecutive pool shards cover each Table 1 row
                // once, in a seeded order, so every job holds nearly the same
                // row mix whatever the seed.
                for i in (1..rows.len()).rev() {
                    rows.swap(i, rng.below(i + 1));
                }
                for &row in rows.iter().take(POOL_SHARDS - shards.len()) {
                    // Distinct (row, size) pairs give distinct bytes, hence
                    // distinct content ids in the worker cache.
                    let events = loop {
                        let events = 26_000 + rng.below(16_000);
                        if seen.insert((row, events)) {
                            break events;
                        }
                    };
                    let file = format!("s{:03}-{row}-{events}.rwf", shards.len());
                    shards.push(ShardPlan { row, events, file });
                }
            }
            Plan { shards, window: JOB_SHARDS, stride: JOB_STRIDE }
        }
    }
}

/// What a correct report for one job must contain, from the Table 1 specs
/// of the rows it covers (never from another detector run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub events: usize,
    pub wcp: usize,
    pub hb: usize,
}

/// The known answer for a set of shards: race pairs are keyed by location
/// names that carry the row name, so equal rows collapse into one set of
/// pairs and distinct rows add up.
pub fn expected(plan: &Plan, events: &[usize], shards: &[usize]) -> Expected {
    let rows: BTreeSet<&str> = shards.iter().map(|&index| plan.shards[index].row).collect();
    let specs = rows.iter().map(|row| benchmarks::spec(row).expect("plan rows are Table 1 rows"));
    let (wcp, hb) =
        specs.fold((0, 0), |(wcp, hb), spec| (wcp + spec.wcp_races, hb + spec.hb_races));
    Expected { events: shards.iter().map(|&index| events[index]).sum(), wcp, hb }
}

/// Checks one detector's outcome against the known answer.  FastTrack must
/// find exactly the HB pairs.
pub fn check(
    detector: &str,
    events: usize,
    pairs: usize,
    expected: &Expected,
) -> Result<(), String> {
    let want = match detector {
        "wcp" => expected.wcp,
        "hb" | "hb-fasttrack" => expected.hb,
        other => return Err(format!("no known answer for detector `{other}`")),
    };
    if events != expected.events {
        return Err(format!("{detector}: saw {events} events, expected {}", expected.events));
    }
    if pairs != want {
        return Err(format!("{detector}: {pairs} race pairs, Table 1 says {want}"));
    }
    Ok(())
}

/// The child-process entry point: writes every input file of the plan into
/// `dir`, plus `manifest.tsv` with each file's actual event count.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let plan = plan(workload, seed);
    fs::create_dir_all(dir).map_err(|error| format!("cannot create {}: {error}", dir.display()))?;
    // Two generator threads; the plan fixes every file's content, so the
    // split does not change what is written.
    let counts: Vec<Result<usize, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|part| {
                let plan = &plan;
                scope.spawn(move || {
                    plan.shards
                        .iter()
                        .enumerate()
                        .filter(|(index, _)| index % 2 == part)
                        .map(|(index, shard)| (index, write_shard(shard, dir)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut counts: Vec<(usize, Result<usize, String>)> = workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("generator thread panicked"))
            .collect();
        counts.sort_by_key(|(index, _)| *index);
        counts.into_iter().map(|(_, count)| count).collect()
    });
    let mut manifest = String::new();
    for (shard, count) in plan.shards.iter().zip(counts) {
        manifest.push_str(&format!("{}\t{}\n", shard.file, count?));
    }
    let path = dir.join("manifest.tsv");
    let mut file = fs::File::create(&path)
        .map_err(|error| format!("cannot create {}: {error}", path.display()))?;
    file.write_all(manifest.as_bytes())
        .map_err(|error| format!("cannot write {}: {error}", path.display()))
}

fn write_shard(shard: &ShardPlan, dir: &Path) -> Result<usize, String> {
    let model = benchmarks::benchmark_scaled(shard.row, shard.events)
        .ok_or_else(|| format!("unknown Table 1 row `{}`", shard.row))?;
    let path = dir.join(&shard.file);
    rapid_gen::emit::write_trace_file(&model.trace, &path)
        .map_err(|error| format!("cannot write {}: {error}", path.display()))?;
    Ok(model.trace.len())
}

/// Reads the event counts the generator recorded, in plan order.
pub fn read_manifest(plan: &Plan, dir: &Path) -> Result<Vec<usize>, String> {
    let path = dir.join("manifest.tsv");
    let text = fs::read_to_string(&path)
        .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
    let events: Vec<usize> = text
        .lines()
        .zip(&plan.shards)
        .map(|(line, shard)| match line.split_once('\t') {
            Some((file, count)) if file == shard.file => count.parse().ok(),
            _ => None,
        })
        .collect::<Option<_>>()
        .ok_or_else(|| format!("{} does not match the plan", path.display()))?;
    if events.len() != plan.shards.len() {
        return Err(format!(
            "{} lists {} of {} files",
            path.display(),
            events.len(),
            plan.shards.len()
        ));
    }
    Ok(events)
}
