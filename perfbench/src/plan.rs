//! The benchmark's workloads as simulator configurations.
//!
//! Every workload runs the Figure-7 machine: `SimConfig::new` with the
//! experiment harness's scaled quantum and epoch, virtualized, 8 cores,
//! 2 VMs per core. Only the access stream, the warmup mode and the
//! length differ. `README.md` records why each workload was chosen.

use csalt_sim::experiments::{scaled, FIG7_SCHEMES};
use csalt_sim::{SimConfig, WarmupMode};
use csalt_types::TranslationScheme;
use csalt_workloads::{BenchKind, WorkloadSpec};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "gups_timed",
    "stream_timed",
    "gups_functional",
    "suite_cold",
];

/// Measured program accesses per core of one single-run config; the
/// warmup is as long again, as in `experiments::default_config`.
const ACCESSES_PER_CORE: u64 = 40_000;

/// `gups_functional` runs a longer stream through SMARTS sampling:
/// `SAMPLE_WINDOWS` timed windows of `WINDOW_ACCESSES` per core, the
/// rest of the stream and the whole warmup fast-forwarded functionally.
const FUNCTIONAL_ACCESSES_PER_CORE: u64 = 80_000;
const SAMPLE_WINDOWS: u64 = 4;
const WINDOW_ACCESSES: u64 = 5_000;

/// Every length is divided by this in `--short` samples (the
/// benchmark's self-test runs them against their own pinned digests).
const SHORT_DIVISOR: u64 = 10;

/// Workers of `suite_cold`'s sweep. One: on the 2-thread host the
/// benchmark was tuned on, two workers made the batch's wall and CPU
/// time vary by ±10-15 % from sample to sample (against ±6 % for one),
/// with no relation to the host's measured speed, so no run length
/// settled it. One worker still goes through the sweep's scheduling,
/// dedup, checkpoint leader/follower waves and the shared trace store.
pub const SWEEP_WORKERS: usize = 1;

/// The repository's default `SimConfig::seed`; benchmark seed `n`
/// simulates `BASE_SEED + n`, so seed 0 is the harness default stream.
const BASE_SEED: u64 = 0xC5A1_7000;

/// One simulation of a workload, with a stable label naming it in
/// digests and ledgers.
#[derive(Clone)]
pub struct Job {
    pub label: String,
    pub cfg: SimConfig,
    /// Part of a Figure-7 grid (one run per scheme of one stream), as
    /// opposed to a re-submission or a measured-phase variant.
    pub grid: bool,
}

fn graph500_gups() -> WorkloadSpec {
    WorkloadSpec::pair("graph500_gups", BenchKind::Graph500, BenchKind::Gups)
}

fn streamcluster() -> WorkloadSpec {
    WorkloadSpec::homogeneous("streamcluster", BenchKind::StreamCluster)
}

/// The Figure-7 machine running `spec` under `scheme`.
fn fig7(spec: WorkloadSpec, scheme: TranslationScheme, len: Len) -> SimConfig {
    let mut cfg = SimConfig::new(spec, scheme);
    cfg.scale = scaled::SCALE;
    cfg.system.cs_interval_cycles = scaled::QUANTUM_10MS;
    cfg.system.epoch_accesses = scaled::EPOCH_256K;
    cfg.accesses_per_core = len.accesses;
    cfg.warmup_accesses_per_core = len.accesses;
    cfg.seed = BASE_SEED.wrapping_add(len.seed);
    cfg
}

/// A workload's seed and per-core lengths.
#[derive(Clone, Copy)]
struct Len {
    seed: u64,
    accesses: u64,
}

fn job(cfg: SimConfig, variant: &str) -> Job {
    let mut label = format!("{}/{}", cfg.workload.name, cfg.scheme.label());
    if !variant.is_empty() {
        label.push('/');
        label.push_str(variant);
    }
    Job {
        label,
        cfg,
        grid: variant.is_empty(),
    }
}

fn fig7_grid(spec: &WorkloadSpec, len: Len) -> Vec<Job> {
    FIG7_SCHEMES
        .iter()
        .map(|&s| job(fig7(spec.clone(), s, len), ""))
        .collect()
}

/// The jobs a workload submits, in submission order. Single-run
/// workloads run them one after another with `csalt_sim::run`;
/// `suite_cold` submits them through one `Sweep`, in the batches of
/// [`batches`], duplicates included.
///
/// # Panics
///
/// Panics on a workload name outside [`WORKLOADS`].
pub fn jobs(workload: &str, seed: u64, short: bool) -> Vec<Job> {
    let divisor = if short { SHORT_DIVISOR } else { 1 };
    let len = Len {
        seed,
        accesses: ACCESSES_PER_CORE / divisor,
    };
    match workload {
        "gups_timed" => fig7_grid(&graph500_gups(), len),
        "stream_timed" => fig7_grid(&streamcluster(), len),
        "gups_functional" => fig7_grid(&graph500_gups(), len)
            .into_iter()
            .map(|mut j| {
                j.cfg.accesses_per_core = FUNCTIONAL_ACCESSES_PER_CORE / divisor;
                j.cfg.warmup_accesses_per_core = FUNCTIONAL_ACCESSES_PER_CORE / divisor;
                j.cfg.warmup_mode = WarmupMode::Functional;
                j.cfg.sample_windows = SAMPLE_WINDOWS;
                j.cfg.window_accesses = WINDOW_ACCESSES / divisor;
                j.label.push_str("/functional");
                j
            })
            .collect(),
        "suite_cold" => suite(len),
        other => panic!("unknown workload {other}"),
    }
}

/// A figure-suite batch in the shape of `crates/bench/benches/sweep.rs`,
/// on the streamcluster stream: its fig07 grid (the configs
/// `stream_timed` runs, so their digests must agree), fig08/fig13-style
/// re-submissions of its baselines (folded by the sweep's dedup), and a
/// half-length variant of every grid config that shares its warmup
/// prefix (restored from its checkpoint). One stream only: with the
/// graph500_gups stream as well, a sample took 4-8 s with one worker,
/// and too few fitted in a run for their median to settle.
fn suite(len: Len) -> Vec<Job> {
    let w = streamcluster();
    let mut jobs = fig7_grid(&w, len);
    for s in [
        TranslationScheme::Conventional,
        TranslationScheme::PomTlb,
        TranslationScheme::PomTlb,
        TranslationScheme::CsaltCd,
    ] {
        jobs.push(Job {
            grid: false,
            ..job(fig7(w.clone(), s, len), "")
        });
    }
    for s in FIG7_SCHEMES {
        let mut half = fig7(w.clone(), s, len);
        half.accesses_per_core = len.accesses / 2;
        jobs.push(job(half, "half"));
    }
    jobs
}

/// How `suite_cold` submits its jobs: one `Sweep::run_batch` per
/// scheme, in order of first appearance, each holding that scheme's
/// grid config, its re-submissions and its half-length variant, so
/// every batch still folds duplicates and restores a checkpoint. Short
/// batches let reference passes bracket each one. Returns the job
/// indices of each batch.
pub fn batches(jobs: &[Job]) -> Vec<Vec<usize>> {
    let mut out: Vec<(TranslationScheme, Vec<usize>)> = Vec::new();
    for (i, j) in jobs.iter().enumerate() {
        match out.iter_mut().find(|(s, _)| *s == j.cfg.scheme) {
            Some((_, group)) => group.push(i),
            None => out.push((j.cfg.scheme, vec![i])),
        }
    }
    out.into_iter().map(|(_, group)| group).collect()
}

/// Program accesses a config's result represents: warmup plus measured
/// phase, every core (a restored warmup counts: the result stands for
/// it).
pub fn represented_accesses(cfg: &SimConfig) -> u64 {
    (cfg.warmup_accesses_per_core + cfg.accesses_per_core) * u64::from(cfg.system.cores)
}
