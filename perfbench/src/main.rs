//! Sample runner of the csalt simulator benchmark.
//!
//! `perfbench/run.py` is the benchmark's command; it builds this binary
//! and runs every sample in a fresh process with a fresh private
//! `CSALT_CACHE_DIR`, so no sample inherits a checkpoint, a staged
//! trace or a cached result from another. Modes, each printing one JSON
//! object on its last stdout line:
//!
//! * `sample --workload W --seed N` — the untraced end-to-end sample:
//!   wall and CPU time of the set-up and of each of the workload's
//!   simulations, the times of the reference passes (`reference.rs`)
//!   between them, peak RSS, the checkpoint / result-cache counters the
//!   isolation asserts on, and a digest of every `SimResult`.
//! * `layers --workload W --seed N --trace-out PATH` — the traced run:
//!   the per-layer ledger (see `layers.rs`), with a Chrome trace of the
//!   benchmark's own spans written to `PATH` and validated.
//! * `pin --workload W --seed N` — digests of every distinct config run
//!   straight through (no checkpoint restore), for `pins.json`.

mod layers;
mod plan;
mod reference;

use csalt_core::MemoryHierarchy;
use csalt_ptw::HugePagePolicy;
use csalt_sim::{run, SimConfig, SimResult, Sweep, SweepOptions};
use csalt_types::ckpt::fnv1a_bytes;
use csalt_types::TranslationScheme;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    short: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode (sample | layers | pin)")?;
    let (mut workload, mut seed, mut trace_out, mut short) = (None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--short" {
            short = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !plan::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        mode,
        workload,
        seed: seed.ok_or("missing --seed")?,
        short,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("csalt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let jobs = plan::jobs(&args.workload, args.seed, args.short);
    let out = match args.mode.as_str() {
        "sample" => sample(&args.workload, args.seed, &jobs),
        "layers" => match &args.trace_out {
            Some(path) => layers::traced(&args.workload, args.seed, &jobs, path),
            None => Err("layers needs --trace-out".to_owned()),
        },
        "pin" => Ok(pin(&args.workload, args.seed, jobs)),
        other => Err(format!("unknown mode {other}")),
    };
    match out {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("csalt-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// 16 hex digits of FNV-1a over the result's canonical JSON: any change
/// to any simulated statistic moves it.
pub fn digest(result: &SimResult) -> String {
    format!(
        "{:016x}",
        fnv1a_bytes(csalt_sim::sweep::canonical_json(result).as_bytes())
    )
}

/// A finite float as JSON (non-finite values become `null`).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:e}")
    } else {
        "null".to_owned()
    }
}

/// Renders `(key, already-rendered JSON value)` pairs as an object.
pub fn object<K: AsRef<str>>(fields: &[(K, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", k.as_ref()))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What a run does before its first simulated access, timed from
/// outside: the engine fingerprint (git calls), the first config's
/// generator matrix and memory hierarchy, and for the suite the sweep
/// itself. Returns the sweep, if any.
fn set_up(workload: &str, first: &SimConfig) -> Result<Option<Sweep>, String> {
    black_box(csalt_sim::sweep::engine_fingerprint());
    black_box(csalt_sim::build_threads(first));
    let hier = MemoryHierarchy::try_new(
        &first.system,
        first.scheme,
        first.virtualized,
        HugePagePolicy {
            fraction_2m: first.huge_fraction,
        },
        first.profiler_interval,
    )
    .map_err(|e| format!("invalid benchmark config: {e}"))?;
    black_box(hier);
    (workload == "suite_cold")
        .then(|| {
            let dir = std::env::var_os("CSALT_CACHE_DIR")
                .ok_or("suite_cold needs CSALT_CACHE_DIR (a fresh directory)")?;
            Ok::<_, String>(Sweep::new(SweepOptions {
                cache_dir: Some(PathBuf::from(dir)),
                jobs: Some(plan::SWEEP_WORKERS),
            }))
        })
        .transpose()
}

/// Simulated IPC of csalt-cd over pom-tlb, as a geomean over the
/// Figure-7 grids among `results` (one ratio per stream pairing).
fn ipc_cd_over_pom(jobs: &[plan::Job], results: &[SimResult]) -> f64 {
    let grid = || jobs.iter().zip(results).filter(|(j, _)| j.grid);
    let ratios: Vec<f64> = grid()
        .filter(|(j, _)| j.cfg.scheme == TranslationScheme::CsaltCd)
        .filter_map(|(cd_job, cd)| {
            let (_, pom) = grid().find(|(j, _)| {
                j.cfg.scheme == TranslationScheme::PomTlb && j.cfg.workload == cd_job.cfg.workload
            })?;
            Some(cd.ipc() / pom.ipc())
        })
        .collect();
    let n = ratios.len() as f64;
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / n).exp()
}

/// User + system CPU seconds this process and its waited-for children
/// have used so far (`/proc/self/stat`, clock ticks of 10 ms).
fn cpu_now() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime is field 14.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<u64>() as f64 / 100.0
}

/// Runs `f`, returning its result, wall seconds and CPU seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (c, t) = (cpu_now(), Instant::now());
    let out = f();
    (out, t.elapsed().as_secs_f64(), cpu_now() - c)
}

/// Formats seconds as a JSON array.
fn secs(xs: &[f64]) -> String {
    format!(
        "[{}]",
        xs.iter().map(|&x| num(x)).collect::<Vec<_>>().join(",")
    )
}

fn sample(workload: &str, seed: u64, jobs: &[plan::Job]) -> Result<String, String> {
    // Reference passes bracket the set-up and every simulation (each of
    // the suite's batches counts as one), so `run.py` can express each
    // time in units of the host's speed at that moment.
    let mut reference = reference::Reference::new();
    let mut ref_s = vec![reference.time()];
    let (sweep, setup_s, setup_cpu_s) = timed(|| set_up(workload, &jobs[0].cfg));
    let sweep = sweep?;
    ref_s.push(reference.time());
    let ckpt_before = csalt_sim::checkpoint::stats();
    let mut restored_runs = 0u64;
    // Wall and CPU seconds of each single run (`run`) or suite batch.
    let (mut job_s, mut job_cpu_s) = (Vec::new(), Vec::new());
    let mut simulate = |f: &dyn Fn() -> Vec<SimResult>| {
        let (r, wall, cpu) = timed(f);
        job_s.push(wall);
        job_cpu_s.push(cpu);
        ref_s.push(reference.time());
        r
    };
    let results: Vec<SimResult> = match &sweep {
        Some(sweep) => run_suite(sweep, jobs, &mut simulate),
        None => jobs
            .iter()
            .flat_map(|j| {
                let r = simulate(&|| vec![run(&j.cfg)]);
                restored_runs += u64::from(csalt_sim::checkpoint::last_run_restored());
                r
            })
            .collect(),
    };
    let ckpt = csalt_sim::checkpoint::stats();

    let accesses: u64 = jobs
        .iter()
        .map(|j| plan::represented_accesses(&j.cfg))
        .sum();
    let ipc_ratio = ipc_cd_over_pom(jobs, &results);
    let sweep_stats = sweep.as_ref().map(Sweep::stats).unwrap_or_default();
    let restored = if sweep.is_some() {
        sweep_stats.restored
    } else {
        restored_runs
    };
    Ok(object(&[
        ("workload", format!("\"{workload}\"")),
        ("seed", seed.to_string()),
        ("setup_s", num(setup_s)),
        ("setup_cpu_s", num(setup_cpu_s)),
        ("job_s", secs(&job_s)),
        ("job_cpu_s", secs(&job_cpu_s)),
        ("ref_s", secs(&ref_s)),
        ("accesses", accesses.to_string()),
        ("restored", restored.to_string()),
        ("result_cache_hits", sweep_stats.cache_hits.to_string()),
        ("persisted_loaded", sweep_stats.persisted_loaded.to_string()),
        (
            "ckpt_restores",
            (ckpt.restores - ckpt_before.restores).to_string(),
        ),
        (
            "ckpt_fallbacks",
            (ckpt.fallbacks - ckpt_before.fallbacks).to_string(),
        ),
        ("ipc_cd_over_pom", num(ipc_ratio)),
        (
            "peak_rss_mb",
            num(peak_rss_mb() - reference::Reference::resident_mb()),
        ),
        (
            "engine_fingerprint",
            format!("\"{}\"", csalt_sim::sweep::engine_fingerprint()),
        ),
        ("digests", digests(jobs, &results)),
    ]))
}

/// Runs `suite_cold`'s jobs through `sweep` in the batches of
/// `plan::batches`, each through `each`, and returns the results in job
/// order.
pub fn run_suite(
    sweep: &Sweep,
    jobs: &[plan::Job],
    mut each: impl FnMut(&dyn Fn() -> Vec<SimResult>) -> Vec<SimResult>,
) -> Vec<SimResult> {
    let mut out = vec![None; jobs.len()];
    for group in plan::batches(jobs) {
        let results =
            each(&|| sweep.run_batch(group.iter().map(|&i| jobs[i].cfg.clone()).collect()));
        for (&i, r) in group.iter().zip(results) {
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every job is in one batch"))
        .collect()
}

/// `[[label, digest], ...]` for every distinct label among `jobs`.
pub fn digests(jobs: &[plan::Job], results: &[SimResult]) -> String {
    let by_label: BTreeMap<&str, String> = jobs
        .iter()
        .zip(results)
        .map(|(j, r)| (j.label.as_str(), digest(r)))
        .collect();
    let pairs: Vec<String> = by_label
        .iter()
        .map(|(l, d)| format!("[\"{l}\",\"{d}\"]"))
        .collect();
    format!("[{}]", pairs.join(","))
}

/// Runs every distinct config of the workload straight through, each
/// with its own fresh cache directory under `CSALT_CACHE_DIR`, so no
/// run can restore a checkpoint: the reference the sampled (and, for
/// the suite, restored) results are pinned against.
fn pin(workload: &str, seed: u64, jobs: Vec<plan::Job>) -> String {
    let root = std::env::var_os("CSALT_CACHE_DIR").map(PathBuf::from);
    let mut pinned: Vec<plan::Job> = Vec::new();
    let mut results = Vec::new();
    for (i, j) in jobs.into_iter().enumerate() {
        if pinned.iter().any(|p| p.label == j.label) {
            continue;
        }
        if let Some(root) = &root {
            std::env::set_var("CSALT_CACHE_DIR", root.join(format!("pin-{i}")));
        }
        let r = run(&j.cfg);
        assert!(
            !csalt_sim::checkpoint::last_run_restored(),
            "a pinned run restored a checkpoint"
        );
        pinned.push(j);
        results.push(r);
    }
    object(&[
        ("workload", format!("\"{workload}\"")),
        ("seed", seed.to_string()),
        ("digests", digests(&pinned, &results)),
    ])
}
