#!/usr/bin/env python3
"""The csalt simulator benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the sample runner (`perfbench/Cargo.toml`, its own package) from
the checkout's sources, then:

* `--trace 0` runs cold-isolated samples of workload W for about S
  seconds. Every sample is a fresh process with a fresh private
  `CSALT_CACHE_DIR` and no other `CSALT_*` variable, so it measures the
  engine's default execution path and inherits nothing from another
  sample. Passes of a fixed reference kernel bracket each timed phase
  of a sample, and every time is rescaled to the host speed they
  measure; `end_to_end` says how the samples make each metric.
* `--trace 1` runs the traced sample once: the outside-in per-layer
  ledger, a Chrome trace of the benchmark's spans (validated), and every
  per-layer metric.

Both check every simulated result against the digests pinned in
`pins.json` and print, as the last stdout line, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. The line before it
is the provenance record (host, revision, engine fingerprint, seed,
sample count, median and quartiles per metric).

    python3 perfbench/run.py --pin

re-records `pins.json` from straight-through runs (after a deliberate
change to simulated results). See `perfbench/README.md`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS = BENCH_DIR / "pins.json"
SPEC = ROOT / "BENCHMARK.json"

# A run takes at least this many samples, even past --seconds.
MIN_SAMPLES = 3
# A sample process that takes longer than this is killed and the run
# fails (the whole run must end within 180 s).
SAMPLE_TIMEOUT_S = 120
# Seconds one pass of the reference kernel takes on the host the
# timings are rescaled to (`end_to_end`). On the shared 2-thread Xeon VM
# the benchmark was tuned on, a pass took 0.075-0.18 s as the host's
# speed drifted.
REF_PASS_S = 0.1
# Input seeds `--pin` records: benchmark seed n runs input seed n % PIN_SEEDS.
PIN_SEEDS = 32


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()


def build():
    """Builds the sample runner and returns its path."""
    if not (ROOT / "crates" / "sim" / "Cargo.toml").is_file():
        raise SystemExit("perfbench: the simulator sources (crates/) are missing; "
                         "run the benchmark from a checkout of the repository")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: build failed ({done.returncode})")
    return target_dir() / "release" / "csalt-perfbench"


# Keeps git (the engine fingerprint, the provenance record) inside the
# checkout: no search above it, no opportunistic index writes.
GIT_ENV = {"GIT_CEILING_DIRECTORIES": str(ROOT.parent), "GIT_OPTIONAL_LOCKS": "0"}


def sample_env(cache_dir):
    """The environment of one sample: no CSALT_* knob but a fresh cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CSALT_")}
    env.update(GIT_ENV)
    env["CSALT_CACHE_DIR"] = os.path.relpath(cache_dir, ROOT)
    return env


def fresh_dir(name):
    """A fresh, empty sample cache directory.

    The simulator's peak resident set moves by up to 16 % with the
    length of this path (it shifts the allocator's layout), so the name
    has a fixed width and samples see it relative to the checkout: every
    sample of every run, in any checkout, gets a path of one length.
    """
    d = target_dir() / "perfbench-samples" / f"{os.getpid() % 10**7:07d}-{name}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def spawn(binary, args, cache):
    """Starts the sample runner in `cache`, from the checkout's root."""
    return subprocess.Popen([os.path.relpath(binary, ROOT), *args], stdout=subprocess.PIPE,
                            env=sample_env(cache), cwd=ROOT, text=True)


def run_child(binary, args, name):
    """Runs one sample process in a fresh private cache directory.

    Returns (stdout lines, JSON of the last line). The cache directory is
    deleted afterwards.
    """
    cache = fresh_dir(name)
    try:
        proc = spawn(binary, args, cache)
        try:
            out, _ = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"perfbench: {' '.join(args)} timed out")
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(args)} exited {proc.returncode}")
    lines = out.splitlines()
    return lines, json.loads(lines[-1])


def load_pins():
    with open(PINS) as f:
        return json.load(f)


def pinned_for(pins, seed, short=False):
    """(input seed, {label: digest}) the benchmark seed maps to."""
    k = pins["seeds"]
    key = "short" if short else "full"
    idx = seed % k
    return idx, pins[key][str(idx)]


def check_digests(pairs, pinned):
    """Counts (checked, mismatched) over `[label, digest]` pairs."""
    failed = 0
    for label, digest in pairs:
        if pinned.get(label) != digest:
            log(f"digest mismatch: {label} {digest} (pinned {pinned.get(label)})")
            failed += 1
    return len(pairs), failed


def isolation_errors(workload, s):
    """Violations of the cold-isolation rules by one untraced sample."""
    errs = []
    if s["persisted_loaded"] or s["result_cache_hits"]:
        errs.append("a sample read the result cache")
    if s["ckpt_fallbacks"]:
        errs.append("a checkpoint image was rejected")
    if workload == "suite_cold":
        if s["restored"] == 0:
            errs.append("suite_cold restored no checkpoint")
    elif s["restored"] or s["ckpt_restores"]:
        errs.append(f"{workload} restored a checkpoint")
    return errs


def sample_args(workload, seed, short):
    return ["sample", "--workload", workload, "--seed", str(seed)] + (["--short"] if short else [])


def run_samples(binary, workload, seed, seconds, short=False):
    """Samples `workload` until `seconds` have passed (at least
    MIN_SAMPLES). Returns the per-sample records."""
    samples = []
    start = time.monotonic()
    while True:
        _, rec = run_child(binary, sample_args(workload, seed, short), f"s{len(samples):04d}")
        samples.append(rec)
        elapsed = time.monotonic() - start
        mean = elapsed / len(samples)
        if len(samples) >= MIN_SAMPLES and elapsed + mean > seconds:
            return samples


def spread(values):
    vals = sorted(values)
    if len(vals) < 2:
        return {"median": vals[0], "q1": vals[0], "q3": vals[0]}
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3}


def at_reference_speed(s, ref_s):
    """Host seconds `s`, measured while a reference pass took `ref_s`,
    rescaled to a host whose pass takes REF_PASS_S."""
    return s * REF_PASS_S / ref_s


def rescaled(s, key):
    """The sample's set-up followed by its simulations (each of the
    suite's batches counts as one), as seconds `key` rescaled to
    reference speed by the mean of the reference passes just before and
    after each."""
    phases = [s[f"setup_{key}"]] + s[f"job_{key}"]
    refs = s["ref_s"]
    return [at_reference_speed(t, (refs[i] + refs[i + 1]) / 2) for i, t in enumerate(phases)]


def end_to_end(spec, samples):
    """Returns (reported value, per-sample values) of every end-to-end
    metric.

    A shared host changes speed by tens of percent within minutes, so
    every time is first rescaled to reference speed by the reference
    passes that bracket it in its sample (`src/reference.rs`).
    `sim_acc_per_s` divides the accesses by the sum, across the
    workload's simulations (each of the suite's batches counts as one), of each
    simulation's mean rescaled wall time over the samples; `cpu_s` is
    the same sum over CPU times, set-up included. Means, because the
    host's second-to-second jitter left a median of ten samples twice as
    spread. `setup_s` is the median set-up time, rescaled by the run's
    median reference pass. `peak_rss_mb` and `ipc_cd_over_pom` are
    medians over the samples.
    """
    wall = [rescaled(s, "s") for s in samples]
    cpu = [rescaled(s, "cpu_s") for s in samples]
    # The set-up takes a tenth of a reference pass, so the passes next to
    # it say little about the host during it; the run's median pass does.
    run_ref = statistics.median(r for s in samples for r in s["ref_s"])

    def mean_sum(per_sample, first=0):
        return sum(statistics.mean(col) for col in list(zip(*per_sample))[first:])

    accesses = samples[0]["accesses"]
    per = {
        "sim_acc_per_s": (accesses / mean_sum(wall, 1),
                          [accesses / sum(w[1:]) for w in wall]),
        "cpu_s": (mean_sum(cpu), [sum(c) for c in cpu]),
        "setup_s": (None, [at_reference_speed(s["setup_s"], run_ref) for s in samples]),
        "peak_rss_mb": (None, [s["peak_rss_mb"] for s in samples]),
        "ipc_cd_over_pom": (None, [s["ipc_cd_over_pom"] for s in samples]),
    }
    assert set(per) == {m["name"] for m in spec["end_to_end"]}, "BENCHMARK.json drifted"
    return {name: (statistics.median(vals) if value is None else value, vals)
            for name, (value, vals) in per.items()}


def git(*args):
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=10, check=False,
                             env=dict(os.environ, **GIT_ENV))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(workload, seed, input_seed, trace, n, fingerprint, stats):
    status = git("status", "--porcelain")
    return {
        "record": "perfbench",
        "workload": workload,
        "seed": seed,
        "input_seed": input_seed,
        "trace": trace,
        "samples": n,
        "host_threads": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_rev": git("rev-parse", "--short", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "engine_fingerprint": fingerprint,
        "metrics": stats,
    }


def untraced(binary, spec, workload, seed, seconds, short=False):
    pins = load_pins()
    input_seed, pinned = pinned_for(pins, seed, short)
    samples = run_samples(binary, workload, input_seed, seconds, short)
    attempted = failed = 0
    errors = []
    for s in samples:
        n, bad = check_digests(s["digests"], pinned)
        attempted += n
        failed += bad
        errors += isolation_errors(workload, s)
    if len({s["ipc_cd_over_pom"] for s in samples}) != 1:
        errors.append("simulated IPC differs between samples")
    for e in errors:
        log(e)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per = end_to_end(spec, samples)
    stats = {name: dict(spread(vals), reported=value, unit=units[name])
             for name, (value, vals) in per.items()}
    metrics = {name: {"value": value, "unit": units[name]} for name, (value, _) in per.items()}
    prov = provenance(workload, seed, input_seed, 0, len(samples),
                      samples[0]["engine_fingerprint"], stats)
    prov["ref_pass_s"] = spread([x for s in samples for x in s["ref_s"]])
    return prov, {"correct": failed == 0 and not errors, "attempted": attempted,
                  "failed": failed, "metrics": metrics}


def traced(binary, spec, workload, seed, short=False):
    pins = load_pins()
    input_seed, pinned = pinned_for(pins, seed, short)
    trace_path = target_dir() / f"perfbench-trace-{workload}-{seed}.json"
    args = ["layers", "--workload", workload, "--seed", str(input_seed),
            "--trace-out", str(trace_path)] + (["--short"] if short else [])
    lines, rec = run_child(binary, args, "trace")
    for line in lines[:-1]:
        print(line)
    pairs = [p for group in rec["digests"] for p in group]
    attempted, failed = check_digests(pairs, pinned)
    names = [m["name"] for m in spec["per_layer"]]
    got = rec["metrics"]
    missing = [n for n in names if n not in got]
    for n in missing:
        log(f"traced run did not report {n}")
    metrics = {n: got[n] for n in names if n in got}
    stats = {n: {"median": m["value"], "q1": m["value"], "q3": m["value"], "unit": m["unit"]}
             for n, m in metrics.items()}
    log(f"trace written to {trace_path} ({rec['trace_spans']} spans)")
    prov = provenance(workload, seed, input_seed, 1, 1, None, stats)
    return prov, {"correct": failed == 0 and not missing, "attempted": attempted,
                  "failed": failed, "metrics": metrics}


def pin(binary, seeds, workloads):
    """Re-records pins.json: every distinct config of every workload,
    run straight through, for input seeds 0..seeds-1 (full length) and
    seed 0 (short length). Two pin processes run at a time."""
    jobs = []
    for short in (False, True):
        for s in range(1 if short else seeds):
            for w in workloads:
                args = ["pin", "--workload", w, "--seed", str(s)] + (["--short"] if short else [])
                jobs.append((short, s, args))
    table = {"full": {}, "short": {}}
    running = []

    def reap(entry):
        short, s, args, proc, cache = entry
        out, _ = proc.communicate()
        shutil.rmtree(cache, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {' '.join(args)} exited {proc.returncode}")
        section = table["short" if short else "full"].setdefault(str(s), {})
        for label, digest in json.loads(out.splitlines()[-1])["digests"]:
            if section.get(label, digest) != digest:
                raise SystemExit(f"perfbench: {label} pinned two digests")
            section[label] = digest

    try:
        for i, (short, s, args) in enumerate(jobs):
            if len(running) == 2:
                reap(running.pop(0))
            cache = fresh_dir(f"p{i:04d}")
            proc = spawn(binary, args, cache)
            running.append((short, s, args, proc, cache))
            log(f"pinning {' '.join(args[1:])}")
        while running:
            reap(running.pop(0))
    finally:
        for _, _, _, proc, cache in running:
            proc.kill()
            proc.wait()
            shutil.rmtree(cache, ignore_errors=True)
    doc = {"seeds": seeds, "full": table["full"], "short": table["short"]}
    with open(PINS, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    spec = json.loads(SPEC.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--pin", action="store_true", help="re-record pins.json")
    a = ap.parse_args()
    if a.pin:
        pin(build(), PIN_SEEDS, workloads)
        return
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    binary = build()
    if a.trace:
        prov, result = traced(binary, spec, a.workload, a.seed)
    else:
        prov, result = untraced(binary, spec, a.workload, a.seed, a.seconds)
    print(json.dumps(prov))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
