//! The traced run: an outside-in per-layer ledger.
//!
//! Nothing inside the engine is instrumented for this. The benchmark
//! times calls into each layer's public functions from its own code,
//! records a span around each batch of calls, and reconciles the layer
//! costs against the untraced wall time of the same simulations:
//!
//! 1. *Untraced pass.* The ledger jobs run with plain `csalt_sim::run`,
//!    each in a fresh cache directory: the denominator (`sim.run_s`).
//!    `suite_cold` additionally runs its whole batch through a traced
//!    `Sweep` for the sweep and checkpoint counters.
//! 2. *Instrumented pass.* The same jobs through `run_instrumented`:
//!    the engine's L0 memo and repartition counts, and the tracing
//!    overhead against pass 1.
//! 3. *Layer probes.* Each layer's public entry point timed over a
//!    stream drawn from the workload's own generators (`build_threads`),
//!    giving host nanoseconds per operation.
//!
//! The ledger is Σ (operations × ns/op) over the layers; `sim.glue_frac`
//! is the share of the untraced run time it leaves unexplained. The
//! operation counts are the measured-phase counts of `SimResult`,
//! extrapolated to the whole stream each result represents (warmup and
//! fast-forwarded gaps run the same layers), except DRAM, which the
//! functional path never charges.

use crate::plan::{self, Job};
use crate::{num, object, peak_rss_mb};
use csalt_cache::Cache;
use csalt_core::{HierarchySnapshot, MemoryHierarchy};
use csalt_dram::DramModel;
use csalt_profiler::{choose_partition, StackDistanceProfiler, Weights};
use csalt_ptw::{FrameAllocator, GuestAddressSpace, HugePagePolicy, NestedWalker};
use csalt_sim::checkpoint::HierarchyCheckpoint;
use csalt_sim::{run, Instrumentation, SimConfig, SimResult, Sweep, SweepOptions, WarmupMode};
use csalt_telemetry::MemoryRecorder;
use csalt_tlb::{PomTlb, SramTlb};
use csalt_trace::timing::wall_micros;
use csalt_trace::{ArgValue, Domain, Phase, TraceBuffer, TraceSink};
use csalt_types::{
    Asid, ContextId, CoreId, EntryKind, LineAddr, MemAccess, PageSize, PhysAddr, PhysFrame,
    TranslationHint, TranslationScheme,
};
use csalt_workloads::TraceGenerator;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Accesses each layer probe drives. Large enough that every probe
/// runs for milliseconds, small enough that all probes of a workload
/// take a few seconds.
const PROBE_ACCESSES: usize = 200_000;

/// Tracks of the benchmark's own spans (the sweep's worker spans keep
/// their own track ids, 1 + worker).
const TRACK_RUNS: u32 = 100;
const TRACK_PROBES: u32 = 101;

/// Wall-clock spans recorded from the benchmark's code.
struct Spans {
    buf: TraceBuffer,
}

impl Spans {
    fn new() -> Self {
        let mut buf = TraceBuffer::new();
        buf.set_track_name(Domain::Wall, TRACK_RUNS, "benchmark: simulations");
        buf.set_track_name(Domain::Wall, TRACK_PROBES, "benchmark: layer probes");
        Self { buf }
    }

    /// Runs `f` inside a span named `name` on `track`, returning its
    /// result and its duration in seconds.
    fn time<T>(
        &mut self,
        track: u32,
        name: &'static str,
        args: Vec<(&'static str, ArgValue)>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        self.buf
            .begin_args(Domain::Wall, track, wall_micros(), name, args);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.buf.end(Domain::Wall, track, wall_micros(), name);
        (out, secs)
    }
}

/// Points the engine's cache directory at a fresh subdirectory of the
/// sample's private one, so a pass never restores what an earlier pass
/// of this process saved.
fn fresh_cache_dir(root: &Path, pass: &str) -> PathBuf {
    let dir = root.join(pass);
    std::env::set_var("CSALT_CACHE_DIR", &dir);
    dir
}

fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

// ---------------------------------------------------------------------
// Layer probes.
// ---------------------------------------------------------------------

/// One access of the probe stream, tagged with the core and VM context
/// whose generator produced it.
#[derive(Clone, Copy)]
struct StreamAccess {
    core: CoreId,
    ctx: ContextId,
    acc: MemAccess,
}

/// Host nanoseconds per operation of each layer, measured on one
/// workload pairing's stream.
#[derive(Default)]
struct Probe {
    next_ns: f64,
    hint_ns: f64,
    /// L1 (4 KiB) and L2 TLB geometries.
    sram_ns: [f64; 2],
    pom_ns: f64,
    walk_ns: f64,
    /// L1d, L2 and L3 geometries.
    cache_ns: [f64; 3],
    dram_ns: f64,
    msa_ns: f64,
    choose_ns: f64,
    access_ns: f64,
    functional_ns: f64,
    new_s: f64,
    encode_s: f64,
    decode_s: f64,
    ckpt_bytes: f64,
}

fn ns_per(secs: f64, ops: usize) -> f64 {
    secs * 1e9 / ops.max(1) as f64
}

fn new_hierarchy(cfg: &SimConfig) -> MemoryHierarchy {
    let mut hier = MemoryHierarchy::try_new(
        &cfg.system,
        cfg.scheme,
        cfg.virtualized,
        HugePagePolicy {
            fraction_2m: cfg.huge_fraction,
        },
        cfg.profiler_interval,
    )
    .expect("the benchmark's configs validate");
    for _ in 0..cfg.system.contexts_per_core {
        hier.add_context();
    }
    hier
}

/// Times every layer's public entry point over `PROBE_ACCESSES`
/// accesses drawn round-robin from `cfg`'s generator matrix. The
/// hierarchy-level probes use csalt-cd, the scheme that exercises every
/// layer (POM-TLB, partitioned caches, criticality weights).
fn probe(cfg: &SimConfig, spans: &mut Spans) -> Result<Probe, String> {
    let mut cfg = cfg.clone();
    cfg.scheme = TranslationScheme::CsaltCd;
    let sys = cfg.system.clone();
    let mut p = Probe::default();
    let n = PROBE_ACCESSES;
    let label = |s: &str| vec![("layer", ArgValue::from(s))];

    let mut threads = csalt_sim::build_threads(&cfg);
    let (stream, secs) = spans.time(TRACK_PROBES, "workloads", label("workloads"), || {
        let mut out = Vec::with_capacity(n);
        let (vms, cores) = (threads.len(), threads[0].len());
        for i in 0..n {
            let (vm, core) = ((i / cores) % vms, i % cores);
            out.push(StreamAccess {
                core: CoreId::new(core as u8),
                ctx: ContextId::new(vm as u32),
                acc: threads[vm][core].next_access(),
            });
        }
        out
    });
    p.next_ns = ns_per(secs, n);
    let asid = |s: &StreamAccess| Asid::new(s.ctx.raw() as u16 + 1);

    let (hints, secs) = spans.time(TRACK_PROBES, "types", label("types"), || {
        stream
            .iter()
            .map(|s| TranslationHint::compute(s.acc.vaddr, asid(s)))
            .collect::<Vec<_>>()
    });
    p.hint_ns = ns_per(secs, n);

    let frame = |s: &StreamAccess| PhysFrame::from_pfn(s.acc.vaddr.raw() >> 12, PageSize::Size4K);
    let page = |s: &StreamAccess| s.acc.vaddr.page(PageSize::Size4K);
    let mut sram = |geom| {
        let (stats, secs) = spans.time(TRACK_PROBES, "tlb.sram", label("tlb"), || {
            let mut tlb = SramTlb::new(geom);
            for (s, h) in stream.iter().zip(&hints) {
                if tlb.lookup_prepacked(h.packed_4k).is_none() {
                    tlb.insert(page(s), asid(s), frame(s));
                }
            }
            *tlb.stats()
        });
        black_box(stats);
        ns_per(secs, n)
    };
    p.sram_ns = [sram(sys.l1_tlb_4k), sram(sys.l2_tlb)];
    let ((), secs) = spans.time(TRACK_PROBES, "tlb.pom", label("tlb"), || {
        let mut pom = PomTlb::new(sys.pom_tlb);
        for (s, h) in stream.iter().zip(&hints) {
            if pom.lookup_prepacked(h.packed_4k).frame.is_none() {
                pom.insert(page(s), asid(s), frame(s));
            }
        }
        black_box(pom.stats());
    });
    p.pom_ns = ns_per(secs, n);

    let ((), secs) = spans.time(TRACK_PROBES, "ptw", label("ptw"), || {
        let mut host = FrameAllocator::new(0, 256 << 30);
        let mut spaces: Vec<GuestAddressSpace> = (0..sys.contexts_per_core)
            .map(|vm| {
                GuestAddressSpace::with_levels(
                    Asid::new(vm as u16 + 1),
                    1 << 40,
                    64 << 30,
                    HugePagePolicy::NONE,
                    &mut host,
                    sys.pt_levels,
                )
            })
            .collect();
        let mut walker = NestedWalker::with_levels(sys.psc, sys.pt_levels);
        let mut scratch = Vec::with_capacity(64);
        for s in &stream {
            scratch.clear();
            let space = &mut spaces[s.ctx.raw() as usize];
            black_box(walker.walk_into(space, s.acc.vaddr, &mut host, &mut scratch));
        }
    });
    p.walk_ns = ns_per(secs, n);

    let line = |s: &StreamAccess| s.acc.vaddr.line();
    let mut cache = |geom| {
        let ((), secs) = spans.time(TRACK_PROBES, "cache", label("cache"), || {
            let mut cache = Cache::from_geometry(geom, sys.replacement);
            for s in &stream {
                black_box(cache.access(line(s), EntryKind::Data, s.acc.ty.is_write()));
            }
        });
        ns_per(secs, n)
    };
    p.cache_ns = [cache(&sys.l1d), cache(&sys.l2), cache(&sys.l3)];

    let ((), secs) = spans.time(TRACK_PROBES, "dram", label("dram"), || {
        let mut dram = DramModel::new(sys.ddr, sys.core_ghz);
        for s in &stream {
            black_box(dram.access(PhysAddr::new(s.acc.vaddr.raw()), s.acc.ty.is_write()));
        }
    });
    p.dram_ns = ns_per(secs, n);

    let sets = sys.l3.sets();
    let (profiler, secs) = spans.time(TRACK_PROBES, "profiler.msa", label("profiler"), || {
        let mut prof = StackDistanceProfiler::new(sets, sys.l3.ways, cfg.profiler_interval);
        for (i, s) in stream.iter().enumerate() {
            let l: LineAddr = line(s);
            // One record in four profiles the TLB-entry stack, roughly
            // the TLB share of L3 traffic on the translation-heavy stream.
            let kind = if i % 4 == 0 {
                EntryKind::Tlb
            } else {
                EntryKind::Data
            };
            black_box(prof.record(l.line_number() % sets, l.line_number() / sets, kind));
        }
        prof
    });
    p.msa_ns = ns_per(secs, n);
    const CHOICES: usize = 2_000;
    let (data, tlb) = (
        profiler.counts(EntryKind::Data),
        profiler.counts(EntryKind::Tlb),
    );
    let ((), secs) = spans.time(TRACK_PROBES, "profiler.choose", label("profiler"), || {
        for _ in 0..CHOICES {
            black_box(choose_partition(black_box(&data), &tlb, 1, Weights::UNIT));
        }
    });
    p.choose_ns = ns_per(secs, CHOICES);

    let (hier, secs) = spans.time(TRACK_PROBES, "core.new", label("core"), || {
        new_hierarchy(&cfg)
    });
    p.new_s = secs;
    let (hier, secs) = spans.time(TRACK_PROBES, "core.access", label("core"), || {
        let mut hier = hier;
        for (s, h) in stream.iter().zip(&hints) {
            black_box(hier.access_hinted(s.core, s.ctx, s.acc, h));
        }
        hier
    });
    p.access_ns = ns_per(secs, n);
    let mut functional = new_hierarchy(&cfg);
    let ((), secs) = spans.time(TRACK_PROBES, "core.functional", label("core"), || {
        for (s, h) in stream.iter().zip(&hints) {
            functional.access_functional(s.core, s.ctx, s.acc, h);
        }
    });
    black_box(functional.snapshot());
    p.functional_ns = ns_per(secs, n);

    let meta = HierarchyCheckpoint {
        current_vms: vec![0; sys.cores as usize],
        pops: vec![vec![0; sys.cores as usize]; sys.contexts_per_core as usize],
    };
    let fp = csalt_sim::sweep::engine_fingerprint();
    let (image, secs) = spans.time(TRACK_PROBES, "sim.ckpt.encode", label("sim"), || {
        meta.encode(&hier, &fp)
    });
    p.encode_s = secs;
    p.ckpt_bytes = image.len() as f64;
    let mut fresh = new_hierarchy(&cfg);
    let (decoded, secs) = spans.time(TRACK_PROBES, "sim.ckpt.decode", label("sim"), || {
        HierarchyCheckpoint::decode_into(
            &image,
            &fp,
            &mut fresh,
            sys.cores as usize,
            sys.contexts_per_core as usize,
        )
    });
    p.decode_s = secs;
    decoded.map_err(|e| format!("checkpoint probe did not decode: {e}"))?;
    if fresh.snapshot() != hier.snapshot() {
        return Err("checkpoint round trip changed the hierarchy's counters".to_owned());
    }
    Ok(p)
}

// ---------------------------------------------------------------------
// Counts and the ledger.
// ---------------------------------------------------------------------

/// The ledger's layers, in the order the table prints them.
const LEDGER_LAYERS: [&str; 9] = [
    "workloads.next",
    "types.hint",
    "tlb.sram",
    "tlb.pom",
    "ptw.walk",
    "cache.access",
    "dram.access",
    "profiler.msa_record",
    "profiler.choose",
];

/// Operation counts summed over the ledger jobs, and per ledger layer
/// the estimated operations and the host seconds they cost.
#[derive(Default)]
struct Counts {
    accesses: u64,
    l1_tlb: (u64, u64),
    l2_tlb: (u64, u64),
    pom: (u64, u64),
    walks: u64,
    walk_cycles: u64,
    l1d: u64,
    l2: (u64, u64),
    l3: (u64, u64),
    l3_tlb: u64,
    dram: (u64, u64),
    l0_hits: u64,
    repartitions: u64,
    /// `(operations, seconds)` per entry of [`LEDGER_LAYERS`].
    ledger: [(f64, f64); 9],
}

fn lookups(h: csalt_types::HitMissStats) -> u64 {
    h.hits + h.misses
}

impl Counts {
    fn add(&mut self, job: &Job, r: &SimResult, l0_hits: u64, repartitions: u64, p: &Probe) {
        let s: &HierarchySnapshot = &r.snapshot;
        let cfg = &job.cfg;
        let represented = plan::represented_accesses(cfg);
        // Measured-phase op rates extrapolated to the whole stream.
        let scale = rate(represented, s.accesses.max(1));
        let timed_only = cfg.warmup_mode == WarmupMode::Functional || cfg.sample_windows > 0;
        let dram_scale = if timed_only { 1.0 } else { scale };
        let pom = s.pom.unwrap_or_default();
        let (l2, l3) = (s.l2.total(), s.l3.total());
        let dram = s.ddr.accesses + s.stacked.accesses;
        let partitioned = matches!(
            cfg.scheme,
            TranslationScheme::CsaltD | TranslationScheme::CsaltCd
        );
        let msa_records = if partitioned {
            lookups(l2) + lookups(l3)
        } else {
            0
        };

        self.accesses += represented;
        self.l1_tlb.0 += s.l1_tlb.hits;
        self.l1_tlb.1 += lookups(s.l1_tlb);
        self.l2_tlb.0 += s.l2_tlb.hits;
        self.l2_tlb.1 += lookups(s.l2_tlb);
        self.pom.0 += pom.hits;
        self.pom.1 += lookups(pom);
        self.walks += s.page_walks;
        self.walk_cycles += s.page_walk_cycles;
        self.l1d += lookups(s.l1d.total());
        self.l2.0 += l2.misses;
        self.l2.1 += lookups(l2);
        self.l3.0 += l3.misses;
        self.l3.1 += lookups(l3);
        self.l3_tlb += lookups(s.l3.tlb);
        self.dram.0 += s.ddr.row_hits + s.stacked.row_hits;
        self.dram.1 += dram;
        self.l0_hits += l0_hits;
        self.repartitions += repartitions;

        let ops = [
            (represented as f64, represented as f64 * p.next_ns),
            (represented as f64, represented as f64 * p.hint_ns),
            (
                scale * (lookups(s.l1_tlb) + lookups(s.l2_tlb)) as f64,
                scale
                    * (lookups(s.l1_tlb) as f64 * p.sram_ns[0]
                        + lookups(s.l2_tlb) as f64 * p.sram_ns[1]),
            ),
            (
                scale * lookups(pom) as f64,
                scale * lookups(pom) as f64 * p.pom_ns,
            ),
            (
                scale * s.page_walks as f64,
                scale * s.page_walks as f64 * p.walk_ns,
            ),
            (
                scale * (lookups(s.l1d.total()) + lookups(l2) + lookups(l3)) as f64,
                scale
                    * (lookups(s.l1d.total()) as f64 * p.cache_ns[0]
                        + lookups(l2) as f64 * p.cache_ns[1]
                        + lookups(l3) as f64 * p.cache_ns[2]),
            ),
            (
                dram_scale * dram as f64,
                dram_scale * dram as f64 * p.dram_ns,
            ),
            (
                scale * msa_records as f64,
                scale * msa_records as f64 * p.msa_ns,
            ),
            (repartitions as f64, repartitions as f64 * p.choose_ns),
        ];
        for (acc, (n, ns)) in self.ledger.iter_mut().zip(ops) {
            acc.0 += n;
            acc.1 += ns * 1e-9;
        }
    }

    /// Ledger ns per operation of entry `i` of [`LEDGER_LAYERS`]: the
    /// operation-weighted mean over the component geometries it covers.
    fn per_op(&self, i: usize) -> f64 {
        let (ops, secs) = self.ledger[i];
        if ops > 0.0 {
            secs * 1e9 / ops
        } else {
            0.0
        }
    }

    /// The share of `run_s` the ledger leaves unexplained.
    fn glue_frac(&self, run_s: f64) -> f64 {
        1.0 - self.ledger_s() / run_s
    }

    /// Host seconds the ledger explains.
    fn ledger_s(&self) -> f64 {
        self.ledger.iter().map(|(_, s)| s).sum()
    }

    /// Lookups of the components that carry an L0 memo (SRAM TLBs,
    /// POM-TLB, L2 and L3 caches) in the measured phase.
    fn memo_lookups(&self) -> u64 {
        self.l1_tlb.1 + self.l2_tlb.1 + self.pom.1 + self.l2.1 + self.l3.1
    }
}

/// Repartition events in an engine trace: one `repartition` instant per
/// partitioned cache per epoch boundary.
fn repartitions(trace: &TraceBuffer) -> u64 {
    trace
        .events()
        .iter()
        .filter(|e| e.phase == Phase::Mark && e.name == "repartition")
        .count() as u64
}

/// Copies the sweep's worker spans into the benchmark's trace and
/// returns `(worker idle share, longest job seconds)` over the batch
/// interval `[begin, end]` µs.
fn absorb_sweep_trace(
    spans: &mut Spans,
    sweep: &TraceBuffer,
    workers: usize,
    batch: (u64, u64),
) -> (f64, f64) {
    for (d, tid, name) in sweep.tracks() {
        spans.buf.set_track_name(*d, *tid, name.clone());
    }
    let mut open: Vec<(u32, u64)> = Vec::new();
    let (mut busy, mut longest) = (0u64, 0u64);
    for e in sweep.events() {
        match e.phase {
            Phase::Begin => {
                spans
                    .buf
                    .begin_args(e.domain, e.tid, e.ts, e.name, e.args.clone());
                if e.name == "simulate" {
                    open.push((e.tid, e.ts));
                }
            }
            Phase::End => {
                spans
                    .buf
                    .end_args(e.domain, e.tid, e.ts, e.name, e.args.clone());
                if e.name == "simulate" {
                    if let Some(i) = open.iter().rposition(|(t, _)| *t == e.tid) {
                        let (_, begin) = open.remove(i);
                        busy += e.ts - begin;
                        longest = longest.max(e.ts - begin);
                    }
                }
            }
            Phase::Mark => spans
                .buf
                .instant(e.domain, e.tid, e.ts, e.name, e.args.clone()),
        }
    }
    let capacity = (batch.1.saturating_sub(batch.0)) as f64 * workers as f64;
    let idle = if capacity > 0.0 {
        (1.0 - busy as f64 / capacity).max(0.0)
    } else {
        0.0
    };
    (idle, longest as f64 * 1e-6)
}

/// The jobs the ledger reconciles: every job of a single-run workload;
/// the Figure-7 grid (the straight-through leaders) of the suite.
fn ledger_jobs(workload: &str, jobs: &[Job]) -> Vec<Job> {
    let mut seen = std::collections::BTreeSet::new();
    jobs.iter()
        .filter(|j| workload != "suite_cold" || j.grid)
        .filter(|j| seen.insert(j.label.clone()))
        .cloned()
        .collect()
}

/// Runs the traced sample of `workload` and renders its per-layer
/// metrics as JSON. The ledger table goes to stdout ahead of the JSON
/// line; the Chrome trace of the benchmark's spans goes to `trace_out`.
///
/// # Errors
///
/// Returns an error when the cache directory is missing, a sanity
/// check fails, or the trace does not validate.
pub fn traced(workload: &str, seed: u64, jobs: &[Job], trace_out: &Path) -> Result<String, String> {
    let root = PathBuf::from(
        std::env::var_os("CSALT_CACHE_DIR")
            .ok_or("layers needs CSALT_CACHE_DIR (a fresh directory)")?,
    );
    let ledger = ledger_jobs(workload, jobs);
    let mut spans = Spans::new();
    let job_args = |j: &Job| vec![("config", ArgValue::from(j.label.as_str()))];

    // Pass 0 (suite only): the whole suite through a traced sweep.
    let ckpt0 = csalt_sim::checkpoint::stats();
    let store0 = csalt_sim::trace_store::stats();
    let mut sweep_metrics = None;
    // Digests of every result this run produced, for the output check.
    let mut checked: Vec<String> = Vec::new();
    if workload == "suite_cold" {
        let dir = fresh_cache_dir(&root, "suite");
        let sweep = Sweep::new(SweepOptions {
            cache_dir: Some(dir),
            jobs: Some(plan::SWEEP_WORKERS),
        });
        sweep.set_trace(TraceBuffer::new());
        let begin = wall_micros();
        let (batch, _) = spans.time(TRACK_RUNS, "sweep.run_batch", Vec::new(), || {
            crate::run_suite(&sweep, jobs, |f| f())
        });
        checked.push(crate::digests(jobs, &batch));
        let end = wall_micros();
        let trace = sweep.take_trace().ok_or("sweep trace vanished")?;
        let (idle, longest) =
            absorb_sweep_trace(&mut spans, &trace, plan::SWEEP_WORKERS, (begin, end));
        let st = sweep.stats();
        if st.restored == 0 {
            return Err("suite_cold restored no checkpoint".to_owned());
        }
        sweep_metrics = Some((
            st.simulated,
            st.deduped,
            rate(st.restored, st.simulated),
            idle,
            longest,
        ));
    }
    let ckpt1 = csalt_sim::checkpoint::stats();
    let store1 = csalt_sim::trace_store::stats();

    // Passes 1 and 2, interleaved job by job with alternating order so
    // neither pass alone pays the process's first-touch costs: plain
    // `run` (untraced, the ledger's denominator) and `run_instrumented`
    // (the engine's L0 memo and repartition counts). Each pass has its
    // own fresh cache directory, so neither restores the other's
    // checkpoints.
    let mut untraced_s = Vec::with_capacity(ledger.len());
    let mut results = Vec::with_capacity(ledger.len());
    let mut traced_s = 0.0;
    let mut ckpt_untraced = csalt_sim::checkpoint::CkptStats::default();
    for (i, j) in ledger.iter().enumerate() {
        for pass in [i % 2, 1 - i % 2] {
            if pass == 0 {
                fresh_cache_dir(&root, "untraced");
                let before = csalt_sim::checkpoint::stats();
                let (_, secs) = spans.time(TRACK_RUNS, "run", job_args(j), || run(&j.cfg));
                let after = csalt_sim::checkpoint::stats();
                ckpt_untraced.saves += after.saves - before.saves;
                ckpt_untraced.restores += after.restores - before.restores;
                untraced_s.push(secs);
            } else {
                fresh_cache_dir(&root, "instrumented");
                let mut recorder = MemoryRecorder::new();
                let mut engine_trace = TraceBuffer::new();
                let (r, secs) = spans.time(TRACK_RUNS, "run_instrumented", job_args(j), || {
                    let mut inst = Instrumentation {
                        recorder: &mut recorder,
                        sample_interval: 0,
                        progress_every_epochs: 0,
                        trace: Some(&mut engine_trace),
                    };
                    csalt_sim::run_instrumented(&j.cfg, &mut inst)
                });
                traced_s += secs;
                let l0 = recorder
                    .counter_value(csalt_telemetry::l0_metrics::HITS)
                    .unwrap_or(0);
                results.push((r, l0, repartitions(&engine_trace)));
            }
            if csalt_sim::checkpoint::last_run_restored() {
                return Err(format!("{} restored a checkpoint", j.label));
            }
        }
    }

    // Layer probes, once per workload pairing among the ledger jobs.
    let mut probes: Vec<(String, Probe)> = Vec::new();
    for j in &ledger {
        if !probes.iter().any(|(w, _)| *w == j.cfg.workload.name) {
            let p = probe(&j.cfg, &mut spans)?;
            probes.push((j.cfg.workload.name.clone(), p));
        }
    }
    let probe_of = |j: &Job| {
        &probes
            .iter()
            .find(|(w, _)| *w == j.cfg.workload.name)
            .expect("every pairing was probed")
            .1
    };

    let instrumented: Vec<SimResult> = results.iter().map(|(r, _, _)| r.clone()).collect();
    checked.push(crate::digests(&ledger, &instrumented));
    let mut c = Counts::default();
    for (j, (r, l0, reparts)) in ledger.iter().zip(&results) {
        c.add(j, r, *l0, *reparts, probe_of(j));
    }
    let run_s: f64 = untraced_s.iter().sum();
    let glue = c.glue_frac(run_s);
    let overhead = traced_s / run_s - 1.0;
    // Per-op costs: access-weighted mean over the probed pairings.
    let mean = |f: fn(&Probe) -> f64| {
        let w: Vec<(f64, f64)> = ledger
            .iter()
            .map(|j| (plan::represented_accesses(&j.cfg) as f64, f(probe_of(j))))
            .collect();
        let total: f64 = w.iter().map(|(a, _)| a).sum();
        w.iter().map(|(a, v)| a * v).sum::<f64>() / total
    };

    let (simulated, deduped, restore_frac, idle, longest) = sweep_metrics.unwrap_or((
        ledger.len() as u64,
        0,
        0.0,
        0.0,
        untraced_s.iter().copied().fold(0.0, f64::max),
    ));
    // Checkpoint and trace-store activity of the workload's own
    // execution: the batch for the suite, the untraced pass otherwise.
    let (ckpt, store) = if workload == "suite_cold" {
        ((ckpt0, ckpt1), (store0, store1))
    } else {
        ((Default::default(), ckpt_untraced), (store1, store1))
    };

    let metrics: Vec<(&str, f64, &str)> = vec![
        ("workloads.next_ns", mean(|p| p.next_ns), "ns"),
        ("workloads.accesses", c.accesses as f64, "count"),
        ("types.hint_ns", mean(|p| p.hint_ns), "ns"),
        ("tlb.l0.hit_frac", rate(c.l0_hits, c.memo_lookups()), "frac"),
        ("tlb.l1.lookups", c.l1_tlb.1 as f64, "count"),
        ("tlb.l1.hit_rate", rate(c.l1_tlb.0, c.l1_tlb.1), "frac"),
        ("tlb.l2.lookups", c.l2_tlb.1 as f64, "count"),
        ("tlb.l2.hit_rate", rate(c.l2_tlb.0, c.l2_tlb.1), "frac"),
        ("tlb.sram.lookup_ns", c.per_op(2), "ns"),
        ("tlb.pom.lookups", c.pom.1 as f64, "count"),
        ("tlb.pom.hit_rate", rate(c.pom.0, c.pom.1), "frac"),
        ("tlb.pom.lookup_ns", mean(|p| p.pom_ns), "ns"),
        ("ptw.walks", c.walks as f64, "count"),
        ("ptw.walk_cycles", rate(c.walk_cycles, c.walks), "cycles"),
        ("ptw.walk_ns", mean(|p| p.walk_ns), "ns"),
        ("cache.l1d.accesses", c.l1d as f64, "count"),
        ("cache.l2.accesses", c.l2.1 as f64, "count"),
        ("cache.l2.miss_rate", rate(c.l2.0, c.l2.1), "frac"),
        ("cache.l3.accesses", c.l3.1 as f64, "count"),
        ("cache.l3.miss_rate", rate(c.l3.0, c.l3.1), "frac"),
        ("cache.l3.tlb_frac", rate(c.l3_tlb, c.l3.1), "frac"),
        ("cache.access_ns", c.per_op(5), "ns"),
        ("dram.accesses", c.dram.1 as f64, "count"),
        ("dram.row_hit_rate", rate(c.dram.0, c.dram.1), "frac"),
        ("dram.access_ns", mean(|p| p.dram_ns), "ns"),
        ("profiler.msa_record_ns", mean(|p| p.msa_ns), "ns"),
        ("profiler.repartitions", c.repartitions as f64, "count"),
        ("profiler.choose_ns", mean(|p| p.choose_ns), "ns"),
        ("core.access_ns", mean(|p| p.access_ns), "ns"),
        ("core.functional_ns", mean(|p| p.functional_ns), "ns"),
        ("core.new_s", mean(|p| p.new_s), "s"),
        ("sim.run_s", run_s, "s"),
        ("sim.glue_frac", glue, "frac"),
        ("sim.trace_overhead_frac", overhead, "frac"),
        ("sim.ckpt.encode_s", mean(|p| p.encode_s), "s"),
        ("sim.ckpt.decode_s", mean(|p| p.decode_s), "s"),
        ("sim.ckpt.bytes", mean(|p| p.ckpt_bytes), "bytes"),
        (
            "sim.ckpt.saves",
            (ckpt.1.saves - ckpt.0.saves) as f64,
            "count",
        ),
        (
            "sim.ckpt.restores",
            (ckpt.1.restores - ckpt.0.restores) as f64,
            "count",
        ),
        (
            "sim.trace_store.materialized",
            (store.1.materialized - store.0.materialized) as f64,
            "count",
        ),
        (
            "sim.trace_store.replays",
            (store.1.replays - store.0.replays) as f64,
            "count",
        ),
        ("sweep.simulated", simulated as f64, "count"),
        ("sweep.deduped", deduped as f64, "count"),
        ("sweep.restore_frac", restore_frac, "frac"),
        ("sweep.idle_frac", idle, "frac"),
        ("sweep.job_s_max", longest, "s"),
    ];

    let hierarchy_s = c.accesses as f64 * mean(|p| p.access_ns) * 1e-9;
    print_ledger(workload, &ledger, &untraced_s, &c, overhead, hierarchy_s);

    let mut text = Vec::new();
    csalt_trace::write_chrome(&spans.buf, &mut text).map_err(|e| e.to_string())?;
    let text = String::from_utf8(text).map_err(|e| e.to_string())?;
    let summary = csalt_trace::reader::validate(&text)?;
    if !summary.is_valid() {
        return Err(format!("trace failed validation: {:?}", summary.errors));
    }
    std::fs::write(trace_out, &text).map_err(|e| format!("{}: {e}", trace_out.display()))?;

    let rendered: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, v, unit)| {
            (
                (*name).to_owned(),
                object(&[("value", num(*v)), ("unit", format!("\"{unit}\""))]),
            )
        })
        .collect();
    Ok(object(&[
        ("workload", format!("\"{workload}\"")),
        ("seed", seed.to_string()),
        (
            "trace_spans",
            summary
                .spans
                .iter()
                .map(|s| s.count)
                .sum::<u64>()
                .to_string(),
        ),
        ("peak_rss_mb", num(peak_rss_mb())),
        ("digests", format!("[{}]", checked.join(","))),
        ("metrics", object(&rendered)),
    ]))
}

fn print_ledger(
    workload: &str,
    ledger: &[Job],
    untraced_s: &[f64],
    c: &Counts,
    overhead: f64,
    hierarchy_s: f64,
) {
    let run_s: f64 = untraced_s.iter().sum();
    println!("ledger for {workload}: {} simulations", ledger.len());
    for (j, s) in ledger.iter().zip(untraced_s) {
        println!("  {:<44} {s:>8.3} s untraced", j.label);
    }
    println!(
        "  {:<22} {:>14} {:>9} {:>9} {:>7}",
        "layer", "operations", "ns/op", "seconds", "share"
    );
    for (i, (name, (ops, secs))) in LEDGER_LAYERS.iter().zip(&c.ledger).enumerate() {
        println!(
            "  {name:<22} {ops:>14.0} {:>9.2} {secs:>9.3} {:>6.1}%",
            c.per_op(i),
            secs / run_s * 100.0
        );
    }
    println!(
        "  {:<22} {:>14} {:>9} {:>9.3} {:>6.1}%",
        "glue (unexplained)",
        "",
        "",
        run_s - c.ledger_s(),
        c.glue_frac(run_s) * 100.0
    );
    println!(
        "  whole hierarchy (core.access probe x accesses) {hierarchy_s:.3} s, {:.1}% of the run",
        hierarchy_s / run_s * 100.0
    );
    println!(
        "  untraced run time {run_s:.3} s; instrumented run overhead {:.1}%",
        overhead * 100.0
    );
}
