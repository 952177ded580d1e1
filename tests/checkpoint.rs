//! Checkpoint-image integrity tests: property-based round-trips of
//! [`HierarchyCheckpoint`] over reachable simulator states, plus the
//! rejection guarantees the fork-from-snapshot sweep relies on — a
//! torn tail at *every* byte length, a garbage header, and a stale
//! engine fingerprint must all decode to a clean error (never a panic,
//! never a silently wrong hierarchy). Each set-associative component's
//! slabs round-trip byte for byte on their own, and an image in the
//! previous format version falls back to a cold run.

use csalt::cache::{way_range_mask, ReplacementArray};
use csalt::core::MemoryHierarchy;
use csalt::profiler::StackDistanceProfiler;
use csalt::ptw::HugePagePolicy;
use csalt::sim::checkpoint::{self, HierarchyCheckpoint};
use csalt::sim::{run, SimConfig};
use csalt::tlb::{PomTlb, SramTlb};
use csalt::types::ckpt::fnv1a_bytes;
use csalt::types::{
    Asid, CkptError, CkptReader, CkptWriter, CoreId, EntryKind, MemAccess, PageSize, PhysFrame,
    PomTlbConfig, ReplacementKind, SystemConfig, TlbGeometry, TranslationScheme, VirtAddr,
    VirtPage,
};
use csalt::workloads::{BenchKind, WorkloadSpec};
use proptest::prelude::*;

/// A shrunken two-core machine: same shapes as `skylake()`, but small
/// enough that whole-image scans (every torn-tail length) stay cheap.
fn small_config() -> SystemConfig {
    let mut cfg = SystemConfig::skylake();
    cfg.cores = 2;
    cfg.l2.size_bytes = 64 << 10;
    cfg.l3.size_bytes = 256 << 10;
    cfg.pom_tlb.size_bytes = 64 << 10;
    cfg.epoch_accesses = 10_000;
    cfg
}

fn hier(cfg: &SystemConfig, scheme: TranslationScheme, virtualized: bool) -> MemoryHierarchy {
    MemoryHierarchy::new(cfg, scheme, virtualized, HugePagePolicy::NONE, 1)
}

/// Drives `h` through `addrs`, alternating cores and contexts. Each
/// tuple is `(address, selector, write)` where the selector's low bit
/// picks the core and the next bit the context.
fn drive(h: &mut MemoryHierarchy, cores: usize, vms: usize, addrs: &[(u64, usize, bool)]) {
    let ctxs: Vec<_> = (0..vms).map(|_| h.add_context()).collect();
    for &(addr, sel, write) in addrs {
        let a = VirtAddr::new(addr & !0x3f);
        let acc = if write {
            MemAccess::write(a, 4)
        } else {
            MemAccess::read(a, 4)
        };
        h.access(
            CoreId::new((sel % cores) as u8),
            ctxs[(sel / cores) % vms],
            acc,
        );
    }
}

/// A reference image over a nontrivial state: the richest scheme
/// (csalt-cd, virtualized) after a mixed read/write stream.
fn reference_image() -> (SystemConfig, Vec<u8>) {
    let cfg = small_config();
    let mut h = hier(&cfg, TranslationScheme::CsaltCd, true);
    let addrs: Vec<(u64, usize, bool)> = (0..600)
        .map(|i: u64| ((i * 0x1_013) << 6, (i % 4) as usize, i.is_multiple_of(5)))
        .collect();
    drive(&mut h, 2, 2, &addrs);
    let meta = HierarchyCheckpoint {
        current_vms: vec![1, 0],
        pops: vec![vec![300, 150], vec![75, 75]],
    };
    (cfg.clone(), meta.encode(&h, "fp-reference"))
}

proptest! {
    /// Encode → decode-into-fresh → re-encode is the identity on the
    /// image, for arbitrary reachable states across schemes and both
    /// native/virtualized walkers: the decoded hierarchy contains
    /// exactly the serialized state, and the scheduling metadata
    /// round-trips field-for-field.
    #[test]
    fn image_round_trips_over_reachable_states(
        scheme_idx in 0usize..4,
        virtualized in any::<bool>(),
        vm0 in 0u32..2,
        vm1 in 0u32..2,
        pops in prop::collection::vec(prop::collection::vec(0u64..1_000, 2), 2),
        addrs in prop::collection::vec(
            (0u64..(1u64 << 32), 0usize..4, any::<bool>()),
            1..250,
        ),
    ) {
        let schemes = [
            TranslationScheme::Conventional,
            TranslationScheme::PomTlb,
            TranslationScheme::CsaltD,
            TranslationScheme::CsaltCd,
        ];
        let cfg = small_config();
        let mut h = hier(&cfg, schemes[scheme_idx], virtualized);
        drive(&mut h, 2, 2, &addrs);
        let meta = HierarchyCheckpoint { current_vms: vec![vm0, vm1], pops };
        let image = meta.encode(&h, "fp-prop");

        let mut fresh = hier(&cfg, schemes[scheme_idx], virtualized);
        for _ in 0..2 {
            fresh.add_context();
        }
        let got = HierarchyCheckpoint::decode_into(&image, "fp-prop", &mut fresh, 2, 2)
            .expect("image decodes into a same-shape hierarchy");
        prop_assert_eq!(&got, &meta, "scheduling metadata round-trips");
        prop_assert_eq!(
            got.encode(&fresh, "fp-prop"),
            image,
            "restored hierarchy re-encodes to the identical image"
        );
    }
}

/// Every proper prefix of a valid image — a write torn at any byte —
/// must be rejected. The decoder validates lengths before it allocates
/// or copies, so this also bounds allocation on hostile input.
#[test]
fn torn_tail_rejected_at_every_length() {
    let (cfg, image) = reference_image();
    let mut scratch = hier(&cfg, TranslationScheme::CsaltCd, true);
    for _ in 0..2 {
        scratch.add_context();
    }
    for len in 0..image.len() {
        let r = HierarchyCheckpoint::decode_into(&image[..len], "fp-reference", &mut scratch, 2, 2);
        assert!(
            r.is_err(),
            "truncation to {len} of {} bytes must fail",
            image.len()
        );
    }
    // The untruncated image still decodes — the scratch hierarchy's
    // partial overwrites never make it unusable as a decode target.
    HierarchyCheckpoint::decode_into(&image, "fp-reference", &mut scratch, 2, 2)
        .expect("full image decodes after every torn-tail attempt");
}

/// A corrupted header (any damage to the leading magic/version bytes)
/// is rejected outright.
#[test]
fn garbage_header_rejected() {
    let (cfg, image) = reference_image();
    let mut scratch = hier(&cfg, TranslationScheme::CsaltCd, true);
    for _ in 0..2 {
        scratch.add_context();
    }
    for byte in 0..16.min(image.len()) {
        let mut bad = image.clone();
        bad[byte] ^= 0xa5;
        let r = HierarchyCheckpoint::decode_into(&bad, "fp-reference", &mut scratch, 2, 2);
        assert!(r.is_err(), "flipping header byte {byte} must fail");
    }
    // All-garbage input of various sizes: clean errors, no panics.
    for n in [0usize, 1, 7, 16, 64, 4096] {
        let junk = vec![0x5au8; n];
        assert!(
            HierarchyCheckpoint::decode_into(&junk, "fp-reference", &mut scratch, 2, 2).is_err(),
            "{n} bytes of junk must fail"
        );
    }
}

/// An image saved under a different engine fingerprint — a stale cache
/// entry surviving an engine change — must be rejected, and the exact
/// same bytes must decode under the fingerprint they were saved with.
#[test]
fn stale_fingerprint_rejected() {
    let (cfg, image) = reference_image();
    let mut scratch = hier(&cfg, TranslationScheme::CsaltCd, true);
    for _ in 0..2 {
        scratch.add_context();
    }
    assert!(
        HierarchyCheckpoint::decode_into(&image, "fp-other-engine", &mut scratch, 2, 2).is_err(),
        "stale fingerprint must be rejected"
    );
    HierarchyCheckpoint::decode_into(&image, "fp-reference", &mut scratch, 2, 2)
        .expect("the matching fingerprint still decodes");
}

/// Shape mismatches between the image and the receiving run — wrong
/// core count or VM count — are rejected before any state is trusted.
#[test]
fn shape_mismatch_rejected() {
    let (cfg, image) = reference_image();
    let mut scratch = hier(&cfg, TranslationScheme::CsaltCd, true);
    for _ in 0..2 {
        scratch.add_context();
    }
    assert!(
        HierarchyCheckpoint::decode_into(&image, "fp-reference", &mut scratch, 4, 2).is_err(),
        "wrong core count must be rejected"
    );
    assert!(
        HierarchyCheckpoint::decode_into(&image, "fp-reference", &mut scratch, 2, 3).is_err(),
        "wrong vm count must be rejected"
    );
}

/// Seals `save`'s output as a component image.
fn component_image(save: impl FnOnce(&mut CkptWriter)) -> Vec<u8> {
    let mut w = CkptWriter::new();
    save(&mut w);
    w.finish("fp-component")
}

/// Asserts that `live` saves an image which, loaded into `fresh`, saves
/// to the identical bytes again.
macro_rules! assert_component_round_trips {
    ($live:expr, $fresh:expr) => {{
        let image = component_image(|w| $live.ckpt_save(w));
        let mut restored = $fresh;
        let mut r = CkptReader::open(&image, "fp-component").expect("image opens");
        restored.ckpt_load(&mut r).expect("image loads");
        r.finish().expect("image fully consumed");
        assert_eq!(
            component_image(|w| restored.ckpt_save(w)),
            image,
            "save → load → save changed the bytes"
        );
    }};
}

proptest! {
    /// Save → load → save is byte-identical for every set-associative
    /// component's slabs — each replacement policy, the SRAM and POM
    /// TLBs and the MSA profiler (full and sampled) — from arbitrary
    /// reachable states.
    #[test]
    fn component_slabs_round_trip_byte_identically(
        ops in prop::collection::vec((0u64..(1 << 20), 0u8..4, any::<bool>()), 0..300),
    ) {
        for kind in [
            ReplacementKind::TrueLru,
            ReplacementKind::Nru,
            ReplacementKind::BtPlru,
            ReplacementKind::Rrip,
        ] {
            let mut repl = ReplacementArray::new(kind, 16, 8);
            for &(x, op, flag) in &ops {
                let (set, way) = ((x % 16) as usize, (x >> 4) as u32 % 8);
                match op {
                    0 => repl.touch(set, way),
                    1 => repl.on_fill(set, way, flag),
                    _ => {
                        repl.victim(set, way_range_mask(0, way + 1));
                    }
                }
            }
            assert_component_round_trips!(repl, ReplacementArray::new(kind, 16, 8));
        }

        let geom = TlbGeometry { entries: 64, ways: 4, latency: 9 };
        let pom_cfg = PomTlbConfig {
            size_bytes: 64 << 10,
            ways: 4,
            entry_bytes: 16,
            base: 0x7e00_0000_0000,
        };
        let mut sram = SramTlb::new(geom);
        let mut pom = PomTlb::new(pom_cfg);
        for &(x, op, flag) in &ops {
            let size = if flag { PageSize::Size2M } else { PageSize::Size4K };
            let page = VirtPage::from_vpn(x % 4096, size);
            let asid = Asid::new((x >> 12) as u16 % 3);
            let frame = PhysFrame::from_pfn(x ^ 0x5a5a, size);
            match op {
                0 => {
                    sram.lookup(page, asid);
                    pom.lookup(page, asid);
                }
                1 => {
                    sram.flush_asid(asid);
                }
                _ => {
                    sram.insert(page, asid, frame);
                    pom.insert(page, asid, frame);
                }
            }
        }
        assert_component_round_trips!(sram, SramTlb::new(geom));
        assert_component_round_trips!(pom, PomTlb::new(pom_cfg));

        for interval in [1u64, 4] {
            let mut msa = StackDistanceProfiler::new(32, 8, interval);
            for &(x, op, _) in &ops {
                let kind = if op == 0 { EntryKind::Tlb } else { EntryKind::Data };
                msa.record(x % 32, (x >> 5) % 24, kind);
            }
            assert_component_round_trips!(msa, StackDistanceProfiler::new(32, 8, interval));
        }
    }
}

/// A checkpoint image in the previous format version — here a current
/// image with its version word set back to 1 and its checksum re-sealed,
/// i.e. well-formed apart from the version — is refused with
/// `BadVersion(1)`. The refusal counts as a fallback, the run warms up
/// cold and its result is byte-identical to the straight-through run;
/// that run also rewrites the image, which the next run restores.
#[test]
fn version_one_image_falls_back_to_a_cold_run() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("ckpt-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The only test in this binary that runs whole simulations, so the
    // process-wide env and counters are its own.
    std::env::set_var("CSALT_CACHE_DIR", &dir);
    std::env::remove_var("CSALT_NO_CACHE");
    std::env::remove_var("CSALT_CKPT");

    let mut cfg = SimConfig::new(
        WorkloadSpec::homogeneous("gups", BenchKind::Gups),
        TranslationScheme::CsaltCd,
    );
    cfg.system.cores = 2;
    cfg.accesses_per_core = 4_000;
    cfg.warmup_accesses_per_core = 2_000;
    cfg.scale = 0.05;

    let cold = serde_json::to_string(&run(&cfg)).expect("result serializes");
    let images: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
        })
        .collect();
    assert_eq!(images.len(), 1, "the cold run saves one image: {images:?}");
    let path = &images[0];

    let mut image = std::fs::read(path).expect("image readable");
    image[8..12].copy_from_slice(&1u32.to_le_bytes());
    let body = image.len() - 8;
    let sum = fnv1a_bytes(&image[..body]);
    image[body..].copy_from_slice(&sum.to_le_bytes());
    assert_eq!(
        CkptReader::open(&image, "any-fingerprint").err(),
        Some(CkptError::BadVersion(1))
    );
    std::fs::write(path, &image).expect("image writable");

    let before = checkpoint::stats();
    let refused = serde_json::to_string(&run(&cfg)).expect("result serializes");
    let after = checkpoint::stats();
    assert_eq!(
        after.fallbacks,
        before.fallbacks + 1,
        "refusal is a fallback"
    );
    assert_eq!(after.restores, before.restores);
    assert_eq!(refused, cold, "fallback result differs from the cold run");

    let restored = serde_json::to_string(&run(&cfg)).expect("result serializes");
    assert_eq!(checkpoint::stats().restores, after.restores + 1);
    assert_eq!(restored, cold, "restored result differs from the cold run");
    let _ = std::fs::remove_dir_all(&dir);
}
