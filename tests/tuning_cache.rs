//! Robustness of the on-disk tuning cache (crates/core/src/tune.rs).
//!
//! The contract under test: a damaged or foreign cache can cost speed but
//! never correctness or availability. Corrupted, truncated, or
//! version-mismatched entries are rejected with typed counters and the
//! selection falls back to the static ECM heuristic — producing exactly
//! the choice an empty cache produces — and concurrent ranks sharing one
//! cache directory never observe a half-written entry (installs are
//! unique-tmp + atomic rename).

use pf_backend::ExecMode;
use pf_core::{
    family_fingerprint, generate_kernels, select_variants, select_variants_tuned_in, ChoiceSource,
    Family, KernelSet, TuneCache, TuneEntry, Variant,
};
use pf_ir::GenOptions;
use pf_machine::{skylake_8174, CpuSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pf-tunecache-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Small 2-phase model — fast to generate, same code paths as P1/P2.
fn mini() -> pf_core::ModelParams {
    let mut p = pf_core::p1();
    p.name = "tunecache-mini".into();
    p.phases = 2;
    p.components = 2;
    p.dim = 2;
    p.gamma = vec![vec![0.0, 0.4], vec![0.4, 0.0]];
    p.tau = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
    p.diffusivity = vec![1.0, 0.1];
    p.a_coeff = vec![vec![-0.5], vec![-0.5]];
    p.b_coeff = vec![vec![(0.0, 0.05)], vec![(-0.3, 0.05)]];
    p.c_coeff = vec![(0.01, 0.0), (0.01, 0.0)];
    p.orientation = vec![0.0, 0.0];
    p.temperature.gradient = 0.0;
    p
}

fn kernels() -> KernelSet {
    generate_kernels(&mini(), &GenOptions::default())
}

fn entry(mode: ExecMode, mlups: f64) -> TuneEntry {
    TuneEntry {
        variant: Variant::Split,
        mode,
        block: [24, 24, 8],
        loop_order: [2, 1, 0],
        strip_width: 8,
        measured_mlups: mlups,
        predicted_mlups: 10.0 * mlups,
    }
}

fn counter(name: &str) -> u64 {
    pf_trace::snapshot()
        .counters
        .get(name)
        .map(|c| c.total)
        .unwrap_or(0)
}

/// Seed both family entries so the all-or-nothing consult can hit.
fn store_both(cache: &TuneCache, ks: &KernelSet, sock: &CpuSocket, shape: [usize; 3]) {
    let fp = sock.fingerprint();
    cache
        .store(
            fp,
            family_fingerprint(ks, Family::Phi),
            shape,
            &entry(ExecMode::Serial, 0.5),
        )
        .expect("store phi entry");
    cache
        .store(
            fp,
            family_fingerprint(ks, Family::Mu),
            shape,
            &entry(ExecMode::Vectorized, 1.0),
        )
        .expect("store mu entry");
}

const SHAPE: [usize; 3] = [16, 12, 1];
const BLOCK: [usize; 3] = [24, 24, 8];

#[test]
fn roundtrip_preserves_the_entry_bit_for_bit() {
    let scratch = Scratch::new("roundtrip");
    let cache = TuneCache::at(&scratch.0);
    let want = entry(ExecMode::Native, 12.345678901234567);
    cache.store(1, 2, SHAPE, &want).expect("store");
    let got = cache.load(1, 2, SHAPE).expect("load back");
    assert_eq!(got, want);
    // A different key must miss, not alias.
    assert!(cache.load(1, 3, SHAPE).is_none());
    assert!(cache.load(1, 2, [16, 12, 2]).is_none());
}

/// Engine byte 1 named the scalar rayon engine, which no longer exists. A
/// well-formed record carrying it (valid checksum, right key) is a typed
/// malformed field — a counted miss, never a panic — while the same
/// rewrite to a live engine's byte loads.
#[test]
fn retired_engine_byte_is_a_counted_miss() {
    let scratch = Scratch::new("retired-engine");
    let cache = TuneCache::at(&scratch.0);
    let path = cache
        .store(1, 2, SHAPE, &entry(ExecMode::Serial, 1.0))
        .expect("store");
    // magic 8 + version 4 + machine 8 + tapes 8 + shape 24 + variant 1.
    const MODE_BYTE: usize = 53;
    let rewrite_mode = |b: u8| {
        let mut bytes = std::fs::read(&path).expect("read entry");
        bytes[MODE_BYTE] = b;
        let body = bytes.len() - 8;
        let fnv = bytes[..body]
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
                (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01B3)
            });
        bytes[body..].copy_from_slice(&fnv.to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite entry");
    };
    rewrite_mode(2);
    assert_eq!(
        cache.load(1, 2, SHAPE).map(|e| e.mode),
        Some(ExecMode::Vectorized),
        "the rewrite keeps the record well-formed"
    );
    let (miss0, corrupt0) = (counter("tune.cache.miss"), counter("tune.cache.corrupt"));
    rewrite_mode(1);
    assert!(cache.load(1, 2, SHAPE).is_none());
    if pf_trace::enabled() {
        assert!(counter("tune.cache.miss") > miss0, "counted as a miss");
        assert!(counter("tune.cache.corrupt") > corrupt0, "with its reason");
    }
}

#[test]
fn warm_hit_flips_selection_and_damage_falls_back_to_the_static_choice() {
    let ks = kernels();
    let sock = skylake_8174();
    let scratch = Scratch::new("damage");
    let cache = TuneCache::at(&scratch.0);
    let stat = select_variants(&ks, &sock, sock.cores, BLOCK);

    // Warm: both families hit; the slower family (phi, 0.5 MLUP/s) pins
    // the engine.
    store_both(&cache, &ks, &sock, SHAPE);
    let tuned = select_variants_tuned_in(Some(&cache), &ks, &sock, sock.cores, BLOCK, SHAPE);
    assert_eq!(tuned.source, ChoiceSource::Tuned);
    assert_eq!(tuned.mode, Some(ExecMode::Serial));
    assert_eq!((tuned.phi, tuned.mu), (Variant::Split, Variant::Split));

    // Corrupt one entry: flip a byte past the header so the checksum
    // breaks. Selection must equal the static heuristic's choice exactly.
    let phi_path = cache.entry_path(
        sock.fingerprint(),
        family_fingerprint(&ks, Family::Phi),
        SHAPE,
    );
    let mut bytes = std::fs::read(&phi_path).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&phi_path, &bytes).expect("rewrite corrupted");
    let corrupt0 = counter("tune.cache.corrupt");
    let fell_back = select_variants_tuned_in(Some(&cache), &ks, &sock, sock.cores, BLOCK, SHAPE);
    assert_eq!(fell_back.source, ChoiceSource::Static);
    assert_eq!(
        fell_back.mode, None,
        "static fallback keeps the shape default"
    );
    assert_eq!((fell_back.phi, fell_back.mu), (stat.phi, stat.mu));
    assert_eq!(
        fell_back.predicted_mlups, stat.predicted_mlups,
        "fallback re-rates with the same ECM model, bit for bit"
    );
    if pf_trace::enabled() {
        assert!(
            counter("tune.cache.corrupt") > corrupt0,
            "typed corrupt counter"
        );
    }

    // Truncate it instead: same fallback, still the corrupt counter.
    std::fs::write(&phi_path, &bytes[..10]).expect("truncate");
    let corrupt1 = counter("tune.cache.corrupt");
    let truncated = select_variants_tuned_in(Some(&cache), &ks, &sock, sock.cores, BLOCK, SHAPE);
    assert_eq!(truncated.source, ChoiceSource::Static);
    assert_eq!((truncated.phi, truncated.mu), (stat.phi, stat.mu));
    if pf_trace::enabled() {
        assert!(
            counter("tune.cache.corrupt") > corrupt1,
            "truncated counts as corrupt"
        );
    }
}

#[test]
fn version_mismatched_entries_are_rejected_before_the_checksum() {
    let ks = kernels();
    let sock = skylake_8174();
    let scratch = Scratch::new("version");
    let cache = TuneCache::at(&scratch.0);
    store_both(&cache, &ks, &sock, SHAPE);

    // Patch the version field (bytes 8..12, after the magic) of one entry.
    // The reader checks the version *before* the checksum, so a future
    // format is cleanly "unsupported version", not "corrupt" — and the
    // consult falls back statically either way.
    let mu_path = cache.entry_path(
        sock.fingerprint(),
        family_fingerprint(&ks, Family::Mu),
        SHAPE,
    );
    let mut bytes = std::fs::read(&mu_path).expect("read entry");
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&mu_path, &bytes).expect("rewrite versioned");

    let vm0 = counter("tune.cache.version_mismatch");
    let corrupt0 = counter("tune.cache.corrupt");
    let choice = select_variants_tuned_in(Some(&cache), &ks, &sock, sock.cores, BLOCK, SHAPE);
    assert_eq!(
        choice.source,
        ChoiceSource::Static,
        "lone phi hit is not enough"
    );
    if pf_trace::enabled() {
        assert!(
            counter("tune.cache.version_mismatch") > vm0,
            "typed version_mismatch counter"
        );
        assert_eq!(
            counter("tune.cache.corrupt"),
            corrupt0,
            "a version mismatch is not misreported as corruption"
        );
    }
}

#[test]
fn lone_family_hit_keeps_the_static_choice() {
    let ks = kernels();
    let sock = skylake_8174();
    let scratch = Scratch::new("lone");
    let cache = TuneCache::at(&scratch.0);
    // Only phi present: all-or-nothing selection must not half-apply.
    cache
        .store(
            sock.fingerprint(),
            family_fingerprint(&ks, Family::Phi),
            SHAPE,
            &entry(ExecMode::Serial, 0.5),
        )
        .expect("store phi entry");
    let stat = select_variants(&ks, &sock, sock.cores, BLOCK);
    let choice = select_variants_tuned_in(Some(&cache), &ks, &sock, sock.cores, BLOCK, SHAPE);
    assert_eq!(choice.source, ChoiceSource::Static);
    assert_eq!(choice.mode, None);
    assert_eq!((choice.phi, choice.mu), (stat.phi, stat.mu));
}

/// Concurrent ranks hammering one cache directory — mixed stores of
/// different winners and loads of the same key — must never observe a
/// torn entry: every load either misses or decodes to one of the exact
/// entries some thread stored (atomic unique-tmp + rename installs).
#[test]
fn concurrent_ranks_sharing_a_cache_dir_never_see_torn_entries() {
    let scratch = Scratch::new("race");
    let dir = scratch.0.clone();
    let candidates: Vec<TuneEntry> = vec![
        entry(ExecMode::Serial, 1.0),
        entry(ExecMode::Vectorized, 2.0),
        entry(ExecMode::Native, 3.0),
        entry(ExecMode::Vectorized, 4.0),
    ];
    let corrupt0 = counter("tune.cache.corrupt");
    std::thread::scope(|s| {
        for (t, mine) in candidates.iter().enumerate() {
            let dir = dir.clone();
            let candidates = &candidates;
            s.spawn(move || {
                let cache = TuneCache::at(dir);
                for round in 0..25 {
                    cache
                        .store(7, 42, SHAPE, mine)
                        .unwrap_or_else(|e| panic!("thread {t} round {round}: store failed: {e}"));
                    if let Some(seen) = cache.load(7, 42, SHAPE) {
                        assert!(
                            candidates.contains(&seen),
                            "thread {t} round {round}: read an entry nobody wrote: {seen:?}"
                        );
                    }
                }
            });
        }
    });
    if pf_trace::enabled() {
        assert_eq!(
            counter("tune.cache.corrupt"),
            corrupt0,
            "no load ever saw a half-installed entry"
        );
    }
    // The survivor is whichever store landed last — still a valid entry.
    let survivor = TuneCache::at(&scratch.0)
        .load(7, 42, SHAPE)
        .expect("entry survives");
    assert!(candidates.contains(&survivor));
}

#[test]
fn kill_switch_and_cache_dir_env_are_respected() {
    // `tune_enabled` is pure env parsing; exercise all spellings. The
    // PF_TUNE mutations are benign for concurrent tests in this binary:
    // nothing else here consults `TuneCache::from_env`, and the dist
    // launch consult it gates only flips bitwise-identical engines.
    for off in ["off", "0", "false"] {
        std::env::set_var("PF_TUNE", off);
        assert!(
            !pf_core::tune_enabled(),
            "PF_TUNE={off} must disable tuning"
        );
        assert!(
            TuneCache::from_env().is_none(),
            "disabled tuning must yield no cache"
        );
    }
    std::env::set_var("PF_TUNE", "on");
    assert!(pf_core::tune_enabled());
    std::env::remove_var("PF_TUNE");
    assert!(pf_core::tune_enabled(), "unset leaves tuning on");
}
