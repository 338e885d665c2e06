//! Warm-state codec: exact round trips, strict framing and robustness.
//!
//! Every detailed window of a sampled run, cold or replayed, starts from a
//! live-point: its pre-window `WarmState` encoded to bytes and decoded
//! again (DESIGN.md "Live-points"). The codec is therefore part of the
//! figure contract. These tests pin, on randomized state for every
//! component:
//!
//! - exactness: the decoded state re-encodes to the same bytes and then
//!   behaves identically on a follow-up stream;
//! - framing: every strict prefix of a valid payload, and the payload
//!   plus one trailing byte, is an `Err`;
//! - size: the encoding follows what the state holds, not its capacity;
//! - robustness: arbitrary bytes load as an `Err` or as a state that
//!   predicts and trains without panicking.

use fg_stp_repro::bpred::{Btb, PredictorKind, ReturnStack};
use fg_stp_repro::isa::{trace_program, DynInst};
use fg_stp_repro::mem::{Cache, Hierarchy, HierarchyConfig};
use fg_stp_repro::ooo::{CoreConfig, WarmState};
use fg_stp_repro::workloads::gen::Xorshift;
use fg_stp_repro::workloads::{by_name, Scale};

fn traced(name: &str) -> Vec<DynInst> {
    let w = by_name(name, Scale::Test).unwrap_or_else(|| panic!("workload {name}"));
    trace_program(w.program(), Scale::Test.trace_budget())
        .expect("workload terminates")
        .insts()
        .to_vec()
}

fn encode(save: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    save(&mut out);
    out
}

/// Decodes a whole component payload: `load` must succeed and consume
/// every byte, as `WarmState::from_state_bytes` demands of the whole.
fn decode_all(
    bytes: &[u8],
    load: impl FnOnce(&mut &[u8]) -> Result<(), String>,
) -> Result<(), String> {
    let mut r = bytes;
    load(&mut r)?;
    if r.is_empty() {
        Ok(())
    } else {
        Err(format!("{} trailing bytes", r.len()))
    }
}

/// Every strict prefix of the valid payload `bytes` is an `Err`, and so
/// is `bytes` plus one trailing byte. `load` decodes into a fresh
/// component.
fn assert_framing_is_strict(bytes: &[u8], mut load: impl FnMut(&mut &[u8]) -> Result<(), String>) {
    decode_all(bytes, &mut load).expect("the valid payload decodes");
    for cut in 0..bytes.len() {
        assert!(
            decode_all(&bytes[..cut], &mut load).is_err(),
            "a {cut}-byte prefix of a {}-byte payload decoded",
            bytes.len()
        );
    }
    let mut long = bytes.to_vec();
    long.push(0);
    assert!(
        decode_all(&long, &mut load).is_err(),
        "a trailing byte decoded"
    );
}

/// Applies one random stream of demand reads and writes, prefetch fills
/// and invalidations over `span_lines` lines to every cache in `caches`,
/// asserting that they all answer alike.
fn drive_caches(caches: &mut [Cache], rng: &mut Xorshift, ops: usize, span_lines: u64) {
    let line = caches[0].config().line_bytes;
    for _ in 0..ops {
        let addr = rng.below(span_lines) * line + rng.below(line);
        let kind = rng.below(10);
        // (hit or dropped-dirty, writeback address) from each cache.
        let answers: Vec<(bool, Option<u64>)> = caches
            .iter_mut()
            .map(|c| match kind {
                0 => (false, c.fill(addr)),
                1 => (c.invalidate(addr), None),
                k => {
                    let r = c.access(addr, k <= 4);
                    (r.hit, r.writeback)
                }
            })
            .collect();
        assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "caches diverged at {addr:#x}: {answers:?}"
        );
    }
}

/// Round-trips `original` and checks that the copy is exact: same bytes
/// again, same statistics, the same victims from the LRU end to the MRU
/// end of set 0, and the same answers on a random follow-up stream.
fn assert_cache_round_trip(original: Cache, rng: &mut Xorshift, span_lines: u64) {
    let cfg = *original.config();
    let bytes = encode(|out| original.save_state(out));
    let mut restored = Cache::new(cfg);
    decode_all(&bytes, |r| restored.load_state(r)).expect("valid payload decodes");
    assert_eq!(encode(|out| restored.save_state(out)), bytes);
    assert_eq!(restored.stats(), original.stats());

    let mut pair = [original, restored];
    // `assoc` never-seen lines into set 0 evict its old ways one by one,
    // least recently used first; the residents must leave in one order.
    let stride = cfg.num_sets() * cfg.line_bytes;
    let residents: Vec<u64> = (0..span_lines.div_ceil(cfg.num_sets()))
        .map(|i| i * stride)
        .collect();
    for way in 0..u64::from(cfg.assoc) {
        let fresh = (span_lines + way) * stride;
        let [a, b] = &mut pair;
        assert_eq!(a.access(fresh, false), b.access(fresh, false));
        for &addr in &residents {
            assert_eq!(a.probe(addr), b.probe(addr), "set 0 victim order");
        }
    }
    drive_caches(&mut pair, rng, 4_000, span_lines);
    let [a, b] = &pair;
    assert_eq!(
        encode(|out| a.save_state(out)),
        encode(|out| b.save_state(out))
    );
}

#[test]
fn cache_round_trips_exactly_in_small_and_medium_shapes() {
    let mut rng = Xorshift::new(0xcac4e);
    for hcfg in [HierarchyConfig::small(1), HierarchyConfig::medium(1)] {
        for cfg in [hcfg.l1i, hcfg.l1d, hcfg.l2] {
            let lines = cfg.size_bytes / cfg.line_bytes;
            // Sparse: most lines are never filled.
            let mut sparse = [Cache::new(cfg)];
            drive_caches(&mut sparse, &mut rng, (lines / 16) as usize, lines * 4);
            let [sparse] = sparse;
            assert_cache_round_trip(sparse, &mut rng, lines * 4);

            // Fully valid: every line filled in address order (each set
            // takes `assoc` distinct tags), a third of them dirty.
            let mut full = Cache::new(cfg);
            for i in 0..lines {
                full.access(i * cfg.line_bytes, i % 3 == 0);
            }
            assert!((0..lines).all(|i| full.probe(i * cfg.line_bytes)));
            assert_cache_round_trip(full.clone(), &mut rng, lines);

            // Then churned: prefetch fills, invalidated lines, evictions.
            let mut churned = [full];
            drive_caches(&mut churned, &mut rng, lines as usize, lines * 2);
            let [churned] = churned;
            assert!(churned.stats().prefetch_fills > 0 && churned.stats().writebacks > 0);
            assert_cache_round_trip(churned, &mut rng, lines * 2);
        }
    }
}

#[test]
fn hierarchy_round_trips_exactly_with_prefetch_fills_and_invalidations() {
    let mut rng = Xorshift::new(0x41e7);
    // The small shape has no prefetcher of its own; switch one on so its
    // geometry is also covered with prefetch fills.
    let small = HierarchyConfig {
        prefetch: true,
        ..HierarchyConfig::small(2)
    };
    for hcfg in [small, HierarchyConfig::medium(2)] {
        let mut h = Hierarchy::new(&hcfg);
        let mut now = 0;
        let mut strided = [0u64; 8];
        for _ in 0..30_000 {
            let core = rng.below(2) as usize;
            let addr = rng.below(1 << 22);
            match rng.below(6) {
                // A store on one core invalidates the other core's copy.
                0 => {
                    h.access_data(core, addr, true, now);
                    h.invalidate_others(core, addr);
                }
                1 => {
                    h.access_inst(core, rng.below(1 << 14), now);
                }
                2 => h.warm_data(addr, rng.flip()),
                3 => h.warm_inst(rng.below(1 << 14)),
                // Strided loads train the prefetcher into prefetch fills.
                _ => {
                    let pc = rng.below(8);
                    let k = &mut strided[pc as usize];
                    *k += 1;
                    h.access_load_with_pc(core, pc, (pc << 24) + *k * 64 * (pc + 1), now);
                }
            }
            now += 1 + rng.below(4);
        }
        let stats = h.stats();
        assert!(stats.l2.prefetch_fills > 0 && stats.invalidations > 0);

        let bytes = encode(|out| h.save_warm_state(out));
        let mut restored = Hierarchy::new(&hcfg);
        decode_all(&bytes, |r| restored.load_warm_state(r)).expect("valid payload decodes");
        assert_eq!(encode(|out| restored.save_warm_state(out)), bytes);
        // MSHRs, prefetchers and the invalidation counter are not warm
        // state; the functional-warming paths are what a window resumes.
        for _ in 0..20_000 {
            let addr = rng.below(1 << 22);
            let pc = rng.below(1 << 14);
            let write = rng.flip();
            for x in [&mut h, &mut restored] {
                x.warm_data(addr, write);
                x.warm_inst(pc);
            }
        }
        let (a, b) = (h.stats(), restored.stats());
        assert_eq!((&a.l1i, &a.l1d, a.l2), (&b.l1i, &b.l1d, b.l2));
        assert_eq!(
            encode(|out| h.save_warm_state(out)),
            encode(|out| restored.save_warm_state(out))
        );
    }
}

/// A random branch stream over 300 static branches, each with its own
/// taken bias, so every kind of counter state and history shows up.
fn branch_stream(rng: &mut Xorshift, len: usize) -> Vec<(u64, bool)> {
    let branches: Vec<(u64, u64)> = (0..300)
        .map(|_| (rng.below(1 << 20), rng.below(11)))
        .collect();
    (0..len)
        .map(|_| {
            let (pc, bias) = branches[rng.below(300) as usize];
            (pc, rng.below(10) < bias)
        })
        .collect()
}

const KINDS: [PredictorKind; 9] = [
    PredictorKind::Bimodal(1),
    PredictorKind::Bimodal(10),
    PredictorKind::Bimodal(13),
    PredictorKind::Gshare(0),
    PredictorKind::Gshare(3),
    PredictorKind::Gshare(12),
    PredictorKind::Tournament(1),
    PredictorKind::Tournament(6),
    PredictorKind::Tournament(13),
];

#[test]
fn every_predictor_kind_round_trips_exactly() {
    let mut rng = Xorshift::new(0xb4a7c4);
    for kind in KINDS {
        let mut original = kind.build();
        for (pc, taken) in branch_stream(&mut rng, 20_000) {
            original.update(pc, taken);
        }
        let bytes = encode(|out| original.save_state(out));
        let mut restored = kind.build();
        decode_all(&bytes, |r| restored.load_state(r)).expect("valid payload decodes");
        assert_eq!(encode(|out| restored.save_state(out)), bytes, "{kind}");
        for (pc, taken) in branch_stream(&mut rng, 5_000) {
            assert_eq!(restored.predict(pc), original.predict(pc), "{kind}");
            original.update(pc, taken);
            restored.update(pc, taken);
        }
        assert_eq!(
            encode(|out| restored.save_state(out)),
            encode(|out| original.save_state(out)),
            "{kind}"
        );
    }
}

#[test]
fn btb_and_return_stack_round_trip_exactly() {
    let mut rng = Xorshift::new(0x87b);
    for bits in [1, 6, 11] {
        let mut original = Btb::new(bits);
        for _ in 0..(3usize << bits) {
            let pc = rng.below(1 << 16);
            if rng.flip() {
                original.update(pc, rng.below(1 << 16));
            } else {
                original.lookup(pc);
            }
        }
        let bytes = encode(|out| original.save_state(out));
        let mut restored = Btb::new(bits);
        decode_all(&bytes, |r| restored.load_state(r)).expect("valid payload decodes");
        assert_eq!(encode(|out| restored.save_state(out)), bytes);
        for _ in 0..2_000 {
            let pc = rng.below(1 << 16);
            assert_eq!(restored.lookup(pc), original.lookup(pc));
            let target = rng.below(1 << 16);
            original.update(pc ^ 1, target);
            restored.update(pc ^ 1, target);
        }
        assert_eq!(restored.stats(), original.stats());
    }

    for depth in [1, 8, 16] {
        let mut original = ReturnStack::new(depth);
        // Pushes outnumber pops, so the stack overflows and wraps.
        for _ in 0..100 {
            if rng.below(3) == 0 {
                original.pop();
            } else {
                original.push(rng.below(1 << 40));
            }
        }
        let bytes = encode(|out| original.save_state(out));
        let mut restored = ReturnStack::new(depth);
        decode_all(&bytes, |r| restored.load_state(r)).expect("valid payload decodes");
        assert_eq!(encode(|out| restored.save_state(out)), bytes);
        for _ in 0..200 {
            if rng.flip() {
                assert_eq!(restored.pop(), original.pop());
            } else {
                let v = rng.below(1 << 40);
                original.push(v);
                restored.push(v);
            }
        }
        assert_eq!(restored.len(), original.len());
    }
}

#[test]
fn warm_state_round_trips_exactly_on_real_traces() {
    let trace = traced("mcf_pointer");
    let (head, tail) = trace.split_at(trace.len() / 2);
    for (cfg, hcfg) in [
        (CoreConfig::small(), HierarchyConfig::small(1)),
        (CoreConfig::medium(), HierarchyConfig::medium(4)),
    ] {
        let mut original = WarmState::new(&cfg, &hcfg);
        original.warm(head);
        let bytes = original.save_state();
        let mut restored = WarmState::from_state_bytes(&cfg, &hcfg, &bytes).expect("decodes");
        assert_eq!(restored.save_state(), bytes);
        original.warm(tail);
        restored.warm(tail);
        assert_eq!(restored.save_state(), original.save_state());
        assert_eq!(
            (restored.pred.branches, restored.pred.mispredicts),
            (original.pred.branches, original.pred.mispredicts)
        );
    }
}

#[test]
fn strict_prefixes_and_trailing_bytes_are_errors() {
    let mut rng = Xorshift::new(0xf4a3);
    let hcfg = HierarchyConfig::small(1);
    let mut caches = [Cache::new(hcfg.l1d)];
    drive_caches(&mut caches, &mut rng, 300, 1024);
    let bytes = encode(|out| caches[0].save_state(out));
    assert_framing_is_strict(&bytes, |r| Cache::new(hcfg.l1d).load_state(r));

    let mut h = Hierarchy::new(&HierarchyConfig::small(2));
    for i in 0..500u64 {
        h.warm_data(rng.below(1 << 20), i % 5 == 0);
        h.warm_inst(rng.below(1 << 12));
    }
    let bytes = encode(|out| h.save_warm_state(out));
    assert_framing_is_strict(&bytes, |r| {
        Hierarchy::new(&HierarchyConfig::small(2)).load_warm_state(r)
    });

    for kind in KINDS {
        let mut p = kind.build();
        for (pc, taken) in branch_stream(&mut rng, 2_000) {
            p.update(pc, taken);
        }
        let bytes = encode(|out| p.save_state(out));
        assert_framing_is_strict(&bytes, |r| kind.build().load_state(r));
    }

    let mut btb = Btb::new(6);
    for _ in 0..40 {
        btb.update(rng.below(1 << 12), rng.below(1 << 12));
        btb.lookup(rng.below(1 << 12));
    }
    let bytes = encode(|out| btb.save_state(out));
    assert_framing_is_strict(&bytes, |r| Btb::new(6).load_state(r));

    let mut ras = ReturnStack::new(8);
    for v in 0..11 {
        ras.push(v << 20);
    }
    ras.pop();
    let bytes = encode(|out| ras.save_state(out));
    assert_framing_is_strict(&bytes, |r| ReturnStack::new(8).load_state(r));

    let (cfg, hcfg) = (CoreConfig::small(), HierarchyConfig::small(1));
    let mut w = WarmState::new(&cfg, &hcfg);
    w.warm(&traced("perl_hash")[..20_000]);
    let bytes = w.save_state();
    assert_framing_is_strict(&bytes, |r| {
        let decoded = WarmState::from_state_bytes(&cfg, &hcfg, r);
        *r = &[];
        decoded.map(drop)
    });
}

#[test]
fn cold_small_live_point_is_content_sized() {
    let (cfg, hcfg) = (CoreConfig::small(), HierarchyConfig::small(1));
    let cold = WarmState::new(&cfg, &hcfg).save_state();
    // A fixed-width encoding of the same state takes 292,696 bytes.
    assert!(
        cold.len() < 4096,
        "cold small live-point is {} bytes",
        cold.len()
    );
    let mut warmed = WarmState::new(&cfg, &hcfg);
    warmed.warm(&traced("mcf_pointer"));
    assert!(
        warmed.save_state().len() > cold.len(),
        "filled lines cost bytes"
    );
}

#[test]
fn arbitrary_payloads_load_as_err_or_as_a_usable_state() {
    let (cfg, hcfg) = (CoreConfig::small(), HierarchyConfig::small(1));
    let trace = traced("perl_hash");
    let (head, tail) = trace.split_at(20_000);
    let tail = &tail[..4_000];
    let mut w = WarmState::new(&cfg, &hcfg);
    w.warm(head);
    let valid = w.save_state();

    // An `Ok` state must predict and train on the tail (branches, loads
    // and stores) without panicking in this overflow-checked build.
    let mut loaded = 0;
    let mut try_payload = |bytes: &[u8]| {
        if let Ok(mut w) = WarmState::from_state_bytes(&cfg, &hcfg, bytes) {
            w.warm(tail);
            loaded += 1;
        }
    };
    let mut rng = Xorshift::new(0xf1a9);
    for _ in 0..300 {
        let len = rng.below(2 * valid.len() as u64) as usize;
        try_payload(&rng.bytes(len));
    }
    for _ in 0..1_500 {
        let mut bytes = valid.clone();
        let bit = rng.below(8 * bytes.len() as u64) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        try_payload(&bytes);
    }
    // Overwrite a random window with random bytes: reaches fields behind
    // the shape checks that a fully random payload never gets past.
    for _ in 0..500 {
        let mut bytes = valid.clone();
        let at = rng.below(bytes.len() as u64) as usize;
        let len = (1 + rng.below(16) as usize).min(bytes.len() - at);
        bytes[at..at + len].copy_from_slice(&rng.bytes(len));
        try_payload(&bytes);
    }
    // Saturate 64-byte windows at 500 evenly spaced offsets: a table
    // that stored one byte per 2-bit counter would now hold counters of
    // 255, which overflow on the tail's first taken update through them.
    let stride = valid.len().div_ceil(500);
    for at in (0..valid.len()).step_by(stride) {
        let mut bytes = valid.clone();
        let end = (at + 64).min(bytes.len());
        bytes[at..end].fill(0xff);
        try_payload(&bytes);
    }
    assert!(loaded > 100, "only {loaded} corrupted payloads decoded");
}
