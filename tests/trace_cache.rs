//! End-to-end trace-cache behaviour through the public `Session` API:
//! cold miss → file written → warm hit → corrupt file falls back to
//! re-tracing (and heals the cache).

use fg_stp_repro::prelude::*;
use fg_stp_repro::workloads::by_name;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fgstp-itest-{tag}-{}", std::process::id()))
}

#[test]
fn cache_round_trip_and_corruption_fallback() {
    let dir = temp_dir("roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    let w = by_name("gcc_expr", Scale::Test).unwrap();

    // Cold: miss, trace, store.
    let session = Session::new().scale(Scale::Test).cache_dir(&dir);
    let cold = session.trace(&w);
    assert_eq!(session.cache_stats(), CacheStats { hits: 0, misses: 1 });
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir was created")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "one cache file per (workload, scale)");
    let cache_file = &files[0];
    let name = cache_file.file_name().unwrap().to_str().unwrap();
    assert!(
        name.starts_with("syn-gcc_expr-test-v") && name.ends_with(".fgtr"),
        "key is frontend + workload + scale + format version: {name}"
    );

    // Warm: hit, identical trace.
    let warm = session.trace(&w);
    assert_eq!(session.cache_stats(), CacheStats { hits: 1, misses: 1 });
    assert_eq!(cold, warm, "decoded trace is bit-identical");

    // Corrupt the stored payload: the next read must detect it (checksum),
    // fall back to re-tracing, and still return the right trace.
    let mut bytes = std::fs::read(cache_file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(cache_file, &bytes).unwrap();
    let healed = session.trace(&w);
    assert_eq!(
        session.cache_stats(),
        CacheStats { hits: 1, misses: 2 },
        "corrupt file reads as a miss"
    );
    assert_eq!(cold, healed);

    // The fallback re-stored a good file: hits resume.
    let again = session.trace(&w);
    assert_eq!(session.cache_stats(), CacheStats { hits: 2, misses: 2 });
    assert_eq!(cold, again);

    // Truncation (a partial write that lost the footer) is also a miss.
    let good = std::fs::read(cache_file).unwrap();
    std::fs::write(cache_file, &good[..4]).unwrap();
    let recovered = session.trace(&w);
    assert_eq!(session.cache_stats(), CacheStats { hits: 2, misses: 3 });
    assert_eq!(cold, recovered);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Live-point snapshots (`.fgss`) get the same corruption story as trace
/// files: a bit-flipped or truncated file is detected by its checksum,
/// reads as a snapshot miss, and the session silently re-warms the trace
/// — never a panic, never a skewed figure — then re-stores a good file so
/// hits resume.
#[test]
fn snapshot_corruption_and_truncation_fall_back_to_rewarming() {
    use fg_stp_repro::tracefile::SNAPSHOT_VERSION;

    let dir = temp_dir("snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    let scfg = SampleConfig {
        interval: 2_000,
        warmup: 300,
        detail: 150,
    };
    let run = || {
        let s = Session::new()
            .scale(Scale::Test)
            .cache_dir(&dir)
            .sample(scfg)
            .machines([MachineKind::FgstpSmall]);
        let r = s.plan().workload_names(&["perl_hash"]).execute();
        (r, s.snapshot_stats())
    };

    // Cold: snapshot miss, functional warming, live-points stored.
    let (cold, cs) = run();
    assert_eq!((cs.hits, cs.misses), (0, 1));
    assert!(cs.warmed_insts > 0, "cold planning warms the trace");
    let cycles = cold[0].runs[0].result.cycles;
    let snapshot_file = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "fgss"))
        .expect("live-point snapshot stored next to the trace");
    let name = snapshot_file.file_name().unwrap().to_str().unwrap();
    assert!(
        name.ends_with(&format!("-s{SNAPSHOT_VERSION}.fgss")),
        "snapshot file carries the snapshot format version: {name}"
    );

    // Warm: live-points replay, zero warming, identical figures.
    let (warm, ws) = run();
    assert_eq!((ws.hits, ws.misses), (1, 0));
    assert_eq!(ws.warmed_insts, 0);
    assert_eq!(warm[0].runs[0].result.cycles, cycles);

    // Flip a byte mid-payload: the checksum catches it, the run re-warms
    // silently, and the figures never skew.
    let good = std::fs::read(&snapshot_file).unwrap();
    let mut corrupt = good.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xff;
    std::fs::write(&snapshot_file, &corrupt).unwrap();
    let (healed, hs) = run();
    assert_eq!((hs.hits, hs.misses), (0, 1), "corrupt snapshot is a miss");
    assert!(hs.warmed_insts > 0, "the miss re-warmed the trace");
    assert_eq!(healed[0].runs[0].result.cycles, cycles);

    // The fallback re-stored good live-points: hits resume.
    let (again, as_) = run();
    assert_eq!((as_.hits, as_.misses), (1, 0));
    assert_eq!(again[0].runs[0].result.cycles, cycles);

    // Truncation (a partial write that lost the footer) is also a miss.
    let good = std::fs::read(&snapshot_file).unwrap();
    std::fs::write(&snapshot_file, &good[..good.len() / 3]).unwrap();
    let (recovered, rs) = run();
    assert_eq!((rs.hits, rs.misses), (0, 1));
    assert!(rs.warmed_insts > 0);
    assert_eq!(recovered[0].runs[0].result.cycles, cycles);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sessions_sharing_a_directory_share_the_cache() {
    let dir = temp_dir("shared");
    let _ = std::fs::remove_dir_all(&dir);
    let w = by_name("perl_hash", Scale::Test).unwrap();

    let writer = Session::new().scale(Scale::Test).cache_dir(&dir);
    writer.trace(&w);
    assert_eq!(writer.cache_stats().misses, 1);

    let reader = Session::new().scale(Scale::Test).cache_dir(&dir);
    reader.trace(&w);
    assert_eq!(
        reader.cache_stats(),
        CacheStats { hits: 1, misses: 0 },
        "a fresh session reuses traces stored by an earlier one"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
