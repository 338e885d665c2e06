//! End-to-end behaviour of the on-disk live-point cache through the
//! public `Session` API: cold miss → file written → warm hit → corrupt
//! file falls back to re-warming (and heals the cache).

use fg_stp_repro::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fgstp-itest-{tag}-{}", std::process::id()))
}

/// A bit-flipped or truncated live-point file (`.fgss`) is detected by
/// its checksum, reads as a snapshot miss, and the session silently
/// re-warms the trace — never a panic, never a skewed figure — then
/// re-stores a good file so hits resume.
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
        .expect("live-point snapshot stored");
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
    let session = || {
        Session::new()
            .scale(Scale::Test)
            .cache_dir(&dir)
            .sample(SampleConfig {
                interval: 2_000,
                warmup: 300,
                detail: 150,
            })
            .machines([MachineKind::SingleSmall])
    };

    let writer = session();
    writer.plan().workload_names(&["perl_hash"]).execute();
    assert_eq!(writer.snapshot_stats().misses, 1);

    let reader = session();
    reader.plan().workload_names(&["perl_hash"]).execute();
    let rs = reader.snapshot_stats();
    assert_eq!(
        (rs.hits, rs.misses),
        (1, 0),
        "a fresh session reuses live-points stored by an earlier one"
    );
    assert_eq!(rs.warmed_insts, 0);

    std::fs::remove_dir_all(&dir).unwrap();
}
