//! Cross-crate consequences of bumping the live-point format version
//! ([`fg_stp_repro::tracefile::SNAPSHOT_VERSION`]), and the frontend
//! identity live-point keys carry.
//!
//! The on-disk cache embeds the version in every file name, so files
//! written by a pre-bump build are orphaned (a clean miss + re-warm),
//! never misread.

use fg_stp_repro::prelude::*;
use fg_stp_repro::tracefile::SNAPSHOT_VERSION;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fgstp-vtest-{tag}-{}", std::process::id()))
}

fn file_names(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_str().unwrap().to_owned())
        .collect()
}

/// A live-point snapshot stamped with an older snapshot-format version is
/// invisible to the current build — a clean snapshot miss that silently
/// re-warms and re-stores. Traces play no part: they are regenerated on
/// every run and never reach the cache directory.
#[test]
fn snapshot_version_bump_orphans_snapshots_not_traces() {
    let dir = temp_dir("ss-orphan");
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

    let (cold, cs) = run();
    assert_eq!((cs.hits, cs.misses), (0, 1));
    let cycles = cold[0].runs[0].result.cycles;
    let snapshot = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "fgss"))
        .expect("live-point snapshot stored");
    let name = snapshot.file_name().unwrap().to_str().unwrap().to_owned();

    // Re-stamp the snapshot as the previous format version — as if left
    // behind by a pre-bump build.
    let old = snapshot.with_file_name(name.replace(
        &format!("-s{SNAPSHOT_VERSION}.fgss"),
        &format!("-s{}.fgss", SNAPSHOT_VERSION - 1),
    ));
    assert_ne!(old, snapshot, "version suffix present in the name");
    std::fs::rename(&snapshot, &old).unwrap();

    let (rerun, ss) = run();
    assert_eq!(
        (ss.hits, ss.misses),
        (0, 1),
        "a pre-bump snapshot must read as a miss, not a hit"
    );
    assert!(ss.warmed_insts > 0, "the miss re-warmed the trace");
    assert_eq!(rerun[0].runs[0].result.cycles, cycles);
    assert!(
        snapshot.exists(),
        "the miss re-stored a current-version snapshot"
    );
    assert!(
        old.exists(),
        "the orphaned snapshot is ignored, not deleted"
    );
    let names = file_names(&dir);
    assert!(
        names.iter().all(|n| n.contains(".fgss")),
        "only live-points are stored: {names:?}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Live-point file names lead with the frontend — `syn-` for SimRISC
/// kernels, `rv<translation-version>-` for RV32 programs — so live-points
/// warmed from different frontends (or different translation schemes)
/// can never collide, and both frontends hit their own files on a warm
/// rerun.
#[test]
fn cache_file_identity_separates_frontends() {
    let dir = temp_dir("frontend");
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
            .workloads(["gcc_expr".to_owned(), "rv:crc32".to_owned()])
    };

    let writer = session();
    let cold = writer.run_suite();
    let ws = writer.snapshot_stats();
    assert_eq!((ws.hits, ws.misses), (0, 2));

    let names = file_names(&dir);
    assert_eq!(names.len(), 2, "{names:?}");
    assert!(
        names.iter().any(|n| n.starts_with("syn-gcc_expr-")),
        "synthetic live-points carry the syn prefix: {names:?}"
    );
    let rv_prefix = format!("rv{}-rv_crc32-", fg_stp_repro::rv::TRANSLATION_VERSION);
    assert!(
        names.iter().any(|n| n.starts_with(&rv_prefix)),
        "RV live-points carry the translation-versioned prefix: {names:?}"
    );

    let reader = session();
    let warm = reader.run_suite();
    let rs = reader.snapshot_stats();
    assert_eq!(
        (rs.hits, rs.misses),
        (2, 0),
        "both frontends hit their own files"
    );
    assert_eq!(cold.len(), 2);
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(a.runs[0].result.cycles, b.runs[0].result.cycles);
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
