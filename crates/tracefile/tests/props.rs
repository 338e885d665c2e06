//! Property tests: live-point files reject random corruption without
//! panicking, and the zigzag codec warm-state payloads use is a
//! bijection.
//!
//! Cases come from the workspace's deterministic [`Xorshift`] generator;
//! every assertion names its case seed so failures replay exactly.

use fgstp_tracefile::{zigzag_decode, zigzag_encode, SnapshotFile};
use fgstp_workloads::gen::Xorshift;

const CASES: u64 = 256;

fn arb_bytes(g: &mut Xorshift, hi: usize) -> Vec<u8> {
    (0..g.range_usize(0, hi))
        .map(|_| g.next_u64() as u8)
        .collect()
}

fn arb_snapshot(g: &mut Xorshift) -> SnapshotFile {
    SnapshotFile {
        total_insts: g.next_u64(),
        windows: (0..g.range_usize(0, 6))
            .map(|_| (g.next_u64(), arb_bytes(g, 40)))
            .collect(),
        final_state: arb_bytes(g, 40),
    }
}

/// Random corruptions never panic; they decode to an error or to some
/// well-formed (possibly different) snapshot.
#[test]
fn corruption_never_panics() {
    for case in 0..CASES {
        let mut g = Xorshift::new(0x22_0001 + case);
        let snap = arb_snapshot(&mut g);
        let mut bytes = snap.encode();
        assert_eq!(
            SnapshotFile::decode(&bytes).unwrap(),
            snap,
            "case {case}: round trip"
        );
        let idx = g.range_usize(0, bytes.len());
        bytes[idx] ^= (g.next_u64() as u8) | 1;
        let _ = SnapshotFile::decode(&bytes); // must not panic
        let cut = g.range_usize(0, bytes.len());
        let _ = SnapshotFile::decode(&bytes[..cut]); // must not panic
    }
}

/// Zigzag is a bijection on random values.
#[test]
fn zigzag_bijection() {
    let mut g = Xorshift::new(0x23_0001);
    for case in 0..CASES {
        let v = g.next_u64() as i64;
        assert_eq!(zigzag_decode(zigzag_encode(v)), v, "case {case}: {v}");
    }
}
