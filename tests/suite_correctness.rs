//! Integration: functional correctness of the whole stack.
//!
//! Every workload must (a) self-check on the reference interpreter,
//! (b) commit exactly its trace on every machine model, and (c) pass the
//! partitioned functional execution check — the end-to-end version of the
//! paper's claim that partitioning preserves sequential semantics.

use fg_stp_repro::core::{
    check_partition, partition_stream, PartitionConfig, PartitionPolicy, PartitionedStream,
};
use fg_stp_repro::ooo::{build_exec_stream, ExecInst};
use fg_stp_repro::prelude::*;
use fg_stp_repro::sim::runner::trace_workload;

#[test]
fn every_workload_self_checks() {
    for w in suite(Scale::Test) {
        let checksum = w
            .run_reference()
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_ne!(checksum, 0, "{}", w.name);
    }
}

/// FNV-1a, fed one little-endian word at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn opt(&mut self, w: Option<u64>) {
        match w {
            None => self.word(0),
            Some(v) => {
                self.word(1);
                self.word(v);
            }
        }
    }

    /// Every field of `x`, the committed instruction included, as `core`
    /// runs it.
    fn inst(&mut self, core: usize, x: &ExecInst) {
        let d = &x.d;
        let i = &d.inst;
        for w in [
            d.seq,
            d.pc,
            d.next_pc,
            i.op as u64,
            i.rd.index() as u64,
            i.rs1.index() as u64,
            i.rs2.index() as u64,
            i.imm as u64,
        ] {
            self.word(w);
        }
        self.opt(d.addr);
        self.opt(d.taken.map(u64::from));
        self.opt(d.rd_value);
        self.opt(d.store_value);
        self.word(x.gseq);
        for dep in x.deps {
            self.opt(dep.map(|d| d.producer));
            self.word(dep.is_some_and(|d| d.cross).into());
        }
        self.opt(x.mem_dep.map(|m| m.store));
        self.word(x.mem_dep.is_some_and(|m| m.forwardable).into());
        self.word(x.mem_dep.is_some_and(|m| m.cross).into());
        for w in [core as u64, x.replica.into(), x.sends.into()] {
            self.word(w);
        }
    }

    fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }
}

/// Fingerprints of one partition of `stream`: every entry of every
/// per-core view, expanded, in view order, then the send masks, load
/// barriers and statistics.
fn fingerprint(stream: &[ExecInst], part: &PartitionedStream) -> (u64, u64) {
    let mut streams = Fnv::new();
    for (core, view) in part.views.iter().enumerate() {
        streams.word(view.len(stream) as u64);
        for x in view.iter(stream) {
            streams.inst(core, &x);
        }
    }
    let mut tables = Fnv::new();
    tables.words(&part.send_targets);
    tables.words(&part.load_barriers);
    let st = &part.stats;
    tables.words(&st.insts);
    tables.words(&[st.replicated, st.cross_reg_deps, st.cross_mem_deps]);
    (streams.0, tables.0)
}

/// The partition matrix below, fingerprinted before the per-core streams
/// became views over the annotated stream: `(kernel, config, cores,
/// streams, tables)`, see [`fingerprint`].
#[rustfmt::skip]
const PARTITION_FINGERPRINTS: &[(&str, &str, usize, u64, u64)] = &[
    ("perl_hash", "default", 2, 0x09e1cfa5e1012ae6, 0x370ad3045c9e13af),
    ("perl_hash", "default", 4, 0xa0e89386cff79178, 0xc0598f76101f2d69),
    ("perl_hash", "greedy", 2, 0x9eb5a3456cf17abe, 0x4c0991eface2b348),
    ("perl_hash", "greedy", 4, 0x7d65995e87162837, 0x159b2d2010fd09fc),
    ("perl_hash", "modn5", 2, 0x817b89f5494b6d79, 0xe456f36cabd7609f),
    ("perl_hash", "modn5", 4, 0x69fc8d6926ab6e5d, 0x5dfa6b72983feccf),
    ("perl_hash", "default-norep", 2, 0x30ecf8a2eee48489, 0xd8d7bc635ac8f8b5),
    ("perl_hash", "default-norep", 4, 0x1f3bdd4133317855, 0xf4b6f2822dd81842),
    ("bzip_rle", "default", 2, 0x69967d3578e1dd4f, 0xc41d4d8c1f9ef88b),
    ("bzip_rle", "default", 4, 0x6f7b9a8b46ec60b2, 0x84fc6f077c8ae268),
    ("bzip_rle", "greedy", 2, 0xe89d9d5c9c192071, 0xfd8570ff32d9179f),
    ("bzip_rle", "greedy", 4, 0x7bd5db951055ed99, 0x6b10410c2852c8a7),
    ("bzip_rle", "modn5", 2, 0xab83ef9bd82011c8, 0xd0ba95167c0d29b2),
    ("bzip_rle", "modn5", 4, 0x79be37dd5a2b3c67, 0x8e3bdd40475a370d),
    ("bzip_rle", "default-norep", 2, 0xdd9b0d07ed587654, 0x0c8ca2eaaea1333a),
    ("bzip_rle", "default-norep", 4, 0xf6187e2e55d80c1f, 0xc45cdf53af29497c),
    ("gcc_expr", "default", 2, 0x763321301d55f9ff, 0xd4413a89beea6618),
    ("gcc_expr", "default", 4, 0xf009efe3ecb5a72f, 0x8f20cbe011f04869),
    ("gcc_expr", "greedy", 2, 0xa0569ccfe7d574df, 0x210af8963da93602),
    ("gcc_expr", "greedy", 4, 0x9fafa3da1e2ecf52, 0x247692822de7e898),
    ("gcc_expr", "modn5", 2, 0xd2632324e39a2853, 0xaea42d9c57e320e7),
    ("gcc_expr", "modn5", 4, 0xd3c37acc8cc4d8bf, 0xb13a316e23842461),
    ("gcc_expr", "default-norep", 2, 0xa08ad6049d67a41b, 0x627edbc1774835ae),
    ("gcc_expr", "default-norep", 4, 0x8b651e1ab07cf2f8, 0xc4410e2fdced1951),
    ("mcf_pointer", "default", 2, 0x4a6483152f4e1498, 0x70977151072f8fb5),
    ("mcf_pointer", "default", 4, 0xf649f1697b32fec3, 0x0090c51827d7e234),
    ("mcf_pointer", "greedy", 2, 0x0c4a03a4219628c3, 0xcb93be6bd586580b),
    ("mcf_pointer", "greedy", 4, 0x5fe2f61e8292b77c, 0xb007505c8ed5b98c),
    ("mcf_pointer", "modn5", 2, 0x419bfa3448e720cb, 0x35fbc52f512a6fe2),
    ("mcf_pointer", "modn5", 4, 0xcc75dad4d9dd3204, 0x359d5b97e28d5961),
    ("mcf_pointer", "default-norep", 2, 0x8e32f0262deafbc9, 0xa9a9a85db200f076),
    ("mcf_pointer", "default-norep", 4, 0x011d313f5d8d2250, 0x45a56cbf3a4d15f8),
    ("gobmk_board", "default", 2, 0xed4f89280303110b, 0x3e24d99dd614b9b1),
    ("gobmk_board", "default", 4, 0xf58a925d1eba1511, 0x29128004f25ea9ae),
    ("gobmk_board", "greedy", 2, 0x7fc9bd786f572489, 0xcb0c75bee9365426),
    ("gobmk_board", "greedy", 4, 0x8d70b9b0582945b3, 0xafa46eb5a16a2d23),
    ("gobmk_board", "modn5", 2, 0xdaa7954a733311ca, 0x791c4da95f4f1b01),
    ("gobmk_board", "modn5", 4, 0xae43ba30f6f29c59, 0xc580d6632973c7f8),
    ("gobmk_board", "default-norep", 2, 0xf638418aacb4e46d, 0xffbc7c3bd387cdc8),
    ("gobmk_board", "default-norep", 4, 0x3f791b89257b889e, 0xed6dd3a7537d635a),
    ("hmmer_dp", "default", 2, 0xbbb1baf6da8d4821, 0x6bb2429e20088c3a),
    ("hmmer_dp", "default", 4, 0xee3334e77d9d0f67, 0x1eb489361995deef),
    ("hmmer_dp", "greedy", 2, 0x07526585da00b885, 0x2b36fa6006442601),
    ("hmmer_dp", "greedy", 4, 0xd162e855669949e0, 0x59b2714559a61e2a),
    ("hmmer_dp", "modn5", 2, 0x4556f3a70b146eb8, 0x8800086f67f81b08),
    ("hmmer_dp", "modn5", 4, 0xda0354cfd9509c31, 0x1b53b29a8384c890),
    ("hmmer_dp", "default-norep", 2, 0x4a030a47bbecc07b, 0x4b02ed61fe1025fd),
    ("hmmer_dp", "default-norep", 4, 0x76ea8cc8f6498fc0, 0x2562f2cf2c01e65d),
    ("sjeng_eval", "default", 2, 0xc9b40cda35cc6528, 0xb07e62de5ca5f8c0),
    ("sjeng_eval", "default", 4, 0xf9d59d389c6558c0, 0x2d56b9a7ab8e5ef8),
    ("sjeng_eval", "greedy", 2, 0x6c4a92d2034b027c, 0xa3e8a09f994479c1),
    ("sjeng_eval", "greedy", 4, 0x6014c3533bb33314, 0x91796e897757e5b3),
    ("sjeng_eval", "modn5", 2, 0xc6518d4395c33684, 0xda4dce720b585bad),
    ("sjeng_eval", "modn5", 4, 0xd57dec6d7cba43ef, 0x9546ff554f2fe519),
    ("sjeng_eval", "default-norep", 2, 0x29f94a94cadb16f8, 0x64d124309b2fe7ed),
    ("sjeng_eval", "default-norep", 4, 0x88bb4a62557e0a99, 0x661a5f6a18a29793),
    ("libq_stream", "default", 2, 0x94dc8fbd0b1232c5, 0x1f888f4ac3208b9c),
    ("libq_stream", "default", 4, 0xc1b04d610310d1cf, 0x4692c8018d80518e),
    ("libq_stream", "greedy", 2, 0x78102742ee704613, 0xcf178b6b324bf3cc),
    ("libq_stream", "greedy", 4, 0x77dd5869c06709bb, 0x063c056abe6b883c),
    ("libq_stream", "modn5", 2, 0x836988919c676943, 0xe48c5e7079657181),
    ("libq_stream", "modn5", 4, 0xc59f6f462790f9e0, 0xd8a784be53aa9315),
    ("libq_stream", "default-norep", 2, 0x6fc147dfa7f715c2, 0x45c1a85bfd1c4007),
    ("libq_stream", "default-norep", 4, 0xf062a777b83bd89b, 0x103c24a5b72e9bac),
    ("h264_sad", "default", 2, 0x55f479ffc5bfbf50, 0xea26133e9d61a24a),
    ("h264_sad", "default", 4, 0x537f4f0f230f2e66, 0xc37d6d985cd129a2),
    ("h264_sad", "greedy", 2, 0x108d45d55b4d2642, 0xff3df8f772f42a3c),
    ("h264_sad", "greedy", 4, 0xd3546f26bc510155, 0x2efc67c51c380107),
    ("h264_sad", "modn5", 2, 0xce3eea20f16d38c9, 0x687adb1d06f9bc24),
    ("h264_sad", "modn5", 4, 0x376da764ce931f72, 0x162c3dd17033bb93),
    ("h264_sad", "default-norep", 2, 0xf8894c8566350741, 0x3dc50b6a1835be81),
    ("h264_sad", "default-norep", 4, 0x2eb6708f7ff89412, 0x0a88e11ebf80e6b5),
    ("astar_grid", "default", 2, 0x73741bcc6f14d45d, 0x3b189f622b25cfa1),
    ("astar_grid", "default", 4, 0x15038fdc7e27ef53, 0x095f30adc66e52cd),
    ("astar_grid", "greedy", 2, 0x1858eae55dfa2ff7, 0x0c3eed3aa76bce53),
    ("astar_grid", "greedy", 4, 0x67b7aa2a95fc756f, 0xdfb6c5a83e159d06),
    ("astar_grid", "modn5", 2, 0x18c3792d5746392c, 0xd34b3962dd501147),
    ("astar_grid", "modn5", 4, 0x9e7cea161af4cf71, 0x2051bd05c0dcf90f),
    ("astar_grid", "default-norep", 2, 0xed920050d1511652, 0x39e293fbefe1a693),
    ("astar_grid", "default-norep", 4, 0xf6d74edcd42ebcb0, 0xd0f8a7ef4eeab680),
    ("xalanc_tree", "default", 2, 0x1c2e171064d848f5, 0xfd62bb03f867aa9b),
    ("xalanc_tree", "default", 4, 0x0185fdc81e7d5995, 0xabd5386b19a28c43),
    ("xalanc_tree", "greedy", 2, 0x96de199fd4605162, 0x92573951b100b4df),
    ("xalanc_tree", "greedy", 4, 0x47c5affe9547a709, 0x771ddc2e761dbc03),
    ("xalanc_tree", "modn5", 2, 0x75c53b1abc5c2183, 0xa24fcfa7cfc32077),
    ("xalanc_tree", "modn5", 4, 0x5b5e8eb8d52975b3, 0x87e954b796acdc0e),
    ("xalanc_tree", "default-norep", 2, 0x835711908e2a3233, 0xb1e32993c76a758e),
    ("xalanc_tree", "default-norep", 4, 0x2b34e53b2704d84d, 0x0a46d3deb17f2bd7),
    ("milc_su3", "default", 2, 0x1fc26ae9925761b2, 0xba071b0ef6a2238d),
    ("milc_su3", "default", 4, 0xb5b51874212eef9a, 0xbe6a04e056cbf9f4),
    ("milc_su3", "greedy", 2, 0xb35072a9eb539dbd, 0x60199c4c6b88f6cc),
    ("milc_su3", "greedy", 4, 0x1855778816b797cc, 0x7c42a817220442b2),
    ("milc_su3", "modn5", 2, 0xf63c6732425e9765, 0xb3b25f9f0cadbf54),
    ("milc_su3", "modn5", 4, 0xd43d1cefe2bcc52e, 0x18c2fc5209034ade),
    ("milc_su3", "default-norep", 2, 0x04eeae49df470cee, 0x6edef150cf890f6f),
    ("milc_su3", "default-norep", 4, 0x8ec0b89063ee9eff, 0xdf3af7cf453b43aa),
    ("namd_force", "default", 2, 0x75e3576a761bd885, 0xcef111ecc8182aa9),
    ("namd_force", "default", 4, 0x8d9ae9f4b74715fd, 0x069a2d98bc0c3a15),
    ("namd_force", "greedy", 2, 0x23aa72802c304f08, 0x1c32c315cbbc9c23),
    ("namd_force", "greedy", 4, 0x9f9ac6240358e280, 0x2856ed786c5e1433),
    ("namd_force", "modn5", 2, 0x0c633e75b7d012aa, 0xb612a396d9b57dd8),
    ("namd_force", "modn5", 4, 0xae4ab38b3f0c94d2, 0x58c21c5b7ef4873e),
    ("namd_force", "default-norep", 2, 0x76683d7faa94bc52, 0x439c1405fa4b2aba),
    ("namd_force", "default-norep", 4, 0x7cc0c8cece867846, 0xfe3f708767816b85),
    ("lbm_stencil", "default", 2, 0xe125a25309dba8f6, 0xebf7fbe0063c354b),
    ("lbm_stencil", "default", 4, 0xa8259e0331afd002, 0xf8a62b2c22316b22),
    ("lbm_stencil", "greedy", 2, 0xfbf0aa9c3864c69c, 0x3a98aad397141331),
    ("lbm_stencil", "greedy", 4, 0xda2c3d25f82b3aff, 0xe555f5ffad570d86),
    ("lbm_stencil", "modn5", 2, 0xc7f7df8c42f66a57, 0x69bd9889cbcf1fc1),
    ("lbm_stencil", "modn5", 4, 0xc07d7e3841c9da99, 0xf7460044addc3f38),
    ("lbm_stencil", "default-norep", 2, 0x6da147b99e582d5d, 0x18ce01bc35d3578b),
    ("lbm_stencil", "default-norep", 4, 0xf88dedcfe5bf47c1, 0x6c6b05a91581a066),
    ("omnetpp_queue", "default", 2, 0x4d054b3726a40b5a, 0x7287220a797f88c2),
    ("omnetpp_queue", "default", 4, 0x294ef1bb1d01e5c3, 0x633df5da871f8426),
    ("omnetpp_queue", "greedy", 2, 0xf437ee7ba046099b, 0xdffe8ba0fdabb70a),
    ("omnetpp_queue", "greedy", 4, 0x0bf2c7c48de4bc82, 0x674fa3c32d28627a),
    ("omnetpp_queue", "modn5", 2, 0x909ff1e8cc168583, 0x470ea1469b15cef3),
    ("omnetpp_queue", "modn5", 4, 0x2c3577e1d5785177, 0xfae7c4268fdfdb07),
    ("omnetpp_queue", "default-norep", 2, 0x0590022bdb333250, 0xa68e3dbf5237ef56),
    ("omnetpp_queue", "default-norep", 4, 0x98c5e12d07e5c49b, 0xd84b081167cba2e9),
    ("soplex_sparse", "default", 2, 0x4745bf93f83804f0, 0x16f729a1fc5a3cc3),
    ("soplex_sparse", "default", 4, 0x29f84be42e45d716, 0x41f69447de33c096),
    ("soplex_sparse", "greedy", 2, 0x5a452da467a66894, 0x4d4c62847079080e),
    ("soplex_sparse", "greedy", 4, 0x71fec4defdf06c5d, 0xa83193ca36d8703a),
    ("soplex_sparse", "modn5", 2, 0x1acf3c22732d6391, 0x057da87a1929c200),
    ("soplex_sparse", "modn5", 4, 0x0b9beac25f99edc1, 0x72cfc3e2e9449c5a),
    ("soplex_sparse", "default-norep", 2, 0xdbba15c20234a32a, 0x1c73dffd0a0e79dc),
    ("soplex_sparse", "default-norep", 4, 0x685d1109eb901650, 0x5dfef5fd5de20464),
    ("povray_trace", "default", 2, 0xf1fe832ce71669cc, 0x3c7b3a413ae30da7),
    ("povray_trace", "default", 4, 0x2cb5eb7228ae1b82, 0xaa341420012e0cb8),
    ("povray_trace", "greedy", 2, 0xe15a147e1255f52f, 0x7091c2e02590b1a0),
    ("povray_trace", "greedy", 4, 0xb724122eef0fae26, 0x4058ec267a1d764b),
    ("povray_trace", "modn5", 2, 0x226ae1de7811c074, 0xbd3a67972d83da91),
    ("povray_trace", "modn5", 4, 0x6ac83b2c55a1f000, 0x462af46d94f2d18c),
    ("povray_trace", "default-norep", 2, 0xc630694d745145af, 0x2183a4633fd3ab7e),
    ("povray_trace", "default-norep", 4, 0xd1c5f495a8ba856d, 0x5cb0609f98ee4b09),
    ("bwaves_block", "default", 2, 0x86cfca00cd91281e, 0x452ea3e670b00d7d),
    ("bwaves_block", "default", 4, 0x45571a380304ba3c, 0x81378ac2f210e5e7),
    ("bwaves_block", "greedy", 2, 0x6e70a21cc32f2137, 0xea662685aa935b69),
    ("bwaves_block", "greedy", 4, 0xfb610b53d093af36, 0x0f5276e93c20445d),
    ("bwaves_block", "modn5", 2, 0x268a54ee67fdb629, 0x08b061502b2e6640),
    ("bwaves_block", "modn5", 4, 0x5b8a4a11128b61ca, 0xc6825f466c5f45d5),
    ("bwaves_block", "default-norep", 2, 0xac2ccc90c73d97e4, 0xb6c62ac6a31558cf),
    ("bwaves_block", "default-norep", 4, 0xabd1eb14184c0e1e, 0xaa42962262d836b5),
];

#[test]
fn every_workload_partition_preserves_semantics() {
    let mut seen = 0;
    for w in suite(Scale::Test) {
        let t = trace_workload(&w, Scale::Test);
        let stream = build_exec_stream(t.insts());
        let data: Vec<(u64, Vec<u8>)> = w
            .program()
            .data
            .iter()
            .map(|d| (d.addr, d.bytes.clone()))
            .collect();
        let config = |policy, replication| PartitionConfig {
            policy,
            replication,
            ..PartitionConfig::default()
        };
        for (label, cfg) in [
            ("default", config(PartitionPolicy::fgstp_default(), true)),
            ("greedy", config(PartitionPolicy::GreedyDep, true)),
            ("modn5", config(PartitionPolicy::ModN { chunk: 5 }, true)),
            (
                "default-norep",
                config(PartitionPolicy::fgstp_default(), false),
            ),
        ] {
            for num_cores in [2usize, 4] {
                let part = partition_stream(&stream, &cfg, num_cores);
                check_partition(&stream, &part, &data).unwrap_or_else(|e| {
                    panic!("{} with {label} on {num_cores} cores: {e}", w.name)
                });
                let (streams, tables) = fingerprint(&stream, &part);
                let pinned = PARTITION_FINGERPRINTS
                    .iter()
                    .find(|r| r.0 == w.name && r.1 == label && r.2 == num_cores)
                    .unwrap_or_else(|| panic!("{} {label} {num_cores}: not pinned", w.name));
                assert_eq!(
                    (streams, tables),
                    (pinned.3, pinned.4),
                    "{} with {label} on {num_cores} cores: per-core streams or tables moved",
                    w.name
                );
                seen += 1;
            }
        }
    }
    assert_eq!(seen, PARTITION_FINGERPRINTS.len());
}

#[test]
fn machines_commit_exactly_the_trace() {
    // Timing models on a representative cross-section (debug builds are
    // slow; the full suite runs in the release-mode experiment harness).
    for name in ["mcf_pointer", "hmmer_dp", "gobmk_board", "lbm_stencil"] {
        let w = fg_stp_repro::workloads::by_name(name, Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        for kind in MachineKind::ALL {
            let r = run_on(kind, t.insts());
            assert_eq!(r.result.committed, t.len() as u64, "{name} on {kind}");
        }
    }
}

#[test]
fn fgstp_branch_prediction_matches_single_core() {
    // The shared frontend orchestrator predicts in program order, so the
    // dual-core machine must see exactly the single-core mispredict count.
    for name in ["bzip_rle", "gobmk_board", "sjeng_eval"] {
        let w = fg_stp_repro::workloads::by_name(name, Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let single = run_on(MachineKind::SingleSmall, t.insts());
        let fgstp = run_on(MachineKind::FgstpSmall, t.insts());
        assert_eq!(single.result.branches, fgstp.result.branches, "{name}");
    }
}

#[test]
fn serial_pointer_chase_is_not_slowed_down() {
    // Fg-STP on an unpartitionable serial workload must track the single
    // core closely (the partitioner keeps the chain on one core).
    let w = fg_stp_repro::workloads::by_name("mcf_pointer", Scale::Test).unwrap();
    let t = trace_workload(&w, Scale::Test);
    let single = run_on(MachineKind::SingleSmall, t.insts());
    let fgstp = run_on(MachineKind::FgstpSmall, t.insts());
    let ratio = fgstp.result.cycles as f64 / single.result.cycles as f64;
    assert!(
        ratio < 1.1,
        "fgstp should not lose more than 10% on mcf, ratio {ratio:.3}"
    );
}
