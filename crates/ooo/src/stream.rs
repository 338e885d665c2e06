//! Execution stream: dynamic instructions annotated with their exact
//! register and memory dependences.
//!
//! Trace-driven timing models know the committed path up front, so true
//! dependences can be computed exactly once and reused by every machine.
//! Each core runs a [`StreamView`] over that one stream: the whole of it
//! on a one-core machine, or the Fg-STP partitioner's selection, whose
//! entries carry the per-core `replica`/`sends`/`cross` flags that the
//! core applies as it fetches.

use std::collections::HashMap;

use fgstp_isa::{DynInst, InstClass};

/// A register dependence on an older dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcDep {
    /// Global sequence number of the producing instruction.
    pub producer: u64,
    /// Whether the producer executes on the other core (set by the
    /// partitioner; always `false` in single-core streams).
    pub cross: bool,
}

/// A memory dependence of a load on the youngest older store that wrote
/// any byte the load reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemDep {
    /// Global sequence number of the conflicting store.
    pub store: u64,
    /// Whether the store's bytes fully cover the load (store-to-load
    /// forwarding is possible).
    pub forwardable: bool,
    /// Whether the store executes on the other core (set by the
    /// partitioner).
    pub cross: bool,
}

/// One dynamic instruction, annotated for the timing models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecInst {
    /// The committed dynamic instruction.
    pub d: DynInst,
    /// Global sequence number: the position in the annotated stream,
    /// numbered from 0. It equals `d.seq` only when the stream covers a
    /// trace from its start; a stream built from a slice of a trace (a
    /// sampling window, an adaptive controller's interval) still starts
    /// at 0 while `d.seq` keeps the trace position.
    pub gseq: u64,
    /// Register dependences (up to two sources).
    pub deps: [Option<SrcDep>; 2],
    /// Memory dependence, for loads that conflict with an older store.
    pub mem_dep: Option<MemDep>,
    /// Whether this is the replicated shadow copy of an instruction
    /// assigned to the other core (Fg-STP replication).
    pub replica: bool,
    /// Whether the produced value must be sent to the other core.
    pub sends: bool,
}

impl ExecInst {
    /// Behaviour class of the instruction.
    pub fn class(&self) -> InstClass {
        self.d.class()
    }

    /// Whether the instruction is a load.
    pub fn is_load(&self) -> bool {
        self.class() == InstClass::Load
    }

    /// Whether the instruction is a store.
    pub fn is_store(&self) -> bool {
        self.class() == InstClass::Store
    }

    /// Start address and width of the memory access, if any.
    pub fn mem_range(&self) -> Option<(u64, u8)> {
        let addr = self.d.addr?;
        let width = self.d.inst.op.mem_width()?;
        Some((addr, width))
    }
}

/// One instruction of a [`StreamView::Selected`] view: its global sequence
/// number and the five flags its core sets on the annotated entry, packed
/// into one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewEntry(u64);

impl ViewEntry {
    const REPLICA: u64 = 1;
    const SENDS: u64 = 1 << 1;
    /// `deps[k].cross` is bit `2 + k`.
    const DEP_CROSS: u64 = 1 << 2;
    const MEM_CROSS: u64 = 1 << 4;
    const FLAG_BITS: u32 = 5;

    /// Instruction `gseq` as a core runs it: a replica or the primary
    /// copy, whether it sends its value, and whether each register source
    /// and the memory dependence come from another core.
    pub fn new(
        gseq: u64,
        replica: bool,
        sends: bool,
        dep_cross: [bool; 2],
        mem_cross: bool,
    ) -> ViewEntry {
        debug_assert!(gseq < 1 << (64 - Self::FLAG_BITS), "gseq {gseq}");
        let bit = |set: bool, b: u64| if set { b } else { 0 };
        ViewEntry(
            gseq << Self::FLAG_BITS
                | bit(replica, Self::REPLICA)
                | bit(sends, Self::SENDS)
                | bit(dep_cross[0], Self::DEP_CROSS)
                | bit(dep_cross[1], Self::DEP_CROSS << 1)
                | bit(mem_cross, Self::MEM_CROSS),
        )
    }

    /// Global sequence number of the instruction.
    fn gseq(self) -> u64 {
        self.0 >> Self::FLAG_BITS
    }

    /// `x`, the annotated entry of this instruction, with this entry's
    /// flags set.
    fn apply(self, x: &ExecInst) -> ExecInst {
        debug_assert_eq!(x.gseq, self.gseq());
        let mut y = *x;
        y.replica = self.0 & Self::REPLICA != 0;
        y.sends = self.0 & Self::SENDS != 0;
        for (k, dep) in y.deps.iter_mut().enumerate() {
            if let Some(dep) = dep {
                dep.cross = self.0 & (Self::DEP_CROSS << k) != 0;
            }
        }
        if let Some(md) = y.mem_dep.as_mut() {
            md.cross = self.0 & Self::MEM_CROSS != 0;
        }
        y
    }
}

/// The instructions one core runs, as a view over the annotated stream
/// (the `base` every method takes) rather than a copy of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamView {
    /// Every instruction, exactly as annotated: one core running the
    /// thread alone.
    Whole,
    /// The listed instructions, in program order, each with its per-core
    /// flags.
    Selected(Vec<ViewEntry>),
}

impl StreamView {
    /// Number of instructions the view holds.
    pub fn len(&self, base: &[ExecInst]) -> usize {
        match self {
            StreamView::Whole => base.len(),
            StreamView::Selected(entries) => entries.len(),
        }
    }

    /// Global sequence number of the `i`-th instruction.
    pub fn gseq(&self, base: &[ExecInst], i: usize) -> Option<u64> {
        match self {
            StreamView::Whole => base.get(i).map(|x| x.gseq),
            StreamView::Selected(entries) => entries.get(i).map(|e| e.gseq()),
        }
    }

    /// The annotated entry of the `i`-th instruction, without the per-core
    /// flags (its committed instruction and producers are the same).
    pub fn annotated<'b>(&self, base: &'b [ExecInst], i: usize) -> Option<&'b ExecInst> {
        match self {
            StreamView::Whole => base.get(i),
            StreamView::Selected(entries) => entries.get(i).map(|e| &base[e.gseq() as usize]),
        }
    }

    /// The `i`-th instruction as its core runs it.
    pub fn get(&self, base: &[ExecInst], i: usize) -> Option<ExecInst> {
        match self {
            StreamView::Whole => base.get(i).copied(),
            StreamView::Selected(entries) => {
                entries.get(i).map(|e| e.apply(&base[e.gseq() as usize]))
            }
        }
    }

    /// Every instruction as its core runs it, in order.
    pub fn iter<'v>(&'v self, base: &'v [ExecInst]) -> impl Iterator<Item = ExecInst> + 'v {
        (0..self.len(base)).filter_map(move |i| self.get(base, i))
    }
}

/// Annotates a committed-path trace with exact register and memory
/// dependences, producing the stream every timing model consumes.
///
/// Register dependences resolve to the youngest older writer of each source
/// register. Memory dependences resolve to the youngest older store that
/// wrote any byte the load reads, with an exact-coverage flag for
/// store-to-load forwarding.
pub fn build_exec_stream(trace: &[DynInst]) -> Vec<ExecInst> {
    let mut last_writer: [Option<u64>; 64] = [None; 64];
    let mut last_store_per_byte: HashMap<u64, u64> = HashMap::new();
    let mut store_ranges: HashMap<u64, (u64, u8)> = HashMap::new();
    let mut out = Vec::with_capacity(trace.len());

    for (idx, d) in trace.iter().enumerate() {
        // Sequence numbers are positions within *this* stream, so the
        // machines can also run slices of a trace (sampling controllers,
        // interval simulation).
        let gseq = idx as u64;
        let mut deps = [None, None];
        for (i, src) in d.inst.sources().enumerate() {
            deps[i] = last_writer[src.index()].map(|producer| SrcDep {
                producer,
                cross: false,
            });
        }

        let mut mem_dep = None;
        if d.class() == InstClass::Load {
            if let (Some(addr), Some(width)) = (d.addr, d.inst.op.mem_width()) {
                let mut youngest: Option<u64> = None;
                for b in 0..u64::from(width) {
                    if let Some(&s) = last_store_per_byte.get(&addr.wrapping_add(b)) {
                        youngest = Some(youngest.map_or(s, |y: u64| y.max(s)));
                    }
                }
                if let Some(store) = youngest {
                    let (saddr, swidth) = store_ranges[&store];
                    let forwardable =
                        saddr <= addr && saddr + u64::from(swidth) >= addr + u64::from(width);
                    mem_dep = Some(MemDep {
                        store,
                        forwardable,
                        cross: false,
                    });
                }
            }
        }

        out.push(ExecInst {
            d: *d,
            gseq,
            deps,
            mem_dep,
            replica: false,
            sends: false,
        });

        if let Some(rd) = d.inst.dest() {
            last_writer[rd.index()] = Some(gseq);
        }
        if d.class() == InstClass::Store {
            if let (Some(addr), Some(width)) = (d.addr, d.inst.op.mem_width()) {
                for b in 0..u64::from(width) {
                    last_store_per_byte.insert(addr.wrapping_add(b), gseq);
                }
                store_ranges.insert(gseq, (addr, width));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_isa::{assemble, trace_program};

    fn stream(src: &str) -> Vec<ExecInst> {
        let p = assemble(src).unwrap();
        let t = trace_program(&p, 10_000).unwrap();
        build_exec_stream(t.insts())
    }

    #[test]
    fn register_deps_point_to_youngest_writer() {
        let s = stream(
            r#"
                li  x1, 1       # 0
                li  x1, 2       # 1
                add x2, x1, x1  # 2: both deps on seq 1
                halt
            "#,
        );
        assert_eq!(
            s[2].deps[0],
            Some(SrcDep {
                producer: 1,
                cross: false
            })
        );
        assert_eq!(
            s[2].deps[1],
            Some(SrcDep {
                producer: 1,
                cross: false
            })
        );
    }

    #[test]
    fn zero_register_never_creates_deps() {
        let s = stream("li x1, 3\nadd x2, x0, x0\nhalt");
        assert_eq!(s[1].deps, [None, None]);
    }

    #[test]
    fn unwritten_registers_have_no_dep() {
        let s = stream("add x2, x5, x6\nhalt");
        assert_eq!(s[0].deps, [None, None]);
    }

    #[test]
    fn load_depends_on_exact_covering_store() {
        let s = stream(
            r#"
                li x1, 0x100    # 0
                li x2, 7        # 1
                sd x2, 0(x1)    # 2
                ld x3, 0(x1)    # 3
                halt
            "#,
        );
        let md = s[3].mem_dep.unwrap();
        assert_eq!(md.store, 2);
        assert!(md.forwardable);
    }

    #[test]
    fn partial_overlap_is_not_forwardable() {
        let s = stream(
            r#"
                li x1, 0x100
                li x2, 7
                sb x2, 0(x1)    # 2: writes one byte
                ld x3, 0(x1)    # 3: reads eight bytes
                halt
            "#,
        );
        let md = s[3].mem_dep.unwrap();
        assert_eq!(md.store, 2);
        assert!(!md.forwardable, "store covers only part of the load");
    }

    #[test]
    fn disjoint_store_creates_no_mem_dep() {
        let s = stream(
            r#"
                li x1, 0x100
                li x2, 7
                sd x2, 64(x1)
                ld x3, 0(x1)
                halt
            "#,
        );
        assert!(s[3].mem_dep.is_none());
    }

    #[test]
    fn youngest_of_multiple_stores_wins() {
        let s = stream(
            r#"
                li x1, 0x100
                li x2, 1
                sd x2, 0(x1)    # 2
                sd x2, 0(x1)    # 3
                ld x3, 0(x1)    # 4
                halt
            "#,
        );
        assert_eq!(s[4].mem_dep.unwrap().store, 3);
    }

    #[test]
    fn view_entries_set_each_flag_where_it_belongs() {
        let s = stream(
            r#"
                li x1, 0x100    # 0
                sd x0, 0(x1)    # 1
                add x2, x5, x1  # 2: x5 is never written: deps [None, Some(0)]
                ld x3, 0(x1)    # 3: mem_dep on 1
                halt
            "#,
        );
        assert_eq!(s[2].deps[0], None);
        let x = ViewEntry::new(2, true, false, [true, true], true).apply(&s[2]);
        assert_eq!((x.replica, x.sends), (true, false));
        assert_eq!(x.deps[0], None, "a flag never creates a dependence");
        assert!(x.deps[1].unwrap().cross);
        assert_eq!(x.mem_dep, None);
        let e = ViewEntry::new(3, false, true, [false, false], true);
        assert_eq!(e.gseq(), 3);
        let y = e.apply(&s[3]);
        assert!(y.sends && !y.replica && y.mem_dep.unwrap().cross);
        assert!(!y.deps[0].unwrap().cross);
        // Apart from the flags, the entry is the annotated one.
        let plain = ViewEntry::new(3, false, false, [false, false], false).apply(&s[3]);
        assert_eq!(plain, s[3]);
    }

    #[test]
    fn views_select_from_the_annotated_stream() {
        let s = stream("li x1, 1\nli x2, 2\nadd x3, x1, x2\nhalt");
        let whole = StreamView::Whole;
        assert_eq!(whole.len(&s), 3);
        assert!(whole.iter(&s).eq(s.iter().copied()));
        let picked = StreamView::Selected(vec![
            ViewEntry::new(0, true, false, [false, false], false),
            ViewEntry::new(2, false, false, [false, true], false),
        ]);
        assert_eq!(picked.len(&s), 2);
        assert_eq!(picked.gseq(&s, 1), Some(2));
        assert_eq!(picked.gseq(&s, 2), None);
        assert_eq!(picked.annotated(&s, 1), Some(&s[2]));
        let got: Vec<ExecInst> = picked.iter(&s).collect();
        assert_eq!(got.len(), 2);
        assert!(got[0].replica);
        assert!(got[1].deps[1].unwrap().cross && !got[1].deps[0].unwrap().cross);
    }

    #[test]
    fn gseq_numbers_a_slice_from_zero_and_d_seq_keeps_the_trace_position() {
        let p = assemble(
            r#"
                li x1, 0x100    # 0
                li x2, 7        # 1
                sd x2, 0(x1)    # 2
                ld x3, 0(x1)    # 3
                add x4, x3, x2  # 4
                halt
            "#,
        )
        .unwrap();
        let t = trace_program(&p, 10_000).unwrap();
        let s = build_exec_stream(&t.insts()[2..]);
        assert_eq!(s.len(), 3);
        for (i, x) in s.iter().enumerate() {
            assert_eq!(x.gseq, i as u64);
            assert_eq!(x.d.seq, i as u64 + 2);
        }
        // Producers are named by stream position too; one outside the
        // slice leaves no dependence.
        assert_eq!(s[1].mem_dep.unwrap().store, 0);
        assert_eq!(s[0].deps, [None, None]);
        assert_eq!(s[2].deps[0].unwrap().producer, 1);
        assert_eq!(s[2].deps[1], None);
    }

    #[test]
    fn mem_range_reports_addr_and_width() {
        let s = stream("li x1, 0x40\nlw x2, 4(x1)\nhalt");
        assert_eq!(s[1].mem_range(), Some((0x44, 4)));
        assert_eq!(s[0].mem_range(), None);
    }
}
