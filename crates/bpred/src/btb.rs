//! Branch target buffer.

use fgstp_tracefile::{take_count, take_varint, write_varint};

/// A direct-mapped branch target buffer.
///
/// Maps a branch PC to its most recent taken target. The frontend uses a
/// BTB miss on a predicted-taken branch as a one-cycle fetch bubble (the
/// target is not known until decode).
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<Option<(u64, u64)>>, // (pc, target)
    hits: u64,
    misses: u64,
}

impl Btb {
    /// Creates a BTB with `2^index_bits` entries.
    pub fn new(index_bits: u32) -> Btb {
        Btb {
            entries: vec![None; 1 << index_bits],
            hits: 0,
            misses: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (pc as usize) & (self.entries.len() - 1)
    }

    /// Looks up the predicted target for the branch at `pc`, recording
    /// hit/miss statistics.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        match self.entries[self.index(pc)] {
            Some((tag, target)) if tag == pc => {
                self.hits += 1;
                Some(target)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Installs or refreshes the target of the branch at `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        let i = self.index(pc);
        self.entries[i] = Some((pc, target));
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Appends the full BTB state to `out`: only the present entries, in
    /// table order, each as its branch PC (which also names its slot) and
    /// target.
    ///
    /// ```text
    /// varint entries | varint present | (varint pc | varint target)*
    /// | varint hits | varint misses
    /// ```
    pub fn save_state(&self, out: &mut Vec<u8>) {
        write_varint(out, self.entries.len() as u64);
        write_varint(out, self.entries.iter().flatten().count() as u64);
        for &(pc, target) in self.entries.iter().flatten() {
            write_varint(out, pc);
            write_varint(out, target);
        }
        write_varint(out, self.hits);
        write_varint(out, self.misses);
    }

    /// Restores state written by [`Btb::save_state`] on a same-size BTB,
    /// consuming it from the front of `bytes`. Entries must come in
    /// strictly increasing slot order, so no slot is written twice.
    pub fn load_state(&mut self, bytes: &mut &[u8]) -> Result<(), String> {
        let n = take_varint(bytes, "btb entries")?;
        if n != self.entries.len() as u64 {
            return Err(format!(
                "btb shape mismatch: {n} entries, expected {}",
                self.entries.len()
            ));
        }
        let present = take_varint(bytes, "btb present entries")?;
        if present > n {
            return Err(format!("btb has {present} present entries of {n}"));
        }
        self.entries.fill(None);
        let mut next_slot = 0;
        for _ in 0..present {
            let pc = take_varint(bytes, "btb pc")?;
            let target = take_varint(bytes, "btb target")?;
            let slot = self.index(pc);
            if slot < next_slot {
                return Err(format!("btb entry for pc {pc:#x} out of slot order"));
            }
            self.entries[slot] = Some((pc, target));
            next_slot = slot + 1;
        }
        self.hits = take_count(bytes, "btb hits")?;
        self.misses = take_count(bytes, "btb misses")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_after_update() {
        let mut btb = Btb::new(6);
        assert_eq!(btb.lookup(0x80), None);
        btb.update(0x80, 0x10);
        assert_eq!(btb.lookup(0x80), Some(0x10));
        assert_eq!(btb.stats(), (1, 1));
    }

    #[test]
    fn aliasing_pcs_evict() {
        let mut btb = Btb::new(2); // 4 entries: pcs 0x1 and 0x5 alias
        btb.update(0x1, 100);
        btb.update(0x5, 200);
        assert_eq!(btb.lookup(0x1), None, "evicted by aliasing pc");
        assert_eq!(btb.lookup(0x5), Some(200));
    }

    #[test]
    fn update_refreshes_target() {
        let mut btb = Btb::new(4);
        btb.update(0x3, 10);
        btb.update(0x3, 20);
        assert_eq!(btb.lookup(0x3), Some(20));
    }

    #[test]
    fn state_round_trips_and_rejects_mismatch() {
        let mut btb = Btb::new(4);
        btb.update(0x3, 10);
        btb.update(0x7, 30);
        btb.lookup(0x3);
        btb.lookup(0x9);
        let mut bytes = Vec::new();
        btb.save_state(&mut bytes);
        let mut restored = Btb::new(4);
        let mut r = bytes.as_slice();
        restored.load_state(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(restored.stats(), btb.stats());
        assert_eq!(restored.lookup(0x3), Some(10));
        assert_eq!(restored.lookup(0x7), Some(30));
        assert!(Btb::new(2).load_state(&mut bytes.as_slice()).is_err());
        let mut truncated = &bytes[..bytes.len() - 3];
        assert!(Btb::new(4).load_state(&mut truncated).is_err());
    }
}
