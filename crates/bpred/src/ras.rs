//! Return-address stack.

use fgstp_tracefile::{take_varint, write_varint};

/// A fixed-depth return-address stack with wrap-around overwrite, as in
/// real frontends (an overflowing push silently drops the oldest entry).
#[derive(Debug, Clone)]
pub struct ReturnStack {
    entries: Vec<u64>,
    top: usize,
    len: usize,
}

impl ReturnStack {
    /// Creates a stack holding up to `depth` return addresses.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> ReturnStack {
        assert!(depth > 0, "return stack needs at least one entry");
        ReturnStack {
            entries: vec![0; depth],
            top: 0,
            len: 0,
        }
    }

    /// Pushes a return address (on a call).
    pub fn push(&mut self, return_pc: u64) {
        self.top = (self.top + 1) % self.entries.len();
        self.entries[self.top] = return_pc;
        self.len = (self.len + 1).min(self.entries.len());
    }

    /// Pops the predicted return address (on a return); `None` when empty.
    pub fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let v = self.entries[self.top];
        self.top = (self.top + self.entries.len() - 1) % self.entries.len();
        self.len -= 1;
        Some(v)
    }

    /// Current number of valid entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stack has no valid entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends the full stack state to `out`: a varint depth, every slot
    /// as a varint (live or not), then varint `top` and `len`.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        write_varint(out, self.entries.len() as u64);
        for &e in &self.entries {
            write_varint(out, e);
        }
        write_varint(out, self.top as u64);
        write_varint(out, self.len as u64);
    }

    /// Restores state written by [`ReturnStack::save_state`] on a
    /// same-depth stack, consuming it from the front of `bytes`.
    pub fn load_state(&mut self, bytes: &mut &[u8]) -> Result<(), String> {
        let depth = take_varint(bytes, "ras depth")?;
        if depth != self.entries.len() as u64 {
            return Err(format!(
                "ras shape mismatch: depth {depth}, expected {}",
                self.entries.len()
            ));
        }
        for e in &mut self.entries {
            *e = take_varint(bytes, "ras entry")?;
        }
        let top = take_varint(bytes, "ras top")?;
        let len = take_varint(bytes, "ras len")?;
        if top >= depth || len > depth {
            return Err(format!("ras snapshot out of range: top {top}, len {len}"));
        }
        self.top = top as usize;
        self.len = len as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = ReturnStack::new(8);
        ras.push(10);
        ras.push(20);
        assert_eq!(ras.pop(), Some(20));
        assert_eq!(ras.pop(), Some(10));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut ras = ReturnStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3); // drops 1
        assert_eq!(ras.len(), 2);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_depth_panics() {
        ReturnStack::new(0);
    }

    #[test]
    fn state_round_trips_and_rejects_mismatch() {
        let mut ras = ReturnStack::new(4);
        for v in [10, 20, 30, 40, 50] {
            ras.push(v); // overflows once: wrap state matters
        }
        ras.pop();
        let mut bytes = Vec::new();
        ras.save_state(&mut bytes);
        let mut restored = ReturnStack::new(4);
        let mut r = bytes.as_slice();
        restored.load_state(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(restored.len(), ras.len());
        assert_eq!(restored.pop(), Some(40));
        assert_eq!(restored.pop(), Some(30));
        assert!(ReturnStack::new(2)
            .load_state(&mut bytes.as_slice())
            .is_err());
        let mut truncated = &bytes[..bytes.len() - 5];
        assert!(ReturnStack::new(4).load_state(&mut truncated).is_err());
    }
}
