use std::collections::VecDeque;

/// A bounded FIFO modelling the buffer blocks that Tempus Core adds
/// "to accommodate multiple tub cycles per partial sum computation"
/// (§III).
///
/// Push/pop within a cycle follow valid/ready semantics: a push succeeds
/// only when the FIFO has space (`ready`), a pop only when it holds data.
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> Fifo<T> {
    /// Creates a FIFO holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be nonzero");
        Fifo {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// `true` when a producer can push this cycle.
    #[must_use]
    pub fn ready(&self) -> bool {
        self.items.len() < self.capacity
    }

    /// Offers `item`; returns it back when the FIFO is full (the
    /// producer must retry next cycle).
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.ready() {
            self.items.push_back(item);
            Ok(())
        } else {
            Err(item)
        }
    }

    /// Pops the oldest entry, if any.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_respects_capacity_and_order() {
        let mut f = Fifo::new(2);
        assert!(f.push(1).is_ok());
        assert!(f.push(2).is_ok());
        assert_eq!(f.push(3), Err(3));
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn fifo_valid_ready_track_occupancy() {
        let mut f = Fifo::new(1);
        assert!(f.ready());
        f.push(9u8).unwrap();
        assert!(!f.ready());
        assert_eq!(f.pop(), Some(9));
        assert!(f.ready());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_fifo_rejected() {
        let _: Fifo<u8> = Fifo::new(0);
    }
}
