//! The simulation loop's event queue.
//!
//! The simulator's hot loop is "pop the earliest event, process it,
//! push a few more". [`EventQueue`] pops in exactly `(time, seq)`
//! ascending order — `seq` is unique per entry, so the order is total.
//!
//! Keys pack `(time << 64) | seq` into one `u128` so a comparison is a
//! single wide integer compare.

/// One heap entry; comparison is reversed so `BinaryHeap`'s max-heap
/// behaves as the min-queue the simulation needs.
#[derive(Debug, Clone, Copy)]
struct HeapEntry<T> {
    key: u128,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for HeapEntry<T> {}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// Minimum-first event queue keyed by packed `(time << 64) | seq`: a
/// binary heap of packed keys.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue<T> {
    heap: std::collections::BinaryHeap<HeapEntry<T>>,
}

impl<T: Copy> EventQueue<T> {
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: std::collections::BinaryHeap::new(),
        }
    }

    /// Enqueues an entry.
    #[inline]
    pub fn push(&mut self, key: u128, item: T) {
        self.heap.push(HeapEntry { key, item });
    }

    /// Pops the minimum-key entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(u128, T)> {
        self.heap.pop().map(|e| (e.key, e.item))
    }

    /// Pops the minimum-key entry only if its time (`key >> 64`) is at
    /// most `bound`; otherwise leaves the queue untouched.
    #[inline]
    pub fn pop_if(&mut self, bound: u64) -> Option<(u128, T)> {
        let peeked = self.heap.peek()?;
        if (peeked.key >> 64) as u64 > bound {
            return None;
        }
        self.pop()
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entry is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Snapshot export: every queued entry, in arbitrary order (capture
    /// sorts by key so equal states snapshot identically).
    pub fn export(&self) -> Vec<(u128, T)> {
        self.heap.iter().map(|e| (e.key, e.item)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use senss_crypto::rng::SplitMix64;

    fn key(time: u64, seq: u64) -> u128 {
        ((time as u128) << 64) | seq as u128
    }

    /// Reference model: a `Vec` kept sorted by key, popped from the
    /// front.
    #[derive(Default)]
    struct SortedVec(Vec<(u128, u64)>);

    impl SortedVec {
        fn push(&mut self, key: u128, item: u64) {
            let at = self.0.partition_point(|&(k, _)| k < key);
            self.0.insert(at, (key, item));
        }

        fn pop_if(&mut self, bound: u64) -> Option<(u128, u64)> {
            let &(k, _) = self.0.first()?;
            if (k >> 64) as u64 > bound {
                return None;
            }
            Some(self.0.remove(0))
        }
    }

    /// The heap pops any workload in exactly the order of a sorted-`Vec`
    /// reference — simulation-shaped (mostly monotone pushes, occasional
    /// same-time bursts) plus occasional far-future jumps.
    #[test]
    fn heap_pops_like_a_sorted_vec() {
        let mut rng = SplitMix64::new(0x5C4E);
        for round in 0..16 {
            let mut heap: EventQueue<u64> = EventQueue::new();
            let mut reference = SortedVec::default();
            let mut now = 0u64;
            let mut seq = 0u64;
            for _ in 0..3_000 {
                match rng.next_below(5) {
                    // Push a near-future event (latency-shaped).
                    0..=2 => {
                        let delta = rng.next_below(200);
                        // Occasionally jump far into the future.
                        let delta = if round % 3 == 0 && rng.next_below(100) == 0 {
                            delta + 200_000
                        } else {
                            delta
                        };
                        seq += 1;
                        let k = key(now + delta, seq);
                        heap.push(k, seq);
                        reference.push(k, seq);
                    }
                    3 => {
                        let got = heap.pop();
                        assert_eq!(got, reference.pop_if(u64::MAX));
                        if let Some((k, _)) = got {
                            now = (k >> 64) as u64;
                        }
                    }
                    _ => {
                        let bound = now + rng.next_below(300);
                        let got = heap.pop_if(bound);
                        assert_eq!(got, reference.pop_if(bound));
                        if let Some((k, _)) = got {
                            now = (k >> 64) as u64;
                        }
                    }
                }
                assert_eq!(heap.len(), reference.0.len());
            }
            // Drain: the tails must agree exactly.
            loop {
                let a = heap.pop();
                assert_eq!(a, reference.pop_if(u64::MAX));
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// `pop_if` past the bound refuses without disturbing the queue,
    /// and exports carry every queued entry.
    #[test]
    fn pop_if_refusal_and_export() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.push(key(100, 1), 1);
        q.push(key(50, 2), 2);
        q.push(key(100, 3), 3);
        assert_eq!(q.pop_if(40), None, "nothing due at 40");
        assert_eq!(q.len(), 3);
        let mut exported = q.export();
        exported.sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(
            exported,
            vec![(key(50, 2), 2), (key(100, 1), 1), (key(100, 3), 3)]
        );
        assert_eq!(q.pop_if(50), Some((key(50, 2), 2)));
        // Same-time entries pop in seq order.
        assert_eq!(q.pop(), Some((key(100, 1), 1)));
        assert_eq!(q.pop(), Some((key(100, 3), 3)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }
}
