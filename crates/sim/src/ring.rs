//! The one rule every bounded FIFO ring here follows.

use std::collections::VecDeque;

/// Append `item` to a FIFO ring of at most `cap` entries, evicting (and
/// returning) the oldest entry first when the ring is full. The buffer
/// grows by doubling as a `VecDeque` does, but never past `cap` slots:
/// pushing before evicting would double a full ring's buffer.
pub fn push_bounded<T>(ring: &mut VecDeque<T>, cap: usize, item: T) -> Option<T> {
    let evicted = if ring.len() >= cap {
        ring.pop_front()
    } else {
        None
    };
    if ring.len() == ring.capacity() {
        ring.reserve_exact(ring.len().max(4).min(cap - ring.len()));
    }
    ring.push_back(item);
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_ring_evicts_oldest_first_without_growing_its_buffer() {
        for cap in [1, 3, 8, 13] {
            let mut ring = VecDeque::new();
            let mut evicted = Vec::new();
            let mut buffer_when_full = 0;
            for i in 0..40u32 {
                evicted.extend(push_bounded(&mut ring, cap, i));
                assert!(ring.capacity() <= cap, "cap {cap}: buffer grew");
                if ring.len() == cap && buffer_when_full == 0 {
                    buffer_when_full = ring.capacity();
                }
            }
            assert_eq!(ring.capacity(), buffer_when_full, "cap {cap}");
            let kept: Vec<u32> = ring.into_iter().collect();
            assert_eq!(kept, (40 - cap as u32..40).collect::<Vec<_>>());
            assert_eq!(evicted, (0..40 - cap as u32).collect::<Vec<_>>());
        }
    }
}
