//! Inline fixed-capacity FIFO for a station's µTESLA buffers.

use std::ops::Index;

/// A FIFO of at most `N` items stored inline, oldest first, for SSTSP's
/// pending observations (4) and sync samples (2): pushing onto a full FIFO
/// evicts the oldest item. Capacities are tiny, so removal shifts the items
/// behind it instead of wrapping a ring, and building a station allocates
/// nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fifo<T: Copy + Default, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> Fifo<T, N> {
    /// An empty FIFO.
    pub(crate) fn new() -> Self {
        Fifo {
            items: [T::default(); N],
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The items, oldest first.
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.items[..self.len]
    }

    /// Append `item` as the newest, first evicting the oldest if full.
    pub(crate) fn push_evicting(&mut self, item: T) {
        if self.len == N {
            self.pop_front();
        }
        self.items[self.len] = item;
        self.len += 1;
    }

    /// Remove and return the oldest item.
    fn pop_front(&mut self) -> Option<T> {
        self.remove(0)
    }

    /// Remove and return the item at `index` (0 = oldest), keeping the
    /// order of the rest.
    pub(crate) fn remove(&mut self, index: usize) -> Option<T> {
        if index >= self.len {
            return None;
        }
        let item = self.items[index];
        self.items.copy_within(index + 1..self.len, index);
        self.len -= 1;
        Some(item)
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }
}

impl<T: Copy + Default, const N: usize> Index<usize> for Fifo<T, N> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.as_slice()[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Replay `ops` on a `Fifo<_, N>` and on a `VecDeque` model, comparing
    /// every result and the full contents after each step. The model
    /// evicts its oldest item before a push at capacity, as the station's
    /// `VecDeque` buffers did.
    fn check_against_model<const N: usize>(ops: &[(u8, u32)]) {
        let mut fifo = Fifo::<u32, N>::new();
        let mut model = VecDeque::new();
        for &(op, v) in ops {
            match op {
                0 => {
                    if model.len() == N {
                        model.pop_front();
                    }
                    fifo.push_evicting(v);
                    model.push_back(v);
                }
                1 => prop_assert_eq!(fifo.pop_front(), model.pop_front()),
                2 => {
                    let pos = fifo.as_slice().iter().position(|&x| x == v);
                    prop_assert_eq!(pos, model.iter().position(|&x| x == v));
                    if let Some(pos) = pos {
                        prop_assert_eq!(fifo.remove(pos), model.remove(pos));
                    }
                    prop_assert_eq!(fifo.remove(N), None);
                }
                3 => {
                    for i in 0..model.len() {
                        prop_assert_eq!(fifo[i], model[i]);
                    }
                }
                _ => {
                    fifo.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(fifo.len(), model.len());
            prop_assert!(fifo.as_slice().iter().eq(model.iter()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Push-heavy random sequences (values from a small alphabet, so
        /// `position` finds duplicates) at both capacities the station uses.
        #[test]
        fn fifo_matches_vecdeque_model(
            ops in proptest::collection::vec((0u8..6, 0u32..6), 1..80)
        ) {
            // Ops 0 and 5 both push, so sequences fill the FIFO often.
            let ops: Vec<(u8, u32)> =
                ops.into_iter().map(|(op, v)| (if op == 5 { 0 } else { op }, v)).collect();
            check_against_model::<2>(&ops);
            check_against_model::<4>(&ops);
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn indexing_past_len_panics() {
        let mut fifo = Fifo::<u32, 4>::new();
        fifo.push_evicting(1);
        let _ = fifo[1];
    }
}
