//! Per-construction memo of small component solves, keyed on shape.
//!
//! In the paper's simulation (§4: a 100×100 mesh with 100..800 faults)
//! nearly every faulty component is a single fault or a tiny cluster, and
//! a component's polygon and round accounting depend only on its shape
//! inside the window its solver works on. A [`ShapeCache`] lets a
//! construction solve each distinct small shape once and answer every
//! later component of the same shape from the table.
//!
//! The key ([`ShapeKey`]) is the window's width and height plus the
//! component's member bits, packed column-major (bit `(x − x0)·height +
//! (y − y0)`, so bit order is `Coord` order), for windows of at most 64
//! cells. Each model keys on the window its own solver already reads:
//! the centralized virtual-block solve on the unclipped virtual block
//! plus a one-node margin, the distributed replay on its ring frame
//! (the same margin, clipped to the mesh). A solve that reads nothing
//! outside that window is a pure function of the key, and a lookup
//! compares the whole key, so a hit returns exactly what a fresh solve
//! would.
//!
//! The table is direct-mapped: a fixed number of slots, allocated on the
//! first insert and overwritten on a collision. It lives with the
//! construction that fills it (the batch CMFP solve, a
//! [`DmfpScratch`](crate::DmfpScratch)), never in the incremental
//! engine's [`ConstructionScratch`](crate::ConstructionScratch): every
//! tenant of the monitoring service holds one of those, and a table each
//! would only add memory to a path that solves a handful of components
//! per event.

use mesh2d::{Coord, Rect};

/// Number of slots of a [`ShapeCache`] (a power of two). A figures-sweep
/// construction meets a few dozen distinct small shapes.
const SLOTS: usize = 256;

/// The window-local shape of a component: window width and height plus
/// the member bits, for windows of at most 64 cells.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct ShapeKey {
    width: u8,
    height: u8,
    bits: u64,
}

impl ShapeKey {
    /// The key of `cells` (which must lie inside `window`), or `None` when
    /// the window has more than 64 cells.
    pub(crate) fn new(window: Rect, cells: impl IntoIterator<Item = Coord>) -> Option<Self> {
        if window.area() > 64 {
            return None;
        }
        let mut key = ShapeKey {
            width: window.width() as u8,
            height: window.height() as u8,
            bits: 0,
        };
        key.bits = key.pack(window.min(), cells);
        Some(key)
    }

    /// Packs cells of a window of this key's size whose south-west corner
    /// is `origin` into window bits.
    pub(crate) fn pack(&self, origin: Coord, cells: impl IntoIterator<Item = Coord>) -> u64 {
        let height = i32::from(self.height);
        cells.into_iter().fold(0, |bits, c| {
            bits | 1 << ((c.x - origin.x) * height + (c.y - origin.y))
        })
    }

    /// The cells of window bits placed at `origin`, in `Coord` order.
    pub(crate) fn unpack(&self, origin: Coord, bits: u64) -> impl Iterator<Item = Coord> {
        let height = u32::from(self.height);
        let mut rest = bits;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let i = rest.trailing_zeros();
                rest &= rest - 1;
                Coord::new(
                    origin.x + (i / height) as i32,
                    origin.y + (i % height) as i32,
                )
            })
        })
    }

    /// The table slot of this key.
    fn slot(&self) -> usize {
        let dims = u64::from(self.width) << 8 | u64::from(self.height);
        let mut h = self.bits ^ dims.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = (h ^ h >> 31).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (h >> (64 - SLOTS.trailing_zeros())) as usize
    }
}

/// A direct-mapped table from [`ShapeKey`] to a model's per-shape result.
#[derive(Clone, Debug)]
pub(crate) struct ShapeCache<V> {
    /// `SLOTS` entries once the first result is inserted; an all-zero key
    /// (a 0×0 window) marks an empty slot.
    slots: Vec<(ShapeKey, V)>,
}

impl<V> Default for ShapeCache<V> {
    fn default() -> Self {
        ShapeCache { slots: Vec::new() }
    }
}

impl<V: Copy + Default> ShapeCache<V> {
    /// An empty cache; the table is allocated on the first insert.
    pub(crate) fn new() -> Self {
        ShapeCache::default()
    }

    /// Times the table was allocated: 0 before the first insert, 1 after.
    pub(crate) fn grows(&self) -> u64 {
        u64::from(!self.slots.is_empty())
    }

    /// The result stored for `key`, if its slot holds that key.
    pub(crate) fn get(&self, key: &ShapeKey) -> Option<V> {
        let (stored, value) = self.slots.get(key.slot())?;
        (stored == key).then_some(*value)
    }

    /// Stores `value` for `key`, replacing whatever its slot held.
    pub(crate) fn insert(&mut self, key: ShapeKey, value: V) {
        if self.slots.is_empty() {
            self.slots = vec![(ShapeKey::default(), V::default()); SLOTS];
        }
        self.slots[key.slot()] = (key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: i32, y0: i32, x1: i32, y1: i32) -> Rect {
        Rect::new(Coord::new(x0, y0), Coord::new(x1, y1))
    }

    #[test]
    fn a_64_cell_window_is_cached_and_a_65_cell_window_is_not() {
        // 8×8 with the north-east corner set: bit 63.
        let window = rect(10, 20, 17, 27);
        let corners = [Coord::new(10, 20), Coord::new(17, 27)];
        let key = ShapeKey::new(window, corners).expect("64 cells fit");
        assert_eq!(key.bits, 1 | 1 << 63);
        let mut cache = ShapeCache::new();
        assert_eq!(cache.grows(), 0);
        cache.insert(key, 7u32);
        assert_eq!(cache.get(&key), Some(7));
        assert_eq!(cache.grows(), 1);
        assert_eq!(
            key.unpack(window.min(), key.bits).collect::<Vec<_>>(),
            corners
        );
        // 5×13 = 65 cells.
        assert!(ShapeKey::new(rect(0, 0, 4, 12), [Coord::new(0, 0)]).is_none());
    }

    #[test]
    fn keys_are_translation_invariant_and_size_sensitive() {
        let cells = |dx: i32| [Coord::new(1 + dx, 1), Coord::new(2 + dx, 2)];
        let a = ShapeKey::new(rect(0, 0, 3, 3), cells(0)).unwrap();
        let b = ShapeKey::new(rect(40, 0, 43, 3), cells(40)).unwrap();
        assert_eq!(a, b);
        // The same bits in a taller window are another shape.
        let c = ShapeKey::new(rect(0, 0, 3, 4), cells(0)).unwrap();
        assert_ne!(a, c);
        let mut cache = ShapeCache::new();
        cache.insert(a, 1u8);
        assert_eq!(cache.get(&b), Some(1));
        assert_eq!(cache.get(&c), None);
    }

    #[test]
    fn unpack_round_trips_pack_in_coord_order() {
        let window = rect(-1, -1, 3, 2);
        let cells = [(-1, 0), (0, -1), (0, 2), (2, 1), (3, -1)].map(|(x, y)| Coord::new(x, y));
        let key = ShapeKey::new(window, cells).unwrap();
        assert_eq!(
            key.unpack(window.min(), key.bits).collect::<Vec<_>>(),
            cells
        );
    }
}
