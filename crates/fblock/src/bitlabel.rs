//! Bit-parallel execution of labelling schemes 1 and 2.
//!
//! Both labelling schemes are *local rules*: a node's next state depends
//! only on its own state and its four mesh neighbors' states. On the
//! word-packed node masks of [`mesh2d::bitgrid`] one synchronous round of
//! either rule is a handful of shift-and-OR word operations per row —
//! 64 nodes per instruction instead of one node per `step` call — while
//! the round structure (and therefore the Figure 11 round counts) is
//! exactly that of the scalar node-by-node execution:
//!
//! * **scheme 1** (growing): a safe node with an unsafe west/east neighbor
//!   *and* an unsafe north/south neighbor becomes unsafe —
//!   `(W | E) & (N | S)` on shifted word masks;
//! * **scheme 2** (shrinking): a disabled non-faulty node with two or more
//!   enabled neighbors is re-enabled — the 2-of-4 majority
//!   `(W&E)|(W&N)|(W&S)|(E&N)|(E&S)|(N&S)`.
//!
//! Every 2-D construction that labels runs here, on one reusable
//! [`LabelFrame`]: FB and FP frame the whole mesh, the CMFP virtual-block
//! solve frames one component's window. The excluded set the frame leaves
//! behind is a [`BitGrid`], so regions and status are read straight off the
//! packed rows. The scalar rules are the oracles: `mocp_core`'s
//! `construct_oracle` test runs them on a synchronous local-rule engine
//! (its `local_rule` module) and pins this module to them.

use crate::model::RoundStats;
use mesh2d::{BitGrid, Coord, FaultSet, Mesh2D};

/// The geometry of a frame of packed rows: `width_words` words per row,
/// bit `x` of row `y` = local node `(x, y)`.
#[derive(Clone, Copy, Debug, Default)]
struct PackedMesh {
    width_words: usize,
    height: usize,
    /// Mask of valid bits in the last word of each row.
    last_mask: u64,
}

impl PackedMesh {
    fn new(width: usize, height: usize) -> Self {
        let rem = width % 64;
        PackedMesh {
            width_words: width.div_ceil(64),
            height,
            last_mask: if rem == 0 { !0 } else { (1u64 << rem) - 1 },
        }
    }

    fn words(&self) -> usize {
        self.width_words * self.height
    }

    /// Applies the valid-width mask to one row slice.
    #[inline]
    fn mask_row(&self, row: &mut [u64]) {
        if let Some(last) = row.last_mut() {
            *last &= self.last_mask;
        }
    }
}

/// Reusable packed rows for labelling schemes 1 and 2 on one rectangular
/// frame with its north-west node at local `(0, 0)`.
///
/// [`reset`](Self::reset) re-frames it, [`mark_fault`](Self::mark_fault)
/// loads the faults, [`grow`](Self::grow) runs scheme 1 and
/// [`shrink`](Self::shrink) scheme 2; [`excluded`](Self::excluded) holds
/// the unsafe set after `grow` and the disabled set after `shrink`. One
/// frame threaded through many constructions allocates nothing once its
/// buffers reach the working-set size; [`grows`](Self::grows) counts the
/// times they had to grow.
#[derive(Clone, Debug, Default)]
pub struct LabelFrame {
    packed: PackedMesh,
    /// The excluded set: unsafe nodes (scheme 1), then disabled nodes
    /// (scheme 2).
    excluded: BitGrid,
    /// Faulty nodes; they never re-enable.
    faulty: Vec<u64>,
    /// Scheme 2's enabled set.
    enabled: Vec<u64>,
    /// One round's additions, applied after the whole frame is scanned.
    add: Vec<u64>,
    grows: u64,
}

/// Resizes `buf` to `words` zeroed words, counting a growth in `grows`.
fn reset_rows(buf: &mut Vec<u64>, words: usize, grows: &mut u64) {
    if words > buf.capacity() {
        *grows += 1;
    }
    buf.clear();
    buf.resize(words, 0);
}

impl LabelFrame {
    /// An empty frame; the first [`reset`](Self::reset) sizes it.
    pub fn new() -> Self {
        LabelFrame::default()
    }

    /// A frame covering `mesh` with the faults of `faults` loaded.
    pub fn for_faults(mesh: &Mesh2D, faults: &FaultSet) -> Self {
        let mut frame = LabelFrame::new();
        frame.reset(mesh.width(), mesh.height());
        for &c in faults.in_insertion_order() {
            frame.mark_fault(c);
        }
        frame
    }

    /// How many times a buffer had to grow since construction. Constant
    /// across calls ⇔ the labelling ran allocation-free.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Re-frames to `width × height` nodes with every node healthy and
    /// safe, reusing the buffers when their capacity suffices.
    pub fn reset(&mut self, width: i32, height: i32) {
        assert!(width > 0 && height > 0, "empty label frame");
        self.packed = PackedMesh::new(width as usize, height as usize);
        let words = self.packed.words();
        if self
            .excluded
            .reset_frame(Coord::ORIGIN, Coord::new(width - 1, height - 1))
        {
            self.grows += 1;
        }
        reset_rows(&mut self.faulty, words, &mut self.grows);
        reset_rows(&mut self.enabled, words, &mut self.grows);
        reset_rows(&mut self.add, words, &mut self.grows);
    }

    /// Marks local node `c` faulty (and so unsafe).
    #[inline]
    pub fn mark_fault(&mut self, c: Coord) {
        self.excluded.set(c);
        let (x, y) = (c.x as usize, c.y as usize);
        self.faulty[y * self.packed.width_words + x / 64] |= 1u64 << (x % 64);
    }

    /// Marks local node `c` unsafe without making it faulty, for callers
    /// that supply their own scheme-1 labelling to [`shrink`](Self::shrink).
    #[inline]
    pub fn mark_unsafe(&mut self, c: Coord) {
        self.excluded.set(c);
    }

    /// Runs labelling scheme 1 to its fixpoint: the excluded set enters
    /// holding the faulty nodes and leaves holding the unsafe set. The
    /// returned stats count synchronous rounds and per-node state changes
    /// exactly as the scalar engine does.
    pub fn grow(&mut self) -> RoundStats {
        let LabelFrame {
            packed,
            excluded,
            add,
            ..
        } = self;
        fixpoint(*packed, excluded.words_mut(), add, |_, w, e, n, s| {
            (w | e) & (n | s)
        })
    }

    /// Runs labelling scheme 2 to its fixpoint on top of the current
    /// excluded (unsafe) set: the safe nodes start enabled, the unsafe ones
    /// disabled, and faulty nodes never re-enable. The excluded set leaves
    /// holding the nodes that stay disabled.
    pub fn shrink(&mut self) -> RoundStats {
        let LabelFrame {
            packed,
            excluded,
            faulty,
            enabled,
            add,
            ..
        } = self;
        for (en, &u) in enabled.iter_mut().zip(excluded.words()) {
            *en = !u;
        }
        for row in enabled.chunks_mut(packed.width_words) {
            packed.mask_row(row);
        }
        // Two or more of the four neighbor masks set.
        let stats = fixpoint(*packed, enabled, add, |i, w, e, n, s| {
            ((w & e) | (w & n) | (w & s) | (e & n) | (e & s) | (n & s)) & !faulty[i]
        });
        for (u, &en) in excluded.words_mut().iter_mut().zip(enabled.iter()) {
            *u &= !en;
        }
        stats
    }

    /// The excluded set in local coordinates: the unsafe nodes after
    /// [`grow`](Self::grow), the disabled nodes after
    /// [`shrink`](Self::shrink).
    pub fn excluded(&self) -> &BitGrid {
        &self.excluded
    }
}

/// Runs a growing local rule on packed `rows` to its fixpoint. In each
/// synchronous round the rule maps word `i`'s four neighbor masks (west,
/// east, north, south; zero past the frame) to the nodes it sets; the new
/// bits collect in `add` and join `rows` once the whole frame is scanned.
/// Returns the rounds that changed a node and the number of changes, as
/// the scalar engine counts them.
fn fixpoint(
    packed: PackedMesh,
    rows: &mut [u64],
    add: &mut [u64],
    rule: impl Fn(usize, u64, u64, u64, u64) -> u64,
) -> RoundStats {
    let (ww, height) = (packed.width_words, packed.height);
    let mut stats = RoundStats::quiescent();
    loop {
        let mut changed = 0u64;
        for y in 0..height {
            for j in 0..ww {
                let i = y * ww + j;
                let own = rows[i];
                // Bit x of `west` is node x - 1, of `east` node x + 1,
                // carried across the word boundaries of the row.
                let west = (own << 1) | if j > 0 { rows[i - 1] >> 63 } else { 0 };
                let east = (own >> 1) | if j + 1 < ww { rows[i + 1] << 63 } else { 0 };
                let north = if y > 0 { rows[i - ww] } else { 0 };
                let south = if y + 1 < height { rows[i + ww] } else { 0 };
                add[i] = rule(i, west, east, north, south) & !own;
            }
            packed.mask_row(&mut add[y * ww..(y + 1) * ww]);
        }
        for (r, &a) in rows.iter_mut().zip(add.iter()) {
            changed += a.count_ones() as u64;
            *r |= a;
        }
        if changed == 0 {
            break;
        }
        stats.rounds += 1;
        stats.events += changed;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(side: i32, list: &[(i32, i32)]) -> LabelFrame {
        let mut frame = LabelFrame::new();
        frame.reset(side, side);
        for &(x, y) in list {
            frame.mark_fault(Coord::new(x, y));
        }
        frame
    }

    #[test]
    fn packing_round_trips_faults() {
        let packed = PackedMesh::new(70, 5);
        assert_eq!(packed.width_words, 2);
        assert_eq!(packed.last_mask, (1 << 6) - 1);
        assert_eq!(PackedMesh::new(128, 1).last_mask, !0);
        let list = [(0, 0), (63, 1), (64, 2), (69, 4)];
        let mut f = LabelFrame::new();
        f.reset(70, 5);
        for &(x, y) in &list {
            f.mark_fault(Coord::new(x, y));
        }
        for &(x, y) in &list {
            assert!(f.excluded().contains(Coord::new(x, y)));
        }
        assert!(!f.excluded().contains(Coord::new(1, 0)));
        assert_eq!(f.excluded().len(), list.len());
    }

    #[test]
    fn scheme1_diagonal_pair_grows_to_square_in_one_round() {
        let mut f = frame(8, &[(2, 2), (3, 3)]);
        let stats = f.grow();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.events, 2);
        assert!(f.excluded().contains(Coord::new(2, 3)));
        assert!(f.excluded().contains(Coord::new(3, 2)));
    }

    #[test]
    fn scheme2_reenables_block_corners() {
        let mut f = frame(8, &[(2, 2), (3, 3)]);
        f.grow();
        let stats = f.shrink();
        assert!(stats.rounds >= 1);
        assert!(
            !f.excluded().contains(Coord::new(2, 3)),
            "corner re-enabled"
        );
        assert!(f.excluded().contains(Coord::new(2, 2)), "fault stays off");
    }
}
