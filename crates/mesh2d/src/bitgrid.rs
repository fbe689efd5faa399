//! Word-packed occupancy bitmaps: 64 nodes per `u64`, one bit per node.
//!
//! Every hot kernel of the fault-model stack is a boolean pass over mesh
//! nodes — flood fills, gap fills, dilations, subset tests. [`BitGrid`]
//! packs one bit per node into row-major `u64` words so those passes
//! become shift-and-OR word operations processing 64 nodes at a time:
//!
//! * **component labelling** — find-first-set seeds plus whole-word
//!   frontier expansion ([`BitGrid::components`]);
//! * **the minimum-polygon hull fixpoint** — per-row occupied spans from
//!   leading/trailing-zero counts and word-parallel column fills
//!   ([`BitGrid::hull_fixpoint`]);
//! * **neighborhood dilation** — the clustered-distribution boost mask
//!   and the flood frontier as shifted-word ORs ([`BitGrid::dilate8`]);
//! * **subset / intersection tests** — the safety predicates of the
//!   generic `Outcome` as whole-word AND/OR scans
//!   ([`BitGrid::is_subset_of`], [`BitGrid::intersects`]).
//!
//! A grid covers a rectangular *frame* chosen at construction. The frame's
//! x-origin is always rounded down to a multiple of 64, so any two grids
//! share the same bit phase: binary operations between frames are pure
//! word-at-a-time loops (a word-index offset, never a bit shift).
//!
//! [`Region`] is a grid of this type plus its node count; the scalar
//! ordered-set implementations these kernels replaced are the oracle of
//! the `region_oracle` test.

use crate::{Connectivity, Coord, Mesh2D, Rect, Region};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Rounds `x` down to a multiple of 64 (the word phase anchor).
#[inline]
fn word_align(x: i32) -> i32 {
    x.div_euclid(64) * 64
}

/// `dst = src | (src << 1) | (src >> 1)` across word boundaries: the
/// horizontal (x ± 1) spread of one packed row. The slices must have equal
/// length.
#[inline]
pub fn spread_row(src: &[u64], dst: &mut [u64]) {
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len();
    for j in 0..n {
        let left_carry = if j > 0 { src[j - 1] >> 63 } else { 0 };
        let right_carry = if j + 1 < n { src[j + 1] << 63 } else { 0 };
        dst[j] = src[j] | (src[j] << 1) | left_carry | (src[j] >> 1) | right_carry;
    }
}

/// `dst = (src << 1) | (src >> 1)` across word boundaries: the strict
/// horizontal neighbors (west | east), *without* the source itself.
#[inline]
fn spread_row_strict(src: &[u64], dst: &mut [u64]) {
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len();
    for j in 0..n {
        let left_carry = if j > 0 { src[j - 1] >> 63 } else { 0 };
        let right_carry = if j + 1 < n { src[j + 1] << 63 } else { 0 };
        dst[j] = (src[j] << 1) | left_carry | (src[j] >> 1) | right_carry;
    }
}

/// The span mask of one packed row: every bit from the row's first set bit
/// through its last set bit (inclusive), or all zeros for an empty row.
/// Writes into `dst` and returns `true` when the row is non-empty.
#[inline]
pub fn row_span_mask(src: &[u64], dst: &mut [u64]) -> bool {
    let Some(first) = src.iter().position(|&w| w != 0) else {
        dst.fill(0);
        return false;
    };
    let last = src.iter().rposition(|&w| w != 0).expect("non-empty");
    dst[..first].fill(0);
    dst[last + 1..].fill(0);
    let lo_mask = !0u64 << src[first].trailing_zeros();
    let hi_mask = !0u64 >> src[last].leading_zeros();
    if first == last {
        dst[first] = lo_mask & hi_mask;
    } else {
        dst[first] = lo_mask;
        dst[first + 1..last].fill(!0);
        dst[last] = hi_mask;
    }
    true
}

/// The smallest and largest x offset (from the rows' first bit) of a set
/// bit in packed rows of `ww` words each, which hold at least one.
fn x_extent(rows: &[u64], ww: usize) -> (i32, i32) {
    let (mut first, mut last) = (ww, 0);
    for row in rows.chunks_exact(ww) {
        if let Some(j) = row.iter().position(|&w| w != 0) {
            first = first.min(j);
            last = last.max(row.iter().rposition(|&w| w != 0).expect("non-empty"));
        }
    }
    assert!(first < ww, "the rows hold a set bit");
    let (mut first_or, mut last_or) = (0u64, 0u64);
    for row in rows.chunks_exact(ww) {
        first_or |= row[first];
        last_or |= row[last];
    }
    (
        (first * 64) as i32 + first_or.trailing_zeros() as i32,
        (last * 64) as i32 + 63 - last_or.leading_zeros() as i32,
    )
}

/// Reusable buffers for the flood / hull kernels, so steady-state callers
/// (the incremental engine, the batch construction loop) allocate nothing
/// once the buffers have grown to the working-set size.
#[derive(Clone, Debug, Default)]
pub struct BitScratch {
    a: Vec<u64>,
    b: Vec<u64>,
    c: Vec<u64>,
    d: Vec<u64>,
    e: Vec<u64>,
    /// Number of times any buffer had to grow — the observable for the
    /// no-allocation-in-steady-state assertions.
    grows: u64,
}

impl BitScratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        BitScratch::default()
    }

    /// How many times a buffer needed to grow since construction. Constant
    /// across calls ⇔ the kernels ran allocation-free.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Ensures every buffer holds at least `words` zeroed words.
    fn prepare(&mut self, words: usize) {
        for buf in [
            &mut self.a,
            &mut self.b,
            &mut self.c,
            &mut self.d,
            &mut self.e,
        ] {
            if buf.len() < words {
                buf.resize(words, 0);
                self.grows += 1;
            } else {
                buf[..words].fill(0);
            }
        }
    }
}

/// Word count a [`BitGrid`] keeps in place before its rows move to the
/// heap: the frames of most fault components and polygons fit, so their
/// regions are built without allocating.
const INLINE_WORDS: usize = 4;

/// The packed rows of a [`BitGrid`]: in place up to [`INLINE_WORDS`]
/// words (the count in the first field), on the heap beyond.
#[derive(Clone)]
enum Words {
    Inline(u8, [u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

impl Words {
    fn zeroed(n: usize) -> Words {
        if n <= INLINE_WORDS {
            Words::Inline(n as u8, [0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; n])
        }
    }

    fn capacity(&self) -> usize {
        match self {
            Words::Inline(..) => INLINE_WORDS,
            Words::Heap(v) => v.capacity(),
        }
    }

    /// Re-sizes to `n` zeroed words in the present storage when it holds
    /// them; returns `true` when it had to grow.
    fn reset_zeroed(&mut self, n: usize) -> bool {
        let grew = n > self.capacity();
        match self {
            Words::Heap(v) if !grew => {
                v.clear();
                v.resize(n, 0);
            }
            _ => *self = Words::zeroed(n),
        }
        grew
    }
}

impl Default for Words {
    fn default() -> Self {
        Words::zeroed(0)
    }
}

impl Deref for Words {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            Words::Inline(n, buf) => &buf[..*n as usize],
            Words::Heap(v) => v,
        }
    }
}

impl DerefMut for Words {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Words::Inline(n, buf) => &mut buf[..*n as usize],
            Words::Heap(v) => v,
        }
    }
}

impl fmt::Debug for Words {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A word-packed occupancy bitmap over a rectangular frame of the 2-D
/// coordinate plane (one bit per node, row-major `u64` words).
#[derive(Clone, Debug)]
pub struct BitGrid {
    /// West edge of the frame; always a multiple of 64.
    origin_x: i32,
    /// North edge of the frame (smallest covered `y`).
    origin_y: i32,
    /// Words per row.
    width_words: usize,
    /// Number of rows.
    height: usize,
    /// Row-major packed occupancy, `height * width_words` words.
    words: Words,
}

impl Default for BitGrid {
    fn default() -> Self {
        BitGrid::empty()
    }
}

impl BitGrid {
    /// A grid with an empty frame (contains nothing, accepts growth).
    pub fn empty() -> Self {
        BitGrid {
            origin_x: 0,
            origin_y: 0,
            width_words: 0,
            height: 0,
            words: Words::default(),
        }
    }

    /// An all-clear grid whose frame covers `min..=max` (inclusive). The
    /// frame's x-origin is rounded down to a multiple of 64 so all grids
    /// share one bit phase.
    pub fn with_bounds(min: Coord, max: Coord) -> Self {
        assert!(min.x <= max.x && min.y <= max.y, "invalid bounds");
        let origin_x = word_align(min.x);
        let width_words = ((max.x - origin_x) as usize) / 64 + 1;
        let height = (max.y - min.y + 1) as usize;
        BitGrid {
            origin_x,
            origin_y: min.y,
            width_words,
            height,
            words: Words::zeroed(width_words * height),
        }
    }

    /// An all-clear grid covering every node of `mesh`.
    pub fn for_mesh(mesh: &Mesh2D) -> Self {
        BitGrid::with_bounds(
            Coord::ORIGIN,
            Coord::new(mesh.width() - 1, mesh.height() - 1),
        )
    }

    /// Builds a grid from coordinates, framed by their bounding box.
    pub fn from_coords(coords: impl IntoIterator<Item = Coord>) -> Self {
        let coords: Vec<Coord> = coords.into_iter().collect();
        let Some(&first) = coords.first() else {
            return BitGrid::empty();
        };
        let (mut lo, mut hi) = (first, first);
        for &c in &coords[1..] {
            lo = Coord::new(lo.x.min(c.x), lo.y.min(c.y));
            hi = Coord::new(hi.x.max(c.x), hi.y.max(c.y));
        }
        let mut grid = BitGrid::with_bounds(lo, hi);
        for c in coords {
            grid.set(c);
        }
        grid
    }

    /// A copy of `region`'s grid.
    pub fn from_region(region: &Region) -> Self {
        region.bits().clone()
    }

    /// A copy of this grid as a [`Region`].
    pub fn to_region(&self) -> Region {
        Region::from_bits(self.clone())
    }

    /// True when the frame covers `c` (regardless of the bit value).
    #[inline]
    pub fn in_frame(&self, c: Coord) -> bool {
        c.y >= self.origin_y
            && c.y < self.origin_y + self.height as i32
            && c.x >= self.origin_x
            && ((c.x - self.origin_x) as usize) < self.width_words * 64
    }

    #[inline]
    fn pos(&self, c: Coord) -> (usize, u64) {
        debug_assert!(self.in_frame(c));
        let dx = (c.x - self.origin_x) as usize;
        let row = (c.y - self.origin_y) as usize;
        (row * self.width_words + dx / 64, 1u64 << (dx % 64))
    }

    /// Membership test; coordinates outside the frame are absent.
    #[inline]
    pub fn contains(&self, c: Coord) -> bool {
        if !self.in_frame(c) {
            return false;
        }
        let (i, bit) = self.pos(c);
        self.words[i] & bit != 0
    }

    /// Sets the bit at `c`, which must lie inside the frame. Returns `true`
    /// when newly set.
    #[inline]
    pub fn set(&mut self, c: Coord) -> bool {
        let (i, bit) = self.pos(c);
        let newly = self.words[i] & bit == 0;
        self.words[i] |= bit;
        newly
    }

    /// Inserts `c`, growing the frame when necessary. Returns `true` when
    /// newly set. Growth reallocates, past `c` by the frame's current
    /// extent on each side that moves, so a run of inserts walking outward
    /// re-frames O(log n) times; hot loops should still size the frame up
    /// front via [`with_bounds`](Self::with_bounds).
    pub fn insert(&mut self, c: Coord) -> bool {
        if self.words.is_empty() {
            *self = BitGrid::with_bounds(c, c);
        } else if !self.in_frame(c) {
            let (lo, hi) = self.frame_bounds();
            let (w, h) = (hi.x - lo.x + 1, hi.y - lo.y + 1);
            let grow = |v: i32, lo: i32, hi: i32, slack: i32| {
                if v < lo {
                    (v.saturating_sub(slack), hi)
                } else if v > hi {
                    (lo, v.saturating_add(slack))
                } else {
                    (lo, hi)
                }
            };
            let (x0, x1) = grow(c.x, lo.x, hi.x, w);
            let (y0, y1) = grow(c.y, lo.y, hi.y, h);
            self.regrow(Coord::new(x0, y0), Coord::new(x1, y1));
        }
        self.set(c)
    }

    /// Clears the bit at `c`. Returns `true` when it was set.
    #[inline]
    pub fn remove(&mut self, c: Coord) -> bool {
        if !self.in_frame(c) {
            return false;
        }
        let (i, bit) = self.pos(c);
        let was = self.words[i] & bit != 0;
        self.words[i] &= !bit;
        was
    }

    /// Clears every bit, keeping the frame and allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Re-frames the grid to cover `min..=max` with every bit clear,
    /// reusing the existing allocation when its capacity suffices.
    /// Returns `true` when the backing storage had to grow — the signal
    /// steady-state callers track for their no-allocation assertions.
    pub fn reset_frame(&mut self, min: Coord, max: Coord) -> bool {
        assert!(min.x <= max.x && min.y <= max.y, "invalid bounds");
        let origin_x = word_align(min.x);
        let width_words = ((max.x - origin_x) as usize) / 64 + 1;
        let height = (max.y - min.y + 1) as usize;
        let grew = self.words.reset_zeroed(width_words * height);
        self.origin_x = origin_x;
        self.origin_y = min.y;
        self.width_words = width_words;
        self.height = height;
        grew
    }

    /// The packed frame rows, row-major from the frame's north edge, each
    /// row a run of whole words; bit `b` of a row's word `j` is node
    /// `x = origin_x + 64 j + b`.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the packed frame rows, for word-parallel kernels
    /// that run on the frame in place (the labelling-scheme fixpoints).
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The frame's covered coordinate range `(min, max)`, inclusive. The
    /// frame of an [`empty`](Self::empty) grid is degenerate.
    fn frame_bounds(&self) -> (Coord, Coord) {
        (
            Coord::new(self.origin_x, self.origin_y),
            Coord::new(
                self.origin_x + (self.width_words * 64) as i32 - 1,
                self.origin_y + self.height as i32 - 1,
            ),
        )
    }

    /// Reallocates to a frame covering `min..=max` (which must contain the
    /// current frame's set bits), copying whole words (frames share the
    /// 64-aligned x phase).
    fn regrow(&mut self, min: Coord, max: Coord) {
        let mut grown = BitGrid::with_bounds(min, max);
        let dw = ((self.origin_x - grown.origin_x) / 64) as usize;
        for row in 0..self.height {
            let y = self.origin_y + row as i32;
            let grow_row = (y - grown.origin_y) as usize;
            let src = &self.words[row * self.width_words..(row + 1) * self.width_words];
            let dst_start = grow_row * grown.width_words + dw;
            grown.words[dst_start..dst_start + self.width_words].copy_from_slice(src);
        }
        *self = grown;
    }

    /// Iterates set bits in row-major order (by `y`, then `x`).
    pub fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        (0..self.height).flat_map(move |row| {
            let y = self.origin_y + row as i32;
            (0..self.width_words).flat_map(move |j| {
                let mut w = self.words[row * self.width_words + j];
                let base_x = self.origin_x + (j * 64) as i32;
                std::iter::from_fn(move || {
                    if w == 0 {
                        return None;
                    }
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    Some(Coord::new(base_x + b as i32, y))
                })
            })
        })
    }

    /// Iterates set bits in the **x-major** order of [`Coord`]'s `Ord`
    /// (by `x`, then `y`) — [`Region`]'s iteration order.
    pub fn iter_x_major(&self) -> XMajor<'_> {
        XMajor {
            grid: self,
            word: 0,
            pending: 0,
            row: 0,
        }
    }

    /// The smallest set coordinate in the **x-major** order of [`Coord`]'s
    /// `Ord` (smallest `x`, then smallest `y`) — the key [`Region`]
    /// components are sorted by.
    pub fn min_coord_x_major(&self) -> Option<Coord> {
        let mut best: Option<Coord> = None;
        'cols: for j in 0..self.width_words {
            let mut column_or = 0u64;
            for row in 0..self.height {
                column_or |= self.words[row * self.width_words + j];
            }
            if column_or == 0 {
                continue;
            }
            let x_bit = column_or.trailing_zeros();
            let bit = 1u64 << x_bit;
            for row in 0..self.height {
                if self.words[row * self.width_words + j] & bit != 0 {
                    best = Some(Coord::new(
                        self.origin_x + (j * 64) as i32 + x_bit as i32,
                        self.origin_y + row as i32,
                    ));
                    break 'cols;
                }
            }
        }
        // The found bit is the first set bit of the leftmost non-empty
        // word column, but a smaller x may hide in the same word column's
        // other bits only if this word column is the leftmost with bits —
        // which it is; and within it, `trailing_zeros` of the OR of all
        // rows is the smallest x. `best` is therefore exact.
        best
    }

    /// The tight bounding rectangle of the set bits, or `None` when empty.
    pub fn bounding_rect(&self) -> Option<Rect> {
        let ww = self.width_words;
        let occupied = |row: &[u64]| row.iter().any(|&w| w != 0);
        let min_y = self.words.chunks_exact(ww.max(1)).position(occupied)?;
        let max_y = self.height - 1 - self.words.chunks_exact(ww).rev().position(occupied)?;
        let rows = &self.words[min_y * ww..(max_y + 1) * ww];
        let (x0, x1) = x_extent(rows, ww);
        Some(Rect::new(
            Coord::new(self.origin_x + x0, self.origin_y + min_y as i32),
            Coord::new(self.origin_x + x1, self.origin_y + max_y as i32),
        ))
    }

    /// Calls `f(self_word, other_word)` for every word position of `self`,
    /// with `other`'s word at the same coordinate position (0 where the
    /// frames do not overlap).
    #[inline]
    fn zip_words(&self, other: &BitGrid, mut f: impl FnMut(u64, u64)) {
        let dw = (self.origin_x - other.origin_x) / 64;
        for row in 0..self.height {
            let y = self.origin_y + row as i32;
            let other_row = y - other.origin_y;
            for j in 0..self.width_words {
                let ow = if (0..other.height as i32).contains(&other_row) {
                    let oj = j as i64 + dw as i64;
                    if oj >= 0 && (oj as usize) < other.width_words {
                        other.words[other_row as usize * other.width_words + oj as usize]
                    } else {
                        0
                    }
                } else {
                    0
                };
                f(self.words[row * self.width_words + j], ow);
            }
        }
    }

    /// Like [`zip_words`](Self::zip_words) but writes `f`'s result back
    /// into `self`'s word.
    #[inline]
    fn zip_words_mut(&mut self, other: &BitGrid, mut f: impl FnMut(u64, u64) -> u64) {
        let dw = (self.origin_x - other.origin_x) / 64;
        for row in 0..self.height {
            let y = self.origin_y + row as i32;
            let other_row = y - other.origin_y;
            for j in 0..self.width_words {
                let ow = if (0..other.height as i32).contains(&other_row) {
                    let oj = j as i64 + dw as i64;
                    if oj >= 0 && (oj as usize) < other.width_words {
                        other.words[other_row as usize * other.width_words + oj as usize]
                    } else {
                        0
                    }
                } else {
                    0
                };
                let w = &mut self.words[row * self.width_words + j];
                *w = f(*w, ow);
            }
        }
    }

    /// Number of set bits shared with `other`.
    pub(crate) fn intersection_len(&self, other: &BitGrid) -> usize {
        let mut n = 0;
        self.zip_words(other, |a, b| n += (a & b).count_ones() as usize);
        n
    }

    /// `self &= other` — a whole-word AND over the frame overlap.
    pub(crate) fn intersect_with(&mut self, other: &BitGrid) {
        self.zip_words_mut(other, |a, b| a & b);
    }

    /// True when the two grids share at least one set bit — a whole-word
    /// AND scan over the frame overlap.
    pub fn intersects(&self, other: &BitGrid) -> bool {
        let mut hit = false;
        self.zip_words(other, |a, b| hit |= a & b != 0);
        hit
    }

    /// True when every set bit of `self` is set in `other` — a whole-word
    /// AND-NOT scan.
    pub fn is_subset_of(&self, other: &BitGrid) -> bool {
        let mut ok = true;
        self.zip_words(other, |a, b| ok &= a & !b == 0);
        ok
    }

    /// `self |= other`, growing the frame to cover `other`'s set bits when
    /// necessary. Walks only `other`'s content rectangle: each of its rows
    /// is ORed word by word into the matching row of `self`, so merging a
    /// small grid into a large accumulator costs in proportion to the
    /// small one.
    pub fn union_with(&mut self, other: &BitGrid) {
        let Some(rect) = other.bounding_rect() else {
            return;
        };
        let (lo, hi) = (rect.min(), rect.max());
        if self.words.is_empty() {
            *self = BitGrid::with_bounds(lo, hi);
        } else if !(self.in_frame(lo) && self.in_frame(hi)) {
            let (slo, shi) = self.frame_bounds();
            self.regrow(
                Coord::new(slo.x.min(lo.x), slo.y.min(lo.y)),
                Coord::new(shi.x.max(hi.x), shi.y.max(hi.y)),
            );
        }
        // Both frames share the 64-aligned x phase, so the content's word
        // columns map one to one.
        let first = word_align(lo.x);
        let (src_j, dst_j) = (
            ((first - other.origin_x) / 64) as usize,
            ((first - self.origin_x) / 64) as usize,
        );
        let n = ((word_align(hi.x) - first) / 64) as usize + 1;
        for y in lo.y..=hi.y {
            let src = (y - other.origin_y) as usize * other.width_words + src_j;
            let dst = (y - self.origin_y) as usize * self.width_words + dst_j;
            for (d, &s) in self.words[dst..dst + n]
                .iter_mut()
                .zip(&other.words[src..src + n])
            {
                *d |= s;
            }
        }
    }

    /// `self &= !other` — a whole-word AND-NOT over the frame overlap.
    pub fn subtract(&mut self, other: &BitGrid) {
        self.zip_words_mut(other, |a, b| a & !b);
    }

    /// The 8-neighborhood dilation (Definition 2 adjacency): every set bit
    /// plus its eight neighbors, as shifted-word ORs. The result's frame
    /// grows by one node in every direction so border bits are kept.
    pub fn dilate8(&self) -> BitGrid {
        let Some(rect) = self.bounding_rect() else {
            return BitGrid::empty();
        };
        let mut out = BitGrid::with_bounds(
            Coord::new(rect.min().x - 1, rect.min().y - 1),
            Coord::new(rect.max().x + 1, rect.max().y + 1),
        );
        let ww = out.width_words;
        // Word offset of this frame's word 0 inside the output frame. The
        // output frame tightly wraps the *content*, so it can start to the
        // right of (or end before) this frame — clamp the copy window.
        let dw = ((self.origin_x - out.origin_x) / 64) as i64;
        // Spread each source row horizontally into the output frame, then
        // OR it into the three output rows it reaches.
        let mut src = vec![0u64; ww];
        let mut spread = vec![0u64; ww];
        for row in 0..self.height {
            let words = &self.words[row * self.width_words..(row + 1) * self.width_words];
            if words.iter().all(|&w| w == 0) {
                continue;
            }
            let y = self.origin_y + row as i32;
            src.fill(0);
            for (j, &w) in words.iter().enumerate() {
                let oj = j as i64 + dw;
                if (0..ww as i64).contains(&oj) {
                    // Words outside the output frame hold no set bits (the
                    // frame covers the content bounding box plus margin).
                    src[oj as usize] = w;
                }
            }
            spread_row(&src, &mut spread);
            for out_y in (y - 1)..=(y + 1) {
                let out_row = (out_y - out.origin_y) as usize;
                if out_row < out.height {
                    let dst = &mut out.words[out_row * ww..(out_row + 1) * ww];
                    for (d, &s) in dst.iter_mut().zip(&spread) {
                        *d |= s;
                    }
                }
            }
        }
        out
    }

    /// Decomposes the set bits into connected components under `adjacency`
    /// — the word-scan flood: each component starts from a find-first-set
    /// seed and expands a whole-word frontier (horizontal spread plus row
    /// ORs) until it stops growing.
    ///
    /// Components are returned in the same deterministic order as
    /// [`Region::components`]: sorted by their smallest node in `Coord`'s
    /// x-major order. Each component's grid is framed by its own bounding
    /// box.
    pub fn components(&self, adjacency: Connectivity) -> Vec<BitGrid> {
        self.component_regions_with(adjacency, &mut BitScratch::new())
            .into_iter()
            .map(Region::into_bits)
            .collect()
    }

    /// The connected components under `adjacency` as [`Region`]s, in
    /// [`components`](Self::components)' x-major order.
    ///
    /// Each component is flooded into a shared scratch buffer and its rows
    /// are copied out into a tightly framed grid, so only the output
    /// regions are allocated. The flood discovers components in row-major
    /// order of their first cell; the regions are then ordered by sorting
    /// the components' smallest x-major nodes.
    pub fn component_regions_with(
        &self,
        adjacency: Connectivity,
        scratch: &mut BitScratch,
    ) -> Vec<Region> {
        let ww = self.width_words;
        let words: &[u64] = &self.words;
        let total = words.len();
        if total == 0 {
            return Vec::new();
        }
        let mut found = Vec::new();
        let mut keys = Vec::new();
        let mut push = |grid: BitGrid| {
            keys.push((
                grid.min_coord_x_major().expect("components are non-empty"),
                keys.len(),
            ));
            found.push(Some(Region::from_bits(grid)));
        };
        scratch.prepare(total);
        let BitScratch {
            a: visited,
            b: comp,
            c: frontier,
            d: spread,
            e: next,
            ..
        } = scratch;

        for seed_word in 0..total {
            loop {
                let avail = words[seed_word] & !visited[seed_word];
                if avail == 0 {
                    break;
                }
                let seed_bit = 1u64 << avail.trailing_zeros();
                let seed_row = seed_word / ww;

                // Singleton fast path: a seed with an empty 3×3
                // neighborhood is its own component under either adjacency
                // — skip the flood loop. (Word-edge bits take the general
                // path; their neighborhood spans words.)
                if seed_bit & (1 | 1 << 63) == 0 {
                    let mask3 = (seed_bit << 1) | seed_bit | (seed_bit >> 1);
                    let j = seed_word % ww;
                    let mut nb = words[seed_word] & mask3 & !seed_bit;
                    if seed_row > 0 {
                        nb |= words[(seed_row - 1) * ww + j] & mask3;
                    }
                    if seed_row + 1 < self.height {
                        nb |= words[(seed_row + 1) * ww + j] & mask3;
                    }
                    if nb == 0 {
                        visited[seed_word] |= seed_bit;
                        comp[seed_word] = seed_bit;
                        push(self.component_grid(comp, seed_row, seed_row));
                        comp[seed_word] = 0;
                        continue;
                    }
                }
                comp[seed_word] = seed_bit;
                frontier[seed_word] = seed_bit;
                // Frontier row range and overall component row range.
                let (mut lo, mut hi) = (seed_row, seed_row);
                let (mut comp_lo, mut comp_hi) = (seed_row, seed_row);
                loop {
                    // Horizontal spread of the frontier rows: for
                    // 8-adjacency the {x-1, x, x+1} OR (serves the same
                    // row *and* the diagonal reach of the rows above and
                    // below); for 4-adjacency only the strict west/east
                    // shifts (the vertical reach is the frontier itself).
                    for y in lo..=hi {
                        let row = y * ww;
                        match adjacency {
                            Connectivity::Eight => {
                                spread_row(&frontier[row..row + ww], &mut spread[row..row + ww]);
                            }
                            Connectivity::Four => {
                                spread_row_strict(
                                    &frontier[row..row + ww],
                                    &mut spread[row..row + ww],
                                );
                            }
                        }
                    }
                    let scan_lo = lo.saturating_sub(1);
                    let scan_hi = (hi + 1).min(self.height - 1);
                    let mut any = false;
                    let (mut next_lo, mut next_hi) = (usize::MAX, 0usize);
                    // Vertical neighbor source: the spread rows under
                    // 8-adjacency (diagonals included), the raw frontier
                    // rows under 4-adjacency.
                    for y in scan_lo..=scan_hi {
                        let in_frontier = |row: usize| row >= lo && row <= hi;
                        for j in 0..ww {
                            let mut nb = 0u64;
                            if y >= 1 && in_frontier(y - 1) {
                                nb |= match adjacency {
                                    Connectivity::Eight => spread[(y - 1) * ww + j],
                                    Connectivity::Four => frontier[(y - 1) * ww + j],
                                };
                            }
                            if in_frontier(y + 1) {
                                nb |= match adjacency {
                                    Connectivity::Eight => spread[(y + 1) * ww + j],
                                    Connectivity::Four => frontier[(y + 1) * ww + j],
                                };
                            }
                            if in_frontier(y) {
                                // The 8-spread includes the frontier
                                // itself; `& !comp` filters it. The
                                // 4-spread is the strict west/east mask.
                                nb |= spread[y * ww + j];
                            }
                            let grow = nb & words[y * ww + j] & !comp[y * ww + j];
                            next[y * ww + j] = grow;
                            if grow != 0 {
                                comp[y * ww + j] |= grow;
                                any = true;
                                next_lo = next_lo.min(y);
                                next_hi = next_hi.max(y);
                            }
                        }
                    }
                    if !any {
                        break;
                    }
                    // The fresh grow masks become the frontier; the old
                    // frontier's rows are zeroed so the (now spare) buffer
                    // holds no stale bits for the following round.
                    std::mem::swap(frontier, next);
                    for y in lo..=hi {
                        next[y * ww..(y + 1) * ww].fill(0);
                    }
                    (lo, hi) = (next_lo, next_hi);
                    comp_lo = comp_lo.min(lo);
                    comp_hi = comp_hi.max(hi);
                }

                for y in comp_lo..=comp_hi {
                    for j in 0..ww {
                        visited[y * ww + j] |= comp[y * ww + j];
                    }
                }
                push(self.component_grid(comp, comp_lo, comp_hi));

                // Reset the touched rows of every buffer.
                let scan_lo = comp_lo.saturating_sub(1);
                let scan_hi = (comp_hi + 1).min(self.height - 1);
                for y in scan_lo..=scan_hi {
                    let row = y * ww;
                    comp[row..row + ww].fill(0);
                    frontier[row..row + ww].fill(0);
                    spread[row..row + ww].fill(0);
                    next[row..row + ww].fill(0);
                }
            }
        }
        keys.sort_unstable();
        keys.into_iter()
            .map(|(_, i)| found[i].take().expect("each index is taken once"))
            .collect()
    }

    /// Copies one flooded component out of the flood buffer `comp` (in
    /// this grid's frame) into its own tightly framed grid: rows
    /// `row_lo..=row_hi` (the first and last hold bits), cut to the words
    /// between the leftmost and rightmost set bit.
    fn component_grid(&self, comp: &[u64], row_lo: usize, row_hi: usize) -> BitGrid {
        let ww = self.width_words;
        let rows = &comp[row_lo * ww..(row_hi + 1) * ww];
        let (x0, x1) = x_extent(rows, ww);
        let mut out = BitGrid::with_bounds(
            Coord::new(self.origin_x + x0, self.origin_y + row_lo as i32),
            Coord::new(self.origin_x + x1, self.origin_y + row_hi as i32),
        );
        let first = (x0 / 64) as usize;
        let n = out.width_words;
        for (dst, row) in out.words.chunks_exact_mut(n).zip(rows.chunks_exact(ww)) {
            dst.copy_from_slice(&row[first..first + n]);
        }
        out
    }

    /// One snapshot round of the concave-section fill: computes the row-gap
    /// and column-gap fills **both with respect to the current state** (the
    /// semantics of Definition 3's scan-then-fill iteration), then applies
    /// them. Returns the number of bits added.
    fn fill_gaps_round(&mut self, scratch: &mut BitScratch) -> u64 {
        let ww = self.width_words;
        let total = self.words.len();
        scratch.prepare(total);
        let BitScratch {
            a: row_fill,
            b: col_fill,
            c: prefix,
            d: span,
            ..
        } = scratch;

        // Row gaps: span mask (trailing/leading-zero counts) minus the row.
        for y in 0..self.height {
            let row = &self.words[y * ww..(y + 1) * ww];
            if row_span_mask(row, &mut span[..ww]) {
                for j in 0..ww {
                    row_fill[y * ww + j] = span[j] & !row[j];
                }
            } else {
                row_fill[y * ww..(y + 1) * ww].fill(0);
            }
        }

        // Column gaps, word-parallel across all 64 columns of each word:
        // prefix[y] = OR of rows 0..=y, then a downward suffix sweep gives
        // fill[y] = prefix[y] & suffix[y] & !row[y].
        for j in 0..ww {
            let mut acc = 0u64;
            for y in 0..self.height {
                acc |= self.words[y * ww + j];
                prefix[y * ww + j] = acc;
            }
            let mut suffix = 0u64;
            for y in (0..self.height).rev() {
                let row = self.words[y * ww + j];
                suffix |= row;
                col_fill[y * ww + j] = prefix[y * ww + j] & suffix & !row;
            }
        }

        let mut added = 0u64;
        for i in 0..total {
            let fill = row_fill[i] | col_fill[i];
            added += (fill & !self.words[i]).count_ones() as u64;
            self.words[i] |= fill;
        }
        added
    }

    /// Fills the grid to its minimum orthogonal convex superset in place —
    /// the bit-parallel hull fixpoint. Returns `(iterations, added)` where
    /// `iterations` counts the scan-then-fill rounds that inserted at least
    /// one node (the concave-section solver's iteration count) and `added`
    /// the total number of inserted nodes.
    ///
    /// The fill never leaves the bounding box of the input, so the frame
    /// never grows.
    pub fn hull_fixpoint(&mut self, scratch: &mut BitScratch) -> (u32, u64) {
        let mut iterations = 0;
        let mut added = 0;
        loop {
            let grown = self.fill_gaps_round(scratch);
            if grown == 0 {
                break;
            }
            iterations += 1;
            added += grown;
        }
        (iterations, added)
    }

    /// The orthogonal-convexity test of Definition 1, word-parallel: every
    /// row's bits form one contiguous run (span mask equals the row) and
    /// every column's bits form one contiguous run (no bit reappears after
    /// its column run has ended).
    pub fn is_orthogonally_convex(&self) -> bool {
        let ww = self.width_words;
        let mut span = vec![0u64; ww];
        for y in 0..self.height {
            let row = &self.words[y * ww..(y + 1) * ww];
            if row_span_mask(row, &mut span) && span.iter().zip(row).any(|(&s, &r)| s != r) {
                return false;
            }
        }
        let mut started = vec![0u64; ww];
        let mut ended = vec![0u64; ww];
        for y in 0..self.height {
            for j in 0..ww {
                let row = self.words[y * ww + j];
                if row & ended[j] != 0 {
                    return false;
                }
                ended[j] |= started[j] & !row;
                started[j] |= row;
            }
        }
        true
    }
}

/// The set bits of a [`BitGrid`] in x-major order (by `x`, then `y`):
/// one word column at a time, the x positions its rows occupy come from
/// the OR of the column, and each is read down the rows. See
/// [`BitGrid::iter_x_major`].
#[derive(Clone, Debug)]
pub struct XMajor<'a> {
    grid: &'a BitGrid,
    /// Next word column to load.
    word: usize,
    /// The loaded word column's occupied x bits not yet finished; the
    /// lowest is the current x.
    pending: u64,
    /// Next row to test at the current x.
    row: usize,
}

impl Iterator for XMajor<'_> {
    type Item = Coord;

    fn next(&mut self) -> Option<Coord> {
        let g = self.grid;
        let ww = g.width_words;
        loop {
            if self.pending == 0 {
                if self.word >= ww {
                    return None;
                }
                let j = self.word;
                self.word += 1;
                self.pending = g.words[j..].iter().step_by(ww).fold(0, |acc, &w| acc | w);
                self.row = 0;
                continue;
            }
            let j = self.word - 1;
            let bit = self.pending & self.pending.wrapping_neg();
            while self.row < g.height {
                let row = self.row;
                self.row += 1;
                if g.words[row * ww + j] & bit != 0 {
                    return Some(Coord::new(
                        g.origin_x + (j * 64) as i32 + bit.trailing_zeros() as i32,
                        g.origin_y + row as i32,
                    ));
                }
            }
            self.pending &= self.pending - 1;
            self.row = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coords(list: &[(i32, i32)]) -> Vec<Coord> {
        list.iter().map(|&(x, y)| Coord::new(x, y)).collect()
    }

    fn region(list: &[(i32, i32)]) -> Region {
        Region::from_coords(coords(list))
    }

    #[test]
    fn set_get_and_len_round_trip() {
        let mut g = BitGrid::with_bounds(Coord::new(0, 0), Coord::new(70, 5));
        assert!(g.is_empty());
        assert!(g.set(Coord::new(0, 0)));
        assert!(g.set(Coord::new(70, 5)));
        assert!(!g.set(Coord::new(70, 5)), "duplicate set");
        assert!(g.contains(Coord::new(0, 0)));
        assert!(!g.contains(Coord::new(1, 0)));
        assert!(!g.contains(Coord::new(-1, -1)), "outside the frame");
        assert_eq!(g.len(), 2);
        assert!(g.remove(Coord::new(0, 0)));
        assert!(!g.remove(Coord::new(0, 0)));
        assert_eq!(g.len(), 1);
        g.clear();
        assert!(g.is_empty());
    }

    #[test]
    fn from_region_round_trips_through_to_region() {
        for shape in [
            region(&[(0, 0), (63, 0), (64, 0), (65, 3), (-7, -3)]),
            region(&[(5, 5)]),
            Region::new(),
        ] {
            let g = BitGrid::from_region(&shape);
            assert_eq!(g.to_region(), shape);
            assert_eq!(g.len(), shape.len());
        }
    }

    #[test]
    fn insert_grows_the_frame() {
        let mut g = BitGrid::empty();
        assert!(g.insert(Coord::new(100, 100)));
        assert!(g.insert(Coord::new(-100, -3)));
        assert!(!g.insert(Coord::new(100, 100)));
        assert_eq!(g.len(), 2);
        assert!(g.contains(Coord::new(100, 100)));
        assert!(g.contains(Coord::new(-100, -3)));
    }

    #[test]
    fn iter_is_row_major_and_min_coord_is_x_major() {
        let g = BitGrid::from_coords(coords(&[(5, 2), (1, 7), (63, 2), (64, 2)]));
        let seen: Vec<Coord> = g.iter().collect();
        assert_eq!(seen, coords(&[(5, 2), (63, 2), (64, 2), (1, 7)]));
        assert_eq!(g.min_coord_x_major(), Some(Coord::new(1, 7)));
        assert_eq!(BitGrid::empty().min_coord_x_major(), None);
    }

    #[test]
    fn bounding_rect_is_tight() {
        let g = BitGrid::from_coords(coords(&[(3, 9), (120, 4)]));
        let r = g.bounding_rect().unwrap();
        assert_eq!(r.min(), Coord::new(3, 4));
        assert_eq!(r.max(), Coord::new(120, 9));
        assert_eq!(BitGrid::empty().bounding_rect(), None);
    }

    #[test]
    fn set_algebra_across_offset_frames() {
        let a = BitGrid::from_coords(coords(&[(0, 0), (70, 3), (130, 5)]));
        let b = BitGrid::from_coords(coords(&[(70, 3), (200, 9)]));
        assert!(a.intersects(&b));
        assert!(!a.is_subset_of(&b));
        assert!(BitGrid::from_coords(coords(&[(70, 3)])).is_subset_of(&a));

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 4);
        assert!(u.contains(Coord::new(200, 9)));

        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.to_region(), region(&[(0, 0), (130, 5)]));

        let far = BitGrid::from_coords(coords(&[(500, 500)]));
        assert!(!a.intersects(&far));
    }

    #[test]
    fn union_with_is_frame_local_across_offsets() {
        // Frames a whole number of words apart, negative origins, disjoint
        // and nested row ranges: the union is always the set union.
        let grids = [
            BitGrid::from_coords(coords(&[(0, 0), (63, 2)])),
            BitGrid::from_coords(coords(&[(64, 1), (127, 5)])),
            BitGrid::from_coords(coords(&[(-64, -3), (-1, 0), (200, 9)])),
            BitGrid::from_coords(coords(&[(-130, 7)])),
        ];
        for a in &grids {
            for b in &grids {
                let mut u = a.clone();
                u.union_with(b);
                assert_eq!(u.to_region(), a.to_region().union(&b.to_region()));
            }
        }
        // An empty border of `other` outside `self`'s frame does not grow
        // it, and a narrow grid ORs into a wide accumulator in place.
        let mut wide = BitGrid::with_bounds(Coord::new(-128, -10), Coord::new(255, 10));
        wide.set(Coord::new(70, 3));
        let mut u = grids[1].clone();
        u.union_with(&wide);
        assert_eq!(u.to_region(), region(&[(64, 1), (127, 5), (70, 3)]));
        assert_eq!(u.frame_bounds(), grids[1].frame_bounds());
        wide.union_with(&grids[3]);
        assert_eq!(wide.len(), 2);
        assert_eq!(wide.frame_bounds().0, Coord::new(-192, -10));
    }

    #[test]
    fn dilate8_matches_scalar_neighborhoods() {
        for shape in [
            region(&[(0, 0)]),
            region(&[(63, 2), (64, 2)]),
            region(&[(5, 5), (9, 9), (10, 8)]),
        ] {
            let expected = Region::from_coords(
                shape
                    .iter()
                    .flat_map(|c| c.neighbors8().into_iter().chain([c])),
            );
            let dilated = BitGrid::from_region(&shape).dilate8();
            assert_eq!(dilated.to_region(), expected, "shape {shape:?}");
        }
        assert!(BitGrid::empty().dilate8().is_empty());
    }

    #[test]
    fn dilate8_handles_frames_wider_than_their_content() {
        // A mesh-wide frame with one bit near the origin: the dilated
        // content bbox is *narrower in words* than the source frame, and
        // a bit in the second word makes the word offset negative.
        let mesh = Mesh2D::mesh(128, 4);
        for seed in [Coord::new(0, 0), Coord::new(127, 3), Coord::new(64, 1)] {
            let mut g = BitGrid::for_mesh(&mesh);
            g.set(seed);
            let expected = Region::from_coords(std::iter::once(seed).chain(seed.neighbors8()));
            assert_eq!(g.dilate8().to_region(), expected, "seed {seed}");
        }
    }

    #[test]
    fn components_match_region_components() {
        let shapes = [
            region(&[(0, 0), (1, 1), (3, 3), (63, 0), (64, 0), (64, 1)]),
            region(&[(5, 5), (0, 0), (5, 6), (7, 7)]),
            region(&[(2, 2)]),
            Region::new(),
        ];
        for shape in shapes {
            let g = BitGrid::from_region(&shape);
            for adjacency in [Connectivity::Four, Connectivity::Eight] {
                let expected = shape.components(adjacency);
                let got: Vec<Region> = g
                    .components(adjacency)
                    .iter()
                    .map(BitGrid::to_region)
                    .collect();
                assert_eq!(got, expected, "{adjacency:?} of {shape:?}");
                let regions = g.component_regions_with(adjacency, &mut BitScratch::new());
                assert_eq!(regions, expected, "{adjacency:?} of {shape:?} in place");
            }
        }
    }

    #[test]
    fn hull_fixpoint_matches_region_hull() {
        let shapes = [
            region(&[(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)]),
            region(&[(0, 2), (1, 1), (2, 0), (3, 1), (4, 2)]),
            region(&[(2, 4), (3, 4), (4, 3)]),
            region(&[(60, 0), (66, 0), (63, 3)]),
        ];
        for shape in shapes {
            let mut g = BitGrid::from_region(&shape);
            let before = g.len();
            let (iters, added) = g.hull_fixpoint(&mut BitScratch::new());
            assert_eq!(g.to_region(), shape.orthogonal_convex_hull(), "{shape:?}");
            assert_eq!(added as usize, g.len() - before);
            if added > 0 {
                assert!(iters >= 1);
            } else {
                assert_eq!(iters, 0);
            }
            assert!(g.is_orthogonally_convex());
        }
    }

    #[test]
    fn convexity_matches_region_test() {
        let shapes = [
            (region(&[(2, 4), (3, 4), (4, 3)]), true),
            (region(&[(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)]), false),
            (region(&[(0, 0), (1, 1), (2, 2), (3, 3)]), true),
            (region(&[(62, 0), (65, 0)]), false),
            (Region::new(), true),
        ];
        for (shape, expected) in shapes {
            assert_eq!(shape.is_orthogonally_convex(), expected);
            assert_eq!(
                BitGrid::from_region(&shape).is_orthogonally_convex(),
                expected,
                "{shape:?}"
            );
        }
    }

    #[test]
    fn scratch_reuse_stops_growing() {
        let mut scratch = BitScratch::new();
        let g = BitGrid::from_coords(coords(&[(0, 0), (1, 1), (40, 40)]));
        g.component_regions_with(Connectivity::Eight, &mut scratch);
        let grows = scratch.grows();
        for _ in 0..5 {
            g.component_regions_with(Connectivity::Eight, &mut scratch);
            let mut h = g.clone();
            h.hull_fixpoint(&mut scratch);
        }
        assert_eq!(scratch.grows(), grows, "steady state allocates nothing");
    }
}
