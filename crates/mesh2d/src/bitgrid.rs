//! Word-packed occupancy bitmaps: 64 nodes per `u64`, one bit per node.
//!
//! Every hot kernel of the fault-model stack is a boolean pass over mesh
//! nodes — flood fills, gap fills, dilations, subset tests. [`WordGrid`]
//! packs one bit per node into `u64` words along the x axis, one run of
//! words (an *x-line*) per `(y, z)` pair, so those passes become
//! shift-and-OR word operations processing 64 nodes at a time:
//!
//! * **component labelling** — find-first-set seeds plus whole-word
//!   frontier expansion, one flood for both adjacencies in any dimension
//!   ([`WordGrid::flood`]; [`BitGrid::components`] sorts its output into
//!   the 2-D x-major order);
//! * **the minimum-polygon hull fixpoint** — per-line occupied spans from
//!   leading/trailing-zero counts and word-parallel prefix/suffix sweeps
//!   along y and z ([`WordGrid::hull_fixpoint`]);
//! * **neighborhood dilation** — the clustered-distribution boost mask
//!   and the merge-process adjacency as shifted-word ORs
//!   ([`WordGrid::dilate`]);
//! * **subset / intersection tests** — the safety predicates of the
//!   generic `Outcome` as whole-word AND/OR scans
//!   ([`WordGrid::is_subset_of`], [`WordGrid::intersects`]).
//!
//! The grid is generic over its coordinate type ([`GridCoord`]): a 2-D
//! grid ([`BitGrid`], over [`Coord`]) is a 3-D grid with one plane, and
//! the 3-D grid of `mocp_3d` is the same type over its `Coord3`. Every
//! kernel runs per plane; the hull's z sweep runs only on frames of more
//! than one plane, and in one plane the 26-neighborhood is the
//! 8-neighborhood and the 6 link neighbors are the 4. The 2-D-only parts —
//! the x-major order, the labelling schemes' word access and the [`Rect`]
//! conversions — are methods of [`BitGrid`] alone.
//!
//! A grid covers a box-shaped *frame* chosen at construction. The frame's
//! x-origin is always rounded down to a multiple of 64, so any two grids
//! share the same bit phase: binary operations between frames are pure
//! word-at-a-time loops (a word-index offset, never a bit shift).
//!
//! [`Region`] is a 2-D grid plus its node count; the scalar ordered-set
//! implementations these kernels replaced are the oracles of the
//! `region_oracle` and `hull_oracle` tests.

use crate::{Connectivity, Coord, Mesh2D, Rect, Region};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// A node address a [`WordGrid`] can store: a point of the 3-D lattice.
/// Planar coordinates lie in the plane `z = 0`.
pub trait GridCoord: Copy + fmt::Debug {
    /// The coordinate's `(x, y, z)` position.
    fn xyz(self) -> (i32, i32, i32);

    /// The coordinate at `(x, y, z)`; a planar coordinate drops `z`.
    fn from_xyz(x: i32, y: i32, z: i32) -> Self;
}

impl GridCoord for Coord {
    #[inline]
    fn xyz(self) -> (i32, i32, i32) {
        (self.x, self.y, 0)
    }

    #[inline]
    fn from_xyz(x: i32, y: i32, _z: i32) -> Self {
        Coord::new(x, y)
    }
}

/// The smallest box holding the boxes `a` and `b` (each `(min, max)`,
/// inclusive).
pub fn joint_box<C: GridCoord>(a: (C, C), b: (C, C)) -> (C, C) {
    let ((a0, a1), (b0, b1)) = ((a.0.xyz(), a.1.xyz()), (b.0.xyz(), b.1.xyz()));
    (
        C::from_xyz(a0.0.min(b0.0), a0.1.min(b0.1), a0.2.min(b0.2)),
        C::from_xyz(a1.0.max(b1.0), a1.1.max(b1.1), a1.2.max(b1.2)),
    )
}

/// Rounds `x` down to a multiple of 64 (the word phase anchor).
#[inline]
fn word_align(x: i32) -> i32 {
    x.div_euclid(64) * 64
}

/// The frame covering `min..=max` (inclusive): its origin, with the x
/// origin rounded down to a multiple of 64, its words per line, its lines
/// per plane and its planes.
#[inline]
fn frame_of<C: GridCoord>(min: C, max: C) -> ((i32, i32, i32), usize, usize, usize) {
    let ((x0, y0, z0), (x1, y1, z1)) = (min.xyz(), max.xyz());
    assert!(x0 <= x1 && y0 <= y1 && z0 <= z1, "invalid bounds");
    let origin_x = word_align(x0);
    (
        (origin_x, y0, z0),
        ((x1 - origin_x) as usize) / 64 + 1,
        (y1 - y0 + 1) as usize,
        (z1 - z0 + 1) as usize,
    )
}

/// `dst = src | (src << 1) | (src >> 1)` across word boundaries: the
/// horizontal (x ± 1) spread of one packed row. The slices must have equal
/// length.
#[inline]
fn spread_row(src: &[u64], dst: &mut [u64]) {
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len();
    for j in 0..n {
        let left_carry = if j > 0 { src[j - 1] >> 63 } else { 0 };
        let right_carry = if j + 1 < n { src[j + 1] << 63 } else { 0 };
        dst[j] = src[j] | (src[j] << 1) | left_carry | (src[j] >> 1) | right_carry;
    }
}

/// The indices within one step of `at` that lie in the inclusive range
/// `range`.
#[inline]
fn near(at: usize, range: (usize, usize)) -> std::ops::Range<usize> {
    at.saturating_sub(1).max(range.0)..(at + 2).min(range.1 + 1)
}

/// The span mask of one packed row: every bit from the row's first set bit
/// through its last set bit (inclusive), or all zeros for an empty row.
/// Writes into `dst` and returns `true` when the row is non-empty.
#[inline]
fn row_span_mask(src: &[u64], dst: &mut [u64]) -> bool {
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
/// (the incremental engine, the batch construction loop, the 3-D merge
/// process) allocate nothing once the buffers have grown to the
/// working-set size.
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

/// Word count a [`WordGrid`] keeps in place before its lines move to the
/// heap: the frames of most fault components and polygons fit, so their
/// regions are built without allocating.
const INLINE_WORDS: usize = 4;

/// The packed lines of a [`WordGrid`]: in place up to [`INLINE_WORDS`]
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

/// A word-packed occupancy bitmap over a box-shaped frame of the lattice
/// of `C` (one bit per node; x-lines of `u64` words, stored plane by
/// plane, each plane line by line).
#[derive(Clone, Debug)]
pub struct WordGrid<C> {
    /// West edge of the frame; always a multiple of 64.
    origin_x: i32,
    /// North edge of the frame (smallest covered `y`).
    origin_y: i32,
    /// Lowest covered plane (`z`); 0 for planar coordinates.
    origin_z: i32,
    /// Words per line.
    width_words: u32,
    /// Lines per plane (the frame's `y` extent).
    height: u32,
    /// Number of planes (the frame's `z` extent); 1 for planar
    /// coordinates.
    depth: u32,
    /// Packed occupancy, `depth * height * width_words` words; line
    /// `(y, z)` starts at word `(z * height + y) * width_words`.
    words: Words,
    coord: PhantomData<fn() -> C>,
}

/// The 2-D word grid: one plane of [`Coord`]s, lines are mesh rows.
pub type BitGrid = WordGrid<Coord>;

impl<C> Default for WordGrid<C> {
    fn default() -> Self {
        WordGrid {
            origin_x: 0,
            origin_y: 0,
            origin_z: 0,
            width_words: 0,
            height: 0,
            depth: 0,
            words: Words::default(),
            coord: PhantomData,
        }
    }
}

impl<C: GridCoord> WordGrid<C> {
    /// A grid with an empty frame (contains nothing, accepts growth).
    pub fn empty() -> Self {
        WordGrid::default()
    }

    /// An all-clear grid whose frame covers `min..=max` (inclusive). The
    /// frame's x-origin is rounded down to a multiple of 64 so all grids
    /// share one bit phase.
    pub fn with_bounds(min: C, max: C) -> Self {
        let (origin, width_words, height, depth) = frame_of(min, max);
        WordGrid {
            origin_x: origin.0,
            origin_y: origin.1,
            origin_z: origin.2,
            width_words: width_words as u32,
            height: height as u32,
            depth: depth as u32,
            words: Words::zeroed(width_words * height * depth),
            coord: PhantomData,
        }
    }

    /// Builds a grid from coordinates, framed by their bounding box.
    pub fn from_coords(coords: impl IntoIterator<Item = C>) -> Self {
        let coords: Vec<C> = coords.into_iter().collect();
        let Some((lo, hi)) = coords.iter().map(|&c| (c, c)).reduce(joint_box) else {
            return WordGrid::empty();
        };
        let mut grid = WordGrid::with_bounds(lo, hi);
        for c in coords {
            grid.set(c);
        }
        grid
    }

    /// The solid box `lo..=hi`.
    pub fn solid_box(lo: C, hi: C) -> Self {
        let mut grid = WordGrid::with_bounds(lo, hi);
        grid.fill_box(lo, hi);
        grid
    }

    /// An empty grid framed over the joint bounding box of the set bits of
    /// `parts`, so that unioning them all in never regrows it.
    pub fn framed_over<'a>(parts: impl IntoIterator<Item = &'a Self>) -> Self
    where
        Self: 'a,
    {
        parts
            .into_iter()
            .filter_map(WordGrid::bounding_box)
            .reduce(joint_box)
            .map_or_else(WordGrid::empty, |(lo, hi)| WordGrid::with_bounds(lo, hi))
    }

    /// True when the frame covers `c` (regardless of the bit value).
    #[inline]
    pub fn in_frame(&self, c: C) -> bool {
        let (x, y, z) = c.xyz();
        y >= self.origin_y
            && ((y - self.origin_y) as u32) < self.height
            && x >= self.origin_x
            && ((x - self.origin_x) as u32) < self.width_words * 64
            && z >= self.origin_z
            && ((z - self.origin_z) as u32) < self.depth
    }

    /// Index of the first word of the line `(y, z)`, which the frame
    /// must cover.
    #[inline]
    fn line_start(&self, y: i32, z: i32) -> usize {
        let (ww, h, _) = self.dims();
        ((z - self.origin_z) as usize * h + (y - self.origin_y) as usize) * ww
    }

    #[inline]
    fn pos(&self, c: C) -> (usize, u64) {
        debug_assert!(self.in_frame(c));
        let (x, y, z) = c.xyz();
        let dx = (x - self.origin_x) as usize;
        (self.line_start(y, z) + dx / 64, 1u64 << (dx % 64))
    }

    /// Membership test; coordinates outside the frame are absent.
    #[inline]
    pub fn contains(&self, c: C) -> bool {
        if !self.in_frame(c) {
            return false;
        }
        let (i, bit) = self.pos(c);
        self.words[i] & bit != 0
    }

    /// Sets the bit at `c`, which must lie inside the frame. Returns `true`
    /// when newly set.
    #[inline]
    pub fn set(&mut self, c: C) -> bool {
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
    pub fn insert(&mut self, c: C) -> bool {
        if self.words.is_empty() {
            *self = WordGrid::with_bounds(c, c);
        } else if !self.in_frame(c) {
            let (lo, hi) = self.frame_bounds();
            let grow = |v: i32, lo: i32, hi: i32| {
                let slack = hi - lo + 1;
                if v < lo {
                    (v.saturating_sub(slack), hi)
                } else if v > hi {
                    (lo, v.saturating_add(slack))
                } else {
                    (lo, hi)
                }
            };
            let ((x, y, z), (x0, y0, z0), (x1, y1, z1)) = (c.xyz(), lo.xyz(), hi.xyz());
            let ((x0, x1), (y0, y1), (z0, z1)) =
                (grow(x, x0, x1), grow(y, y0, y1), grow(z, z0, z1));
            self.regrow(C::from_xyz(x0, y0, z0), C::from_xyz(x1, y1, z1));
        }
        self.set(c)
    }

    /// Clears the bit at `c`. Returns `true` when it was set.
    #[inline]
    pub fn remove(&mut self, c: C) -> bool {
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
    pub fn reset_frame(&mut self, min: C, max: C) -> bool {
        let (origin, width_words, height, depth) = frame_of(min, max);
        let grew = self.words.reset_zeroed(width_words * height * depth);
        (self.origin_x, self.origin_y, self.origin_z) = origin;
        (self.width_words, self.height, self.depth) =
            (width_words as u32, height as u32, depth as u32);
        grew
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of packed lines of the frame, one per `(y, z)` pair.
    #[inline]
    pub fn lines(&self) -> usize {
        self.height as usize * self.depth as usize
    }

    /// Words per line, lines per plane and planes, as indices.
    #[inline]
    fn dims(&self) -> (usize, usize, usize) {
        (
            self.width_words as usize,
            self.height as usize,
            self.depth as usize,
        )
    }

    /// The frame's covered coordinate range `(min, max)`, inclusive. The
    /// frame of an [`empty`](Self::empty) grid is degenerate.
    pub fn frame_bounds(&self) -> (C, C) {
        (
            C::from_xyz(self.origin_x, self.origin_y, self.origin_z),
            C::from_xyz(
                self.origin_x + (self.width_words * 64) as i32 - 1,
                self.origin_y + self.height as i32 - 1,
                self.origin_z + self.depth as i32 - 1,
            ),
        )
    }

    /// Reallocates to a frame covering `min..=max` (which must contain the
    /// current frame's set bits), copying whole lines (frames share the
    /// 64-aligned x phase).
    fn regrow(&mut self, min: C, max: C) {
        let mut grown = WordGrid::with_bounds(min, max);
        let (ww, h, _) = self.dims();
        let dw = ((self.origin_x - grown.origin_x) / 64) as usize;
        let words: &[u64] = &self.words;
        for (line, src) in words.chunks_exact(ww.max(1)).enumerate() {
            let y = self.origin_y + (line % h) as i32;
            let z = self.origin_z + (line / h) as i32;
            let dst = grown.line_start(y, z) + dw;
            grown.words[dst..dst + ww].copy_from_slice(src);
        }
        *self = grown;
    }

    /// Iterates set bits in storage order: by `z`, then `y`, then `x`
    /// (row-major in 2-D).
    pub fn iter(&self) -> impl Iterator<Item = C> + '_ {
        let (ww, h, _) = self.dims();
        let origin = (self.origin_x, self.origin_y, self.origin_z);
        Cells {
            words: &self.words,
            next: 0,
            word: 0,
            at: origin,
            cursor: origin,
            ends: (self.origin_x + (ww * 64) as i32, self.origin_y + h as i32),
            origin_xy: (self.origin_x, self.origin_y),
            coord: PhantomData,
        }
    }

    /// The first set bit in storage order — the minimal `(z, y, x)` cell,
    /// where the flood seeds a component — or `None` when empty.
    pub fn min_cell(&self) -> Option<C> {
        let words: &[u64] = &self.words;
        let i = words.iter().position(|&w| w != 0)?;
        let (ww, h, _) = self.dims();
        let (line, j) = (i / ww, i % ww);
        Some(C::from_xyz(
            self.origin_x + (j * 64) as i32 + words[i].trailing_zeros() as i32,
            self.origin_y + (line % h) as i32,
            self.origin_z + (line / h) as i32,
        ))
    }

    /// The tight bounding box `(min, max)` of the set bits, or `None` when
    /// empty.
    pub fn bounding_box(&self) -> Option<(C, C)> {
        let (ww, h, _) = self.dims();
        let words: &[u64] = &self.words;
        let occupied = |line: &[u64]| line.iter().any(|&w| w != 0);
        let first = words.chunks_exact(ww.max(1)).position(occupied)?;
        let last = self.lines() - 1 - words.chunks_exact(ww).rev().position(occupied)?;
        let lines = &words[first * ww..(last + 1) * ww];
        let (x0, x1) = x_extent(lines, ww);
        let ((mut y0, z0), (mut y1, z1)) = if self.depth == 1 {
            ((first, 0), (last, 0))
        } else {
            ((first % h, first / h), (last % h, last / h))
        };
        if z0 != z1 {
            // The content spans planes: every occupied line bounds y.
            (y0, y1) = (h, 0);
            for (i, line) in lines.chunks_exact(ww).enumerate() {
                if occupied(line) {
                    let y = (first + i) % h;
                    (y0, y1) = (y0.min(y), y1.max(y));
                }
            }
        }
        Some((
            C::from_xyz(
                self.origin_x + x0,
                self.origin_y + y0 as i32,
                self.origin_z + z0 as i32,
            ),
            C::from_xyz(
                self.origin_x + x1,
                self.origin_y + y1 as i32,
                self.origin_z + z1 as i32,
            ),
        ))
    }

    /// Index of the first word of the line `(y, z)`, or `None` when the
    /// frame does not cover it.
    #[inline]
    fn line_at(&self, y: i32, z: i32) -> Option<usize> {
        let (dy, dz) = (y - self.origin_y, z - self.origin_z);
        let (ww, h, d) = self.dims();
        ((0..h as i32).contains(&dy) && (0..d as i32).contains(&dz))
            .then(|| (dz as usize * h + dy as usize) * ww)
    }

    /// Calls `f(self_word, other_word)` for every word position of `self`,
    /// with `other`'s word at the same coordinate position (0 where the
    /// frames do not overlap).
    #[inline]
    fn zip_words(&self, other: &WordGrid<C>, mut f: impl FnMut(u64, u64)) {
        let ((ww, h, d), oww) = (self.dims(), other.width_words as usize);
        let dw = ((self.origin_x - other.origin_x) / 64) as i64;
        let (words, other_words): (&[u64], &[u64]) = (&self.words, &other.words);
        let mut line = 0;
        for z in 0..d {
            for y in 0..h {
                let start = other.line_at(self.origin_y + y as i32, self.origin_z + z as i32);
                for j in 0..ww {
                    let oj = j as i64 + dw;
                    let ow = match start {
                        Some(s) if (0..oww as i64).contains(&oj) => other_words[s + oj as usize],
                        _ => 0,
                    };
                    f(words[line + j], ow);
                }
                line += ww;
            }
        }
    }

    /// Like [`zip_words`](Self::zip_words) but writes `f`'s result back
    /// into `self`'s word.
    #[inline]
    fn zip_words_mut(&mut self, other: &WordGrid<C>, mut f: impl FnMut(u64, u64) -> u64) {
        let ((ww, h, d), oww) = (self.dims(), other.width_words as usize);
        let dw = ((self.origin_x - other.origin_x) / 64) as i64;
        let (words, other_words): (&mut [u64], &[u64]) = (&mut self.words, &other.words);
        let mut line = 0;
        for z in 0..d {
            for y in 0..h {
                let start = other.line_at(self.origin_y + y as i32, self.origin_z + z as i32);
                for j in 0..ww {
                    let oj = j as i64 + dw;
                    let ow = match start {
                        Some(s) if (0..oww as i64).contains(&oj) => other_words[s + oj as usize],
                        _ => 0,
                    };
                    let w = &mut words[line + j];
                    *w = f(*w, ow);
                }
                line += ww;
            }
        }
    }

    /// Number of set bits shared with `other`.
    pub(crate) fn intersection_len(&self, other: &WordGrid<C>) -> usize {
        let mut n = 0;
        self.zip_words(other, |a, b| n += (a & b).count_ones() as usize);
        n
    }

    /// `self &= other` — a whole-word AND over the frame overlap.
    pub(crate) fn intersect_with(&mut self, other: &WordGrid<C>) {
        self.zip_words_mut(other, |a, b| a & b);
    }

    /// True when the two grids share at least one set bit — a whole-word
    /// AND scan over the frame overlap.
    pub fn intersects(&self, other: &WordGrid<C>) -> bool {
        let mut hit = false;
        self.zip_words(other, |a, b| hit |= a & b != 0);
        hit
    }

    /// True when every set bit of `self` is set in `other` — a whole-word
    /// AND-NOT scan.
    pub fn is_subset_of(&self, other: &WordGrid<C>) -> bool {
        let mut ok = true;
        self.zip_words(other, |a, b| ok &= a & !b == 0);
        ok
    }

    /// `self |= other`, growing the frame to cover `other`'s set bits when
    /// necessary. Walks only `other`'s content box: each of its lines is
    /// ORed word by word into the matching line of `self`, so merging a
    /// small grid into a large accumulator costs in proportion to the
    /// small one.
    pub fn union_with(&mut self, other: &WordGrid<C>) {
        let Some((lo, hi)) = other.bounding_box() else {
            return;
        };
        if self.words.is_empty() {
            *self = WordGrid::with_bounds(lo, hi);
        } else if !(self.in_frame(lo) && self.in_frame(hi)) {
            let (min, max) = joint_box(self.frame_bounds(), (lo, hi));
            self.regrow(min, max);
        }
        // Both frames share the 64-aligned x phase, so the content's word
        // columns map one to one.
        let ((x0, y0, z0), (x1, y1, z1)) = (lo.xyz(), hi.xyz());
        let first = word_align(x0);
        let (src_j, dst_j) = (
            ((first - other.origin_x) / 64) as usize,
            ((first - self.origin_x) / 64) as usize,
        );
        let n = ((word_align(x1) - first) / 64) as usize + 1;
        let other_words: &[u64] = &other.words;
        for z in z0..=z1 {
            for y in y0..=y1 {
                let src = other.line_start(y, z) + src_j;
                let dst = self.line_start(y, z) + dst_j;
                for (d, &s) in self.words[dst..dst + n]
                    .iter_mut()
                    .zip(&other_words[src..src + n])
                {
                    *d |= s;
                }
            }
        }
    }

    /// `self &= !other` — a whole-word AND-NOT over the frame overlap.
    pub fn subtract(&mut self, other: &WordGrid<C>) {
        self.zip_words_mut(other, |a, b| a & !b);
    }

    /// Sets every node of the box `lo..=hi`, which must lie inside the
    /// frame: one line span mask (the `row_span_mask` of the box's two
    /// end bits) ORed into each of the box's lines. The 3-D cuboid model
    /// blocks out its boxes with it.
    pub fn fill_box(&mut self, lo: C, hi: C) {
        let ((x0, y0, z0), (x1, y1, z1)) = (lo.xyz(), hi.xyz());
        assert!(x0 <= x1 && y0 <= y1 && z0 <= z1, "invalid bounds");
        assert!(
            self.in_frame(lo) && self.in_frame(hi),
            "box outside the frame"
        );
        let first = ((x0 - self.origin_x) / 64) as usize;
        let n = ((x1 - self.origin_x) / 64) as usize - first + 1;
        let mut ends = vec![0u64; n];
        for x in [x0, x1] {
            let dx = (x - self.origin_x) as usize - first * 64;
            ends[dx / 64] |= 1u64 << (dx % 64);
        }
        let mut span = vec![0u64; n];
        row_span_mask(&ends, &mut span);
        for z in z0..=z1 {
            for y in y0..=y1 {
                let start = self.line_start(y, z) + first;
                for (w, &s) in self.words[start..start + n].iter_mut().zip(&span) {
                    *w |= s;
                }
            }
        }
    }

    /// The cluster-neighborhood dilation (Definition 2 adjacency): every
    /// set bit plus its 26 neighbors — in one plane, its 8 neighbors — as
    /// shifted-word ORs. Each line is spread horizontally and ORed into the
    /// neighboring lines. The result's frame grows by one node in every
    /// direction of the lattice, so border bits are kept.
    pub fn dilate(&self) -> WordGrid<C> {
        let Some((lo, hi)) = self.bounding_box() else {
            return WordGrid::empty();
        };
        let ((x0, y0, z0), (x1, y1, z1)) = (lo.xyz(), hi.xyz());
        let mut out = WordGrid::with_bounds(
            C::from_xyz(x0 - 1, y0 - 1, z0 - 1),
            C::from_xyz(x1 + 1, y1 + 1, z1 + 1),
        );
        let (ww, out_h, out_d) = out.dims();
        let (out_y, out_z) = (out.origin_y, out.origin_z);
        // Word offset of this frame's word 0 inside the output frame. The
        // output frame tightly wraps the *content*, so it can start to the
        // right of (or end before) this frame — clamp the copy window.
        let dw = ((self.origin_x - out.origin_x) / 64) as i64;
        let out_words: &mut [u64] = &mut out.words;
        let mut src = vec![0u64; ww];
        let mut spread = vec![0u64; ww];
        let words: &[u64] = &self.words;
        let (sww, h, _) = self.dims();
        for (line, row) in words.chunks_exact(sww.max(1)).enumerate() {
            if row.iter().all(|&w| w == 0) {
                continue;
            }
            let y = self.origin_y + (line % h) as i32;
            let z = self.origin_z + (line / h) as i32;
            src.fill(0);
            for (j, &w) in row.iter().enumerate() {
                let oj = j as i64 + dw;
                if (0..ww as i64).contains(&oj) {
                    // Words outside the output frame hold no set bits (the
                    // frame covers the content bounding box plus margin).
                    src[oj as usize] = w;
                }
            }
            spread_row(&src, &mut spread);
            // Planar frames have one plane: only `z` itself is in range.
            for lz in (z - 1 - out_z)..=(z + 1 - out_z) {
                if !(0..out_d as i32).contains(&lz) {
                    continue;
                }
                for ly in (y - 1 - out_y)..=(y + 1 - out_y) {
                    if (0..out_h as i32).contains(&ly) {
                        let l = (lz as usize * out_h + ly as usize) * ww;
                        for (d, &s) in out_words[l..l + ww].iter_mut().zip(&spread) {
                            *d |= s;
                        }
                    }
                }
            }
        }
        out
    }

    /// Decomposes into connected components under `adjacency` by
    /// word-scan flood: find-first-set seeds, then whole-word frontier
    /// expansion over the neighboring lines until a component stops
    /// growing. [`Connectivity::Eight`] is the full neighborhood — 8
    /// neighbors in one plane, 26 across planes, the cluster adjacency of
    /// Definition 2 — and [`Connectivity::Four`] the link neighborhood (4
    /// neighbors in one plane, 6 across planes).
    ///
    /// Components come out in first-seen (storage) order, each framed by
    /// its own bounding box. The flood runs on `scratch`, and after each
    /// component only the lines it reached are reset, so once the buffers
    /// have grown only the output grids are allocated.
    pub fn flood(&self, adjacency: Connectivity, scratch: &mut BitScratch) -> Vec<WordGrid<C>> {
        let (ww, h, d) = self.dims();
        let words: &[u64] = &self.words;
        let total = words.len();
        let mut out = Vec::new();
        if total == 0 {
            return out;
        }
        scratch.prepare(total);
        let BitScratch {
            a: left,
            b: comp,
            c: frontier,
            d: spread,
            e: next,
            ..
        } = scratch;
        // The set bits no component has taken yet.
        left[..total].copy_from_slice(words);
        let line = |y: usize, z: usize| (z * h + y) * ww;
        // The lines within one step of the line range `r` of `0..=last`.
        let halo =
            |r: (usize, usize), last: usize| near(r.0, (0, last)).start..near(r.1, (0, last)).end;
        let lines = (0..d).flat_map(|z| (0..h).map(move |y| (y, z)));

        for (seed_line, (y, z)) in lines.enumerate() {
            for j in 0..ww {
                let seed_word = seed_line * ww + j;
                while left[seed_word] != 0 {
                    let seed_bit = left[seed_word] & left[seed_word].wrapping_neg();
                    left[seed_word] ^= seed_bit;
                    comp[seed_word] = seed_bit;

                    // Singleton fast path: a seed with no other set bit in
                    // the block of lines around it is its own component
                    // under either adjacency. Word-edge bits take the
                    // flood; their neighborhood spans words.
                    if seed_bit & (1 | 1 << 63) == 0 {
                        let mask = (seed_bit << 1) | seed_bit | (seed_bit >> 1);
                        let mut n = 0;
                        for nz in near(z, (0, d - 1)) {
                            for ny in near(y, (0, h - 1)) {
                                n += (words[line(ny, nz) + j] & mask).count_ones();
                            }
                        }
                        if n == 1 {
                            out.push(self.copy_out(comp, (y, y), (z, z)));
                            comp[seed_word] = 0;
                            continue;
                        }
                    }

                    // The (y, z) line ranges of the frontier and of the
                    // component. Only the frontier's lines are read, and
                    // each round's scan rewrites every line of the next
                    // frontier, so stale lines elsewhere do no harm.
                    let (mut fy, mut fz) = ((y, y), (z, z));
                    let (mut cy, mut cz) = (fy, fz);
                    frontier[line(y, z)..line(y, z) + ww].fill(0);
                    frontier[seed_word] = seed_bit;
                    loop {
                        for z in fz.0..fz.1 + 1 {
                            for l in (fy.0..fy.1 + 1).map(|y| line(y, z)) {
                                spread_row(&frontier[l..l + ww], &mut spread[l..l + ww]);
                            }
                        }
                        let (mut ny, mut nz) = ((usize::MAX, 0), (usize::MAX, 0));
                        for z in halo(fz, d - 1) {
                            for y in halo(fy, h - 1) {
                                // The frontier lines next to line (y, z)
                                // are in the planes `planes` and the rows
                                // `rows` of each, worked out once per line.
                                let (rows, planes) = (near(y, fy), near(z, fz));
                                let l = line(y, z);
                                let mut grew = false;
                                for j in 0..ww {
                                    let mut nb = 0;
                                    for sz in planes.clone() {
                                        let p = line(0, sz) + j;
                                        match (adjacency, sz == z) {
                                            // The full neighborhood: the
                                            // horizontal spread of each.
                                            (Connectivity::Eight, _) => {
                                                for sy in rows.clone() {
                                                    nb |= spread[p + sy * ww];
                                                }
                                            }
                                            // The link neighborhood: the
                                            // line's own spread and the raw
                                            // frontier one step along y or
                                            // z. Reading the line's own
                                            // frontier adds nothing new.
                                            (Connectivity::Four, true) => {
                                                for sy in rows.clone() {
                                                    nb |= frontier[p + sy * ww];
                                                }
                                                if rows.contains(&y) {
                                                    nb |= spread[p + y * ww];
                                                }
                                            }
                                            (Connectivity::Four, false) => {
                                                if rows.contains(&y) {
                                                    nb |= frontier[p + y * ww];
                                                }
                                            }
                                        }
                                    }
                                    let grow = nb & left[l + j];
                                    next[l + j] = grow;
                                    if grow != 0 {
                                        left[l + j] ^= grow;
                                        comp[l + j] |= grow;
                                        grew = true;
                                    }
                                }
                                if grew {
                                    ny = (ny.0.min(y), ny.1.max(y));
                                    nz = (nz.0.min(z), nz.1.max(z));
                                }
                            }
                        }
                        if ny.0 == usize::MAX {
                            break;
                        }
                        // The grow masks become the frontier.
                        std::mem::swap(frontier, next);
                        (fy, fz) = (ny, nz);
                        cy = (cy.0.min(fy.0), cy.1.max(fy.1));
                        cz = (cz.0.min(fz.0), cz.1.max(fz.1));
                    }

                    out.push(self.copy_out(comp, cy, cz));
                    for z in cz.0..cz.1 + 1 {
                        for l in (cy.0..cy.1 + 1).map(|y| line(y, z)) {
                            comp[l..l + ww].fill(0);
                        }
                    }
                }
            }
        }
        out
    }

    /// Copies the bits of `bits` (in this grid's frame) into a new grid
    /// framed by their bounding box, which spans the lines `ys` × `zs`
    /// (frame indices, inclusive). `bits` must hold no set bit outside
    /// those lines.
    fn copy_out(&self, bits: &[u64], ys: (usize, usize), zs: (usize, usize)) -> WordGrid<C> {
        let (ww, h, _) = self.dims();
        // Every line from the first to the last is scanned: those outside
        // `ys` × `zs` are clear.
        let (x0, x1) = x_extent(
            &bits[(zs.0 * h + ys.0) * ww..(zs.1 * h + ys.1 + 1) * ww],
            ww,
        );
        let (ox, oy, oz) = (self.origin_x, self.origin_y, self.origin_z);
        let mut out = WordGrid::with_bounds(
            C::from_xyz(ox + x0, oy + ys.0 as i32, oz + zs.0 as i32),
            C::from_xyz(ox + x1, oy + ys.1 as i32, oz + zs.1 as i32),
        );
        let (first, n) = ((x0 / 64) as usize, out.width_words as usize);
        let mut dst = out.words.chunks_exact_mut(n);
        for z in zs.0..=zs.1 {
            for y in ys.0..=ys.1 {
                let src = (z * h + y) * ww + first;
                dst.next()
                    .expect("one output line per input line")
                    .copy_from_slice(&bits[src..src + n]);
            }
        }
        out
    }

    /// One snapshot round of the gap fill: the line-span fills along x
    /// (span masks from trailing/leading-zero counts) and the gap fills
    /// along y and z (word-parallel prefix/suffix sweeps), all computed
    /// **with respect to the current state** (the semantics of
    /// Definition 3's scan-then-fill iteration), then applied together.
    /// The z sweep runs only on frames of more than one plane. Returns the
    /// number of bits added.
    fn fill_gaps_round(&mut self, scratch: &mut BitScratch) -> u64 {
        let (ww, h, d) = self.dims();
        let total = self.words.len();
        scratch.prepare(total);
        let BitScratch {
            a: fill,
            c: prefix,
            d: span,
            ..
        } = scratch;
        let words: &mut [u64] = &mut self.words;
        if total == 0 {
            return 0;
        }

        // Line gaps along x: span mask minus the line.
        for (line, row) in words.chunks_exact(ww).enumerate() {
            if row_span_mask(row, &mut span[..ww]) {
                for j in 0..ww {
                    fill[line * ww + j] = span[j] & !row[j];
                }
            }
        }

        // Gaps along y (in every plane) and along z, word-parallel across
        // all 64 columns of a word: over the `len` words `stride` apart
        // from `start`, prefix[k] = OR of words 0..=k, then a backward
        // suffix sweep gives fill[k] |= prefix[k] & suffix[k] & !word[k].
        let mut sweep = |start: usize, len: usize, stride: usize| {
            let mut acc = 0u64;
            for k in 0..len {
                let i = start + k * stride;
                acc |= words[i];
                prefix[i] = acc;
            }
            let mut suffix = 0u64;
            for k in (0..len).rev() {
                let i = start + k * stride;
                suffix |= words[i];
                fill[i] |= prefix[i] & suffix & !words[i];
            }
        };
        for z in 0..d {
            for j in 0..ww {
                sweep(z * h * ww + j, h, ww);
            }
        }
        if d > 1 {
            for i in 0..h * ww {
                sweep(i, d, h * ww);
            }
        }

        let mut added = 0u64;
        for (w, &f) in words.iter_mut().zip(fill.iter()) {
            added += (f & !*w).count_ones() as u64;
            *w |= f;
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

    /// The orthogonal-convexity test of Definition 1 (per dimension),
    /// word-parallel: every x-line's bits form one contiguous run (span
    /// mask equals the line), and no bit reappears along y (per plane) or
    /// along z after its run has ended.
    pub fn is_orthogonally_convex(&self) -> bool {
        let (ww, h, d) = self.dims();
        let words: &[u64] = &self.words;
        let mut span = vec![0u64; ww];
        for row in words.chunks_exact(ww.max(1)) {
            if row_span_mask(row, &mut span) && span.iter().zip(row).any(|(&s, &r)| s != r) {
                return false;
            }
        }
        // One contiguous run per column along `len` lines `stride` words
        // apart, starting at word `start`.
        let runs_contiguous = |start: usize, len: usize, stride: usize| {
            let (mut started, mut ended) = (0u64, 0u64);
            for k in 0..len {
                let w = words[start + k * stride];
                if w & ended != 0 {
                    return false;
                }
                ended |= started & !w;
                started |= w;
            }
            true
        };
        let along_y = (0..d).all(|z| (0..ww).all(|j| runs_contiguous(z * h * ww + j, h, ww)));
        along_y && (d <= 1 || (0..h * ww).all(|i| runs_contiguous(i, d, h * ww)))
    }
}

/// The set bits of a [`WordGrid`] in storage order (see
/// [`WordGrid::iter`]): one word at a time, the position of each loaded
/// word kept as running counters rather than divided out of its index.
struct Cells<'a, C> {
    words: &'a [u64],
    /// Index of the next word to load.
    next: usize,
    /// The bits of the loaded word not yet returned.
    word: u64,
    /// `(x, y, z)` of bit 0 of the loaded word.
    at: (i32, i32, i32),
    /// `(x, y, z)` of bit 0 of word `next`.
    cursor: (i32, i32, i32),
    /// The frame's x and y ends (exclusive), where the cursor wraps.
    ends: (i32, i32),
    /// The frame's x and y origins, where the cursor wraps to.
    origin_xy: (i32, i32),
    coord: PhantomData<fn() -> C>,
}

impl<C: GridCoord> Iterator for Cells<'_, C> {
    type Item = C;

    #[inline]
    fn next(&mut self) -> Option<C> {
        while self.word == 0 {
            self.word = *self.words.get(self.next)?;
            self.next += 1;
            self.at = self.cursor;
            let (x, y, z) = &mut self.cursor;
            *x += 64;
            if *x == self.ends.0 {
                *x = self.origin_xy.0;
                *y += 1;
                if *y == self.ends.1 {
                    *y = self.origin_xy.1;
                    *z += 1;
                }
            }
        }
        let b = self.word.trailing_zeros() as i32;
        self.word &= self.word - 1;
        Some(C::from_xyz(self.at.0 + b, self.at.1, self.at.2))
    }
}

impl WordGrid<Coord> {
    /// An all-clear grid covering every node of `mesh`.
    pub fn for_mesh(mesh: &Mesh2D) -> Self {
        BitGrid::with_bounds(
            Coord::ORIGIN,
            Coord::new(mesh.width() - 1, mesh.height() - 1),
        )
    }

    /// A copy of `region`'s grid.
    pub fn from_region(region: &Region) -> Self {
        region.bits().clone()
    }

    /// A copy of this grid as a [`Region`].
    pub fn to_region(&self) -> Region {
        Region::from_bits(self.clone())
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
        let (ww, height, _) = self.dims();
        let mut best: Option<Coord> = None;
        'cols: for j in 0..ww {
            let mut column_or = 0u64;
            for row in 0..height {
                column_or |= self.words[row * ww + j];
            }
            if column_or == 0 {
                continue;
            }
            let x_bit = column_or.trailing_zeros();
            let bit = 1u64 << x_bit;
            for row in 0..height {
                if self.words[row * ww + j] & bit != 0 {
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
        self.bounding_box().map(|(lo, hi)| Rect::new(lo, hi))
    }

    /// Decomposes the set bits into connected components under `adjacency`
    /// (the [`flood`](WordGrid::flood)), in the same deterministic order
    /// as [`Region::components`]: sorted by their smallest node in
    /// `Coord`'s x-major order. Each component's grid is framed by its own
    /// bounding box.
    pub fn components(&self, adjacency: Connectivity) -> Vec<BitGrid> {
        self.component_regions_with(adjacency, &mut BitScratch::new())
            .into_iter()
            .map(Region::into_bits)
            .collect()
    }

    /// The connected components under `adjacency` as [`Region`]s, in
    /// [`components`](Self::components)' x-major order: the flood's
    /// storage order, sorted by each component's smallest x-major node.
    pub fn component_regions_with(
        &self,
        adjacency: Connectivity,
        scratch: &mut BitScratch,
    ) -> Vec<Region> {
        let grids = self.flood(adjacency, scratch);
        // The smallest node's frame offsets as one integer, x above y: it
        // orders like the coordinate and sorts faster.
        let mut keys: Vec<(u64, usize)> = grids
            .iter()
            .map(|grid| {
                let c = grid.min_coord_x_major().expect("components are non-empty");
                ((c.x - self.origin_x) as u64) << 32 | (c.y - self.origin_y) as u64
            })
            .zip(0..)
            .collect();
        keys.sort_unstable_by_key(|&(key, _)| key);
        let mut grids: Vec<Option<BitGrid>> = grids.into_iter().map(Some).collect();
        keys.into_iter()
            .map(|(_, i)| Region::from_bits(grids[i].take().expect("each index is taken once")))
            .collect()
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
        let (ww, height, _) = g.dims();
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
            while self.row < height {
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
            let dilated = BitGrid::from_region(&shape).dilate();
            assert_eq!(dilated.to_region(), expected, "shape {shape:?}");
        }
        assert!(BitGrid::empty().dilate().is_empty());
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
            assert_eq!(g.dilate().to_region(), expected, "seed {seed}");
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
