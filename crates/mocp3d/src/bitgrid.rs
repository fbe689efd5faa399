//! The 3-D word-packed occupancy bitmap: 64 nodes per `u64` along the x
//! axis, one packed *x-line* per `(y, z)` pair.
//!
//! [`BitGrid3`] is the 3-D counterpart of `mesh2d::BitGrid` and the
//! storage behind [`Region3`](crate::Region3): 26-connected component
//! labelling runs as a find-first-set seed plus whole-word frontier
//! expansion over the 3×3 line neighborhood, the minimum-polyhedron hull
//! fixpoint fills per-axis occupied spans with leading/trailing-zero
//! counts (x) and word-parallel prefix/suffix sweeps (y, z), and the
//! safety predicates are whole-word subset/intersection scans.
//!
//! Frames anchor their x-origin to a multiple of 64, so any two grids
//! share one bit phase and binary operations are pure word loops. The
//! scalar `BTreeSet` prototype of `tests/hull_oracle.rs` remains the
//! specification the kernels here are property-tested against.

use crate::mesh::Coord3;
use mesh2d::bitgrid::{row_span_mask, spread_row};

/// Rounds `x` down to a multiple of 64.
#[inline]
fn word_align(x: i32) -> i32 {
    x.div_euclid(64) * 64
}

/// A word-packed occupancy bitmap over a box-shaped frame of the 3-D
/// coordinate space.
#[derive(Clone, Debug, Default)]
pub struct BitGrid3 {
    /// West edge of the frame; always a multiple of 64.
    origin_x: i32,
    origin_y: i32,
    origin_z: i32,
    /// Words per x-line.
    width_words: usize,
    dim_y: usize,
    dim_z: usize,
    /// `(z * dim_y + y) * width_words + x/64`, x-major.
    words: Vec<u64>,
}

impl BitGrid3 {
    /// A grid with an empty frame (contains nothing, accepts growth).
    pub fn empty() -> Self {
        BitGrid3::default()
    }

    /// An all-clear grid whose frame covers `lo..=hi` (inclusive).
    pub fn with_bounds(lo: Coord3, hi: Coord3) -> Self {
        assert!(
            lo.x <= hi.x && lo.y <= hi.y && lo.z <= hi.z,
            "invalid bounds"
        );
        let origin_x = word_align(lo.x);
        let width_words = ((hi.x - origin_x) as usize) / 64 + 1;
        let dim_y = (hi.y - lo.y + 1) as usize;
        let dim_z = (hi.z - lo.z + 1) as usize;
        BitGrid3 {
            origin_x,
            origin_y: lo.y,
            origin_z: lo.z,
            width_words,
            dim_y,
            dim_z,
            words: vec![0; width_words * dim_y * dim_z],
        }
    }

    /// Builds a grid from coordinates, framed by their bounding box.
    pub fn from_coords(coords: impl IntoIterator<Item = Coord3>) -> Self {
        let coords: Vec<Coord3> = coords.into_iter().collect();
        let Some(&first) = coords.first() else {
            return BitGrid3::empty();
        };
        let (mut lo, mut hi) = (first, first);
        for &c in &coords[1..] {
            lo = Coord3::new(lo.x.min(c.x), lo.y.min(c.y), lo.z.min(c.z));
            hi = Coord3::new(hi.x.max(c.x), hi.y.max(c.y), hi.z.max(c.z));
        }
        let mut grid = BitGrid3::with_bounds(lo, hi);
        for c in coords {
            grid.set(c);
        }
        grid
    }

    /// The solid box `lo..=hi`.
    pub fn solid_box(lo: Coord3, hi: Coord3) -> Self {
        let mut grid = BitGrid3::with_bounds(lo, hi);
        grid.fill_box(lo, hi);
        grid
    }

    /// Sets every cell of the box `lo..=hi`, which must lie inside the
    /// frame: one x-line span mask (the [`row_span_mask`] of the box's two
    /// end bits) ORed into each of the box's lines.
    pub fn fill_box(&mut self, lo: Coord3, hi: Coord3) {
        assert!(
            lo.x <= hi.x && lo.y <= hi.y && lo.z <= hi.z,
            "invalid bounds"
        );
        assert!(
            self.in_frame(lo) && self.in_frame(hi),
            "box outside the frame"
        );
        let first = ((lo.x - self.origin_x) / 64) as usize;
        let n = ((hi.x - self.origin_x) / 64) as usize - first + 1;
        let mut ends = vec![0u64; n];
        for x in [lo.x, hi.x] {
            let dx = (x - self.origin_x) as usize - first * 64;
            ends[dx / 64] |= 1u64 << (dx % 64);
        }
        let mut span = vec![0u64; n];
        row_span_mask(&ends, &mut span);
        for z in lo.z..=hi.z {
            for y in lo.y..=hi.y {
                let start = self.line_start(y, z) + first;
                for (w, &s) in self.words[start..start + n].iter_mut().zip(&span) {
                    *w |= s;
                }
            }
        }
    }

    /// Number of lines (one per `(y, z)` pair).
    #[inline]
    fn lines(&self) -> usize {
        self.dim_y * self.dim_z
    }

    /// Index of the first word of the `(y, z)` line (must be in frame).
    #[inline]
    fn line_start(&self, y: i32, z: i32) -> usize {
        ((z - self.origin_z) as usize * self.dim_y + (y - self.origin_y) as usize)
            * self.width_words
    }

    /// True when the frame covers `c`.
    #[inline]
    pub fn in_frame(&self, c: Coord3) -> bool {
        c.x >= self.origin_x
            && ((c.x - self.origin_x) as usize) < self.width_words * 64
            && c.y >= self.origin_y
            && ((c.y - self.origin_y) as usize) < self.dim_y
            && c.z >= self.origin_z
            && ((c.z - self.origin_z) as usize) < self.dim_z
    }

    #[inline]
    fn pos(&self, c: Coord3) -> (usize, u64) {
        debug_assert!(self.in_frame(c));
        let dx = (c.x - self.origin_x) as usize;
        let line = (c.z - self.origin_z) as usize * self.dim_y + (c.y - self.origin_y) as usize;
        (line * self.width_words + dx / 64, 1u64 << (dx % 64))
    }

    /// Membership test; coordinates outside the frame are absent.
    #[inline]
    pub fn contains(&self, c: Coord3) -> bool {
        if !self.in_frame(c) {
            return false;
        }
        let (i, bit) = self.pos(c);
        self.words[i] & bit != 0
    }

    /// Sets the bit at `c` (must be inside the frame). Returns `true` when
    /// newly set.
    #[inline]
    pub fn set(&mut self, c: Coord3) -> bool {
        let (i, bit) = self.pos(c);
        let newly = self.words[i] & bit == 0;
        self.words[i] |= bit;
        newly
    }

    /// Inserts `c`, growing the frame when necessary.
    pub fn insert(&mut self, c: Coord3) -> bool {
        if self.words.is_empty() {
            *self = BitGrid3::with_bounds(c, c);
            return self.set(c);
        }
        if !self.in_frame(c) {
            let (lo, hi) = self.frame_bounds();
            self.regrow(
                Coord3::new(lo.x.min(c.x), lo.y.min(c.y), lo.z.min(c.z)),
                Coord3::new(hi.x.max(c.x), hi.y.max(c.y), hi.z.max(c.z)),
            );
        }
        self.set(c)
    }

    /// Clears the bit at `c`. Returns `true` when it was set.
    pub fn remove(&mut self, c: Coord3) -> bool {
        if !self.in_frame(c) {
            return false;
        }
        let (i, bit) = self.pos(c);
        let was = self.words[i] & bit != 0;
        self.words[i] &= !bit;
        was
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn frame_bounds(&self) -> (Coord3, Coord3) {
        (
            Coord3::new(self.origin_x, self.origin_y, self.origin_z),
            Coord3::new(
                self.origin_x + (self.width_words * 64) as i32 - 1,
                self.origin_y + self.dim_y as i32 - 1,
                self.origin_z + self.dim_z as i32 - 1,
            ),
        )
    }

    /// Reallocates to a frame covering `lo..=hi`, word-copying the content.
    fn regrow(&mut self, lo: Coord3, hi: Coord3) {
        let mut grown = BitGrid3::with_bounds(lo, hi);
        let dw = ((self.origin_x - grown.origin_x) / 64) as usize;
        for z in 0..self.dim_z {
            for y in 0..self.dim_y {
                let src_line = z * self.dim_y + y;
                let dst_line = (z as i32 + self.origin_z - grown.origin_z) as usize * grown.dim_y
                    + (y as i32 + self.origin_y - grown.origin_y) as usize;
                let src =
                    &self.words[src_line * self.width_words..(src_line + 1) * self.width_words];
                let dst_start = dst_line * grown.width_words + dw;
                grown.words[dst_start..dst_start + self.width_words].copy_from_slice(src);
            }
        }
        *self = grown;
    }

    /// Iterates set bits in x-major order (z slowest, then y, then x) —
    /// the same order the dense index enumeration uses.
    pub fn iter(&self) -> impl Iterator<Item = Coord3> + '_ {
        let ww = self.width_words;
        (0..self.lines()).flat_map(move |line| {
            let y = self.origin_y + (line % self.dim_y) as i32;
            let z = self.origin_z + (line / self.dim_y) as i32;
            (0..ww).flat_map(move |j| {
                let mut w = self.words[line * ww + j];
                let base_x = self.origin_x + (j * 64) as i32;
                std::iter::from_fn(move || {
                    if w == 0 {
                        return None;
                    }
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    Some(Coord3::new(base_x + b as i32, y, z))
                })
            })
        })
    }

    /// The lexicographically minimal `(z, y, x)` set cell — the first set
    /// bit in storage order, where the flood seeds a component — or `None`
    /// when empty.
    pub fn min_cell(&self) -> Option<Coord3> {
        let i = self.words.iter().position(|&w| w != 0)?;
        let (line, j) = (i / self.width_words, i % self.width_words);
        Some(Coord3::new(
            self.origin_x + (j * 64) as i32 + self.words[i].trailing_zeros() as i32,
            self.origin_y + (line % self.dim_y) as i32,
            self.origin_z + (line / self.dim_y) as i32,
        ))
    }

    /// The tight bounding box of the set bits, or `None` when empty.
    pub fn bounding_box(&self) -> Option<(Coord3, Coord3)> {
        let ww = self.width_words;
        let mut col_or = vec![0u64; ww];
        let (mut min_y, mut max_y) = (i32::MAX, i32::MIN);
        let (mut min_z, mut max_z) = (i32::MAX, i32::MIN);
        for line in 0..self.lines() {
            let mut any = false;
            for (j, acc) in col_or.iter_mut().enumerate() {
                let w = self.words[line * ww + j];
                *acc |= w;
                any |= w != 0;
            }
            if any {
                let y = self.origin_y + (line % self.dim_y) as i32;
                let z = self.origin_z + (line / self.dim_y) as i32;
                min_y = min_y.min(y);
                max_y = max_y.max(y);
                min_z = min_z.min(z);
                max_z = max_z.max(z);
            }
        }
        let first = col_or.iter().position(|&w| w != 0)?;
        let last = col_or.iter().rposition(|&w| w != 0).expect("non-empty");
        Some((
            Coord3::new(
                self.origin_x + (first * 64) as i32 + col_or[first].trailing_zeros() as i32,
                min_y,
                min_z,
            ),
            Coord3::new(
                self.origin_x + (last * 64) as i32 + 63 - col_or[last].leading_zeros() as i32,
                max_y,
                max_z,
            ),
        ))
    }

    /// Calls `f(self_word, other_word)` over `self`'s frame with `other`'s
    /// word at the same spatial position (0 outside `other`'s frame).
    #[inline]
    fn zip_words(&self, other: &BitGrid3, mut f: impl FnMut(u64, u64)) {
        let dw = (self.origin_x - other.origin_x) / 64;
        for line in 0..self.lines() {
            let y = self.origin_y + (line % self.dim_y) as i32;
            let z = self.origin_z + (line / self.dim_y) as i32;
            let oy = y - other.origin_y;
            let oz = z - other.origin_z;
            let in_other =
                (0..other.dim_y as i32).contains(&oy) && (0..other.dim_z as i32).contains(&oz);
            for j in 0..self.width_words {
                let ow = if in_other {
                    let oj = j as i64 + dw as i64;
                    if oj >= 0 && (oj as usize) < other.width_words {
                        let oline = oz as usize * other.dim_y + oy as usize;
                        other.words[oline * other.width_words + oj as usize]
                    } else {
                        0
                    }
                } else {
                    0
                };
                f(self.words[line * self.width_words + j], ow);
            }
        }
    }

    /// Like [`zip_words`](Self::zip_words) but writes back into `self`.
    #[inline]
    fn zip_words_mut(&mut self, other: &BitGrid3, mut f: impl FnMut(u64, u64) -> u64) {
        let dw = (self.origin_x - other.origin_x) / 64;
        for line in 0..self.lines() {
            let y = self.origin_y + (line % self.dim_y) as i32;
            let z = self.origin_z + (line / self.dim_y) as i32;
            let oy = y - other.origin_y;
            let oz = z - other.origin_z;
            let in_other =
                (0..other.dim_y as i32).contains(&oy) && (0..other.dim_z as i32).contains(&oz);
            for j in 0..self.width_words {
                let ow = if in_other {
                    let oj = j as i64 + dw as i64;
                    if oj >= 0 && (oj as usize) < other.width_words {
                        let oline = oz as usize * other.dim_y + oy as usize;
                        other.words[oline * other.width_words + oj as usize]
                    } else {
                        0
                    }
                } else {
                    0
                };
                let w = &mut self.words[line * self.width_words + j];
                *w = f(*w, ow);
            }
        }
    }

    /// Whole-word intersection test.
    pub fn intersects(&self, other: &BitGrid3) -> bool {
        let mut hit = false;
        self.zip_words(other, |a, b| hit |= a & b != 0);
        hit
    }

    /// Whole-word subset test.
    pub fn is_subset_of(&self, other: &BitGrid3) -> bool {
        let mut ok = true;
        self.zip_words(other, |a, b| ok &= a & !b == 0);
        ok
    }

    /// `self |= other`, growing the frame when needed. Walks only
    /// `other`'s content box: each of its lines is ORed word by word into
    /// the matching line of `self`, so merging a small grid into a large
    /// accumulator costs in proportion to the small one.
    pub fn union_with(&mut self, other: &BitGrid3) {
        let Some((lo, hi)) = other.bounding_box() else {
            return;
        };
        if self.words.is_empty() {
            *self = BitGrid3::with_bounds(lo, hi);
        } else if !(self.in_frame(lo) && self.in_frame(hi)) {
            let (slo, shi) = self.frame_bounds();
            self.regrow(
                Coord3::new(slo.x.min(lo.x), slo.y.min(lo.y), slo.z.min(lo.z)),
                Coord3::new(shi.x.max(hi.x), shi.y.max(hi.y), shi.z.max(hi.z)),
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
        for z in lo.z..=hi.z {
            for y in lo.y..=hi.y {
                let src = other.line_start(y, z) + src_j;
                let dst = self.line_start(y, z) + dst_j;
                for (d, &s) in self.words[dst..dst + n]
                    .iter_mut()
                    .zip(&other.words[src..src + n])
                {
                    *d |= s;
                }
            }
        }
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &BitGrid3) {
        self.zip_words_mut(other, |a, b| a & !b);
    }

    /// The 26-neighborhood dilation as shifted-word ORs: each line is
    /// spread horizontally and ORed into the 3×3 block of neighboring
    /// lines. The frame grows by one node in every direction.
    pub fn dilate26(&self) -> BitGrid3 {
        let Some((lo, hi)) = self.bounding_box() else {
            return BitGrid3::empty();
        };
        let mut out = BitGrid3::with_bounds(
            Coord3::new(lo.x - 1, lo.y - 1, lo.z - 1),
            Coord3::new(hi.x + 1, hi.y + 1, hi.z + 1),
        );
        let ww = out.width_words;
        // The output frame tightly wraps the *content* and can start right
        // of (or end before) this frame — clamp the word copy window.
        let dw = ((self.origin_x - out.origin_x) / 64) as i64;
        let mut src = vec![0u64; ww];
        let mut spread = vec![0u64; ww];
        for line in 0..self.lines() {
            let words = &self.words[line * self.width_words..(line + 1) * self.width_words];
            if words.iter().all(|&w| w == 0) {
                continue;
            }
            let y = self.origin_y + (line % self.dim_y) as i32;
            let z = self.origin_z + (line / self.dim_y) as i32;
            src.fill(0);
            for (j, &w) in words.iter().enumerate() {
                let oj = j as i64 + dw;
                if (0..ww as i64).contains(&oj) {
                    src[oj as usize] = w;
                }
            }
            spread_row(&src, &mut spread);
            for oz in (z - 1)..=(z + 1) {
                for oy in (y - 1)..=(y + 1) {
                    let ly = (oy - out.origin_y) as usize;
                    let lz = (oz - out.origin_z) as usize;
                    if ly < out.dim_y && lz < out.dim_z {
                        let oline = lz * out.dim_y + ly;
                        let dst = &mut out.words[oline * ww..(oline + 1) * ww];
                        for (d, &s) in dst.iter_mut().zip(&spread) {
                            *d |= s;
                        }
                    }
                }
            }
        }
        out
    }

    /// Decomposes into 26-connected components by word-scan flood:
    /// find-first-set seeds, whole-word frontier expansion over the 3×3
    /// neighboring lines. Components come out in first-seen (x-major
    /// storage) order, each framed by its own bounding box — the same
    /// order the scalar index-scan flood produces.
    pub fn components26(&self) -> Vec<BitGrid3> {
        let ww = self.width_words;
        let total = self.words.len();
        let mut out = Vec::new();
        if total == 0 {
            return out;
        }
        let mut visited = vec![0u64; total];
        let mut comp = vec![0u64; total];
        let mut frontier = vec![0u64; total];
        let mut next = vec![0u64; total];
        let mut spread = vec![0u64; total];
        let line_of = |word: usize| word / ww;
        let yz = |line: usize| (line % self.dim_y, line / self.dim_y);

        for seed_word in 0..total {
            loop {
                let avail = self.words[seed_word] & !visited[seed_word];
                if avail == 0 {
                    break;
                }
                let seed_bit_index = avail.trailing_zeros();
                let seed_bit = 1u64 << seed_bit_index;
                let seed_line = line_of(seed_word);
                let (sy, sz) = yz(seed_line);
                comp[seed_word] = seed_bit;
                frontier[seed_word] = seed_bit;
                // Frontier (y, z) ranges and overall component ranges.
                let (mut ylo, mut yhi, mut zlo, mut zhi) = (sy, sy, sz, sz);
                let (mut cylo, mut cyhi, mut czlo, mut czhi) = (sy, sy, sz, sz);
                loop {
                    for z in zlo..=zhi {
                        for y in ylo..=yhi {
                            let l = (z * self.dim_y + y) * ww;
                            spread_row(&frontier[l..l + ww], &mut spread[l..l + ww]);
                        }
                    }
                    let sylo = ylo.saturating_sub(1);
                    let syhi = (yhi + 1).min(self.dim_y - 1);
                    let szlo = zlo.saturating_sub(1);
                    let szhi = (zhi + 1).min(self.dim_z - 1);
                    let mut any = false;
                    let (mut nylo, mut nyhi, mut nzlo, mut nzhi) =
                        (usize::MAX, 0usize, usize::MAX, 0usize);
                    for z in szlo..=szhi {
                        for y in sylo..=syhi {
                            let l = z * self.dim_y + y;
                            for j in 0..ww {
                                let mut nb = 0u64;
                                for dz in -1i32..=1 {
                                    let fz = z as i32 + dz;
                                    if fz < zlo as i32 || fz > zhi as i32 {
                                        continue;
                                    }
                                    for dy in -1i32..=1 {
                                        let fy = y as i32 + dy;
                                        if fy < ylo as i32 || fy > yhi as i32 {
                                            continue;
                                        }
                                        nb |= spread
                                            [(fz as usize * self.dim_y + fy as usize) * ww + j];
                                    }
                                }
                                let grow = nb & self.words[l * ww + j] & !comp[l * ww + j];
                                next[l * ww + j] = grow;
                                if grow != 0 {
                                    comp[l * ww + j] |= grow;
                                    any = true;
                                    nylo = nylo.min(y);
                                    nyhi = nyhi.max(y);
                                    nzlo = nzlo.min(z);
                                    nzhi = nzhi.max(z);
                                }
                            }
                        }
                    }
                    if !any {
                        break;
                    }
                    std::mem::swap(&mut frontier, &mut next);
                    for z in zlo..=zhi {
                        for y in ylo..=yhi {
                            let l = (z * self.dim_y + y) * ww;
                            next[l..l + ww].fill(0);
                        }
                    }
                    (ylo, yhi, zlo, zhi) = (nylo, nyhi, nzlo, nzhi);
                    cylo = cylo.min(ylo);
                    cyhi = cyhi.max(yhi);
                    czlo = czlo.min(zlo);
                    czhi = czhi.max(zhi);
                }

                out.push(self.extract_lines(&comp, cylo, cyhi, czlo, czhi));

                let sylo = cylo.saturating_sub(1);
                let syhi = (cyhi + 1).min(self.dim_y - 1);
                let szlo = czlo.saturating_sub(1);
                let szhi = (czhi + 1).min(self.dim_z - 1);
                for z in szlo..=szhi {
                    for y in sylo..=syhi {
                        let l = (z * self.dim_y + y) * ww;
                        for j in 0..ww {
                            visited[l + j] |= comp[l + j];
                            comp[l + j] = 0;
                            frontier[l + j] = 0;
                            spread[l + j] = 0;
                            next[l + j] = 0;
                        }
                    }
                }
            }
        }
        out
    }

    /// Copies the set bits of `bits` within the given `(y, z)` line ranges
    /// into a new tightly-framed grid.
    fn extract_lines(
        &self,
        bits: &[u64],
        ylo: usize,
        yhi: usize,
        zlo: usize,
        zhi: usize,
    ) -> BitGrid3 {
        let ww = self.width_words;
        let mut col_or = vec![0u64; ww];
        let (mut min_y, mut max_y) = (usize::MAX, 0usize);
        let (mut min_z, mut max_z) = (usize::MAX, 0usize);
        for z in zlo..=zhi {
            for y in ylo..=yhi {
                let l = (z * self.dim_y + y) * ww;
                let mut any = false;
                for j in 0..ww {
                    col_or[j] |= bits[l + j];
                    any |= bits[l + j] != 0;
                }
                if any {
                    min_y = min_y.min(y);
                    max_y = max_y.max(y);
                    min_z = min_z.min(z);
                    max_z = max_z.max(z);
                }
            }
        }
        assert!(min_y != usize::MAX, "extract_lines on an empty component");
        let first = col_or.iter().position(|&w| w != 0).expect("non-empty");
        let last = col_or.iter().rposition(|&w| w != 0).expect("non-empty");
        let min_x = self.origin_x + (first * 64) as i32 + col_or[first].trailing_zeros() as i32;
        let max_x = self.origin_x + (last * 64) as i32 + 63 - col_or[last].leading_zeros() as i32;
        let mut out = BitGrid3::with_bounds(
            Coord3::new(
                min_x,
                self.origin_y + min_y as i32,
                self.origin_z + min_z as i32,
            ),
            Coord3::new(
                max_x,
                self.origin_y + max_y as i32,
                self.origin_z + max_z as i32,
            ),
        );
        let dw = ((out.origin_x - self.origin_x) / 64) as usize;
        for z in min_z..=max_z {
            for y in min_y..=max_y {
                let src_l = (z * self.dim_y + y) * ww;
                let dst_l = ((z - min_z) * out.dim_y + (y - min_y)) * out.width_words;
                out.words[dst_l..dst_l + out.width_words]
                    .copy_from_slice(&bits[src_l + dw..src_l + dw + out.width_words]);
            }
        }
        out
    }

    /// One snapshot round of per-axis gap filling: the x-span fills (span
    /// masks from trailing/leading-zero counts) plus the y and z fills
    /// (word-parallel prefix/suffix sweeps), all with respect to the
    /// current state, then applied together. Returns the bits added.
    fn fill_gaps_round(&mut self, fill: &mut [u64], aux: &mut [u64]) -> u64 {
        let ww = self.width_words;
        fill.fill(0);

        // X spans per line.
        let mut span = vec![0u64; ww];
        for line in 0..self.lines() {
            let row = &self.words[line * ww..(line + 1) * ww];
            if row_span_mask(row, &mut span) {
                for j in 0..ww {
                    fill[line * ww + j] |= span[j] & !row[j];
                }
            }
        }

        // Y fills: prefix over y into aux, then a downward suffix sweep.
        for z in 0..self.dim_z {
            for j in 0..ww {
                let mut acc = 0u64;
                for y in 0..self.dim_y {
                    let i = (z * self.dim_y + y) * ww + j;
                    acc |= self.words[i];
                    aux[i] = acc;
                }
                let mut suffix = 0u64;
                for y in (0..self.dim_y).rev() {
                    let i = (z * self.dim_y + y) * ww + j;
                    let row = self.words[i];
                    suffix |= row;
                    fill[i] |= aux[i] & suffix & !row;
                }
            }
        }

        // Z fills: prefix over z, then the suffix sweep.
        for y in 0..self.dim_y {
            for j in 0..ww {
                let mut acc = 0u64;
                for z in 0..self.dim_z {
                    let i = (z * self.dim_y + y) * ww + j;
                    acc |= self.words[i];
                    aux[i] = acc;
                }
                let mut suffix = 0u64;
                for z in (0..self.dim_z).rev() {
                    let i = (z * self.dim_y + y) * ww + j;
                    let row = self.words[i];
                    suffix |= row;
                    fill[i] |= aux[i] & suffix & !row;
                }
            }
        }

        let mut added = 0u64;
        for (w, &f) in self.words.iter_mut().zip(fill.iter()) {
            added += (f & !*w).count_ones() as u64;
            *w |= f;
        }
        added
    }

    /// Fills to the minimum orthogonal convex superset in place (the 3-D
    /// hull fixpoint). Returns the number of nodes added. The fill never
    /// leaves the bounding box, so the frame never grows.
    pub fn hull_fixpoint(&mut self) -> u64 {
        let total = self.words.len();
        let mut fill = vec![0u64; total];
        let mut aux = vec![0u64; total];
        let mut added = 0;
        let mut rounds = 0u64;
        loop {
            let grown = self.fill_gaps_round(&mut fill, &mut aux);
            if grown == 0 {
                break;
            }
            added += grown;
            rounds += 1;
        }
        // Each round rescans every dirty line of all three axes; the
        // quiescent final pass is not counted (matching RoundStats).
        mocp_obs::counter!("hull3d.hulls").inc();
        mocp_obs::counter!("hull3d.fixpoint_rounds").add(rounds);
        mocp_obs::counter!("hull3d.line_rescans").add(rounds * self.lines() as u64 * 3);
        mocp_obs::counter!("hull3d.nodes_added").add(added);
        mocp_obs::histogram!("hull3d.rounds_per_hull").record(rounds);
        added
    }

    /// The 3-D orthogonal-convexity test, word-parallel: contiguous runs
    /// along every x line (span mask equality) and along every y and z
    /// line (no bit reappears after its run ended).
    pub fn is_orthogonally_convex(&self) -> bool {
        let ww = self.width_words;
        let mut span = vec![0u64; ww];
        for line in 0..self.lines() {
            let row = &self.words[line * ww..(line + 1) * ww];
            if row_span_mask(row, &mut span) && span.iter().zip(row).any(|(&s, &r)| s != r) {
                return false;
            }
        }
        // Runs along y (per z) and along z (per y).
        for z in 0..self.dim_z {
            for j in 0..ww {
                let (mut started, mut ended) = (0u64, 0u64);
                for y in 0..self.dim_y {
                    let w = self.words[(z * self.dim_y + y) * ww + j];
                    if w & ended != 0 {
                        return false;
                    }
                    ended |= started & !w;
                    started |= w;
                }
            }
        }
        for y in 0..self.dim_y {
            for j in 0..ww {
                let (mut started, mut ended) = (0u64, 0u64);
                for z in 0..self.dim_z {
                    let w = self.words[(z * self.dim_y + y) * ww + j];
                    if w & ended != 0 {
                        return false;
                    }
                    ended |= started & !w;
                    started |= w;
                }
            }
        }
        true
    }
}

/// True when two boxes touch or overlap under 26-adjacency: their ±1
/// halos intersect on every axis. The exact test for solid boxes and the
/// proximity prefilter for anything else.
pub(crate) fn boxes_touch(a: (Coord3, Coord3), b: (Coord3, Coord3)) -> bool {
    let ((alo, ahi), (blo, bhi)) = (a, b);
    alo.x <= bhi.x + 1
        && blo.x <= ahi.x + 1
        && alo.y <= bhi.y + 1
        && blo.y <= ahi.y + 1
        && alo.z <= bhi.z + 1
        && blo.z <= ahi.z + 1
}

/// A union-find over `0..n` with path halving: the fault labelling and
/// regrouping steps of the 3-D merge process.
pub(crate) struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton classes.
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    /// The representative of `i`'s class.
    pub(crate) fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    /// Joins the classes of `a` and `b`.
    pub(crate) fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// One connected piece of a node set: its grid, the grid's tight bounding
/// box and its lexicographically minimal `(z, y, x)` cell.
#[derive(Debug)]
pub(crate) struct Piece {
    pub(crate) grid: BitGrid3,
    pub(crate) bbox: (Coord3, Coord3),
    pub(crate) min_cell: Coord3,
}

impl Piece {
    /// Wraps a non-empty grid.
    pub(crate) fn new(grid: BitGrid3) -> Self {
        let bbox = grid.bounding_box().expect("pieces are non-empty");
        let min_cell = grid.min_cell().expect("pieces are non-empty");
        Piece {
            grid,
            bbox,
            min_cell,
        }
    }
}

/// Storage-order sort key of a cell: `z`, then `y`, then `x`.
pub(crate) fn zyx(c: Coord3) -> (i32, i32, i32) {
    (c.z, c.y, c.x)
}

/// Merges the pieces of each union-find class into one — a grid framed
/// once over the class's joint bounding box, each member ORed in over its
/// own frame — and orders the results by minimal `(z, y, x)` cell, which
/// is the first-seen order of the sequential flood. Returns each merged
/// piece with the number of pieces its class held.
pub(crate) fn merge_classes(pieces: Vec<Piece>, classes: &mut UnionFind) -> Vec<(Piece, usize)> {
    let mut members: Vec<Vec<Piece>> = (0..pieces.len()).map(|_| Vec::new()).collect();
    for (i, piece) in pieces.into_iter().enumerate() {
        members[classes.find(i)].push(piece);
    }
    let mut merged: Vec<(Piece, usize)> = members
        .into_iter()
        .filter(|class| !class.is_empty())
        .map(|mut class| {
            let size = class.len();
            if size == 1 {
                return (class.pop().expect("one member"), 1);
            }
            let (mut lo, mut hi) = class[0].bbox;
            let mut min_cell = class[0].min_cell;
            for p in &class[1..] {
                let (plo, phi) = p.bbox;
                lo = Coord3::new(lo.x.min(plo.x), lo.y.min(plo.y), lo.z.min(plo.z));
                hi = Coord3::new(hi.x.max(phi.x), hi.y.max(phi.y), hi.z.max(phi.z));
                if zyx(p.min_cell) < zyx(min_cell) {
                    min_cell = p.min_cell;
                }
            }
            let mut grid = BitGrid3::with_bounds(lo, hi);
            for p in &class {
                grid.union_with(&p.grid);
            }
            let piece = Piece {
                grid,
                bbox: (lo, hi),
                min_cell,
            };
            (piece, size)
        })
        .collect();
    merged.sort_by_key(|(piece, _)| zyx(piece.min_cell));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(list: &[(i32, i32, i32)]) -> BitGrid3 {
        BitGrid3::from_coords(list.iter().map(|&(x, y, z)| Coord3::new(x, y, z)))
    }

    #[test]
    fn set_contains_iter_round_trip() {
        let g = grid(&[(0, 0, 0), (63, 1, 2), (64, 1, 2), (-3, -3, -3)]);
        assert_eq!(g.len(), 4);
        assert!(g.contains(Coord3::new(64, 1, 2)));
        assert!(!g.contains(Coord3::new(1, 0, 0)));
        assert!(!g.contains(Coord3::new(500, 0, 0)));
        let collected: Vec<Coord3> = g.iter().collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[0], Coord3::new(-3, -3, -3));
    }

    #[test]
    fn insert_grows_and_bounding_box_is_tight() {
        let mut g = BitGrid3::empty();
        assert!(g.insert(Coord3::new(5, 5, 5)));
        assert!(g.insert(Coord3::new(-2, 7, 5)));
        assert!(!g.insert(Coord3::new(5, 5, 5)));
        let (lo, hi) = g.bounding_box().unwrap();
        assert_eq!(lo, Coord3::new(-2, 5, 5));
        assert_eq!(hi, Coord3::new(5, 7, 5));
        assert!(g.remove(Coord3::new(5, 5, 5)));
        assert_eq!(g.len(), 1);
        assert_eq!(BitGrid3::empty().bounding_box(), None);
    }

    #[test]
    fn set_algebra_whole_word() {
        let a = grid(&[(0, 0, 0), (70, 1, 1)]);
        let b = grid(&[(70, 1, 1), (100, 2, 2)]);
        assert!(a.intersects(&b));
        assert!(!a.is_subset_of(&b));
        assert!(grid(&[(70, 1, 1)]).is_subset_of(&a));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 3);
        let mut d = u.clone();
        d.subtract(&a);
        assert_eq!(d.len(), 1);
        assert!(d.contains(Coord3::new(100, 2, 2)));
    }

    /// `union_with` against the per-cell set union, for a pair of grids
    /// and both argument orders.
    fn assert_union_is_set_union(a: &BitGrid3, b: &BitGrid3) {
        for (x, y) in [(a, b), (b, a)] {
            let mut u = x.clone();
            u.union_with(y);
            let expected: std::collections::BTreeSet<(i32, i32, i32)> =
                x.iter().chain(y.iter()).map(|c| (c.x, c.y, c.z)).collect();
            let got: std::collections::BTreeSet<(i32, i32, i32)> =
                u.iter().map(|c| (c.x, c.y, c.z)).collect();
            assert_eq!(got, expected);
            assert_eq!(u.len(), expected.len());
        }
    }

    #[test]
    fn union_across_different_y_z_frames() {
        // Disjoint, nested and partly overlapping (y, z) frames.
        let a = grid(&[(1, 0, 0), (2, 3, 1), (5, 4, 2)]);
        for b in [
            grid(&[(1, 9, 9), (3, 12, 10)]),
            grid(&[(2, 3, 1)]),
            grid(&[(4, 2, 2), (0, 7, 5), (5, 4, 2)]),
        ] {
            assert_union_is_set_union(&a, &b);
        }
        // A frame wider than its content: `other`'s empty border lies
        // outside `self`'s frame and must not grow it.
        let mut wide = BitGrid3::with_bounds(Coord3::new(0, -5, -5), Coord3::new(10, 20, 20));
        wide.set(Coord3::new(2, 3, 1));
        let mut u = a.clone();
        u.union_with(&wide);
        assert_eq!(u.len(), 3);
        assert_eq!(u.frame_bounds(), a.frame_bounds());
    }

    #[test]
    fn union_with_negative_origins() {
        let a = grid(&[(-1, -1, -1), (-70, -3, -2)]);
        let b = grid(&[(-65, -2, -9), (0, 0, 0), (-128, 4, 1)]);
        assert_union_is_set_union(&a, &b);
        let mut u = BitGrid3::empty();
        u.union_with(&b);
        assert_eq!(u.len(), 3);
        assert!(u.contains(Coord3::new(-128, 4, 1)));
    }

    #[test]
    fn union_with_x_origins_whole_words_apart() {
        // Frames starting at x = 0, 64, 128 and -64: the content's word
        // columns map across different word offsets.
        let a = grid(&[(0, 0, 0), (63, 1, 0)]);
        let b = grid(&[(64, 0, 0), (127, 1, 1)]);
        let c = grid(&[(130, 2, 0), (200, 0, 1)]);
        let d = grid(&[(-64, 0, 0), (-1, 1, 1)]);
        for (x, y) in [(&a, &b), (&a, &c), (&b, &c), (&a, &d), (&d, &c)] {
            assert_union_is_set_union(x, y);
        }
        // A wide accumulator absorbing a narrow grid deep inside it.
        let mut acc = BitGrid3::with_bounds(Coord3::new(-128, 0, 0), Coord3::new(255, 3, 3));
        acc.union_with(&c);
        assert_eq!(acc.len(), 2);
        assert!(acc.contains(Coord3::new(200, 0, 1)));
        assert_eq!(acc.frame_bounds().0, Coord3::new(-128, 0, 0));
    }

    #[test]
    fn solid_box_matches_the_per_cell_cuboid() {
        for (x0, width) in [
            (0, 63),
            (0, 64),
            (0, 65),
            (1, 63),
            (60, 65),
            (-3, 64),
            (-70, 65),
        ] {
            let (lo, hi) = (Coord3::new(x0, -2, -4), Coord3::new(x0 + width - 1, 1, -3));
            let mut cells = Vec::new();
            for z in lo.z..=hi.z {
                for y in lo.y..=hi.y {
                    for x in lo.x..=hi.x {
                        cells.push(Coord3::new(x, y, z));
                    }
                }
            }
            let solid = BitGrid3::solid_box(lo, hi);
            let per_cell = BitGrid3::from_coords(cells);
            assert_eq!(solid.len(), per_cell.len(), "x0 {x0} width {width}");
            assert!(solid.is_subset_of(&per_cell), "x0 {x0} width {width}");
            assert_eq!(solid.bounding_box(), Some((lo, hi)));
        }
    }

    /// `fill_box` against the per-cell box, ORed into a grid that already
    /// holds cells inside and outside the box.
    fn assert_fill_box_matches_cells(frame: (Coord3, Coord3), lo: Coord3, hi: Coord3) {
        let outside = frame.0;
        let mut g = BitGrid3::with_bounds(frame.0, frame.1);
        g.set(outside);
        g.set(hi);
        g.fill_box(lo, hi);
        let mut expected = std::collections::BTreeSet::from([(outside.x, outside.y, outside.z)]);
        for z in lo.z..=hi.z {
            for y in lo.y..=hi.y {
                for x in lo.x..=hi.x {
                    expected.insert((x, y, z));
                }
            }
        }
        let got: std::collections::BTreeSet<(i32, i32, i32)> =
            g.iter().map(|c| (c.x, c.y, c.z)).collect();
        assert_eq!(got, expected, "box {lo:?}..={hi:?}");
    }

    #[test]
    fn fill_box_sets_exactly_the_box() {
        // A 70 x 5 x 4 "mesh" frame starting at the origin.
        let frame = (Coord3::new(0, 0, 0), Coord3::new(69, 4, 3));
        let (lo, hi) = frame;
        // A box on the mesh border (the far x/y/z faces).
        assert_fill_box_matches_cells(frame, Coord3::new(66, 3, 2), hi);
        // The whole mesh.
        assert_fill_box_matches_cells(frame, lo, hi);
        // x-extents crossing the 63/64 word boundary, and ending on it.
        assert_fill_box_matches_cells(frame, Coord3::new(63, 1, 1), Coord3::new(64, 2, 2));
        assert_fill_box_matches_cells(frame, Coord3::new(60, 0, 0), Coord3::new(63, 4, 0));
        assert_fill_box_matches_cells(frame, Coord3::new(64, 0, 3), Coord3::new(64, 0, 3));
        // A frame whose x-origin is a negative word.
        let negative = (Coord3::new(-70, -2, -1), Coord3::new(5, 1, 1));
        assert_fill_box_matches_cells(negative, Coord3::new(-65, -1, 0), Coord3::new(-63, 1, 1));
    }

    #[test]
    fn min_cell_is_the_first_cell_in_storage_order() {
        let g = grid(&[(5, 2, 3), (1, 7, 3), (90, 1, 3), (0, 0, 4)]);
        assert_eq!(g.min_cell(), Some(Coord3::new(90, 1, 3)));
        assert_eq!(g.min_cell(), g.iter().next());
        assert_eq!(BitGrid3::empty().min_cell(), None);
    }

    #[test]
    fn dilate26_matches_scalar_neighborhood() {
        let g = grid(&[(1, 1, 1), (63, 0, 0)]);
        let dilated = g.dilate26();
        let mut expected = std::collections::BTreeSet::new();
        for c in g.iter() {
            for dz in -1..=1 {
                for dy in -1..=1 {
                    for dx in -1..=1 {
                        expected.insert((c.x + dx, c.y + dy, c.z + dz));
                    }
                }
            }
        }
        let got: std::collections::BTreeSet<(i32, i32, i32)> =
            dilated.iter().map(|c| (c.x, c.y, c.z)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn dilate26_handles_frames_wider_than_their_content() {
        // Frame spans two words; content sits in the second word, so the
        // output frame starts right of the source frame.
        let mut g = BitGrid3::with_bounds(Coord3::new(0, 0, 0), Coord3::new(127, 2, 2));
        g.set(Coord3::new(100, 1, 1));
        let dilated = g.dilate26();
        assert_eq!(dilated.len(), 27);
        assert!(dilated.contains(Coord3::new(99, 0, 0)));
        assert!(dilated.contains(Coord3::new(101, 2, 2)));
    }

    #[test]
    fn components_and_hull_basics() {
        // A diagonal chain is one 26-component; a detached node is another.
        let g = grid(&[(0, 0, 0), (1, 1, 1), (2, 2, 2), (9, 0, 0)]);
        let comps = g.components26();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps.iter().map(BitGrid3::len).sum::<usize>(), 4);

        // U-shape in the z=0 plane: the hull fills the notch.
        let mut u = grid(&[(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (2, 1, 0)]);
        assert!(!u.is_orthogonally_convex());
        let added = u.hull_fixpoint();
        assert_eq!(added, 1);
        assert!(u.contains(Coord3::new(1, 1, 0)));
        assert!(u.is_orthogonally_convex());
    }
}
