//! The dimension-generic sampling core shared by the 2-D and 3-D injectors.
//!
//! Both of the paper's fault distribution models reduce to the same weighted
//! sampling problem once node addresses are flattened to indices: every
//! healthy node carries a relative failure weight (1 at the base rate, 2 once
//! it is adjacent to a fault under the clustered model, 0 once it has failed),
//! a draw picks a node proportionally to its weight, and marking the victim
//! faulty boosts its still-base-rate neighbors. What *adjacent* means — the
//! 8-neighborhood of a 2-D mesh or the 26-neighborhood of a 3-D mesh — is the
//! caller's business: [`WeightTable::mark_faulty`] takes the neighbor indices
//! as an iterator, so the exact same boost/undo bookkeeping serves every
//! dimension.
//!
//! Every mutation returns a [`DrawRecord`] that [`WeightTable::undo`] replays
//! in reverse, which is what makes injector rewind (`undo_last`) and
//! snapshot/restore exact instead of approximate.

/// Everything one [`WeightTable::mark_faulty`] call changed, so
/// [`WeightTable::undo`] can restore the table exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DrawRecord {
    /// Flattened index of the node that failed.
    victim: usize,
    /// The weight the victim carried before it was zeroed.
    prior_weight: u32,
    /// Neighbors whose weight this injection raised from 1 to 2
    /// (clustered model only).
    boosted: Vec<usize>,
}

impl DrawRecord {
    /// Flattened index of the node this record marked faulty.
    pub fn victim(&self) -> usize {
        self.victim
    }
}

/// Per-node failure weights with exact boost/undo bookkeeping.
///
/// The paper keeps exactly two failure rates in the system: the base rate
/// (weight 1) and the doubled rate of nodes adjacent to a fault (weight 2).
/// Faulty nodes drop to weight 0 so they are never drawn twice.
///
/// Draws are served by a Fenwick (binary indexed) tree over the weights:
/// [`locate`](Self::locate) descends the tree in O(log n) instead of the
/// O(n) linear scan — at a 512×512 streaming scale the scan is 262 144
/// iterations per draw. The tree is updated incrementally by
/// [`mark_faulty`](Self::mark_faulty) / [`undo`](Self::undo); the unit
/// tests pin the descent to the linear interval walk it replaced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightTable {
    weight: Vec<u32>,
    total: u64,
    /// Fenwick tree over `weight` (1-based; `fenwick[i]` covers the
    /// `i & i.wrapping_neg()` weights ending at index `i - 1`).
    fenwick: Vec<u64>,
}

impl WeightTable {
    /// A table of `nodes` nodes, all at the base rate.
    pub fn uniform(nodes: usize) -> Self {
        let mut fenwick = vec![0u64; nodes + 1];
        for (i, slot) in fenwick.iter_mut().enumerate().skip(1) {
            // Each tree slot covers `i & -i` unit weights.
            *slot = (i & i.wrapping_neg()) as u64;
        }
        WeightTable {
            weight: vec![1; nodes],
            total: nodes as u64,
            fenwick,
        }
    }

    /// Adds `delta` to node `index`'s weight in the Fenwick tree.
    #[inline]
    fn fenwick_add(&mut self, index: usize, delta: i64) {
        let mut i = index + 1;
        while i < self.fenwick.len() {
            self.fenwick[i] = (self.fenwick[i] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Number of nodes (healthy or not) the table covers.
    pub fn len(&self) -> usize {
        self.weight.len()
    }

    /// True when the table covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.weight.is_empty()
    }

    /// Sum of all weights — the sampling denominator. Zero once every node
    /// has failed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The current weight of node `index`.
    pub fn weight_of(&self, index: usize) -> u32 {
        self.weight[index]
    }

    /// Maps a draw `target` in `0..total()` to the node index whose weight
    /// interval contains it, by Fenwick-tree descent in O(log n). Returns
    /// `None` when `target` is at or beyond the weight total.
    ///
    /// Equivalent to a linear walk over the weight intervals on every
    /// target (the equivalence the unit tests pin).
    pub fn locate(&self, target: u64) -> Option<usize> {
        if target >= self.total {
            return None;
        }
        // Descend: find the largest index whose prefix sum is <= target;
        // the answer is the node right after that prefix.
        let n = self.weight.len();
        let mut pos = 0usize;
        let mut remaining = target;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= n && self.fenwick[next] <= remaining {
                remaining -= self.fenwick[next];
                pos = next;
            }
            step >>= 1;
        }
        Some(pos)
    }

    /// Marks `victim` faulty (weight 0) and doubles the rate of every
    /// neighbor in `boost` that is still at the base rate. Passing an empty
    /// iterator gives the random model; passing the victim's mesh
    /// neighborhood gives the clustered model. The paper keeps exactly two
    /// rates, so a node adjacent to several faults is not doubled repeatedly
    /// — and duplicate indices in `boost` are harmless for the same reason.
    pub fn mark_faulty(
        &mut self,
        victim: usize,
        boost: impl IntoIterator<Item = usize>,
    ) -> DrawRecord {
        let prior_weight = self.weight[victim];
        debug_assert!(prior_weight > 0, "node {victim} is already faulty");
        self.total -= prior_weight as u64;
        self.weight[victim] = 0;
        self.fenwick_add(victim, -(prior_weight as i64));

        let mut boosted = Vec::new();
        for n in boost {
            if self.weight[n] == 1 {
                self.weight[n] = 2;
                self.total += 1;
                self.fenwick_add(n, 1);
                boosted.push(n);
            }
        }
        DrawRecord {
            victim,
            prior_weight,
            boosted,
        }
    }

    /// Reverses one [`mark_faulty`](Self::mark_faulty): un-boosts the
    /// neighbors and restores the victim's prior weight. Records must be
    /// undone in reverse order of creation for the bookkeeping to stay exact.
    pub fn undo(&mut self, record: DrawRecord) {
        for n in record.boosted {
            debug_assert_eq!(self.weight[n], 2);
            self.weight[n] = 1;
            self.total -= 1;
            self.fenwick_add(n, -1);
        }
        self.weight[record.victim] = record.prior_weight;
        self.total += record.prior_weight as u64;
        self.fenwick_add(record.victim, record.prior_weight as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_table_sums_to_node_count() {
        let t = WeightTable::uniform(12);
        assert_eq!(t.len(), 12);
        assert!(!t.is_empty());
        assert_eq!(t.total(), 12);
        assert_eq!(t.weight_of(5), 1);
    }

    /// Deterministic xorshift for the equivalence sweeps below.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// The O(n) interval walk the Fenwick descent replaced: the node whose
    /// weight interval contains `target`.
    fn linear_walk(table: &WeightTable, mut target: u64) -> Option<usize> {
        for i in 0..table.len() {
            let w = table.weight_of(i) as u64;
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        None
    }

    /// The Fenwick descent must agree with the linear interval walk on
    /// every target of every reachable table state — exercised over
    /// random draw sequences with interleaved boosts and undos, including
    /// sizes straddling the power-of-two descent boundary.
    #[test]
    fn fenwick_locate_matches_linear_scan_on_random_sequences() {
        for nodes in [1usize, 2, 63, 64, 65, 100, 257] {
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ nodes as u64;
            let mut table = WeightTable::uniform(nodes);
            let mut log = Vec::new();
            for step in 0..200 {
                // Exhaustively compare small tables, sample large ones.
                if table.total() > 0 {
                    for _ in 0..8 {
                        let target = xorshift(&mut state) % table.total();
                        assert_eq!(
                            table.locate(target),
                            linear_walk(&table, target),
                            "nodes {nodes} step {step} target {target}"
                        );
                    }
                    assert_eq!(table.locate(table.total()), None);
                    assert_eq!(linear_walk(&table, table.total()), None);
                }
                // Mutate: mostly draws, sometimes undos.
                if table.total() == 0 || (step % 7 == 6 && !log.is_empty()) {
                    if let Some(record) = log.pop() {
                        table.undo(record);
                    }
                } else {
                    let target = xorshift(&mut state) % table.total();
                    let victim = table.locate(target).expect("target < total");
                    // Boost a pseudo-random neighborhood.
                    let boost: Vec<usize> = (0..3)
                        .map(|_| xorshift(&mut state) as usize % nodes)
                        .filter(|&n| n != victim)
                        .collect();
                    log.push(table.mark_faulty(victim, boost));
                }
            }
            // Full rewind restores the uniform table (Fenwick included).
            while let Some(record) = log.pop() {
                table.undo(record);
            }
            assert_eq!(table, WeightTable::uniform(nodes));
        }
    }

    /// After any sequence of draws and undos, the weight-2 nodes are
    /// exactly the union of the boost lists of the draws still applied,
    /// minus the nodes those draws marked faulty; every other healthy node
    /// is at the base rate, and the total is the sum of the weights. With
    /// the injector passing each victim's cluster neighborhood as its
    /// boost list, this makes the clustered weight-2 set the dilation of
    /// the faults minus the faults.
    #[test]
    fn boosted_set_is_the_live_boost_lists_minus_the_faults() {
        for nodes in [1usize, 2, 9, 64, 65, 130] {
            let mut state = 0xD1B5_4A32_D192_ED03u64 ^ nodes as u64;
            let mut table = WeightTable::uniform(nodes);
            let mut applied: Vec<(DrawRecord, Vec<usize>)> = Vec::new();
            for step in 0..300 {
                if table.total() == 0
                    || (xorshift(&mut state).is_multiple_of(3) && !applied.is_empty())
                {
                    if let Some((record, _)) = applied.pop() {
                        table.undo(record);
                    }
                } else {
                    let victim = table
                        .locate(xorshift(&mut state) % table.total())
                        .expect("target < total");
                    let boost: Vec<usize> = (0..xorshift(&mut state) % 6)
                        .map(|_| xorshift(&mut state) as usize % nodes)
                        .collect();
                    applied.push((table.mark_faulty(victim, boost.clone()), boost));
                }
                let faulty: Vec<usize> = applied.iter().map(|(r, _)| r.victim()).collect();
                let mut total = 0u64;
                for i in 0..nodes {
                    let expected = if faulty.contains(&i) {
                        0
                    } else if applied.iter().any(|(_, boost)| boost.contains(&i)) {
                        2
                    } else {
                        1
                    };
                    assert_eq!(
                        table.weight_of(i),
                        expected,
                        "nodes {nodes} step {step} node {i}"
                    );
                    total += expected as u64;
                }
                assert_eq!(table.total(), total, "nodes {nodes} step {step}");
            }
        }
    }

    #[test]
    fn locate_walks_the_weight_intervals() {
        let mut t = WeightTable::uniform(4);
        // weights [0, 2, 1, 1] after marking node 0 with node 1 boosted
        t.mark_faulty(0, [1]);
        assert_eq!(t.total(), 4);
        assert_eq!(t.locate(0), Some(1));
        assert_eq!(t.locate(1), Some(1));
        assert_eq!(t.locate(2), Some(2));
        assert_eq!(t.locate(3), Some(3));
        assert_eq!(t.locate(4), None);
    }

    #[test]
    fn boost_applies_once_and_skips_non_base_nodes() {
        let mut t = WeightTable::uniform(5);
        let r1 = t.mark_faulty(0, [1, 1, 2]);
        assert_eq!(t.weight_of(1), 2, "duplicate boost indices apply once");
        let r2 = t.mark_faulty(3, [1, 2, 4]);
        assert_eq!(t.weight_of(1), 2, "already-boosted node is not redoubled");
        assert_eq!(t.weight_of(2), 2);
        assert_eq!(r1.victim(), 0);
        assert_eq!(r2.victim(), 3);
    }

    /// The snapshot/restore contract of the shared core: replaying the draw
    /// records in reverse restores the table to any earlier state exactly.
    #[test]
    fn snapshot_restore_round_trips_through_draw_records() {
        let mut t = WeightTable::uniform(9);
        // Neighborhood of i on a 3x3 grid, flattened — stands in for what a
        // real 2-D or 3-D injector would pass.
        let neighbors = |i: usize| -> Vec<usize> {
            let (x, y) = (i % 3, i / 3);
            let mut out = Vec::new();
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    let (nx, ny) = (x as i32 + dx, y as i32 + dy);
                    if (dx, dy) != (0, 0) && (0..3).contains(&nx) && (0..3).contains(&ny) {
                        out.push((ny * 3 + nx) as usize);
                    }
                }
            }
            out
        };

        let mut log = Vec::new();
        log.push(t.mark_faulty(4, neighbors(4)));
        log.push(t.mark_faulty(0, neighbors(0)));
        let snapshot = t.clone();
        log.push(t.mark_faulty(8, neighbors(8)));
        log.push(t.mark_faulty(1, neighbors(1)));
        assert_ne!(t, snapshot);

        t.undo(log.pop().unwrap());
        t.undo(log.pop().unwrap());
        assert_eq!(t, snapshot, "undoing in reverse restores the snapshot");

        t.undo(log.pop().unwrap());
        t.undo(log.pop().unwrap());
        assert_eq!(
            t,
            WeightTable::uniform(9),
            "full rewind restores the base rates"
        );
    }
}
