//! The labelling vocabulary of the paper's fault models.
//!
//! The paper works with three orthogonal node attributes:
//!
//! * [`Health`] — whether the node is physically faulty (faults "just cease
//!   to work"),
//! * [`Safety`] — the label produced by **labelling scheme 1** (safe /
//!   unsafe); connected unsafe nodes form rectangular faulty blocks,
//! * [`Activation`] — the label produced by **labelling scheme 2** (enabled /
//!   disabled); disabled nodes are the ones inside a faulty polygon and are
//!   excluded from routing.
//!
//! A faulty node is always unsafe and disabled. A non-faulty node is in one
//! of three states: safe+enabled, unsafe+enabled, or unsafe+disabled
//! (Section 2.3). The combined [`NodeStatus`] plus the [`StatusMap`] helper
//! capture that final, per-node outcome, together with the *superseding rule*
//! used when piling per-component diagrams (faulty ⟶ gray ⟶ white).

use crate::{BitGrid, Coord, Grid, Mesh2D, Region};
use std::fmt;

/// Physical node health.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Health {
    /// The node operates normally.
    Healthy,
    /// The node has failed (fail-stop).
    Faulty,
}

/// The label assigned by labelling scheme 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Safety {
    /// The node does not cause routing difficulties.
    Safe,
    /// The node is faulty or would trap messages (belongs to a faulty block).
    Unsafe,
}

/// The label assigned by labelling scheme 2.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Activation {
    /// The node participates in routing.
    Enabled,
    /// The node is excluded from routing (inside a faulty polygon).
    Disabled,
}

/// The final status of a node after a fault-model construction, using the
/// paper's figure color-coding: black (faulty), gray (non-faulty but
/// disabled) and white (non-faulty, enabled, possibly after having been part
/// of a faulty block).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum NodeStatus {
    /// A faulty node ("black").
    Faulty,
    /// A non-faulty node that the fault model disables ("gray").
    Disabled,
    /// A non-faulty node that keeps routing ("white" / not shown).
    #[default]
    Enabled,
}

impl NodeStatus {
    /// Rank used by the superseding rule: black nodes overwrite gray and
    /// white nodes, and gray nodes overwrite white nodes.
    #[inline]
    pub fn precedence(self) -> u8 {
        match self {
            NodeStatus::Faulty => 2,
            NodeStatus::Disabled => 1,
            NodeStatus::Enabled => 0,
        }
    }

    /// Applies the superseding rule to two candidate statuses for the same
    /// node, returning the one that survives.
    #[inline]
    pub fn supersede(self, other: NodeStatus) -> NodeStatus {
        if self.precedence() >= other.precedence() {
            self
        } else {
            other
        }
    }

    /// True for black or gray nodes — i.e. nodes removed from the routing
    /// fabric.
    #[inline]
    pub fn is_excluded(self) -> bool {
        !matches!(self, NodeStatus::Enabled)
    }
}

impl fmt::Display for NodeStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeStatus::Faulty => "faulty",
            NodeStatus::Disabled => "disabled",
            NodeStatus::Enabled => "enabled",
        };
        f.write_str(s)
    }
}

/// The outcome of a fault-model construction: one [`NodeStatus`] per node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StatusMap {
    grid: Grid<NodeStatus>,
    /// Maintained count of non-faulty disabled (gray) nodes, so the
    /// Figure 9 metric is O(1) instead of a whole-grid rescan.
    disabled: usize,
    /// Maintained count of faulty (black) nodes.
    faulty: usize,
}

impl StatusMap {
    /// An all-enabled map for `mesh`.
    pub fn all_enabled(mesh: &Mesh2D) -> Self {
        StatusMap {
            grid: Grid::for_mesh(mesh, NodeStatus::Enabled),
            disabled: 0,
            faulty: 0,
        }
    }

    /// A map where exactly the nodes of `faults` are faulty and everything
    /// else is enabled.
    pub fn from_faults(mesh: &Mesh2D, faults: &Region) -> Self {
        let mut map = Self::all_enabled(mesh);
        for f in faults.iter() {
            map.set(f, NodeStatus::Faulty);
        }
        map
    }

    /// A map where exactly the listed nodes are faulty and everything else
    /// is enabled — [`from_faults`](Self::from_faults) seeded straight from
    /// a fault list (`FaultSet::in_insertion_order`), with no intermediate
    /// [`Region`]. Duplicates and out-of-mesh nodes are ignored.
    pub fn from_fault_list(mesh: &Mesh2D, faults: &[Coord]) -> Self {
        let mut map = Self::all_enabled(mesh);
        for &f in faults {
            map.set(f, NodeStatus::Faulty);
        }
        map
    }

    /// The status of node `c`.
    ///
    /// # Panics
    /// Panics if `c` is outside the mesh the map was built for.
    pub fn status(&self, c: Coord) -> NodeStatus {
        self.grid[c]
    }

    /// The status of node `c`, or `None` when outside the map.
    pub fn get(&self, c: Coord) -> Option<NodeStatus> {
        self.grid.get(c).copied()
    }

    /// Sets the status of node `c` unconditionally.
    pub fn set(&mut self, c: Coord, status: NodeStatus) {
        if let Some(cell) = self.grid.get_mut(c) {
            match *cell {
                NodeStatus::Disabled => self.disabled -= 1,
                NodeStatus::Faulty => self.faulty -= 1,
                NodeStatus::Enabled => {}
            }
            *cell = status;
            match status {
                NodeStatus::Disabled => self.disabled += 1,
                NodeStatus::Faulty => self.faulty += 1,
                NodeStatus::Enabled => {}
            }
        }
    }

    /// Applies the superseding rule: the stored status only changes when the
    /// new status has strictly higher precedence.
    pub fn supersede(&mut self, c: Coord, status: NodeStatus) {
        if let Some(current) = self.grid.get(c) {
            let next = current.supersede(status);
            if next != *current {
                self.set(c, next);
            }
        }
    }

    /// All faulty (black) nodes.
    pub fn faulty_region(&self) -> Region {
        self.region_where(|s| s == NodeStatus::Faulty)
    }

    /// All excluded nodes (faulty or disabled) — the union of the faulty
    /// polygons.
    pub fn excluded_region(&self) -> Region {
        self.region_where(NodeStatus::is_excluded)
    }

    /// The nodes whose status satisfies `pred`, packed over the map's frame
    /// 64 statuses to a word.
    fn region_where(&self, pred: impl Fn(NodeStatus) -> bool) -> Region {
        let width = self.width() as usize;
        let mut bits = BitGrid::with_bounds(
            Coord::ORIGIN,
            Coord::new(self.width() - 1, self.height() - 1),
        );
        let ww = bits.words().len() / self.height() as usize;
        let rows = self.grid.as_slice().chunks_exact(width);
        for (dst, row) in bits.words_mut().chunks_exact_mut(ww).zip(rows) {
            for (word, statuses) in dst.iter_mut().zip(row.chunks(64)) {
                // Most words match nothing: a branch-free test first.
                if statuses.iter().fold(false, |any, &s| any | pred(s)) {
                    *word = statuses
                        .iter()
                        .enumerate()
                        .fold(0, |w, (b, &s)| w | u64::from(pred(s)) << b);
                }
            }
        }
        Region::from_bits(bits)
    }

    /// Number of non-faulty nodes the model disables (the paper's headline
    /// metric, Figure 9).
    pub fn disabled_count(&self) -> usize {
        debug_assert_eq!(
            self.disabled,
            self.grid.count_where(|&s| s == NodeStatus::Disabled)
        );
        self.disabled
    }

    /// Number of faulty nodes.
    pub fn faulty_count(&self) -> usize {
        debug_assert_eq!(
            self.faulty,
            self.grid.count_where(|&s| s == NodeStatus::Faulty)
        );
        self.faulty
    }

    /// Width of the underlying grid.
    pub fn width(&self) -> i32 {
        self.grid.width()
    }

    /// Height of the underlying grid.
    pub fn height(&self) -> i32 {
        self.grid.height()
    }

    /// Access to the raw grid, mainly for rendering.
    pub fn grid(&self) -> &Grid<NodeStatus> {
        &self.grid
    }
}

/// A batch of per-node status transitions, as produced by one step of an
/// incremental (streaming) fault-model maintenance engine.
///
/// Downstream consumers — routing tables, sweep statistics, renderers — can
/// apply a delta instead of rescanning the whole mesh: each entry records the
/// node, the status it had before the step and the status it has after.
/// Entries with `old == new` are never recorded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusDelta {
    changes: Vec<(Coord, NodeStatus, NodeStatus)>,
}

impl StatusDelta {
    /// An empty delta (no node changed).
    pub fn new() -> Self {
        StatusDelta::default()
    }

    /// Records one transition. A no-op when `old == new`.
    pub fn record(&mut self, node: Coord, old: NodeStatus, new: NodeStatus) {
        if old != new {
            self.changes.push((node, old, new));
        }
    }

    /// The recorded transitions `(node, old, new)`, in recording order.
    pub fn changes(&self) -> &[(Coord, NodeStatus, NodeStatus)] {
        &self.changes
    }

    /// Number of nodes whose status changed.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True when no node changed status.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Nodes that left the routing fabric in this step (enabled before,
    /// faulty or disabled after).
    pub fn newly_excluded(&self) -> impl Iterator<Item = Coord> + '_ {
        self.changes
            .iter()
            .filter(|(_, old, new)| !old.is_excluded() && new.is_excluded())
            .map(|&(c, _, _)| c)
    }

    /// Nodes that rejoined the routing fabric in this step (faulty or
    /// disabled before, enabled after).
    pub fn newly_enabled(&self) -> impl Iterator<Item = Coord> + '_ {
        self.changes
            .iter()
            .filter(|(_, old, new)| old.is_excluded() && !new.is_excluded())
            .map(|&(c, _, _)| c)
    }

    /// Appends the transitions of `later` to this delta. Transitions are not
    /// coalesced: a node changed by both deltas appears twice, in order, so
    /// replaying the concatenation still reproduces the final state.
    pub fn extend(&mut self, later: StatusDelta) {
        self.changes.extend(later.changes);
    }

    /// Writes the new statuses into `map` (last write wins per node).
    pub fn apply_to(&self, map: &mut StatusMap) {
        for &(c, _, new) in &self.changes {
            map.set(c, new);
        }
    }

    /// The minimal delta turning `old` into `new`: one transition per
    /// node whose status differs, in row-major order. Both maps must
    /// cover the same mesh. This is the resynchronization primitive for
    /// subscribers that missed deltas (a `seq` gap): diff the stale
    /// mirror against a fresh snapshot and apply the result.
    ///
    /// # Panics
    /// Panics if the two maps have different dimensions.
    pub fn between(old: &StatusMap, new: &StatusMap) -> StatusDelta {
        assert_eq!(
            (old.width(), old.height()),
            (new.width(), new.height()),
            "StatusDelta::between requires same-sized maps"
        );
        let mut delta = StatusDelta::new();
        for (c, &s) in new.grid.iter() {
            delta.record(c, old.status(c), s);
        }
        delta
    }

    /// Collapses the delta to at most one transition per node: the first
    /// recorded `old` paired with the last recorded `new`, in the order
    /// nodes first appeared. Nodes whose status returned to its starting
    /// value drop out entirely, so a burst of events that cancels itself
    /// coalesces to an empty delta. Replaying the coalesced delta
    /// produces the same final map as replaying the original — the form
    /// fan-out to subscribers should use.
    pub fn coalesced(&self) -> StatusDelta {
        let mut index: std::collections::HashMap<Coord, usize> =
            std::collections::HashMap::with_capacity(self.changes.len());
        let mut changes: Vec<(Coord, NodeStatus, NodeStatus)> = Vec::new();
        for &(c, old, new) in &self.changes {
            match index.entry(c) {
                std::collections::hash_map::Entry::Occupied(slot) => {
                    changes[*slot.get()].2 = new;
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(changes.len());
                    changes.push((c, old, new));
                }
            }
        }
        changes.retain(|&(_, old, new)| old != new);
        StatusDelta { changes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superseding_rule_orders_black_gray_white() {
        use NodeStatus::*;
        assert_eq!(Faulty.supersede(Disabled), Faulty);
        assert_eq!(Disabled.supersede(Faulty), Faulty);
        assert_eq!(Disabled.supersede(Enabled), Disabled);
        assert_eq!(Enabled.supersede(Disabled), Disabled);
        assert_eq!(Enabled.supersede(Enabled), Enabled);
        assert!(Faulty.precedence() > Disabled.precedence());
        assert!(Disabled.precedence() > Enabled.precedence());
    }

    #[test]
    fn excluded_means_not_enabled() {
        assert!(NodeStatus::Faulty.is_excluded());
        assert!(NodeStatus::Disabled.is_excluded());
        assert!(!NodeStatus::Enabled.is_excluded());
    }

    #[test]
    fn from_faults_marks_only_faults() {
        let mesh = Mesh2D::square(6);
        let faults = Region::from_coords([Coord::new(1, 1), Coord::new(4, 2)]);
        let map = StatusMap::from_faults(&mesh, &faults);
        assert_eq!(map.faulty_count(), 2);
        assert_eq!(map.disabled_count(), 0);
        assert_eq!(map.status(Coord::new(1, 1)), NodeStatus::Faulty);
        assert_eq!(map.status(Coord::new(0, 0)), NodeStatus::Enabled);
        assert_eq!(map.faulty_region(), faults);
    }

    #[test]
    fn from_fault_list_equals_from_faults() {
        let mesh = Mesh2D::square(6);
        let list = [
            Coord::new(4, 2),
            Coord::new(1, 1),
            Coord::new(4, 2),
            Coord::new(9, 9),
        ];
        let map = StatusMap::from_fault_list(&mesh, &list);
        assert_eq!(
            map,
            StatusMap::from_faults(&mesh, &Region::from_coords(list))
        );
        assert_eq!(map.faulty_count(), 2, "duplicates and outsiders ignored");
    }

    #[test]
    fn excluded_region_is_union() {
        let mesh = Mesh2D::square(4);
        let mut m = StatusMap::all_enabled(&mesh);
        m.set(Coord::new(0, 0), NodeStatus::Faulty);
        m.set(Coord::new(0, 1), NodeStatus::Disabled);
        let ex = m.excluded_region();
        assert_eq!(ex.len(), 2);
        assert!(ex.contains(Coord::new(0, 0)));
        assert!(ex.contains(Coord::new(0, 1)));
    }

    #[test]
    fn get_out_of_bounds_is_none() {
        let mesh = Mesh2D::square(3);
        let m = StatusMap::all_enabled(&mesh);
        assert_eq!(m.get(Coord::new(3, 0)), None);
        assert_eq!(m.get(Coord::new(2, 2)), Some(NodeStatus::Enabled));
    }

    #[test]
    fn delta_records_classifies_and_applies() {
        let mesh = Mesh2D::square(4);
        let mut delta = StatusDelta::new();
        delta.record(Coord::new(0, 0), NodeStatus::Enabled, NodeStatus::Faulty);
        delta.record(Coord::new(1, 0), NodeStatus::Enabled, NodeStatus::Disabled);
        delta.record(Coord::new(2, 0), NodeStatus::Disabled, NodeStatus::Enabled);
        delta.record(Coord::new(3, 0), NodeStatus::Faulty, NodeStatus::Disabled);
        delta.record(Coord::new(3, 3), NodeStatus::Enabled, NodeStatus::Enabled);
        assert_eq!(delta.len(), 4, "old == new is not recorded");

        let excluded: Vec<_> = delta.newly_excluded().collect();
        assert_eq!(excluded, vec![Coord::new(0, 0), Coord::new(1, 0)]);
        let enabled: Vec<_> = delta.newly_enabled().collect();
        assert_eq!(enabled, vec![Coord::new(2, 0)]);

        let mut map = StatusMap::all_enabled(&mesh);
        map.set(Coord::new(2, 0), NodeStatus::Disabled);
        map.set(Coord::new(3, 0), NodeStatus::Faulty);
        delta.apply_to(&mut map);
        assert_eq!(map.status(Coord::new(0, 0)), NodeStatus::Faulty);
        assert_eq!(map.status(Coord::new(1, 0)), NodeStatus::Disabled);
        assert_eq!(map.status(Coord::new(2, 0)), NodeStatus::Enabled);
        assert_eq!(map.status(Coord::new(3, 0)), NodeStatus::Disabled);
    }

    #[test]
    fn delta_extend_replays_in_order() {
        let mesh = Mesh2D::square(3);
        let mut first = StatusDelta::new();
        first.record(Coord::new(1, 1), NodeStatus::Enabled, NodeStatus::Disabled);
        let mut second = StatusDelta::new();
        second.record(Coord::new(1, 1), NodeStatus::Disabled, NodeStatus::Faulty);
        first.extend(second);
        assert_eq!(first.len(), 2);
        let mut map = StatusMap::all_enabled(&mesh);
        first.apply_to(&mut map);
        assert_eq!(map.status(Coord::new(1, 1)), NodeStatus::Faulty);
        assert!(!first.is_empty());
    }

    #[test]
    fn coalesced_keeps_first_old_and_last_new_per_node() {
        let mesh = Mesh2D::square(4);
        let mut delta = StatusDelta::new();
        // (1,1): Enabled -> Disabled -> Faulty  ⇒ one Enabled -> Faulty entry.
        delta.record(Coord::new(1, 1), NodeStatus::Enabled, NodeStatus::Disabled);
        delta.record(Coord::new(0, 0), NodeStatus::Enabled, NodeStatus::Faulty);
        delta.record(Coord::new(1, 1), NodeStatus::Disabled, NodeStatus::Faulty);
        // (2,2): Enabled -> Disabled -> Enabled  ⇒ cancels out.
        delta.record(Coord::new(2, 2), NodeStatus::Enabled, NodeStatus::Disabled);
        delta.record(Coord::new(2, 2), NodeStatus::Disabled, NodeStatus::Enabled);
        let coalesced = delta.coalesced();
        assert_eq!(
            coalesced.changes(),
            &[
                (Coord::new(1, 1), NodeStatus::Enabled, NodeStatus::Faulty),
                (Coord::new(0, 0), NodeStatus::Enabled, NodeStatus::Faulty),
            ],
            "first-appearance order, self-cancelling node dropped"
        );
        // Replaying either form yields the same final map.
        let mut a = StatusMap::all_enabled(&mesh);
        let mut b = StatusMap::all_enabled(&mesh);
        delta.apply_to(&mut a);
        coalesced.apply_to(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn coalescing_an_empty_delta_is_empty() {
        assert!(StatusDelta::new().coalesced().is_empty());
    }

    #[test]
    fn between_diffs_two_maps_and_applying_converges() {
        let mesh = Mesh2D::square(5);
        let mut old = StatusMap::all_enabled(&mesh);
        old.set(Coord::new(1, 1), NodeStatus::Faulty);
        old.set(Coord::new(2, 2), NodeStatus::Disabled);
        let mut new = StatusMap::all_enabled(&mesh);
        new.set(Coord::new(2, 2), NodeStatus::Faulty);
        new.set(Coord::new(4, 0), NodeStatus::Disabled);

        let delta = StatusDelta::between(&old, &new);
        // (1,1) reverts to Enabled, (2,2) escalates, (4,0) appears.
        assert_eq!(delta.len(), 3);
        for &(c, o, n) in delta.changes() {
            assert_eq!(o, old.status(c));
            assert_eq!(n, new.status(c));
        }
        delta.apply_to(&mut old);
        assert_eq!(old, new);
        assert!(StatusDelta::between(&new, &new).is_empty());
    }

    #[test]
    fn display_names() {
        assert_eq!(NodeStatus::Faulty.to_string(), "faulty");
        assert_eq!(NodeStatus::Disabled.to_string(), "disabled");
        assert_eq!(NodeStatus::Enabled.to_string(), "enabled");
    }
}
