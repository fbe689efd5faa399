//! Message classes and virtual channel assignment.
//!
//! Messages are classified by their direction of travel: a message first
//! travels along the row (X dimension) as a WE-bound (west-to-east) or
//! EW-bound message, then along the column as an SN- or NS-bound message.
//! Around faulty polygons, each class uses its own virtual channel
//! (`vc0`–`vc3`), which is what keeps the extended e-cube routing
//! deadlock-free.

use mesh2d::Coord;

/// The four message classes of the extended e-cube routing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MessageClass {
    /// Travelling east along the row.
    WEBound,
    /// Travelling west along the row.
    EWBound,
    /// Travelling north along the column (row hops finished).
    SNBound,
    /// Travelling south along the column (row hops finished).
    NSBound,
}

/// A virtual channel index (`vc0`–`vc3`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct VirtualChannel(pub u8);

impl MessageClass {
    /// The class of a message at `current` heading for `dst`, following the
    /// e-cube discipline (row hops first, then column hops).
    pub fn classify(current: Coord, dst: Coord) -> Option<MessageClass> {
        if current.x < dst.x {
            Some(MessageClass::WEBound)
        } else if current.x > dst.x {
            Some(MessageClass::EWBound)
        } else if current.y < dst.y {
            Some(MessageClass::SNBound)
        } else if current.y > dst.y {
            Some(MessageClass::NSBound)
        } else {
            None
        }
    }

    /// The virtual channel the class uses for hops around faulty polygons:
    /// EW-bound messages use `vc0`, WE-bound `vc1`, NS-bound `vc2` and
    /// SN-bound `vc3`.
    pub fn virtual_channel(self) -> VirtualChannel {
        match self {
            MessageClass::EWBound => VirtualChannel(0),
            MessageClass::WEBound => VirtualChannel(1),
            MessageClass::NSBound => VirtualChannel(2),
            MessageClass::SNBound => VirtualChannel(3),
        }
    }

    /// True for the row-travelling classes.
    pub fn is_row_bound(self) -> bool {
        matches!(self, MessageClass::WEBound | MessageClass::EWBound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_follows_ecube_order() {
        let dst = Coord::new(6, 4);
        assert_eq!(
            MessageClass::classify(Coord::new(1, 3), dst),
            Some(MessageClass::WEBound)
        );
        assert_eq!(
            MessageClass::classify(Coord::new(9, 9), dst),
            Some(MessageClass::EWBound)
        );
        assert_eq!(
            MessageClass::classify(Coord::new(6, 3), dst),
            Some(MessageClass::SNBound)
        );
        assert_eq!(
            MessageClass::classify(Coord::new(6, 8), dst),
            Some(MessageClass::NSBound)
        );
        assert_eq!(MessageClass::classify(dst, dst), None);
    }

    #[test]
    fn row_hops_take_priority_over_column_hops() {
        // even if the column offset is larger, the row is corrected first
        let c = MessageClass::classify(Coord::new(1, 0), Coord::new(2, 9)).unwrap();
        assert!(c.is_row_bound());
    }

    #[test]
    fn each_class_has_a_distinct_virtual_channel() {
        let classes = [
            MessageClass::EWBound,
            MessageClass::WEBound,
            MessageClass::NSBound,
            MessageClass::SNBound,
        ];
        let mut channels: Vec<u8> = classes.iter().map(|c| c.virtual_channel().0).collect();
        channels.sort_unstable();
        channels.dedup();
        assert_eq!(channels, vec![0, 1, 2, 3]);
    }
}
