//! Cardinal directions and turns on the 2-D mesh.
//!
//! The routing layer (extended e-cube, Section 2.2 of the paper) and the
//! distributed boundary-ring construction (Section 3.2) both reason about
//! clockwise / counterclockwise traversal around fault regions, which this
//! module makes explicit.

use std::fmt;

/// One of the four cardinal directions on the mesh.
///
/// `East` increases `x`, `North` increases `y` — i.e. the mesh is drawn with
/// the origin at the south-west corner, matching the figures in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Towards larger `x`.
    East,
    /// Towards smaller `x`.
    West,
    /// Towards larger `y`.
    North,
    /// Towards smaller `y`.
    South,
}

/// A relative turn used when walking around a fault-region boundary.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Turn {
    /// Rotate 90° clockwise.
    Clockwise,
    /// Rotate 90° counterclockwise.
    CounterClockwise,
}

impl Direction {
    /// All four directions, in the order East, North, West, South.
    pub const ALL: [Direction; 4] = [
        Direction::East,
        Direction::North,
        Direction::West,
        Direction::South,
    ];

    /// The unit offset `(dx, dy)` of this direction.
    #[inline]
    pub const fn delta(self) -> (i32, i32) {
        match self {
            Direction::East => (1, 0),
            Direction::West => (-1, 0),
            Direction::North => (0, 1),
            Direction::South => (0, -1),
        }
    }

    /// The opposite direction.
    #[inline]
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::North => Direction::South,
            Direction::South => Direction::North,
        }
    }

    /// The direction obtained by applying `turn`.
    #[inline]
    pub const fn turned(self, turn: Turn) -> Direction {
        match (self, turn) {
            (Direction::East, Turn::Clockwise) => Direction::South,
            (Direction::South, Turn::Clockwise) => Direction::West,
            (Direction::West, Turn::Clockwise) => Direction::North,
            (Direction::North, Turn::Clockwise) => Direction::East,
            (Direction::East, Turn::CounterClockwise) => Direction::North,
            (Direction::North, Turn::CounterClockwise) => Direction::West,
            (Direction::West, Turn::CounterClockwise) => Direction::South,
            (Direction::South, Turn::CounterClockwise) => Direction::East,
        }
    }

    /// True when the direction changes the X dimension.
    #[inline]
    pub const fn is_horizontal(self) -> bool {
        matches!(self, Direction::East | Direction::West)
    }

    /// True when the direction changes the Y dimension.
    #[inline]
    pub const fn is_vertical(self) -> bool {
        matches!(self, Direction::North | Direction::South)
    }
}

impl Turn {
    /// The opposite rotation sense.
    #[inline]
    pub const fn opposite(self) -> Turn {
        match self {
            Turn::Clockwise => Turn::CounterClockwise,
            Turn::CounterClockwise => Turn::Clockwise,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::East => "E",
            Direction::West => "W",
            Direction::North => "N",
            Direction::South => "S",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposites() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
    }

    #[test]
    fn four_clockwise_turns_identity() {
        for d in Direction::ALL {
            let mut cur = d;
            for _ in 0..4 {
                cur = cur.turned(Turn::Clockwise);
            }
            assert_eq!(cur, d);
        }
    }

    #[test]
    fn clockwise_then_counterclockwise_identity() {
        for d in Direction::ALL {
            assert_eq!(d.turned(Turn::Clockwise).turned(Turn::CounterClockwise), d);
        }
    }

    #[test]
    fn deltas_are_unit_vectors() {
        for d in Direction::ALL {
            let (dx, dy) = d.delta();
            assert_eq!(dx.abs() + dy.abs(), 1);
        }
        assert_eq!(Direction::East.delta(), (1, 0));
        assert_eq!(Direction::North.delta(), (0, 1));
    }

    #[test]
    fn horizontal_vertical_partition() {
        for d in Direction::ALL {
            assert_ne!(d.is_horizontal(), d.is_vertical());
        }
    }

    #[test]
    fn display_single_letters() {
        assert_eq!(Direction::East.to_string(), "E");
        assert_eq!(Direction::South.to_string(), "S");
    }
}
