//! Deployment geometry: 3-D positions with a depth-positive-down convention.

use vab_util::units::Meters;

/// A point in the water column. `x`, `y` are horizontal metres; `z` is depth
/// in metres, positive **downward** (surface at z = 0).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// Horizontal coordinate, m.
    pub x: f64,
    /// Horizontal coordinate, m.
    pub y: f64,
    /// Depth below the surface, m (positive down).
    pub z: f64,
}

impl Position {
    /// Creates a position.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// A position at `depth` directly below the origin.
    pub const fn at_depth(depth: f64) -> Self {
        Self { x: 0.0, y: 0.0, z: depth }
    }

    /// Euclidean distance to another position.
    pub fn distance_to(&self, other: &Position) -> Meters {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        Meters((dx * dx + dy * dy + dz * dz).sqrt())
    }

    /// Horizontal (slant-free) range to another position.
    pub fn horizontal_range(&self, other: &Position) -> Meters {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        Meters((dx * dx + dy * dy).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;

    #[test]
    fn distance_pythagoras() {
        let a = Position::new(0.0, 0.0, 0.0);
        let b = Position::new(3.0, 4.0, 0.0);
        assert!(approx_eq(a.distance_to(&b).value(), 5.0, 1e-12));
        let c = Position::new(3.0, 4.0, 12.0);
        assert!(approx_eq(a.distance_to(&c).value(), 13.0, 1e-12));
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Position::new(1.0, -2.0, 3.0);
        let b = Position::new(-4.0, 5.0, 0.5);
        assert_eq!(a.distance_to(&b), b.distance_to(&a));
    }
}
