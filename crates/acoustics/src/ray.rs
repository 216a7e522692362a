//! Ray tracing with refraction.
//!
//! The image method (see [`crate::channel`]) assumes straight-line
//! propagation — exact for the iso-velocity shallow water of the paper's
//! deployments. Stratified water (a thermocline, a deeper coastal column)
//! bends rays: Snell's invariant `cos θ / c(z)` curves paths toward the
//! sound-speed minimum and can open shadow zones a straight-line model
//! never predicts.
//!
//! This module integrates the standard 2-D ray equations
//!
//! ```text
//! dr/ds = cos θ        dz/ds = sin θ
//! dθ/ds = −cos θ · c'(z) / c(z)        dt/ds = 1 / c(z)
//! ```
//!
//! (θ measured from the horizontal, z positive down, midpoint integration)
//! with specular reflections at the surface and bottom.

use crate::soundspeed::Profile;

/// One traced ray path.
#[derive(Debug, Clone)]
pub struct RayPath {
    /// Sampled (range, depth) points along the path, metres.
    pub points: Vec<(f64, f64)>,
    /// Travel time to the final point, seconds.
    pub travel_time_s: f64,
    /// Path length, metres.
    pub length_m: f64,
    /// Surface reflections along the way.
    pub n_surface: u32,
    /// Bottom reflections along the way.
    pub n_bottom: u32,
    /// Launch angle, radians from horizontal (positive down).
    pub launch_rad: f64,
}

/// Ray-tracing configuration.
#[derive(Debug, Clone, Copy)]
pub struct RayTracer {
    /// Water depth, m.
    pub depth_m: f64,
    /// Integration step along the arc, m.
    pub step_m: f64,
    /// Abort tracing after this many surface+bottom bounces.
    pub max_bounces: u32,
}

impl RayTracer {
    /// Standard tracer: 0.5 m steps, up to 6 bounces.
    pub fn new(depth_m: f64) -> Self {
        assert!(depth_m > 0.0);
        Self { depth_m, step_m: 0.5, max_bounces: 6 }
    }

    /// Traces one ray from `(0, z0)` at `launch_rad` until it reaches
    /// `range_m` (or exceeds the bounce limit).
    pub fn trace(&self, profile: &Profile, z0: f64, launch_rad: f64, range_m: f64) -> RayPath {
        let mut r = 0.0f64;
        let mut z = z0.clamp(0.0, self.depth_m);
        let mut theta = launch_rad;
        let mut t = 0.0f64;
        let mut length = 0.0f64;
        let mut n_surface = 0u32;
        let mut n_bottom = 0u32;
        // Keep the stored path compact: record every ~2 m of range.
        let record_every = (2.0 / self.step_m).max(1.0) as usize;
        let mut points = vec![(r, z)];
        let mut i = 0usize;
        let eps = 1e-9;
        while r < range_m && n_surface + n_bottom <= self.max_bounces {
            let ds = self.step_m.min((range_m - r).max(eps) / theta.cos().abs().max(0.1));
            // Midpoint method for the coupled ODEs.
            let c1 = profile.at(z);
            let dc1 = self.gradient(profile, z);
            let k1_theta = -theta.cos() * dc1 / c1;
            let zm = z + 0.5 * ds * theta.sin();
            let thm = theta + 0.5 * ds * k1_theta;
            let cm = profile.at(zm.clamp(0.0, self.depth_m));
            let dcm = self.gradient(profile, zm.clamp(0.0, self.depth_m));
            r += ds * thm.cos();
            z += ds * thm.sin();
            theta += ds * (-thm.cos() * dcm / cm);
            t += ds / cm;
            length += ds;
            // Boundary reflections: specular (angle sign flip).
            if z <= 0.0 {
                z = -z;
                theta = -theta;
                n_surface += 1;
            } else if z >= self.depth_m {
                z = 2.0 * self.depth_m - z;
                theta = -theta;
                n_bottom += 1;
            }
            i += 1;
            if i.is_multiple_of(record_every) {
                points.push((r, z));
            }
        }
        points.push((r, z));
        RayPath { points, travel_time_s: t, length_m: length, n_surface, n_bottom, launch_rad }
    }

    fn gradient(&self, profile: &Profile, z: f64) -> f64 {
        match *profile {
            Profile::Iso(_) => 0.0,
            Profile::Linear { gradient, .. } => {
                let _ = z;
                gradient
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;

    #[test]
    fn straight_ray_in_iso_water() {
        let tracer = RayTracer::new(50.0);
        let profile = Profile::Iso(1500.0);
        let p = tracer.trace(&profile, 25.0, 0.0, 200.0);
        // Horizontal launch at mid-depth: stays flat, no bounces.
        assert_eq!(p.n_surface + p.n_bottom, 0);
        assert!(approx_eq(p.points.last().expect("traced").1, 25.0, 1e-6));
        assert!(approx_eq(p.travel_time_s, 200.0 / 1500.0, 1e-4));
        assert!(approx_eq(p.length_m, 200.0, 0.01));
    }

    #[test]
    fn angled_ray_bounces_in_iso_water() {
        let tracer = RayTracer::new(20.0);
        let profile = Profile::Iso(1500.0);
        // 10° down from 10 m depth: hits bottom after ~56.7 m of range.
        let p = tracer.trace(&profile, 10.0, 10f64.to_radians(), 300.0);
        assert!(p.n_bottom >= 1, "ray must hit the bottom");
        assert!(p.n_surface >= 1, "and come back up past the surface");
        // Path length exceeds horizontal range (zig-zag).
        assert!(p.length_m > 300.0);
    }

    #[test]
    fn downward_gradient_bends_rays_down() {
        // Sound speed increasing with depth bends rays *upward* (toward the
        // slow side); decreasing with depth bends them downward.
        let tracer = RayTracer { depth_m: 200.0, step_m: 0.5, max_bounces: 0 };
        let faster_down = Profile::Linear { surface: 1480.0, gradient: 0.5 };
        let slower_down = Profile::Linear { surface: 1520.0, gradient: -0.5 };
        let up = tracer.trace(&faster_down, 100.0, 0.0, 400.0);
        let down = tracer.trace(&slower_down, 100.0, 0.0, 400.0);
        assert!(
            up.points.last().expect("traced").1 < 99.0,
            "positive gradient should bend the ray up, got z = {}",
            up.points.last().expect("traced").1
        );
        assert!(
            down.points.last().expect("traced").1 > 101.0,
            "negative gradient should bend the ray down, got z = {}",
            down.points.last().expect("traced").1
        );
    }

    #[test]
    fn snell_invariant_is_conserved() {
        // cos θ / c(z) must stay constant along a refracted (bounce-free) ray.
        let tracer = RayTracer { depth_m: 500.0, step_m: 0.25, max_bounces: 0 };
        let profile = Profile::Linear { surface: 1490.0, gradient: 0.05 };
        let z0 = 250.0;
        let th0 = 0.05f64;
        let p = tracer.trace(&profile, z0, th0, 600.0);
        assert_eq!(p.n_surface + p.n_bottom, 0, "pick parameters without bounces");
        let inv0 = th0.cos() / profile.at(z0);
        // Recover the local angle from consecutive recorded points.
        let pts = &p.points;
        let (r1, z1) = pts[pts.len() - 2];
        let (r2, z2) = pts[pts.len() - 1];
        let theta_end = ((z2 - z1) / (r2 - r1)).atan();
        let inv_end = theta_end.cos() / profile.at(z2);
        assert!(
            (inv_end / inv0 - 1.0).abs() < 1e-3,
            "Snell invariant drifted: {inv0:.6e} → {inv_end:.6e}"
        );
    }

    #[test]
    fn bounce_limit_respected() {
        let tracer = RayTracer { depth_m: 5.0, step_m: 0.25, max_bounces: 3 };
        let p = tracer.trace(&Profile::Iso(1500.0), 2.5, 0.5, 10_000.0);
        assert!(p.n_surface + p.n_bottom <= 4, "tracing must stop at the bounce limit");
    }
}
