//! Co-channel interference: the absorption-derived *interference horizon*
//! and the pairwise oracle the production sinks are checked against.
//!
//! Summing every concurrent transmitter's contribution at a receiver is
//! O(N) per query and O(N²) per network sweep, and at ocean scale most of
//! those terms do not matter: seawater absorption
//! ([`Environment::absorption_db_per_km`]) plus spherical spreading drives
//! a far transmitter's contribution tens of dB below the noise floor. The
//! horizon ([`interference_horizon_m`]) is the range beyond which a
//! source's received level falls below a floor (noise minus
//! [`HORIZON_MARGIN_DB`]); the ocean constructor ([`crate::scale`]) keeps
//! only co-channel sources inside it.
//!
//! **Exactness contract**: production sinks equal
//! [`pairwise_interference_lin`]. The oracle sums
//! `reply_contribution_lin` — `env.transmission_loss` in full — over the
//! sources in ascending address order. Production computes the same term
//! through `NetPhy::tl_db`, the same spreading-plus-absorption loss with
//! the absorption evaluated once per plan, so a reader's sink total, summed
//! in ascending address order, is bit-identical to the oracle over its
//! in-horizon co-channel sources — floating-point summation order and all.
//! `tests/network.rs` pins this with and without culling, and the
//! 20,736-node sink digest pins the production values themselves.

use vab_acoustics::environment::Environment;
use vab_acoustics::geometry::Position;
use vab_util::db::db_to_lin_pow;
use vab_util::units::{Hertz, Meters};

/// Margin below the noise floor at which an interferer is declared
/// negligible, dB. A source 10 dB under the noise floor shifts total
/// noise-plus-interference by under 0.5 dB even before capture margins.
pub const HORIZON_MARGIN_DB: f64 = 10.0;

/// Upper bound on any horizon search, metres (200 km — far past any
/// plausible acoustic interference range at backscatter levels).
pub const HORIZON_MAX_M: f64 = 200_000.0;

/// One acoustic point source: a node whose backscattered reply re-radiates
/// at `level_db_at_1m` (dB re 1 µPa @ 1 m).
#[derive(Debug, Clone, Copy)]
pub struct PointSource {
    /// MAC address of the transmitting node.
    pub addr: vab_mac::Addr,
    /// Node position.
    pub pos: Position,
    /// Effective reply source level at 1 m, dB re 1 µPa.
    pub level_db_at_1m: f64,
}

/// Linear received power of `src` at `at` under spreading + absorption
/// (`env.transmission_loss`), with the standard 1 m reference clamp: the
/// oracle's per-source term.
fn reply_contribution_lin(env: &Environment, f: Hertz, src: &PointSource, at: Position) -> f64 {
    let d = src.pos.distance_to(&at).value().max(1.0);
    db_to_lin_pow(src.level_db_at_1m - env.transmission_loss(f, Meters(d)).value())
}

/// The interference horizon: the smallest range at which a source of
/// `level_db_at_1m` is received at or below `floor_db` (typically the
/// noise power minus [`HORIZON_MARGIN_DB`]), solved by bisection on the
/// monotone spreading-plus-absorption transmission loss.
///
/// Returns [`HORIZON_MAX_M`] if the source is still above the floor there
/// (effectively "no horizon"), and 1.0 if it is already below the floor
/// at the 1 m reference.
pub fn interference_horizon_m(
    env: &Environment,
    f: Hertz,
    level_db_at_1m: f64,
    floor_db: f64,
) -> f64 {
    let rx = |d: f64| level_db_at_1m - env.transmission_loss(f, Meters(d)).value();
    if rx(1.0) <= floor_db {
        return 1.0;
    }
    if rx(HORIZON_MAX_M) > floor_db {
        return HORIZON_MAX_M;
    }
    let (mut lo, mut hi) = (1.0_f64, HORIZON_MAX_M);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if rx(mid) > floor_db {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// The pairwise oracle: total linear interference power at `at` from
/// every source, summed in slice order. Callers keep sources sorted by
/// ascending address so the sum order is canonical.
pub fn pairwise_interference_lin(
    env: &Environment,
    f: Hertz,
    sources: &[PointSource],
    at: Position,
) -> f64 {
    let mut total = 0.0;
    for src in sources {
        total += reply_contribution_lin(env, f, src, at);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ocean() -> Environment {
        Environment::ocean(vab_acoustics::environment::SeaState::all()[1])
    }

    #[test]
    fn horizon_is_monotone_in_level_and_finite() {
        let env = ocean();
        let f = Hertz(18_500.0);
        let quiet = interference_horizon_m(&env, f, 120.0, 60.0);
        let loud = interference_horizon_m(&env, f, 150.0, 60.0);
        assert!(loud > quiet, "a louder source carries farther: {loud} vs {quiet}");
        assert!(quiet >= 1.0 && loud <= HORIZON_MAX_M);
        // At the horizon the received level is (numerically) at the floor.
        let rx = 150.0 - env.transmission_loss(f, Meters(loud)).value();
        assert!((rx - 60.0).abs() < 1e-6, "rx at horizon = {rx}");
    }
}
