//! Bank specification and content addressing.
//!
//! A [`BankSpec`] is pure data: everything needed to regenerate a bank,
//! nothing about how it is executed. The canonical JSON form (fixed key
//! order, `vab_util::json` canonical number rendering, seeds as decimal
//! strings) hashed together with the engine version is the bank's content
//! address — the same discipline as the `vab-svc` job model, so identical
//! field conditions always resolve to the same file under `results/banks/`.

use vab_acoustics::environment::{Environment, SeaState};
use vab_acoustics::geometry::Position;
use vab_util::hash::content_digest;
use vab_util::json::Json;

/// Water column the bank was recorded in. Mirrors the scenario builders:
/// the river trial deploys reader and node at 2 m depth; the ocean trial
/// at 5 m and 6 m.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaterSpec {
    /// The canonical river trial geometry.
    River,
    /// Ocean at a sea-state index (0 = calm … 4 = moderate).
    Ocean {
        /// Index into `SeaState::all()`.
        sea_state: u8,
    },
}

impl WaterSpec {
    fn to_json(self) -> Json {
        match self {
            WaterSpec::River => Json::obj([("kind", Json::Str("river".into()))]),
            WaterSpec::Ocean { sea_state } => Json::obj([
                ("kind", Json::Str("ocean".into())),
                ("sea_state", Json::Num(sea_state as f64)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        match v.str_field("kind") {
            Some("river") => Ok(WaterSpec::River),
            Some("ocean") => {
                let ss = v.u64_field("sea_state").ok_or("ocean water needs sea_state")?;
                if ss > 4 {
                    return Err(format!("sea_state {ss} out of range 0..=4"));
                }
                Ok(WaterSpec::Ocean { sea_state: ss as u8 })
            }
            other => Err(format!("unknown water kind {other:?}")),
        }
    }
}

/// Everything that determines a TVIR bank's contents.
#[derive(Debug, Clone, PartialEq)]
pub struct BankSpec {
    /// Water column and sea state.
    pub water: WaterSpec,
    /// Reader–node horizontal range, metres.
    pub range_m: f64,
    /// Carrier frequency, Hz.
    pub carrier_hz: f64,
    /// Baseband sample rate the taps are sampled at, Hz.
    pub fs: f64,
    /// Number of TVIR snapshots across the recording span.
    pub n_snapshots: usize,
    /// Recording span in seconds (snapshot times are spread evenly over
    /// `[0, span_s]`; a single snapshot sits at 0).
    pub span_s: f64,
    /// Master seed for the channel realization (surface-wave phases).
    pub seed: u64,
}

impl BankSpec {
    /// Validates the physical ranges the generator assumes.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.range_m.is_finite() && self.range_m > 0.0) {
            return Err(format!("range_m {} must be positive and finite", self.range_m));
        }
        if !(self.carrier_hz.is_finite() && self.carrier_hz > 0.0) {
            return Err(format!("carrier_hz {} must be positive and finite", self.carrier_hz));
        }
        if !(self.fs.is_finite() && self.fs > 0.0) {
            return Err(format!("fs {} must be positive and finite", self.fs));
        }
        if self.n_snapshots == 0 || self.n_snapshots > 4096 {
            return Err(format!("n_snapshots {} out of range 1..=4096", self.n_snapshots));
        }
        if !(self.span_s.is_finite() && self.span_s >= 0.0) {
            return Err(format!("span_s {} must be non-negative and finite", self.span_s));
        }
        if self.n_snapshots > 1 && self.span_s <= 0.0 {
            return Err("multiple snapshots need a positive span_s".into());
        }
        Ok(())
    }

    /// JSON form with the canonical key order.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("water", self.water.to_json()),
            ("range_m", Json::Num(self.range_m)),
            ("carrier_hz", Json::Num(self.carrier_hz)),
            ("fs", Json::Num(self.fs)),
            ("n_snapshots", Json::Num(self.n_snapshots as f64)),
            ("span_s", Json::Num(self.span_s)),
            ("seed", Json::Str(self.seed.to_string())),
        ])
    }

    /// Parses and validates a spec from its JSON form (either seed
    /// spelling is accepted; canonicalization folds them together).
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let water = WaterSpec::from_json(v.get("water").ok_or("bank spec needs water")?)?;
        let seed = match v.get("seed").ok_or("bank spec needs seed")? {
            Json::Str(s) => s.parse().map_err(|_| format!("bad seed string {s:?}"))?,
            other => other.as_u64().ok_or("bad seed")?,
        };
        let spec = BankSpec {
            water,
            range_m: v.f64_field("range_m").ok_or("bank spec needs range_m")?,
            carrier_hz: v.f64_field("carrier_hz").ok_or("bank spec needs carrier_hz")?,
            fs: v.f64_field("fs").ok_or("bank spec needs fs")?,
            n_snapshots: v.u64_field("n_snapshots").ok_or("bank spec needs n_snapshots")? as usize,
            span_s: v.f64_field("span_s").ok_or("bank spec needs span_s")?,
            seed,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Canonical bytes: the fixed-key-order JSON rendering.
    pub fn canonical(&self) -> String {
        self.to_json().render()
    }

    /// Content address: FNV-1a of the canonical bytes, a NUL separator and
    /// the engine version (same recipe as the svc job digest).
    pub fn digest_with_version(&self, engine_version: &str) -> u64 {
        content_digest(&self.canonical(), engine_version)
    }

    /// Digest under this crate's [`crate::ENGINE_VERSION`].
    pub fn digest(&self) -> u64 {
        self.digest_with_version(crate::ENGINE_VERSION)
    }

    /// Filename-friendly 16-hex-digit bank id.
    pub fn id(&self) -> String {
        format!("{:016x}", self.digest())
    }

    /// The acoustic environment this spec names.
    pub fn environment(&self) -> Environment {
        match self.water {
            WaterSpec::River => Environment::river(),
            WaterSpec::Ocean { sea_state } => Environment::ocean(sea_state_from_index(sea_state)),
        }
    }

    /// Reader position under the canonical deployment geometry.
    pub fn reader_pos(&self) -> Position {
        match self.water {
            WaterSpec::River => Position::new(0.0, 0.0, 2.0),
            WaterSpec::Ocean { .. } => Position::new(0.0, 0.0, 5.0),
        }
    }

    /// Node position under the canonical deployment geometry.
    pub fn node_pos(&self) -> Position {
        match self.water {
            WaterSpec::River => Position::new(self.range_m, 0.0, 2.0),
            WaterSpec::Ocean { .. } => Position::new(self.range_m, 0.0, 6.0),
        }
    }

    /// Time step between snapshots (zero for a single-snapshot bank).
    pub fn snapshot_dt(&self) -> f64 {
        if self.n_snapshots > 1 {
            self.span_s / (self.n_snapshots - 1) as f64
        } else {
            0.0
        }
    }
}

fn sea_state_from_index(i: u8) -> SeaState {
    *SeaState::all().get(i as usize).unwrap_or(&SeaState::Calm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> BankSpec {
        BankSpec {
            water: WaterSpec::River,
            range_m: 320.0,
            carrier_hz: 18_500.0,
            fs: 1600.0,
            n_snapshots: 4,
            span_s: 8.0,
            seed: 2023,
        }
    }

    #[test]
    fn canonical_round_trips() {
        let s = spec();
        let parsed = BankSpec::from_json(&Json::parse(&s.canonical()).unwrap()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.canonical(), s.canonical());
    }

    #[test]
    fn digest_is_stable_and_separates_fields() {
        let s = spec();
        assert_eq!(s.digest(), spec().digest(), "same spec, same digest, every time");
        let mut other = spec();
        other.seed = 2024;
        assert_ne!(s.digest(), other.digest());
        let mut far = spec();
        far.range_m = 321.0;
        assert_ne!(s.digest(), far.digest());
        assert_ne!(s.digest_with_version("vab-engine/1"), s.digest_with_version("vab-engine/2"));
        assert_eq!(s.id().len(), 16);
    }

    #[test]
    fn numeric_seed_spelling_folds_to_the_same_address() {
        let s = spec();
        let mut j = s.to_json();
        if let Json::Obj(fields) = &mut j {
            for (k, v) in fields.iter_mut() {
                if k == "seed" {
                    *v = Json::Num(2023.0);
                }
            }
        }
        let parsed = BankSpec::from_json(&j).unwrap();
        assert_eq!(parsed.digest(), s.digest());
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut bad = spec();
        bad.range_m = -1.0;
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.n_snapshots = 0;
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.n_snapshots = 3;
        bad.span_s = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.fs = f64::NAN;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn ocean_spec_names_the_canonical_geometry() {
        let s = BankSpec { water: WaterSpec::Ocean { sea_state: 1 }, ..spec() };
        assert_eq!(s.reader_pos().z, 5.0);
        assert_eq!(s.node_pos().z, 6.0);
        assert_eq!(s.node_pos().x, s.range_m);
    }
}
