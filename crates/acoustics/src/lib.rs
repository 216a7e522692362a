//! # vab-acoustics — underwater acoustic channel substrate
//!
//! Physics models for the environments VAB was evaluated in (a river and the
//! coastal ocean): sound speed, frequency-dependent absorption, spreading
//! loss, ambient noise, boundary reflections, an image-method multipath
//! impulse response, and sea-state-driven time variation.
//!
//! All levels follow underwater-acoustics conventions: pressure levels in
//! dB re 1 µPa, noise spectral densities in dB re 1 µPa²/Hz, transmission
//! loss referenced to 1 m.
//!
//! References (standard textbook forms):
//! * Mackenzie (1981) nine-term sound-speed equation.
//! * Thorp (1967) and Francois & Garrison (1982) absorption.
//! * Wenz (1962) ambient-noise curves, Coates' parametric form.
//! * Image method for the shallow-water waveguide (Jensen et al.,
//!   *Computational Ocean Acoustics*).

pub mod absorption;
pub mod boundary;
pub mod channel;
pub mod environment;
pub mod geometry;
pub mod impulsive;
pub mod noise;
pub mod soundspeed;
pub mod spreading;

pub use channel::{Arrival, ChannelModel, ImpulseResponse, SurfaceMod};
pub use environment::{Environment, SeaState, WaterKind};
pub use geometry::Position;
pub use impulsive::ImpulsiveNoise;
