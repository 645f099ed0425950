//! The composite channel model: deterministic specular paths + diffuse
//! multipath + large-scale loss + optional NLOS obstruction.
//!
//! Implements the paper's CIR model (Eq. 1)
//! `h(t) = Σ_k α_k δ(t − τ_k) + ν(t)`:
//! the deterministic components come from [`crate::raytrace`] with
//! amplitudes from [`crate::pathloss`] and wall reflectivities, and the
//! diffuse term ν(t) is a decaying random tail. Every arrival carries the
//! transmit [`PulseShape`], so a receiver-side CIR renders each α_k δ(t−τ_k)
//! as a band-limited pulse — exactly what the DW1000 accumulator shows.

use crate::geometry::{Point2, Room};
use crate::pathloss::PathLoss;
use crate::random;
use crate::raytrace::{trace_paths, PropagationPath};
use rand::Rng;
use uwb_dsp::Complex64;
use uwb_radio::{PulseShape, SPEED_OF_LIGHT};

/// One signal arrival at the receiver: a delayed, scaled copy of the
/// transmitted pulse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Absolute propagation delay in seconds.
    pub delay_s: f64,
    /// Complex amplitude (path gain and carrier phase).
    pub amplitude: Complex64,
    /// The transmitted pulse shape this arrival carries.
    pub pulse: PulseShape,
}

impl Arrival {
    /// Path length corresponding to the delay, in meters.
    pub fn path_length_m(&self) -> f64 {
        self.delay_s * SPEED_OF_LIGHT
    }
}

/// Diffuse (non-deterministic) multipath configuration: the ν(t) term of
/// Eq. 1 — higher-order reflections and scattering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffuseConfig {
    /// Number of random scatter arrivals to generate.
    pub count: usize,
    /// Power of the strongest diffuse component relative to the direct
    /// path, in dB (negative; e.g. −12 dB).
    pub onset_power_db: f64,
    /// Exponential power decay constant of the tail, in nanoseconds.
    pub decay_ns: f64,
    /// Maximum excess delay of scatter arrivals after the LOS, in
    /// nanoseconds.
    pub max_excess_ns: f64,
}

impl Default for DiffuseConfig {
    /// A moderate indoor tail: 30 scatterers, onset 12 dB below the direct
    /// path, 20 ns decay constant — representative of office environments.
    fn default() -> Self {
        Self {
            count: 30,
            onset_power_db: -12.0,
            decay_ns: 20.0,
            max_excess_ns: 120.0,
        }
    }
}

/// Non-line-of-sight obstruction of the direct path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NlosConfig {
    /// Extra attenuation of the direct path, in dB (positive).
    pub extra_loss_db: f64,
    /// Excess delay of the direct path from propagation through the
    /// obstacle, in nanoseconds.
    pub excess_delay_ns: f64,
}

/// Full channel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// Large-scale path loss model.
    pub path_loss: PathLoss,
    /// Specular reflection order to trace (0–2) when a room is present.
    pub max_reflection_order: u8,
    /// Diffuse multipath tail, if any.
    pub diffuse: Option<DiffuseConfig>,
    /// NLOS obstruction of the direct path, if any.
    pub nlos: Option<NlosConfig>,
    /// Per-packet amplitude jitter (dB std) applied to every arrival —
    /// models the "highly varying" CIR amplitudes of low-cost transceivers
    /// the paper calls out (Sect. I, challenge IV).
    pub amplitude_jitter_db: f64,
}

impl ChannelConfig {
    /// Obstructs the direct path: `extra_loss_db` of attenuation plus
    /// `excess_delay_ns` of through-obstacle propagation delay.
    #[must_use]
    pub fn with_nlos(mut self, extra_loss_db: f64, excess_delay_ns: f64) -> Self {
        self.nlos = Some(NlosConfig {
            extra_loss_db,
            excess_delay_ns,
        });
        self
    }

    /// Sets the per-packet amplitude jitter (dB standard deviation).
    #[must_use]
    pub fn with_amplitude_jitter_db(mut self, db: f64) -> Self {
        self.amplitude_jitter_db = db;
        self
    }

    /// Sets the specular reflection order traced when a room is present.
    #[must_use]
    pub fn with_max_reflection_order(mut self, order: u8) -> Self {
        self.max_reflection_order = order;
        self
    }
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self {
            path_loss: PathLoss::default(),
            max_reflection_order: 1,
            diffuse: Some(DiffuseConfig::default()),
            nlos: None,
            amplitude_jitter_db: 1.0,
        }
    }
}

/// A propagation environment: an optional room plus a channel
/// configuration.
///
/// # Examples
///
/// ```
/// use uwb_channel::{ChannelModel, Point2};
/// use uwb_radio::{PulseShape, RadioConfig};
/// use rand::SeedableRng;
///
/// let model = ChannelModel::free_space();
/// let pulse = PulseShape::from_config(&RadioConfig::default());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let arrivals = model.propagate(
///     Point2::new(0.0, 0.0), Point2::new(3.0, 0.0), pulse, 0.0462, &mut rng);
/// assert_eq!(arrivals.len(), 1); // free space: LOS only
/// let tof = arrivals[0].delay_s;
/// assert!((tof * 299_792_458.0 - 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct ChannelModel {
    room: Option<Room>,
    config: ChannelConfig,
}

impl ChannelModel {
    /// Pure free-space propagation: LOS only, no multipath, no noise
    /// sources — the baseline for sanity checks.
    pub fn free_space() -> Self {
        Self {
            room: None,
            config: ChannelConfig {
                path_loss: PathLoss::Friis,
                max_reflection_order: 0,
                diffuse: None,
                nlos: None,
                amplitude_jitter_db: 0.0,
            },
        }
    }

    /// Propagation inside a room with the default indoor configuration.
    pub fn in_room(room: Room) -> Self {
        Self {
            room: Some(room),
            config: ChannelConfig::default(),
        }
    }

    /// Builds a model from explicit parts.
    pub fn with_config(room: Option<Room>, config: ChannelConfig) -> Self {
        Self { room, config }
    }

    /// The channel configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// The room, if any.
    pub fn room(&self) -> Option<&Room> {
        self.room.as_ref()
    }

    /// Propagates a transmission from `tx` to `rx`, returning all arrivals
    /// sorted by delay. `wavelength_m` is the carrier wavelength used for
    /// path loss and phase.
    pub fn propagate<R: Rng + ?Sized>(
        &self,
        tx: Point2,
        rx: Point2,
        pulse: PulseShape,
        wavelength_m: f64,
        rng: &mut R,
    ) -> Vec<Arrival> {
        let paths: Vec<PropagationPath> = match (&self.room, self.config.max_reflection_order) {
            (Some(room), order) if order > 0 => trace_paths(room, tx, rx, order),
            (Some(room), _) => trace_paths(room, tx, rx, 0),
            (None, _) => vec![PropagationPath {
                length_m: tx.distance_to(rx),
                reflection_gain: 1.0,
                order: 0,
                bounce_points: Vec::new(),
            }],
        };

        let mut arrivals: Vec<Arrival> = Vec::with_capacity(paths.len());
        let mut los_amplitude = 0.0_f64;
        let mut los_delay = 0.0_f64;
        for path in &paths {
            let mut length = path.length_m;
            let mut gain =
                self.config.path_loss.amplitude_gain(length, wavelength_m) * path.reflection_gain;
            if path.order == 0 {
                if let Some(nlos) = self.config.nlos {
                    gain *= 10f64.powf(-nlos.extra_loss_db / 20.0);
                    length += nlos.excess_delay_ns * 1e-9 * SPEED_OF_LIGHT;
                }
            }
            gain *= random::db_jitter(rng, self.config.amplitude_jitter_db);
            let delay = length / SPEED_OF_LIGHT;
            let phase = -2.0 * std::f64::consts::PI * length / wavelength_m;
            if path.order == 0 {
                los_amplitude = gain;
                los_delay = delay;
            }
            arrivals.push(Arrival {
                delay_s: delay,
                amplitude: Complex64::from_polar(gain, phase),
                pulse,
            });
        }

        if let Some(diffuse) = self.config.diffuse {
            let onset_amp = los_amplitude * 10f64.powf(diffuse.onset_power_db / 20.0);
            for _ in 0..diffuse.count {
                let excess_ns = rng.random::<f64>() * diffuse.max_excess_ns;
                let sigma = onset_amp * (-excess_ns / (2.0 * diffuse.decay_ns)).exp();
                let amp = random::rayleigh(rng, sigma / std::f64::consts::FRAC_PI_2.sqrt());
                let phase = random::uniform_phase(rng);
                arrivals.push(Arrival {
                    delay_s: los_delay + excess_ns * 1e-9,
                    amplitude: Complex64::from_polar(amp, phase),
                    pulse,
                });
            }
        }

        arrivals.sort_by(|a, b| a.delay_s.partial_cmp(&b.delay_s).unwrap());
        arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uwb_radio::RadioConfig;

    const LAMBDA: f64 = 0.0462;

    fn pulse() -> PulseShape {
        PulseShape::from_config(&RadioConfig::default())
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn free_space_single_arrival_with_friis_gain() {
        let model = ChannelModel::free_space();
        let arr = model.propagate(
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            pulse(),
            LAMBDA,
            &mut rng(),
        );
        assert_eq!(arr.len(), 1);
        let expected = PathLoss::Friis.amplitude_gain(10.0, LAMBDA);
        assert!((arr[0].amplitude.abs() - expected).abs() < 1e-12);
        assert!((arr[0].path_length_m() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn room_adds_multipath_after_los() {
        let model = ChannelModel::in_room(Room::rectangular(20.0, 6.0, 0.7));
        let arr = model.propagate(
            Point2::new(2.0, 3.0),
            Point2::new(8.0, 3.0),
            pulse(),
            LAMBDA,
            &mut rng(),
        );
        assert!(arr.len() > 4, "expected LOS + reflections + diffuse");
        // Arrivals sorted; first is LOS.
        for pair in arr.windows(2) {
            assert!(pair[0].delay_s <= pair[1].delay_s);
        }
        assert!((arr[0].path_length_m() - 6.0).abs() < 0.01);
    }

    #[test]
    fn reflections_are_weaker_than_los_without_jitter() {
        let config = ChannelConfig {
            amplitude_jitter_db: 0.0,
            diffuse: None,
            ..ChannelConfig::default()
        };
        let model = ChannelModel::with_config(Some(Room::rectangular(20.0, 6.0, 0.7)), config);
        let arr = model.propagate(
            Point2::new(2.0, 3.0),
            Point2::new(8.0, 3.0),
            pulse(),
            LAMBDA,
            &mut rng(),
        );
        let los = arr[0].amplitude.abs();
        for mpc in &arr[1..] {
            assert!(mpc.amplitude.abs() < los);
        }
    }

    #[test]
    fn nlos_attenuates_and_delays_direct_path_only() {
        let config = ChannelConfig {
            amplitude_jitter_db: 0.0,
            diffuse: None,
            max_reflection_order: 1,
            ..ChannelConfig::default()
        };
        let room = Room::rectangular(20.0, 6.0, 0.7);

        let clear = ChannelModel::with_config(Some(room.clone()), config);
        let mut blocked_cfg = config;
        blocked_cfg.nlos = Some(NlosConfig {
            extra_loss_db: 20.0,
            excess_delay_ns: 1.0,
        });
        let blocked = ChannelModel::with_config(Some(room), blocked_cfg);

        let tx = Point2::new(2.0, 3.0);
        let rx = Point2::new(8.0, 3.0);
        let a_clear = clear.propagate(tx, rx, pulse(), LAMBDA, &mut rng());
        let a_blocked = blocked.propagate(tx, rx, pulse(), LAMBDA, &mut rng());

        // Direct path: 20 dB weaker, ~0.3 m longer.
        let ratio = a_clear[0].amplitude.abs() / a_blocked[0].amplitude.abs();
        assert!((20.0 * ratio.log10() - 20.0).abs() < 1e-9);
        assert!(a_blocked[0].delay_s > a_clear[0].delay_s);
        // Reflections unchanged (same count, same delays).
        assert_eq!(a_clear.len(), a_blocked.len());
        // With strong NLOS loss, an MPC can exceed the direct path — the
        // situation the paper's Sect. VII warns about.
        let strongest_mpc = a_blocked[1..]
            .iter()
            .map(|a| a.amplitude.abs())
            .fold(0.0, f64::max);
        assert!(strongest_mpc > a_blocked[0].amplitude.abs());
    }

    #[test]
    fn diffuse_tail_arrives_after_los_and_decays() {
        let mut config = ChannelConfig {
            max_reflection_order: 0,
            amplitude_jitter_db: 0.0,
            ..ChannelConfig::default()
        };
        config.diffuse = Some(DiffuseConfig {
            count: 200,
            onset_power_db: -10.0,
            decay_ns: 15.0,
            max_excess_ns: 90.0,
        });
        let model = ChannelModel::with_config(Some(Room::rectangular(20.0, 6.0, 0.7)), config);
        let arr = model.propagate(
            Point2::new(2.0, 3.0),
            Point2::new(8.0, 3.0),
            pulse(),
            LAMBDA,
            &mut rng(),
        );
        let los_delay = arr[0].delay_s;
        let diffuse: Vec<&Arrival> = arr.iter().skip(1).collect();
        assert_eq!(diffuse.len(), 200);
        for d in &diffuse {
            assert!(d.delay_s >= los_delay);
            assert!(d.delay_s <= los_delay + 91e-9);
        }
        // Early tail carries more mean power than the late tail.
        let split = los_delay + 45e-9;
        let early: Vec<f64> = diffuse
            .iter()
            .filter(|d| d.delay_s < split)
            .map(|d| d.amplitude.norm_sqr())
            .collect();
        let late: Vec<f64> = diffuse
            .iter()
            .filter(|d| d.delay_s >= split)
            .map(|d| d.amplitude.norm_sqr())
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(mean(&early) > mean(&late));
    }

    #[test]
    fn amplitude_jitter_varies_between_packets() {
        let config = ChannelConfig {
            diffuse: None,
            max_reflection_order: 0,
            amplitude_jitter_db: 3.0,
            ..ChannelConfig::default()
        };
        let model = ChannelModel::with_config(None, config);
        let mut r = rng();
        let a1 = model.propagate(
            Point2::new(0.0, 0.0),
            Point2::new(5.0, 0.0),
            pulse(),
            LAMBDA,
            &mut r,
        );
        let a2 = model.propagate(
            Point2::new(0.0, 0.0),
            Point2::new(5.0, 0.0),
            pulse(),
            LAMBDA,
            &mut r,
        );
        assert!((a1[0].amplitude.abs() - a2[0].amplitude.abs()).abs() > 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let model = ChannelModel::in_room(Room::rectangular(10.0, 5.0, 0.6));
        let run = |seed: u64| {
            let mut r = StdRng::seed_from_u64(seed);
            model.propagate(
                Point2::new(1.0, 1.0),
                Point2::new(7.0, 3.0),
                pulse(),
                LAMBDA,
                &mut r,
            )
        };
        assert_eq!(run(99), run(99));
    }
}
