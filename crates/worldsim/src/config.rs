//! World geometry, epoch length and worker-thread configuration.

use uwb_netsim::SimConfig;
use uwb_obs::envknob::threads_from_named_env;

/// Environment knob selecting the worldsim worker-thread count, the
/// sharded-engine sibling of `UWB_CAMPAIGN_THREADS` — both resolve
/// through the shared [`uwb_obs::envknob::threads_from_named_env`]
/// policy: a positive variable overrides `--threads N` /
/// [`WorldConfig::with_threads`], a malformed variable warns on stderr
/// and is ignored, and `0` everywhere means "use all available
/// parallelism".
pub const WORLDSIM_THREADS_ENV: &str = "UWB_WORLDSIM_THREADS";

/// Default epoch length in seconds (100 µs).
///
/// The barrier interval must be shorter than the smallest protocol
/// scheduling margin so cross-shard transmissions scheduled inside one
/// epoch always fire in a *later* epoch without being deferred: the
/// paper's Δ_RESP is 290 µs and the TX arming margin used by the
/// protocol engines is 200 µs, so 100 µs leaves a ≥2-epoch cushion while
/// still letting the epoch counter fast-forward across idle stretches.
pub const DEFAULT_EPOCH_S: f64 = 100e-6;

/// Configuration of a sharded world simulation.
///
/// Chainable builder surface, mirroring [`SimConfig`]:
///
/// ```
/// use uwb_worldsim::WorldConfig;
///
/// let config = WorldConfig::new(100.0, 40.0, 20.0)
///     .with_seed(7)
///     .with_threads(4)
///     .with_comm_range(30.0);
/// assert_eq!(config.effective_threads(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// World extent along x, in meters.
    pub width_m: f64,
    /// World extent along y, in meters.
    pub height_m: f64,
    /// Spatial cell (= shard) edge length in meters. Each cell owns the
    /// nodes placed inside it; a cell is the unit of parallelism.
    pub cell_m: f64,
    /// Epoch barrier interval in seconds ([`DEFAULT_EPOCH_S`]).
    pub epoch_s: f64,
    /// Radio reach in meters: transmissions are not delivered to nodes
    /// farther than this. `0.0` disables the limit (every TX fans out to
    /// the whole world — correct, but O(N) work per transmission).
    pub comm_range_m: f64,
    /// Physical-layer options shared with the sequential simulator
    /// (timestamp noise, TX quantization, decode limit, fault plan).
    pub sim: SimConfig,
    /// World seed: every random decision derives from it per use-site.
    pub seed: u64,
    /// Worker threads for the parallel shard phase; `0` defers to
    /// [`WORLDSIM_THREADS_ENV`], then to available parallelism.
    pub threads: usize,
}

impl WorldConfig {
    /// A world of the given extent partitioned into `cell_m` cells, with
    /// default physics, seed 0 and automatic thread selection.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is non-finite or non-positive.
    #[must_use]
    pub fn new(width_m: f64, height_m: f64, cell_m: f64) -> Self {
        assert!(
            width_m.is_finite() && width_m > 0.0,
            "invalid world width {width_m}"
        );
        assert!(
            height_m.is_finite() && height_m > 0.0,
            "invalid world height {height_m}"
        );
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "invalid cell size {cell_m}"
        );
        Self {
            width_m,
            height_m,
            cell_m,
            epoch_s: DEFAULT_EPOCH_S,
            comm_range_m: 0.0,
            sim: SimConfig::default(),
            seed: 0,
            threads: 0,
        }
    }

    /// Sets the world seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the epoch barrier interval.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or non-positive intervals.
    #[must_use]
    pub fn with_epoch(mut self, epoch_s: f64) -> Self {
        assert!(
            epoch_s.is_finite() && epoch_s > 0.0,
            "invalid epoch {epoch_s}"
        );
        self.epoch_s = epoch_s;
        self
    }

    /// Sets the radio reach (`0.0` = unlimited).
    #[must_use]
    pub fn with_comm_range(mut self, range_m: f64) -> Self {
        self.comm_range_m = range_m.max(0.0);
        self
    }

    /// Installs physical-layer options.
    #[must_use]
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Pins the worker-thread count (`0` restores automatic selection).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker-thread count after resolving `0` through
    /// [`WORLDSIM_THREADS_ENV`] and available parallelism. Thread count
    /// never changes results — only wall-clock time.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        threads_from_named_env(WORLDSIM_THREADS_ENV, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_threads_win() {
        assert_eq!(WorldConfig::new(10.0, 10.0, 5.0).with_threads(3).threads, 3);
        assert_eq!(
            WorldConfig::new(10.0, 10.0, 5.0)
                .with_threads(3)
                .effective_threads(),
            3
        );
    }

    #[test]
    fn auto_threads_resolve_positive() {
        assert!(WorldConfig::new(10.0, 10.0, 5.0).effective_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "invalid cell size")]
    fn zero_cell_rejected() {
        let _ = WorldConfig::new(10.0, 10.0, 0.0);
    }
}
