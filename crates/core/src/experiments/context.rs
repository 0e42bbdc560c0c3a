//! Shared state for experiment runs: scale/seed/config in one place and
//! a lazy, seed-keyed memo cache for the expensive objects (scenarios,
//! routable RFC draws, up/down routing tables).
//!
//! Experiments share scenarios and routing tables — fig8, fig12 and the
//! ablations all use the equal-resources construction. The context
//! builds each object **once per (kind, scale, seed)** and hands out
//! shared references; a second experiment requesting the same scenario
//! is a cache hit (observable through [`CacheStats`], asserted in
//! tests).
//!
//! Determinism: cached construction draws its randomness from a
//! dedicated RNG stream derived from the run seed and a stable stream
//! name ([`ExperimentContext::rng_for`]), never from a shared sequential
//! RNG. Construction order therefore cannot leak between experiments —
//! fig8 builds the identical network whether or not fig12 ran first,
//! and a cache hit returns the byte-identical object a rebuild would
//! have produced.

use std::collections::BTreeMap;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rfc_routing::UpDownRouting;
use rfc_sim::SimConfig;
use rfc_topology::{FoldedClos, TopologyError};

use crate::report::ReportError;
use crate::scenarios::{self, PreparedScenario, Scale};

/// An experiment failure, reported per experiment by the runner (one
/// failing experiment does not abort a `repro` run).
#[derive(Debug)]
pub enum ExperimentError {
    /// Topology or scenario construction failed.
    Topology(TopologyError),
    /// A report row did not match its header (driver bug).
    Report(ReportError),
    /// Artifact or manifest I/O failed.
    Io(String),
    /// Invalid experiment parameters for the requested scale.
    Config(String),
    /// A name passed to `--only` is not registered.
    UnknownExperiment(String),
    /// The experiment panicked (caught at the runner boundary).
    Panicked(String),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Topology(e) => write!(f, "topology construction failed: {e}"),
            ExperimentError::Report(e) => write!(f, "report assembly failed: {e}"),
            ExperimentError::Io(e) => write!(f, "artifact I/O failed: {e}"),
            ExperimentError::Config(e) => write!(f, "invalid experiment configuration: {e}"),
            ExperimentError::UnknownExperiment(name) => {
                write!(f, "unknown experiment `{name}` (see `rfcgen repro --list`)")
            }
            ExperimentError::Panicked(e) => write!(f, "experiment panicked: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<TopologyError> for ExperimentError {
    fn from(e: TopologyError) -> Self {
        ExperimentError::Topology(e)
    }
}

impl From<ReportError> for ExperimentError {
    fn from(e: ReportError) -> Self {
        ExperimentError::Report(e)
    }
}

impl From<std::io::Error> for ExperimentError {
    fn from(e: std::io::Error) -> Self {
        ExperimentError::Io(e.to_string())
    }
}

/// The three Section 6 simulation scenarios, as cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScenarioKind {
    /// Scenario 1 (11K class): CFT vs RFC at equal resources.
    EqualResources,
    /// Scenario 2 (100K class): 3-level RFC vs partially populated
    /// 4-level CFT.
    IntermediateExpansion,
    /// Scenario 3 (200K class): threshold-maximum RFC vs 4-level CFT.
    MaximumExpansion,
}

impl ScenarioKind {
    /// Stable name: RNG stream label and display string.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::EqualResources => "equal-resources",
            ScenarioKind::IntermediateExpansion => "intermediate-expansion",
            ScenarioKind::MaximumExpansion => "maximum-expansion",
        }
    }
}

/// Cache traffic counters, exposed so tests can assert that shared
/// objects are built exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Scenarios constructed (routing tables included).
    pub scenario_builds: usize,
    /// Scenario requests served from the cache.
    pub scenario_hits: usize,
    /// Routable RFC draws constructed (routing tables included).
    pub rfc_builds: usize,
    /// RFC requests served from the cache.
    pub rfc_hits: usize,
}

/// FNV-1a 64-bit hash (stable across platforms and runs; used for RNG
/// stream derivation and artifact fingerprints).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Shared state threaded through every [`super::Experiment::run`]:
/// the run parameters plus the memo cache.
#[derive(Debug)]
pub struct ExperimentContext {
    scale: Scale,
    seed: u64,
    sim: SimConfig,
    trials: Option<usize>,
    scenarios: BTreeMap<ScenarioKind, Rc<PreparedScenario>>,
    rfcs: BTreeMap<(usize, usize, usize), Rc<(FoldedClos, UpDownRouting)>>,
    stats: CacheStats,
}

impl ExperimentContext {
    /// Creates a context with an empty cache.
    pub fn new(scale: Scale, seed: u64, sim: SimConfig) -> Self {
        Self {
            scale,
            seed,
            sim,
            trials: None,
            scenarios: BTreeMap::new(),
            rfcs: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// The run's experiment scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The run's base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The run's simulator configuration.
    pub fn sim_config(&self) -> SimConfig {
        self.sim
    }

    /// Overrides the Monte-Carlo trial count for every experiment
    /// (`rfcgen repro --trials`).
    pub fn set_trials(&mut self, trials: Option<usize>) {
        self.trials = trials;
    }

    /// The trial-count override, if any.
    pub fn trials(&self) -> Option<usize> {
        self.trials
    }

    /// The effective trial count given an experiment's own default.
    pub fn trials_or(&self, default: usize) -> usize {
        self.trials.unwrap_or(default)
    }

    /// A deterministic RNG for the named stream: seeded from
    /// `(run seed, fnv64(stream))` via the same SplitMix64 mix the
    /// worker pool uses, so streams are independent of each other and
    /// of the order experiments run in.
    pub fn rng_for(&self, stream: &str) -> StdRng {
        StdRng::seed_from_u64(crate::parallel::child_seed(
            self.seed,
            fnv64(stream.as_bytes()),
        ))
    }

    /// The scenario (networks + routing tables) for `kind`, built on
    /// first use and shared afterwards.
    ///
    /// # Errors
    ///
    /// Propagates scenario construction failures.
    pub fn scenario(
        &mut self,
        kind: ScenarioKind,
    ) -> Result<Rc<PreparedScenario>, ExperimentError> {
        if let Some(hit) = self.scenarios.get(&kind) {
            self.stats.scenario_hits += 1;
            return Ok(Rc::clone(hit));
        }
        let mut rng = self.rng_for(kind.name());
        let scenario = match kind {
            ScenarioKind::EqualResources => scenarios::equal_resources(self.scale, &mut rng)?,
            ScenarioKind::IntermediateExpansion => {
                scenarios::intermediate_expansion(self.scale, &mut rng)?
            }
            ScenarioKind::MaximumExpansion => scenarios::maximum_expansion(self.scale, &mut rng)?,
        };
        let prepared = Rc::new(PreparedScenario::prepare(scenario));
        self.stats.scenario_builds += 1;
        self.scenarios.insert(kind, Rc::clone(&prepared));
        Ok(prepared)
    }

    /// A routable RFC at `(radix, n1, levels)` with its routing table,
    /// drawn via [`scenarios::rfc_with_updown`] on first use and shared
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Propagates construction failures (including "no routable draw").
    pub fn rfc_with_routing(
        &mut self,
        radix: usize,
        n1: usize,
        levels: usize,
    ) -> Result<Rc<(FoldedClos, UpDownRouting)>, ExperimentError> {
        let key = (radix, n1, levels);
        if let Some(hit) = self.rfcs.get(&key) {
            self.stats.rfc_hits += 1;
            return Ok(Rc::clone(hit));
        }
        let mut rng = self.rng_for(&format!("rfc-{radix}-{n1}-{levels}"));
        let clos = scenarios::rfc_with_updown(radix, n1, levels, 50, &mut rng)?;
        let routing = UpDownRouting::new(&clos);
        let entry = Rc::new((clos, routing));
        self.stats.rfc_builds += 1;
        self.rfcs.insert(key, Rc::clone(&entry));
        Ok(entry)
    }

    /// Cache counters (builds vs hits).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ctx() -> ExperimentContext {
        ExperimentContext::new(Scale::Small, 2017, SimConfig::quick())
    }

    #[test]
    fn scenario_is_built_once_and_shared() {
        let mut ctx = small_ctx();
        let a = ctx.scenario(ScenarioKind::EqualResources).unwrap();
        let b = ctx.scenario(ScenarioKind::EqualResources).unwrap();
        assert!(Rc::ptr_eq(&a, &b), "second request must hit the cache");
        assert_eq!(ctx.stats().scenario_builds, 1);
        assert_eq!(ctx.stats().scenario_hits, 1);
    }

    #[test]
    fn scenario_construction_is_order_independent() {
        let mut first = small_ctx();
        let eq_alone = first.scenario(ScenarioKind::EqualResources).unwrap();

        let mut second = small_ctx();
        let _ = second
            .scenario(ScenarioKind::IntermediateExpansion)
            .unwrap();
        let eq_after = second.scenario(ScenarioKind::EqualResources).unwrap();

        assert_eq!(
            eq_alone.scenario.nets[1].clos.links(),
            eq_after.scenario.nets[1].clos.links(),
            "an earlier build of another scenario must not perturb the draw"
        );
    }

    #[test]
    fn rfc_cache_hits_and_respects_keys() {
        let mut ctx = small_ctx();
        let a = ctx.rfc_with_routing(8, 32, 3).unwrap();
        let b = ctx.rfc_with_routing(8, 32, 3).unwrap();
        assert!(Rc::ptr_eq(&a, &b));
        let c = ctx.rfc_with_routing(8, 16, 2).unwrap();
        assert!(!Rc::ptr_eq(&a, &c));
        assert_eq!(ctx.stats().rfc_builds, 2);
        assert_eq!(ctx.stats().rfc_hits, 1);
        assert!(a.1.has_updown_property());
    }

    #[test]
    fn rng_streams_are_stable_and_distinct() {
        let ctx = small_ctx();
        use rand::Rng as _;
        let a: u64 = ctx.rng_for("stream-a").gen();
        let a2: u64 = ctx.rng_for("stream-a").gen();
        let b: u64 = ctx.rng_for("stream-b").gen();
        assert_eq!(a, a2, "same stream, same draw");
        assert_ne!(a, b, "distinct streams must not collide");
    }

    #[test]
    fn trials_override() {
        let mut ctx = small_ctx();
        assert_eq!(ctx.trials_or(30), 30);
        ctx.set_trials(Some(3));
        assert_eq!(ctx.trials_or(30), 3);
        assert_eq!(ctx.trials(), Some(3));
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
