//! Synthetic datacenter traffic patterns (Section 6 of the paper) and
//! the pluggable [`TrafficModel`] abstraction the engine consumes.

use std::fmt;

use rand::rngs::SmallRng;
use rand::Rng;
use rfc_graph::vid;

/// The synthetic patterns of the paper plus this reproduction's
/// extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TrafficPattern {
    /// Every packet targets a compute node drawn uniformly at random
    /// (excluding the source) — the dominant datacenter load.
    Uniform,
    /// The nodes are split into random pairs at start-up; each node sends
    /// only to its partner (a random permutation built from transpositions).
    RandomPairing,
    /// Each node picks one uniformly random fixed destination at start-up;
    /// several nodes may pick the same target, creating hot spots.
    FixedRandom,
    /// Perfect-shuffle permutation (`dst = rotate-left(src)` over the
    /// terminal id bits, sized to the terminal count): the classic
    /// adversarial pattern for multistage networks. *Extension — not in
    /// the paper's evaluation.*
    Shuffle,
    /// Every node sends to terminal 0: the worst-case incast hot spot.
    /// *Extension — not in the paper's evaluation.*
    AllToOne,
    /// Markov-modulated on/off uniform traffic: terminal groups flip
    /// between an ON regime (uniform non-self destinations) and a silent
    /// OFF regime following a two-state chain sampled per window at
    /// start-up. *Extension — not in the paper's evaluation.*
    Bursty,
    /// Uniform traffic with a fraction of packets redirected to terminal
    /// 0 (a partial incast hot spot). *Extension — not in the paper's
    /// evaluation.*
    Hotspot,
}

impl TrafficPattern {
    /// Short name used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            TrafficPattern::Uniform => "uniform",
            TrafficPattern::RandomPairing => "random-pairing",
            TrafficPattern::FixedRandom => "fixed-random",
            TrafficPattern::Shuffle => "shuffle",
            TrafficPattern::AllToOne => "all-to-one",
            TrafficPattern::Bursty => "bursty",
            TrafficPattern::Hotspot => "hotspot",
        }
    }

    /// The three patterns of the paper's evaluation, in presentation
    /// order (the extensions are not included).
    pub const ALL: [TrafficPattern; 3] = [
        TrafficPattern::Uniform,
        TrafficPattern::RandomPairing,
        TrafficPattern::FixedRandom,
    ];

    /// Every pattern: the paper's three, then the extensions.
    pub const EVERY: [TrafficPattern; 7] = [
        TrafficPattern::Uniform,
        TrafficPattern::RandomPairing,
        TrafficPattern::FixedRandom,
        TrafficPattern::Shuffle,
        TrafficPattern::AllToOne,
        TrafficPattern::Bursty,
        TrafficPattern::Hotspot,
    ];
}

impl fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A destination generator the engine can drive.
///
/// Implementations must be pure functions of `(self, src, now)` and the
/// draws they consume from `rng` — the engine hands every call the
/// *per-switch* injection generator (DESIGN.md §13), so any draws taken
/// here are part of that switch's private sequence and destinations are
/// independent of how switches are partitioned into shards. A model that
/// declines to transmit (returns `None`) **without consuming draws**
/// keeps the remaining sequence aligned, which is how the OFF regime of
/// [`TrafficPattern::Bursty`] stays shard-invariant.
pub trait TrafficModel: fmt::Debug + Send + Sync {
    /// Destination for a packet generated at `src` in cycle `now`, or
    /// `None` if `src` does not transmit.
    fn dest(&self, src: u32, now: u64, rng: &mut SmallRng) -> Option<u32>;
}

/// Uniform destination over `0..terminals` excluding `src`, consuming
/// exactly one draw: draw from the `terminals - 1` non-self values and
/// shift past `src`. Same distribution as the historical rejection loop
/// (`while d == src { redraw }`), but bounded and draw-count stable.
#[inline]
fn uniform_non_self(terminals: u32, src: u32, rng: &mut SmallRng) -> Option<u32> {
    if terminals < 2 {
        return None;
    }
    let d = rng.gen_range(0..terminals - 1);
    Some(if d >= src { d + 1 } else { d })
}

/// Stateless uniform traffic ([`TrafficPattern::Uniform`]).
#[derive(Debug, Clone)]
struct UniformTraffic {
    terminals: u32,
}

impl TrafficModel for UniformTraffic {
    fn dest(&self, src: u32, _now: u64, rng: &mut SmallRng) -> Option<u32> {
        uniform_non_self(self.terminals, src, rng)
    }
}

/// Any pattern with a fixed per-source destination map
/// ([`TrafficPattern::RandomPairing`], [`TrafficPattern::FixedRandom`],
/// [`TrafficPattern::Shuffle`], [`TrafficPattern::AllToOne`]).
#[derive(Debug, Clone)]
struct FixedTraffic {
    dest: Vec<Option<u32>>,
}

impl TrafficModel for FixedTraffic {
    fn dest(&self, src: u32, _now: u64, _rng: &mut SmallRng) -> Option<u32> {
        self.dest[src as usize]
    }
}

/// Terminals per on/off regime group of [`TrafficPattern::Bursty`].
const BURST_GROUP: u32 = 32;
/// Cycles per regime window of [`TrafficPattern::Bursty`].
const BURST_WINDOW: u64 = 32;
/// Per-window probability of an ON group switching OFF (mean ON run:
/// 8 windows = 256 cycles).
const BURST_P_OFF: f64 = 1.0 / 8.0;
/// Per-window probability of an OFF group switching ON (mean OFF run:
/// 24 windows — a 25% duty cycle).
const BURST_P_ON: f64 = 1.0 / 24.0;

/// Markov-modulated bursty traffic ([`TrafficPattern::Bursty`]): each
/// group of [`BURST_GROUP`] consecutive terminals follows a two-state
/// on/off chain over [`BURST_WINDOW`]-cycle windows, precomputed at
/// start-up from the traffic seed (so regime flips are identical at any
/// shard count). ON groups emit uniform non-self destinations; OFF
/// groups are silent without consuming injection draws.
#[derive(Debug, Clone)]
struct BurstyTraffic {
    terminals: u32,
    windows: usize,
    /// Bit `(group * windows + window)`: group is ON in that window.
    on: Vec<u64>,
}

impl BurstyTraffic {
    fn new<R: Rng + ?Sized>(terminals: u32, horizon: u64, rng: &mut R) -> Self {
        let windows = usize::try_from(horizon.div_ceil(BURST_WINDOW))
            .unwrap_or(0)
            .max(1);
        let groups = (terminals.div_ceil(BURST_GROUP)) as usize;
        let bits = groups * windows;
        let mut on = vec![0u64; bits.div_ceil(64)];
        for g in 0..groups {
            let mut state_on = true;
            for w in 0..windows {
                if state_on {
                    let bit = g * windows + w;
                    on[bit / 64] |= 1u64 << (bit % 64);
                    state_on = !rng.gen_bool(BURST_P_OFF);
                } else {
                    state_on = rng.gen_bool(BURST_P_ON);
                }
            }
        }
        BurstyTraffic {
            terminals,
            windows,
            on,
        }
    }

    fn is_on(&self, src: u32, now: u64) -> bool {
        let Ok(w) = usize::try_from(now / BURST_WINDOW) else {
            return false;
        };
        if w >= self.windows {
            return false;
        }
        let bit = (src / BURST_GROUP) as usize * self.windows + w;
        self.on[bit / 64] & (1u64 << (bit % 64)) != 0
    }
}

impl TrafficModel for BurstyTraffic {
    fn dest(&self, src: u32, now: u64, rng: &mut SmallRng) -> Option<u32> {
        if !self.is_on(src, now) {
            return None;
        }
        uniform_non_self(self.terminals, src, rng)
    }
}

/// One in [`HOTSPOT_ONE_IN`] packets targets the hot terminal.
const HOTSPOT_ONE_IN: u32 = 8;
/// The hot terminal of [`TrafficPattern::Hotspot`].
const HOTSPOT_TARGET: u32 = 0;

/// Partial-incast hotspot traffic ([`TrafficPattern::Hotspot`]): each
/// packet goes to [`HOTSPOT_TARGET`] with probability
/// `1 / HOTSPOT_ONE_IN`, otherwise to a uniform non-self destination.
/// The hot terminal itself (and hot draws made *by* it) fall back to
/// uniform.
#[derive(Debug, Clone)]
struct HotspotTraffic {
    terminals: u32,
}

impl TrafficModel for HotspotTraffic {
    fn dest(&self, src: u32, _now: u64, rng: &mut SmallRng) -> Option<u32> {
        if self.terminals < 2 {
            return None;
        }
        if rng.gen_range(0..HOTSPOT_ONE_IN) == 0 && src != HOTSPOT_TARGET {
            return Some(HOTSPOT_TARGET);
        }
        uniform_non_self(self.terminals, src, rng)
    }
}

/// Builds the per-run model for `pattern`. `RandomPairing` draws a
/// random perfect matching (the odd terminal out, if any, stays
/// silent); `FixedRandom` draws one destination per source; `Bursty`
/// precomputes its regime chains over `horizon` cycles. All start-up
/// draws come from `rng` (the run's traffic stream).
pub(crate) fn build<R: Rng + ?Sized>(
    pattern: TrafficPattern,
    terminals: usize,
    horizon: u64,
    rng: &mut R,
) -> Box<dyn TrafficModel> {
    let t32 = vid(terminals);
    match pattern {
        TrafficPattern::Uniform => Box::new(UniformTraffic { terminals: t32 }),
        TrafficPattern::RandomPairing => {
            let mut ids: Vec<u32> = (0..t32).collect();
            // Fisher-Yates, then pair consecutive entries.
            for i in (1..ids.len()).rev() {
                let j = rng.gen_range(0..=i);
                ids.swap(i, j);
            }
            let mut dest = vec![None; terminals];
            for chunk in ids.chunks_exact(2) {
                dest[chunk[0] as usize] = Some(chunk[1]);
                dest[chunk[1] as usize] = Some(chunk[0]);
            }
            Box::new(FixedTraffic { dest })
        }
        TrafficPattern::FixedRandom => {
            let dest = (0..t32)
                .map(|src| {
                    if terminals < 2 {
                        return None;
                    }
                    // One draw from the non-self values, shifted past src.
                    let d = rng.gen_range(0..t32 - 1);
                    Some(if d >= src { d + 1 } else { d })
                })
                .collect();
            Box::new(FixedTraffic { dest })
        }
        TrafficPattern::Shuffle => {
            // Perfect shuffle over ceil(log2(T)) bits; destinations
            // that fall outside 0..T or map to the source stay
            // silent, so the pattern degrades gracefully for
            // non-power-of-two populations.
            let bits = vid(terminals.max(2)).next_power_of_two().trailing_zeros();
            let dest = (0..t32)
                .map(|src| {
                    let rotated = ((src << 1) | (src >> (bits - 1))) & ((1u32 << bits) - 1);
                    (rotated != src && (rotated as usize) < terminals).then_some(rotated)
                })
                .collect();
            Box::new(FixedTraffic { dest })
        }
        TrafficPattern::AllToOne => {
            let dest = (0..t32).map(|src| (src != 0).then_some(0)).collect();
            Box::new(FixedTraffic { dest })
        }
        TrafficPattern::Bursty => Box::new(BurstyTraffic::new(t32, horizon, rng)),
        TrafficPattern::Hotspot => Box::new(HotspotTraffic { terminals: t32 }),
    }
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "BURST_WINDOW is a small cycle count"
)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const HORIZON: u64 = 1024;

    fn model(pattern: TrafficPattern, terminals: usize, seed: u64) -> Box<dyn TrafficModel> {
        let mut rng = SmallRng::seed_from_u64(seed);
        build(pattern, terminals, HORIZON, &mut rng)
    }

    #[test]
    fn uniform_never_targets_self() {
        let t = model(TrafficPattern::Uniform, 8, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let d = t.dest(3, 0, &mut rng).unwrap();
            assert_ne!(d, 3);
            assert!(d < 8);
        }
    }

    #[test]
    fn uniform_covers_all_non_self_destinations() {
        let t = model(TrafficPattern::Uniform, 5, 2);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [0usize; 5];
        for _ in 0..2_000 {
            seen[t.dest(4, 0, &mut rng).unwrap() as usize] += 1;
        }
        assert_eq!(seen[4], 0, "self is excluded");
        for (d, &n) in seen.iter().enumerate().take(4) {
            assert!(n > 300, "destination {d} seen only {n} times");
        }
    }

    #[test]
    fn single_draw_destinations_are_pinned() {
        // Determinism regression: the one-draw shift-past-src scheme maps
        // a fixed generator sequence to these exact destinations. A
        // change here silently reshuffles every simulated run.
        let t = model(TrafficPattern::Uniform, 8, 0);
        let mut rng = SmallRng::seed_from_u64(42);
        let got: Vec<u32> = (0..10).map(|_| t.dest(3, 0, &mut rng).unwrap()).collect();
        assert_eq!(got, vec![6, 2, 7, 5, 6, 5, 0, 5, 1, 7]);
        // FixedRandom start-up draws use the same scheme.
        let f = model(TrafficPattern::FixedRandom, 8, 42);
        let mut any = SmallRng::seed_from_u64(0);
        let fixed: Vec<u32> = (0..8).map(|s| f.dest(s, 0, &mut any).unwrap()).collect();
        assert_eq!(fixed, vec![6, 3, 7, 5, 6, 4, 0, 4]);
    }

    #[test]
    fn pairing_is_an_involution() {
        let t = model(TrafficPattern::RandomPairing, 16, 2);
        let mut rng = SmallRng::seed_from_u64(2);
        for src in 0..16u32 {
            let d = t
                .dest(src, 0, &mut rng)
                .expect("even count: everyone paired");
            assert_ne!(d, src);
            assert_eq!(t.dest(d, 0, &mut rng), Some(src), "partner of partner");
        }
    }

    #[test]
    fn pairing_with_odd_count_leaves_one_silent() {
        let t = model(TrafficPattern::RandomPairing, 7, 3);
        let mut rng = SmallRng::seed_from_u64(3);
        let silent = (0..7u32)
            .filter(|&s| t.dest(s, 0, &mut rng).is_none())
            .count();
        assert_eq!(silent, 1);
    }

    #[test]
    fn fixed_random_is_stable_but_not_a_permutation_in_general() {
        let t = model(TrafficPattern::FixedRandom, 32, 4);
        let mut rng = SmallRng::seed_from_u64(4);
        for src in 0..32u32 {
            let a = t.dest(src, 0, &mut rng).unwrap();
            let b = t.dest(src, 7, &mut rng).unwrap();
            assert_eq!(a, b, "fixed destination");
            assert_ne!(a, src);
        }
    }

    #[test]
    fn single_terminal_patterns_are_silent() {
        let mut rng = SmallRng::seed_from_u64(5);
        for p in [
            TrafficPattern::Uniform,
            TrafficPattern::RandomPairing,
            TrafficPattern::FixedRandom,
            TrafficPattern::Bursty,
            TrafficPattern::Hotspot,
        ] {
            let t = model(p, 1, 5);
            assert_eq!(t.dest(0, 0, &mut rng), None, "{p}");
        }
    }

    #[test]
    fn shuffle_is_the_bit_rotation_on_powers_of_two() {
        let t = model(TrafficPattern::Shuffle, 16, 6);
        let mut rng = SmallRng::seed_from_u64(6);
        // 4 bits: 0b0001 -> 0b0010, 0b1000 -> 0b0001.
        assert_eq!(t.dest(1, 0, &mut rng), Some(2));
        assert_eq!(t.dest(8, 0, &mut rng), Some(1));
        assert_eq!(t.dest(0, 0, &mut rng), None, "fixed point stays silent");
        assert_eq!(t.dest(15, 0, &mut rng), None, "all-ones is a fixed point");
    }

    #[test]
    fn shuffle_handles_non_power_of_two() {
        let t = model(TrafficPattern::Shuffle, 12, 7);
        let mut rng = SmallRng::seed_from_u64(7);
        for src in 0..12u32 {
            if let Some(d) = t.dest(src, 0, &mut rng) {
                assert!(d < 12);
                assert_ne!(d, src);
            }
        }
    }

    #[test]
    fn all_to_one_targets_terminal_zero() {
        let t = model(TrafficPattern::AllToOne, 9, 8);
        let mut rng = SmallRng::seed_from_u64(8);
        assert_eq!(t.dest(0, 0, &mut rng), None);
        for src in 1..9u32 {
            assert_eq!(t.dest(src, 0, &mut rng), Some(0));
        }
    }

    #[test]
    fn bursty_has_both_regimes_and_off_consumes_no_draws() {
        let t = model(TrafficPattern::Bursty, 64, 11);
        let mut on_windows = 0usize;
        let mut off_windows = 0usize;
        for now in (0..HORIZON).step_by(BURST_WINDOW as usize) {
            let mut rng = SmallRng::seed_from_u64(9);
            match t.dest(0, now, &mut rng) {
                Some(d) => {
                    assert_ne!(d, 0);
                    assert!(d < 64);
                    on_windows += 1;
                }
                None => {
                    // No draw consumed: the next draw matches a fresh rng.
                    let mut fresh = SmallRng::seed_from_u64(9);
                    assert_eq!(rng.gen_range(0..1000u32), fresh.gen_range(0..1000u32));
                    off_windows += 1;
                }
            }
        }
        assert!(on_windows > 0, "some ON windows");
        assert!(off_windows > 0, "some OFF windows");
    }

    #[test]
    fn bursty_regime_is_constant_within_a_window_and_per_group() {
        let t = model(TrafficPattern::Bursty, 96, 12);
        let mut rng = SmallRng::seed_from_u64(10);
        for w in 0..8u64 {
            let base = w * BURST_WINDOW;
            let first = t.dest(5, base, &mut rng).is_some();
            for off in 1..BURST_WINDOW {
                assert_eq!(t.dest(5, base + off, &mut rng).is_some(), first);
            }
            // Terminals of the same group share the regime.
            for src in [0u32, 17, 31] {
                assert_eq!(t.dest(src, base, &mut rng).is_some(), first);
            }
        }
    }

    #[test]
    fn hotspot_concentrates_on_terminal_zero() {
        let t = model(TrafficPattern::Hotspot, 64, 13);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut hot = 0usize;
        let trials = 4_000;
        for _ in 0..trials {
            let d = t.dest(9, 0, &mut rng).unwrap();
            assert_ne!(d, 9);
            if d == HOTSPOT_TARGET {
                hot += 1;
            }
        }
        // Expected: 1/8 hot draws plus 1/63 of the uniform remainder.
        let expected = trials as f64 * (1.0 / 8.0 + (7.0 / 8.0) / 63.0);
        assert!(
            (hot as f64) > expected * 0.7 && (hot as f64) < expected * 1.3,
            "hot {hot} vs expected {expected}"
        );
        // The hot terminal itself never self-targets.
        for _ in 0..200 {
            assert_ne!(t.dest(0, 0, &mut rng), Some(0));
        }
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<String> = TrafficPattern::EVERY
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            names,
            [
                "uniform",
                "random-pairing",
                "fixed-random",
                "shuffle",
                "all-to-one",
                "bursty",
                "hotspot"
            ]
        );
        assert_eq!(TrafficPattern::ALL, TrafficPattern::EVERY[..3]);
    }
}
