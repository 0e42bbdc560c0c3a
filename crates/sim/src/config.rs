//! Simulation parameters (the paper's Table 2).

/// How a head packet picks among its equal-cost next hops
/// (Table 2's "request mode").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum RequestMode {
    /// One uniformly random candidate per cycle — the paper's
    /// "up/down random" (re-randomized while blocked, giving mild
    /// adaptivity).
    #[default]
    UpDownRandom,
    /// A deterministic hash of (switch, destination) — models static
    /// ECMP hashing; an ablation knob, not the paper's configuration.
    UpDownHash,
}

/// Simulator configuration.
///
/// [`SimConfig::paper_defaults`] reproduces Table 2 of the paper; fields
/// are public so experiments and the CLI can vary them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Virtual channels per input port (Table 2: 4).
    pub virtual_channels: usize,
    /// Buffer capacity per virtual channel, in packets (Table 2: 4).
    pub buffer_packets: usize,
    /// Packet length in phits (Table 2: 16).
    pub packet_length: u64,
    /// Link traversal latency in cycles (Table 2: 1).
    pub link_latency: u64,
    /// Extra router pipeline cycles added per hop (header processing
    /// beyond the single arbitration cycle). Default 0 — the minimal
    /// Table 2 model; INSEE-class routers spend several cycles per hop,
    /// which is what makes the RFC's fewer levels worth the paper's
    /// 15–20% mean latency. Raise this to study that effect.
    pub router_latency: u64,
    /// Cycles simulated before statistics collection starts.
    pub warmup_cycles: u64,
    /// Cycles over which statistics are collected (Table 2: 10,000).
    pub measure_cycles: u64,
    /// Latency samples kept for percentile estimation; deliveries beyond
    /// this count are reservoir-sampled so memory stays bounded no
    /// matter how long the measurement window is.
    pub latency_reservoir: usize,
    /// Next-hop selection policy (Table 2: "up/down random").
    pub request_mode: RequestMode,
    /// Valiant randomization: route every packet through a uniformly
    /// random intermediate leaf before heading to its destination.
    /// **Extension, off by default** — the paper argues RFCs do *not*
    /// need this (unlike dragonflies); this knob lets the claim be
    /// tested: Valiant halves the bandwidth headroom while smoothing
    /// adversarial patterns.
    ///
    /// Two chained up/down phases reintroduce a down→up channel
    /// dependency at the intermediate leaf, so the engine partitions the
    /// virtual channels by phase (first half to the intermediate, second
    /// half to the destination) — the standard deadlock-avoidance for
    /// Valiant on trees. Requires at least 2 virtual channels.
    pub valiant_routing: bool,
}

impl SimConfig {
    /// The configuration of the paper's Table 2 (warmup chosen as half the
    /// measurement window; the paper states "preceded by a network warmup"
    /// without a number).
    pub fn paper_defaults() -> Self {
        Self {
            virtual_channels: 4,
            buffer_packets: 4,
            packet_length: 16,
            link_latency: 1,
            router_latency: 0,
            warmup_cycles: 5_000,
            measure_cycles: 10_000,
            latency_reservoir: 200_000,
            request_mode: RequestMode::UpDownRandom,
            valiant_routing: false,
        }
    }

    /// A miniature configuration for fast tests: 1,000 measured cycles
    /// after a 300-cycle warmup, same flow-control parameters.
    pub fn quick() -> Self {
        Self {
            warmup_cycles: 300,
            measure_cycles: 1_000,
            ..Self::paper_defaults()
        }
    }

    /// Total simulated cycles.
    pub fn total_cycles(&self) -> u64 {
        self.warmup_cycles + self.measure_cycles
    }

    /// Checks the configuration, naming the first field that is zero
    /// where that makes no sense or that overflows the engine's fixed
    /// structures (u8 VC indices and credit counters, u32 generation
    /// times, the event wheel).
    ///
    /// # Errors
    ///
    /// A message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let checks = [
            (
                self.virtual_channels >= 1,
                "need at least one virtual channel",
            ),
            (self.buffer_packets >= 1, "need at least one buffer slot"),
            (
                self.buffer_packets <= 255,
                "ring offsets and credit counters are u8: at most 255 buffers per VC",
            ),
            (
                self.virtual_channels <= 255,
                "VC indices are u8: at most 255 virtual channels",
            ),
            (self.packet_length >= 1, "packets need at least one phit"),
            (self.measure_cycles >= 1, "nothing to measure"),
            (
                self.warmup_cycles
                    .checked_add(self.measure_cycles)
                    .is_some(),
                "warmup_cycles + measure_cycles overflows u64",
            ),
            (
                self.warmup_cycles
                    .saturating_add(self.measure_cycles)
                    .saturating_add(self.packet_length)
                    <= u64::from(u32::MAX),
                "packets store u32 generation times: warmup_cycles + measure_cycles \
                 + packet_length must not exceed u32::MAX",
            ),
            (
                self.latency_reservoir >= 1,
                "percentiles need at least one latency sample slot",
            ),
            (
                self.link_latency
                    .saturating_add(self.router_latency)
                    .saturating_add(self.packet_length)
                    < crate::engine::EVENT_WHEEL as u64,
                "link + router latency + packet length must fit the event wheel",
            ),
            (
                !self.valiant_routing || self.virtual_channels >= 2,
                "valiant routing needs >= 2 virtual channels for its phase partition",
            ),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            Some((_, msg)) => Err((*msg).to_string()),
            None => Ok(()),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`SimConfig::validate`] message when the
    /// configuration is invalid.
    pub fn assert_valid(&self) {
        let verdict = self.validate();
        assert!(verdict.is_ok(), "{}", verdict.err().unwrap_or_default());
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_2() {
        let c = SimConfig::paper_defaults();
        assert_eq!(c.virtual_channels, 4);
        assert_eq!(c.buffer_packets, 4);
        assert_eq!(c.packet_length, 16);
        assert_eq!(c.link_latency, 1);
        assert_eq!(c.measure_cycles, 10_000);
        assert_eq!(c.request_mode, RequestMode::UpDownRandom);
        assert_eq!(RequestMode::default(), RequestMode::UpDownRandom);
        c.assert_valid();
        assert_eq!(SimConfig::default(), c);
    }

    #[test]
    fn quick_config_is_valid_and_smaller() {
        let c = SimConfig::quick();
        c.assert_valid();
        assert!(c.total_cycles() < SimConfig::paper_defaults().total_cycles());
    }

    #[test]
    fn validate_names_the_violated_constraint() {
        let too_slow = SimConfig {
            router_latency: 60,
            ..SimConfig::paper_defaults()
        };
        assert!(too_slow.validate().unwrap_err().contains("event wheel"));
        let saturating = SimConfig {
            router_latency: u64::MAX,
            ..SimConfig::paper_defaults()
        };
        assert!(saturating.validate().is_err());
        let nothing = SimConfig {
            measure_cycles: 0,
            ..SimConfig::paper_defaults()
        };
        assert_eq!(nothing.validate().unwrap_err(), "nothing to measure");
        let endless = SimConfig {
            warmup_cycles: u64::MAX,
            measure_cycles: 1,
            ..SimConfig::paper_defaults()
        };
        let err = endless.validate().unwrap_err();
        assert!(
            err.contains("warmup_cycles") && err.contains("measure_cycles"),
            "{err}"
        );
        let too_long = SimConfig {
            measure_cycles: u64::from(u32::MAX) - 5_000 - 15,
            ..SimConfig::paper_defaults()
        };
        let err = too_long.validate().unwrap_err();
        assert!(err.contains("u32 generation times"), "{err}");
        let longest = SimConfig {
            measure_cycles: u64::from(u32::MAX) - 5_000 - 16,
            ..SimConfig::paper_defaults()
        };
        assert_eq!(longest.validate(), Ok(()));
        assert_eq!(SimConfig::quick().validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "virtual channel")]
    fn zero_vcs_rejected() {
        let c = SimConfig {
            virtual_channels: 0,
            ..SimConfig::paper_defaults()
        };
        c.assert_valid();
    }
}
