//! Measurement results.

/// Result of one simulation run.
///
/// Loads are normalized phits per compute node per cycle: 1.0 means every
/// node injects (or receives) one phit every cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// The load the traffic generators attempted to inject.
    pub offered_load: f64,
    /// Delivered phits per node per cycle during the measurement window —
    /// the paper's "accepted load".
    pub accepted_load: f64,
    /// Mean packet latency in cycles (generation to tail delivery) over
    /// packets delivered in the measurement window.
    pub avg_latency: f64,
    /// Median packet latency (NaN when nothing was delivered).
    pub latency_p50: f64,
    /// 95th-percentile packet latency.
    pub latency_p95: f64,
    /// 99th-percentile packet latency.
    pub latency_p99: f64,
    /// Packets delivered inside the measurement window.
    pub delivered_packets: u64,
    /// Packets created by the generators inside the measurement window.
    pub generated_packets: u64,
    /// Generation attempts inside the window dropped because the source
    /// injection buffer was full (back-pressure at saturation).
    pub refused_packets: u64,
    /// Packets still queued or in flight when the run ended.
    pub in_flight_at_end: u64,
}

impl SimResult {
    /// Fraction of generation attempts the network absorbed
    /// (`generated / (generated + refused)`), 1.0 when nothing was
    /// refused.
    pub fn acceptance_ratio(&self) -> f64 {
        let attempts = self.generated_packets + self.refused_packets;
        if attempts == 0 {
            1.0
        } else {
            self.generated_packets as f64 / attempts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_ratio_handles_edges() {
        let mut r = SimResult {
            offered_load: 0.5,
            accepted_load: 0.5,
            avg_latency: 20.0,
            latency_p50: 19.0,
            latency_p95: 30.0,
            latency_p99: 35.0,
            delivered_packets: 100,
            generated_packets: 100,
            refused_packets: 0,
            in_flight_at_end: 0,
        };
        assert_eq!(r.acceptance_ratio(), 1.0);
        r.refused_packets = 100;
        assert_eq!(r.acceptance_ratio(), 0.5);
        r.generated_packets = 0;
        r.refused_packets = 0;
        assert_eq!(r.acceptance_ratio(), 1.0);
    }
}
