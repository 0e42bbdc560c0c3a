//! Random regular networks — the Jellyfish direct-topology baseline.

use std::fmt;

use rand::Rng;

use rfc_graph::random::random_regular;
use rfc_graph::{vid, Csr};

use crate::TopologyError;

/// A random regular network (RRN): the Jellyfish baseline.
///
/// `n` top-of-rack switches form a uniformly random simple
/// `degree`-regular graph (the paper's Listing 1 / Steger–Wormald); each
/// switch additionally hosts `hosts_per_switch` compute nodes, so the
/// hardware radix is `degree + hosts_per_switch`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rfc_topology::Rrn;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(16);
/// // The paper's Figure 3: 16 routers of degree 4, 2 compute nodes each.
/// let net = Rrn::new(16, 4, 2, &mut rng)?;
/// assert_eq!(net.num_terminals(), 32);
/// assert_eq!(net.max_radix(), 6);
/// # Ok::<(), rfc_topology::TopologyError>(())
/// ```
#[derive(Clone)]
pub struct Rrn {
    adj: Vec<Vec<u32>>,
    degree: usize,
    hosts_per_switch: usize,
}

impl fmt::Debug for Rrn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rrn")
            .field("switches", &self.adj.len())
            .field("degree", &self.degree)
            .field("hosts_per_switch", &self.hosts_per_switch)
            .finish()
    }
}

impl Rrn {
    /// Generates a random `degree`-regular network on `n` switches with
    /// `hosts_per_switch` compute nodes each.
    ///
    /// # Errors
    ///
    /// Propagates [`TopologyError::Generation`] from the random regular
    /// graph generator (odd `n * degree`, `degree >= n`, …).
    pub fn new<R: Rng + ?Sized>(
        n: usize,
        degree: usize,
        hosts_per_switch: usize,
        rng: &mut R,
    ) -> Result<Self, TopologyError> {
        let adj = random_regular(n, degree, rng)?;
        Ok(Self {
            adj,
            degree,
            hosts_per_switch,
        })
    }

    /// Number of switches.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.adj.len()
    }

    /// Network degree Δ (switch-to-switch ports per switch).
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Compute nodes per switch.
    #[inline]
    pub fn hosts_per_switch(&self) -> usize {
        self.hosts_per_switch
    }

    /// Total compute nodes.
    #[inline]
    pub fn num_terminals(&self) -> usize {
        self.num_switches() * self.hosts_per_switch
    }

    /// Hardware radix: network degree plus host ports.
    #[inline]
    pub fn max_radix(&self) -> usize {
        self.degree + self.hosts_per_switch
    }

    /// Neighbor switches of `s`.
    #[inline]
    pub fn neighbors(&self, s: u32) -> &[u32] {
        &self.adj[s as usize]
    }

    /// The switch graph as a [`Csr`].
    pub fn graph(&self) -> Csr {
        Csr::from_adjacency(&self.adj)
    }

    /// Every switch-to-switch link once, as `(u, v)` with `u < v`.
    pub fn links(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (u, list) in self.adj.iter().enumerate() {
            for &v in list {
                if vid(u) < v {
                    out.push((vid(u), v));
                }
            }
        }
        out
    }

    /// Jellyfish-style incremental expansion: adds `additional` switches,
    /// each wired by removing `degree / 2` random existing links `(u, v)`
    /// and reconnecting `u` and `v` to the new switch. Returns the number
    /// of rewired (removed) links.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] when the degree is odd
    /// (a free port would remain) or the network is too small to donate
    /// links, and [`TopologyError::Generation`] if rewiring repeatedly
    /// fails to find a donatable link.
    pub fn expand<R: Rng + ?Sized>(
        &mut self,
        additional: usize,
        rng: &mut R,
    ) -> Result<usize, TopologyError> {
        if !self.degree.is_multiple_of(2) {
            return Err(TopologyError::invalid(
                "incremental RRN expansion requires an even network degree",
            ));
        }
        if self.num_switches() <= self.degree {
            return Err(TopologyError::invalid(
                "network too small to expand: need more switches than the degree",
            ));
        }
        let mut rewired = 0;
        for _ in 0..additional {
            let new = vid(self.adj.len());
            self.adj.push(Vec::with_capacity(self.degree));
            for _ in 0..self.degree / 2 {
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    if attempts > 10_000 {
                        return Err(TopologyError::Generation(
                            rfc_graph::GenerationError::RestartLimitExceeded { restarts: attempts },
                        ));
                    }
                    // Pick a random existing link not touching `new` whose
                    // endpoints are not yet adjacent to `new`.
                    let u = rng.gen_range(0..new);
                    if self.adj[u as usize].is_empty() {
                        continue;
                    }
                    let vi = rng.gen_range(0..self.adj[u as usize].len());
                    let v = self.adj[u as usize][vi];
                    if v == new
                        || self.adj[new as usize].contains(&u)
                        || self.adj[new as usize].contains(&v)
                    {
                        continue;
                    }
                    // Remove (u, v); add (u, new), (v, new).
                    self.adj[u as usize].swap_remove(vi);
                    #[expect(
                        clippy::expect_used,
                        reason = "edges are stored in both adjacency lists, so v lists u"
                    )]
                    let pos = self.adj[v as usize]
                        .iter()
                        .position(|&x| x == u)
                        .expect("symmetric adjacency");
                    self.adj[v as usize].swap_remove(pos);
                    self.adj[u as usize].push(new);
                    self.adj[v as usize].push(new);
                    self.adj[new as usize].push(u);
                    self.adj[new as usize].push(v);
                    rewired += 1;
                    break;
                }
            }
        }
        Ok(rewired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfc_graph::connectivity::is_connected;

    #[test]
    fn figure_3_network() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Rrn::new(16, 4, 2, &mut rng).unwrap();
        assert_eq!(net.num_switches(), 16);
        assert_eq!(net.num_terminals(), 32);
        assert!(net.graph().is_regular(4));
        assert_eq!(net.links().len(), 32);
    }

    #[test]
    fn expansion_keeps_regularity() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut net = Rrn::new(30, 4, 2, &mut rng).unwrap();
        let rewired = net.expand(5, &mut rng).unwrap();
        assert_eq!(net.num_switches(), 35);
        assert!(net.graph().is_regular(4), "expansion preserves degree");
        assert_eq!(rewired, 5 * 2, "each new switch rewires degree/2 links");
        assert!(is_connected(&net.graph()));
    }

    #[test]
    fn expansion_rejects_odd_degree() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut net = Rrn::new(10, 3, 1, &mut rng).unwrap();
        assert!(net.expand(1, &mut rng).is_err());
    }

    #[test]
    fn expansion_rejects_tiny_network() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut net = Rrn::new(4, 2, 1, &mut rng).unwrap();
        // n == 4 > degree == 2, so this is allowed; shrink further.
        net.adj.truncate(0);
        assert!(net.expand(1, &mut rng).is_err());
    }

    #[test]
    fn debug_shows_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = Rrn::new(8, 2, 1, &mut rng).unwrap();
        let s = format!("{net:?}");
        assert!(s.contains("switches") && s.contains('8'));
    }
}
