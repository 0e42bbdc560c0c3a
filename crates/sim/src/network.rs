//! Port-level network description consumed by the simulation engine.

use std::fmt;

use rfc_graph::vid;
use rfc_topology::FoldedClos;

/// Where an output port sends packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutTarget {
    /// To a neighbor switch: the global id of the *input port* at that
    /// switch which this output feeds.
    Link {
        /// Global input-port id at the destination switch.
        in_port: u32,
    },
    /// Ejection to a locally attached terminal.
    Eject {
        /// The terminal consuming the packet.
        terminal: u32,
    },
}

/// A topology flattened to switches, input ports, and output ports.
///
/// * Every inter-switch link contributes one input and one output port on
///   each side.
/// * Every terminal contributes one *injection* input port and one
///   *ejection* output port at its switch.
///
/// Build one from a folded Clos network with
/// [`SimNetwork::from_folded_clos`] or its partially populated variant
/// [`SimNetwork::from_folded_clos_populated`]; routing destinations are
/// leaf switches.
pub struct SimNetwork {
    pub(crate) num_switches: usize,
    pub(crate) num_terminals: usize,
    /// Switch owning each input port.
    pub(crate) switch_of_in_port: Vec<u32>,
    /// Output ports: owner switch and target.
    pub(crate) out_owner: Vec<u32>,
    pub(crate) out_target: Vec<OutTarget>,
    /// Per switch: sorted `(neighbor switch, out-port id)` for next-hop
    /// lookup.
    pub(crate) out_port_of_neighbor: Vec<Vec<(u32, u32)>>,
    /// Injection input port of each terminal.
    pub(crate) inject_port_of_terminal: Vec<u32>,
    /// Ejection output port of each terminal.
    pub(crate) eject_port_of_terminal: Vec<u32>,
    /// Switch hosting each terminal (the routing destination).
    pub(crate) dst_switch_of_terminal: Vec<u32>,
}

impl fmt::Debug for SimNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNetwork")
            .field("switches", &self.num_switches)
            .field("terminals", &self.num_terminals)
            .field("in_ports", &self.switch_of_in_port.len())
            .field("out_ports", &self.out_owner.len())
            .finish()
    }
}

impl SimNetwork {
    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.num_switches
    }

    /// Number of terminals.
    pub fn num_terminals(&self) -> usize {
        self.num_terminals
    }

    /// Number of input ports (link receivers plus injection ports).
    pub fn num_in_ports(&self) -> usize {
        self.switch_of_in_port.len()
    }

    /// Number of output ports (link drivers plus ejection ports).
    pub fn num_out_ports(&self) -> usize {
        self.out_owner.len()
    }

    /// The output port of `switch` leading to `neighbor`, if adjacent.
    pub(crate) fn out_port_to(&self, switch: u32, neighbor: u32) -> Option<u32> {
        let table = &self.out_port_of_neighbor[switch as usize];
        table
            .binary_search_by_key(&neighbor, |&(n, _)| n)
            .ok()
            .map(|i| table[i].1)
    }

    /// Fills `out` with, for each input port, the output port that
    /// feeds it — `u32::MAX` for injection ports, which are filled by
    /// their terminal. This is the map freed-buffer credits follow back
    /// upstream in the sharded engine (each shard owns the credit
    /// mirrors of its own output ports).
    pub(crate) fn feeder_out_of_in_ports(&self, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.num_in_ports(), u32::MAX);
        for (o, target) in self.out_target.iter().enumerate() {
            if let OutTarget::Link { in_port } = *target {
                debug_assert_eq!(out[in_port as usize], u32::MAX, "one feeder per in port");
                out[in_port as usize] = vid(o);
            }
        }
    }

    /// Builds the port-level view of a folded Clos network with every
    /// terminal attached. Routing destinations are leaf switches.
    pub fn from_folded_clos(clos: &FoldedClos) -> Self {
        Self::from_folded_clos_populated(clos, clos.num_terminals())
    }

    /// Like [`SimNetwork::from_folded_clos`], but attaches only
    /// `terminals` compute nodes, densely packed (leaves fill up in
    /// order; trailing leaves stay empty). This models the paper's
    /// partially populated networks — e.g. the 100K scenario's "4-level
    /// CFT with free ports for future expansion", where whole subtrees
    /// await future servers. Dense packing keeps each *populated* leaf
    /// at its designed 1:1 terminal-to-uplink ratio; spreading the same
    /// population round-robin would overprovision every leaf and
    /// inflate saturation throughput. The engine relies on the packing:
    /// every switch's terminals form one contiguous id range.
    ///
    /// # Panics
    ///
    /// Panics if `terminals` exceeds the topology's terminal capacity.
    pub fn from_folded_clos_populated(clos: &FoldedClos, terminals: usize) -> Self {
        assert!(
            terminals <= clos.num_terminals(),
            "cannot attach {terminals} terminals: capacity is {}",
            clos.num_terminals()
        );
        let n = clos.num_switches();
        let adjacency: Vec<Vec<u32>> = (0..vid(n))
            .map(|s| {
                let mut nb = clos.down_neighbors(s);
                nb.extend(clos.up_neighbors(s));
                nb
            })
            .collect();
        let tpl = vid(clos.terminals_per_leaf());
        let map: Vec<u32> = (0..vid(terminals)).map(|t| t / tpl).collect();
        Self::build(n, &adjacency, &map)
    }

    /// Assembles the flat port arrays from per-switch adjacency and the
    /// terminal-to-switch map.
    fn build(num_switches: usize, adjacency: &[Vec<u32>], terminal_switch: &[u32]) -> Self {
        // Input ports: for each switch, one per incoming link neighbor,
        // then (appended later) one per local terminal.
        let mut switch_of_in_port = Vec::new();
        // in_port_from[s] lists (neighbor, in_port) pairs: the input port
        // of switch s fed by `neighbor`.
        let mut in_port_from: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_switches];
        for (s, nbs) in adjacency.iter().enumerate() {
            let s32 = vid(s);
            for &nb in nbs {
                let id = vid(switch_of_in_port.len());
                switch_of_in_port.push(s32);
                in_port_from[s].push((nb, id));
            }
        }
        let mut inject_port_of_terminal = Vec::with_capacity(terminal_switch.len());
        for &s in terminal_switch {
            let id = vid(switch_of_in_port.len());
            switch_of_in_port.push(s);
            inject_port_of_terminal.push(id);
        }
        for list in &mut in_port_from {
            list.sort_unstable();
        }

        // Output ports: one per outgoing link, one per local terminal.
        let mut out_owner = Vec::new();
        let mut out_target = Vec::new();
        let mut out_port_of_neighbor: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_switches];
        for (s, nbs) in adjacency.iter().enumerate() {
            let s32 = vid(s);
            for &nb in nbs {
                let id = vid(out_owner.len());
                out_owner.push(s32);
                // The input port at `nb` fed by `s`.
                let table = &in_port_from[nb as usize];
                #[expect(
                    clippy::expect_used,
                    reason = "links are symmetric, so nb has an input port fed by s"
                )]
                let pos = table
                    .binary_search_by_key(&s32, |&(src, _)| src)
                    .expect("symmetric adjacency");
                out_target.push(OutTarget::Link {
                    in_port: table[pos].1,
                });
                out_port_of_neighbor[s].push((nb, id));
            }
        }
        let mut eject_port_of_terminal = Vec::with_capacity(terminal_switch.len());
        for (t, &s) in terminal_switch.iter().enumerate() {
            let id = vid(out_owner.len());
            out_owner.push(s);
            out_target.push(OutTarget::Eject { terminal: vid(t) });
            eject_port_of_terminal.push(id);
        }
        for list in &mut out_port_of_neighbor {
            list.sort_unstable();
        }

        Self {
            num_switches,
            num_terminals: terminal_switch.len(),
            switch_of_in_port,
            out_owner,
            out_target,
            out_port_of_neighbor,
            inject_port_of_terminal,
            eject_port_of_terminal,
            dst_switch_of_terminal: terminal_switch.to_vec(),
        }
    }
}

/// Logical heap bytes of the port maps.
impl rfc_graph::HeapBytes for SimNetwork {
    fn heap_bytes(&self) -> usize {
        use rfc_graph::slice_heap_bytes;
        let nested: usize = self
            .out_port_of_neighbor
            .iter()
            .map(|v| slice_heap_bytes(v))
            .sum();
        slice_heap_bytes(&self.switch_of_in_port)
            + slice_heap_bytes(&self.out_owner)
            + slice_heap_bytes(&self.out_target)
            + slice_heap_bytes(&self.out_port_of_neighbor)
            + nested
            + slice_heap_bytes(&self.inject_port_of_terminal)
            + slice_heap_bytes(&self.eject_port_of_terminal)
            + slice_heap_bytes(&self.dst_switch_of_terminal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_clos_port_counts() {
        let clos = FoldedClos::cft(4, 2).unwrap();
        // 4 leaves, 2 roots, complete bipartite: 8 links, 8 terminals.
        let net = SimNetwork::from_folded_clos(&clos);
        assert_eq!(net.num_switches(), 6);
        assert_eq!(net.num_terminals(), 8);
        assert_eq!(net.num_in_ports(), 16 + 8, "two per link plus injections");
        assert_eq!(net.num_out_ports(), 16 + 8);
    }

    #[test]
    fn out_ports_point_back_at_matching_in_ports() {
        let clos = FoldedClos::cft(4, 3).unwrap();
        let net = SimNetwork::from_folded_clos(&clos);
        for (o, target) in net.out_target.iter().enumerate() {
            if let OutTarget::Link { in_port } = *target {
                let (owner, nb) = (net.out_owner[o], net.switch_of_in_port[in_port as usize]);
                assert_ne!(owner, nb, "no self links");
                assert_eq!(net.out_port_to(owner, nb), Some(vid(o)), "port {o}");
            }
        }
    }

    #[test]
    fn neighbor_lookup_finds_every_link() {
        let clos = FoldedClos::cft(6, 2).unwrap();
        let net = SimNetwork::from_folded_clos(&clos);
        for s in 0..6u32 {
            for up in clos.up_neighbors(s) {
                assert!(net.out_port_to(s, up).is_some());
                assert!(net.out_port_to(up, s).is_some());
            }
        }
        assert!(net.out_port_to(0, 1).is_none(), "leaves are not adjacent");
    }

    #[test]
    fn partial_population_packs_densely() {
        let clos = FoldedClos::cft(8, 3).unwrap();
        // Capacity 128 on 32 leaves at 4 per leaf; attach 80 -> the
        // first 20 leaves full, the rest empty.
        let net = SimNetwork::from_folded_clos_populated(&clos, 80);
        assert_eq!(net.num_terminals(), 80);
        assert_eq!(net.dst_switch_of_terminal[0], 0);
        assert_eq!(net.dst_switch_of_terminal[3], 0);
        assert_eq!(net.dst_switch_of_terminal[4], 1);
        assert_eq!(net.dst_switch_of_terminal[79], 19);
        let mut per_leaf = vec![0usize; 32];
        for &s in &net.dst_switch_of_terminal {
            per_leaf[s as usize] += 1;
        }
        assert!(per_leaf[..20].iter().all(|&c| c == 4));
        assert!(per_leaf[20..].iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn overpopulation_panics() {
        let clos = FoldedClos::cft(4, 2).unwrap();
        let _ = SimNetwork::from_folded_clos_populated(&clos, 9);
    }

    #[test]
    fn feeder_map_inverts_link_targets() {
        let clos = FoldedClos::cft(4, 3).unwrap();
        let net = SimNetwork::from_folded_clos(&clos);
        let mut feeder = Vec::new();
        net.feeder_out_of_in_ports(&mut feeder);
        assert_eq!(feeder.len(), net.num_in_ports());
        for (o, target) in net.out_target.iter().enumerate() {
            if let OutTarget::Link { in_port } = *target {
                assert_eq!(feeder[in_port as usize] as usize, o);
            }
        }
        for t in 0..net.num_terminals() {
            assert_eq!(
                feeder[net.inject_port_of_terminal[t] as usize],
                u32::MAX,
                "injection ports have no upstream feeder"
            );
        }
    }

    #[test]
    fn terminal_ports_belong_to_host_switch() {
        let clos = FoldedClos::cft(4, 2).unwrap();
        let net = SimNetwork::from_folded_clos(&clos);
        for t in 0..8usize {
            let inj = net.inject_port_of_terminal[t];
            let ej = net.eject_port_of_terminal[t];
            assert_eq!(
                net.switch_of_in_port[inj as usize],
                clos.leaf_of_terminal(vid(t))
            );
            assert_eq!(net.out_owner[ej as usize], clos.leaf_of_terminal(vid(t)));
            assert_eq!(
                net.out_target[ej as usize],
                OutTarget::Eject { terminal: vid(t) }
            );
        }
    }
}
