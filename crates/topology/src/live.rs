//! A mutable link up/down overlay for running networks.
//!
//! [`LiveClos`] wraps a pristine [`FoldedClos`] and applies
//! [`LinkEvent`]s in place, keeping an always-consistent *current* view
//! without the full-structure clone of
//! [`FoldedClos::with_links_removed`]. Every event touches exactly two
//! adjacency rows (the failed link's endpoints), which are rebuilt from
//! the pristine rows filtered by the down-set — so the current view is
//! byte-identical (including within-row link order) to
//! `pristine.with_links_removed(&down_links)` after any event sequence.

use std::collections::BTreeSet;

use crate::{FoldedClos, Link};

/// Whether a [`LinkEvent`] takes a link out of service or restores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkEventKind {
    /// The link goes down; both adjacency rows drop it.
    Fail,
    /// The link comes back up in its pristine row position.
    Recover,
}

/// A single link state change, applied by [`LiveClos::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkEvent {
    /// The affected inter-switch link (lower-level endpoint first).
    pub link: Link,
    /// Fail or recover.
    pub kind: LinkEventKind,
}

impl LinkEvent {
    /// A failure event for `link`.
    pub fn fail(link: Link) -> Self {
        LinkEvent {
            link,
            kind: LinkEventKind::Fail,
        }
    }

    /// A recovery event for `link`.
    pub fn recover(link: Link) -> Self {
        LinkEvent {
            link,
            kind: LinkEventKind::Recover,
        }
    }

    /// The event that undoes this one (fail ↔ recover of the same link).
    pub fn inverse(&self) -> Self {
        LinkEvent {
            link: self.link,
            kind: match self.kind {
                LinkEventKind::Fail => LinkEventKind::Recover,
                LinkEventKind::Recover => LinkEventKind::Fail,
            },
        }
    }
}

/// A folded Clos with a mutable link up/down overlay.
///
/// The *pristine* network is the as-built wiring; the *current* network
/// reflects every applied event. Failing a link removes **all** parallel
/// copies of it (matching [`FoldedClos::with_links_removed`]); recovery
/// restores them in their pristine adjacency positions, so a
/// fail-then-recover round trip reproduces the original byte-identical
/// structure.
///
/// # Examples
///
/// ```
/// use rfc_topology::{FoldedClos, LinkEvent, LiveClos};
///
/// let net = FoldedClos::cft(4, 3)?;
/// let mut live = LiveClos::new(&net);
/// let link = net.links()[0];
/// assert!(live.apply(&LinkEvent::fail(link)));
/// assert!(live.current().num_links() < net.num_links());
/// assert!(live.apply(&LinkEvent::recover(link)));
/// assert_eq!(live.current().links(), net.links());
/// # Ok::<(), rfc_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LiveClos {
    pristine: FoldedClos,
    current: FoldedClos,
    down: BTreeSet<Link>,
}

impl LiveClos {
    /// Wraps `clos` with an empty overlay (current == pristine).
    pub fn new(clos: &FoldedClos) -> Self {
        LiveClos {
            pristine: clos.clone(),
            current: clos.clone(),
            down: BTreeSet::new(),
        }
    }

    /// The network as built, unaffected by events.
    #[inline]
    pub fn pristine(&self) -> &FoldedClos {
        &self.pristine
    }

    /// The network with every applied event in effect.
    #[inline]
    pub fn current(&self) -> &FoldedClos {
        &self.current
    }

    /// The links currently down, in ascending order.
    pub fn down_links(&self) -> Vec<Link> {
        self.down.iter().copied().collect()
    }

    /// Number of links currently down.
    #[inline]
    pub fn num_down(&self) -> usize {
        self.down.len()
    }

    /// Normalizes a link to lower-level-endpoint-first and locates its
    /// stage, returning `None` when the link is not a pristine
    /// adjacent-level link (such events are no-ops, mirroring
    /// [`FoldedClos::with_links_removed`] ignoring unknown faults).
    fn locate(&self, link: Link) -> Option<(Link, usize)> {
        let (lo, hi) = if link.lower < link.upper {
            (link.lower, link.upper)
        } else {
            (link.upper, link.lower)
        };
        if (hi as usize) >= self.pristine.num_switches() {
            return None;
        }
        let level = self.pristine.level_of(lo);
        if level + 1 == self.pristine.num_levels() || self.pristine.level_of(hi) != level + 1 {
            return None;
        }
        let lo_local = lo - self.pristine.level_offset(level);
        let hi_local = hi - self.pristine.level_offset(level + 1);
        if !self.pristine.stage(level).adj1[lo_local as usize].contains(&hi_local) {
            return None;
        }
        Some((
            Link {
                lower: lo,
                upper: hi,
            },
            level,
        ))
    }

    /// Applies one event, returning whether the current view changed.
    ///
    /// No-ops (`false`): failing a link that is not in the pristine
    /// network or is already down, and recovering a link that is up.
    pub fn apply(&mut self, event: &LinkEvent) -> bool {
        let Some((link, level)) = self.locate(event.link) else {
            return false;
        };
        let changed = match event.kind {
            LinkEventKind::Fail => self.down.insert(link),
            LinkEventKind::Recover => self.down.remove(&link),
        };
        if !changed {
            return false;
        }
        self.resync_rows(link, level);
        true
    }

    /// Rebuilds the two adjacency rows incident to `link` from the
    /// pristine rows filtered by the down-set. All other rows are
    /// untouched, so by induction the current network stays equal to
    /// `pristine.with_links_removed(&down_links)`.
    fn resync_rows(&mut self, link: Link, level: usize) {
        let lo_base = self.pristine.level_offset(level);
        let hi_base = self.pristine.level_offset(level + 1);
        let lo_local = (link.lower - lo_base) as usize;
        let hi_local = (link.upper - hi_base) as usize;
        let up_row: Vec<u32> = self.pristine.stage(level).adj1[lo_local]
            .iter()
            .copied()
            .filter(|&u| {
                !self.down.contains(&Link {
                    lower: link.lower,
                    upper: hi_base + u,
                })
            })
            .collect();
        let down_row: Vec<u32> = self.pristine.stage(level).adj2[hi_local]
            .iter()
            .copied()
            .filter(|&d| {
                !self.down.contains(&Link {
                    lower: lo_base + d,
                    upper: link.upper,
                })
            })
            .collect();
        let stage = self.current.stage_mut(level);
        stage.adj1[lo_local] = up_row;
        stage.adj2[hi_local] = down_row;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn net() -> FoldedClos {
        let mut rng = StdRng::seed_from_u64(0xD1CE);
        FoldedClos::random(6, 12, 3, &mut rng).unwrap()
    }

    #[test]
    fn fail_matches_with_links_removed() {
        let clos = net();
        let mut live = LiveClos::new(&clos);
        let mut links = clos.links();
        let mut rng = StdRng::seed_from_u64(7);
        links.shuffle(&mut rng);
        let faults = &links[..8];
        for &l in faults {
            assert!(live.apply(&LinkEvent::fail(l)));
        }
        let expected = clos.with_links_removed(faults);
        assert_eq!(live.current().links(), expected.links());
        assert_eq!(live.num_down(), 8);
    }

    #[test]
    fn recover_restores_pristine_row_order() {
        let clos = net();
        let mut live = LiveClos::new(&clos);
        let links = clos.links();
        for &l in &links[..5] {
            live.apply(&LinkEvent::fail(l));
        }
        // Recover out of order.
        for &l in [links[3], links[0], links[4], links[1], links[2]].iter() {
            assert!(live.apply(&LinkEvent::recover(l)));
        }
        assert_eq!(live.current().links(), clos.links());
        assert_eq!(live.num_down(), 0);
    }

    #[test]
    fn random_event_sequences_track_with_links_removed() {
        let clos = net();
        let links = clos.links();
        let mut live = LiveClos::new(&clos);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let l = links[rng.gen_range(0..links.len())];
            let ev = if rng.gen_bool(0.5) {
                LinkEvent::fail(l)
            } else {
                LinkEvent::recover(l)
            };
            live.apply(&ev);
            let expected = clos.with_links_removed(&live.down_links());
            assert_eq!(live.current().links(), expected.links());
        }
    }

    #[test]
    fn noop_events_report_false() {
        let clos = net();
        let mut live = LiveClos::new(&clos);
        let l = clos.links()[0];
        assert!(!live.apply(&LinkEvent::recover(l)), "recovering an up link");
        assert!(live.apply(&LinkEvent::fail(l)));
        assert!(!live.apply(&LinkEvent::fail(l)), "failing a down link");
        // A non-adjacent pair is ignored, as in with_links_removed.
        let bogus = Link {
            lower: 0,
            upper: rfc_graph::vid(clos.num_switches() - 1),
        };
        if clos.level_of(bogus.upper) > 1 {
            assert!(!live.apply(&LinkEvent::fail(bogus)));
        }
    }

    #[test]
    fn inverse_round_trips() {
        let l = Link { lower: 3, upper: 9 };
        let ev = LinkEvent::fail(l);
        assert_eq!(ev.inverse(), LinkEvent::recover(l));
        assert_eq!(ev.inverse().inverse(), ev);
    }

    #[test]
    fn parallel_copies_fail_and_recover_together() {
        // Hand-built stage with a doubled link 0–0.
        use rfc_graph::random::BipartiteGraph;
        let stage = BipartiteGraph {
            adj1: vec![vec![0, 0], vec![0]],
            adj2: vec![vec![0, 0, 1]],
        };
        let clos =
            FoldedClos::from_stages(crate::CloKind::RandomFoldedClos, 4, 1, &[2, 1], vec![stage])
                .unwrap();
        let mut live = LiveClos::new(&clos);
        let l = Link { lower: 0, upper: 2 };
        assert!(live.apply(&LinkEvent::fail(l)));
        assert_eq!(live.current().num_links(), 1, "both copies removed");
        assert_eq!(
            live.current().links(),
            clos.with_links_removed(&[l]).links()
        );
        assert!(live.apply(&LinkEvent::recover(l)));
        assert_eq!(live.current().links(), clos.links());
    }
}
