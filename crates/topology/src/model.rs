//! The communication models: who may carry a message, and who sees it.
//!
//! The paper's shared-blackboard model is one point in a space of
//! communication topologies. PAPERS.md names the natural siblings —
//! Braverman–Ellen–Oshman–Pitassi–Vaikuntanathan's *message passing*
//! model (a coordinator star) and Gronemeier's number-in-hand bounds —
//! where DISJ costs `Θ(nk)` instead of the broadcast `Θ(n log k + k)`.
//! This module captures the difference in two tiny types:
//!
//! * [`Link`] — the channel one message travels on: the shared broadcast
//!   board, or a directed player-to-player edge (defined in
//!   `bci_blackboard::link`, next to the turn engine that checks it).
//! * [`Topology`] — which links exist: [`Topology::Blackboard`] (broadcast
//!   only), [`Topology::CoordinatorStar`] (every edge touches the hub), or
//!   [`Topology::PointToPoint`] (any directed edge).
//!
//! Visibility is a property of the *link*, not the topology: a broadcast
//! message is visible to every player, a directed message only to its two
//! endpoints. The topology just restricts which links a protocol may use,
//! enforced on every turn by the turn engine (see `crate::routed`).

use bci_blackboard::PlayerId;

pub use bci_blackboard::link::Link;

/// A communication topology: the set of links protocols may write on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// The paper's model: one shared board, every message broadcast.
    Blackboard,
    /// The BEOPV message-passing model: `k` players plus a designated
    /// hub (coordinator); every message travels on an edge touching the
    /// hub. The hub is one of the `k` players (it holds an input too).
    CoordinatorStar {
        /// The coordinator player.
        hub: PlayerId,
    },
    /// Unrestricted message passing: any directed player-to-player edge.
    PointToPoint,
}

impl Topology {
    /// The CLI-facing name (`--topology <name>`).
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Blackboard => "blackboard",
            Topology::CoordinatorStar { .. } => "star",
            Topology::PointToPoint => "p2p",
        }
    }

    /// Parses a CLI-facing name. `"star"` places the hub at player 0.
    pub fn parse(name: &str) -> Option<Topology> {
        match name {
            "blackboard" => Some(Topology::Blackboard),
            "star" => Some(Topology::CoordinatorStar { hub: 0 }),
            "p2p" => Some(Topology::PointToPoint),
            _ => None,
        }
    }

    /// Whether a (well-formed) link exists under this topology.
    pub fn allows(&self, link: &Link) -> bool {
        match (self, link) {
            (Topology::Blackboard, Link::Broadcast) => true,
            (Topology::Blackboard, Link::Directed { .. }) => false,
            (Topology::CoordinatorStar { hub }, Link::Directed { from, to }) => {
                from == hub || to == hub
            }
            (Topology::PointToPoint, Link::Directed { .. }) => true,
            // Message-passing models have no shared board.
            (Topology::CoordinatorStar { .. } | Topology::PointToPoint, Link::Broadcast) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_admit_exactly_their_links() {
        let bb = Topology::Blackboard;
        let star = Topology::CoordinatorStar { hub: 0 };
        let p2p = Topology::PointToPoint;
        let up = Link::Directed { from: 2, to: 0 };
        let down = Link::Directed { from: 0, to: 2 };
        let side = Link::Directed { from: 1, to: 2 };

        assert!(bb.allows(&Link::Broadcast));
        assert!(!bb.allows(&up));

        assert!(!star.allows(&Link::Broadcast));
        assert!(star.allows(&up));
        assert!(star.allows(&down));
        assert!(!star.allows(&side));

        assert!(!p2p.allows(&Link::Broadcast));
        assert!(p2p.allows(&up));
        assert!(p2p.allows(&side));
    }

    #[test]
    fn names_round_trip_through_parse() {
        for t in [
            Topology::Blackboard,
            Topology::CoordinatorStar { hub: 0 },
            Topology::PointToPoint,
        ] {
            assert_eq!(Topology::parse(t.name()), Some(t));
        }
        assert_eq!(Topology::parse("mesh"), None);
    }
}
