//! The channel one message travels on: the shared board, or a directed
//! player-to-player edge.
//!
//! It lives next to the turn engine because the engine's link
//! violations name the offending link; `bci_topology` re-exports it and
//! decides which links each topology allows.

use std::fmt;

use crate::PlayerId;

/// The channel one message travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Link {
    /// The shared blackboard: everyone reads the message for free.
    Broadcast,
    /// A directed edge: only `from` and `to` ever see the message.
    Directed {
        /// The sending endpoint (must be the speaker).
        from: PlayerId,
        /// The receiving endpoint.
        to: PlayerId,
    },
}

impl Link {
    /// Whether `player` sees a message sent on this link.
    pub fn visible_to(&self, player: PlayerId) -> bool {
        match *self {
            Link::Broadcast => true,
            Link::Directed { from, to } => player == from || player == to,
        }
    }

    /// Both endpoints in range and, for directed links, distinct.
    pub fn well_formed(&self, players: usize) -> bool {
        match *self {
            Link::Broadcast => true,
            Link::Directed { from, to } => from < players && to < players && from != to,
        }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Link::Broadcast => write!(f, "broadcast"),
            Link::Directed { from, to } => write!(f, "{from}->{to}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility_follows_the_link() {
        assert!(Link::Broadcast.visible_to(7));
        let edge = Link::Directed { from: 1, to: 3 };
        assert!(edge.visible_to(1));
        assert!(edge.visible_to(3));
        assert!(!edge.visible_to(0));
        assert!(!edge.visible_to(2));
    }

    #[test]
    fn well_formedness_rejects_loops_and_out_of_range_endpoints() {
        assert!(Link::Broadcast.well_formed(1));
        assert!(Link::Directed { from: 0, to: 3 }.well_formed(4));
        assert!(!Link::Directed { from: 0, to: 4 }.well_formed(4));
        assert!(!Link::Directed { from: 5, to: 0 }.well_formed(4));
        assert!(!Link::Directed { from: 2, to: 2 }.well_formed(4));
    }

    #[test]
    fn links_render_compactly() {
        assert_eq!(Link::Broadcast.to_string(), "broadcast");
        assert_eq!(Link::Directed { from: 2, to: 0 }.to_string(), "2->0");
    }
}
