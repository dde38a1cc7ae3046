//! Communication-model abstraction for the broadcast-IC workspace.
//!
//! The paper studies the *shared blackboard* (broadcast) model, where
//! every bit a player writes is seen by all `k` players. Its headline
//! separations are stated against the *message-passing* world:
//! set-disjointness costs `Θ(nk)` bits in the coordinator/message-passing
//! model (Braverman–Ellen–Oshman–Pitassi–Vaikuntanathan) but only
//! `Θ(n log k + k)` on the blackboard, and Gronemeier's number-in-hand
//! bounds calibrate multiparty AND. This crate makes that comparison
//! executable:
//!
//! * [`Link`] / [`Topology`] — who may carry a message and who sees it
//!   ([`model`]; `Link` itself lives in `bci_blackboard::link`);
//! * [`RoutedProtocol`] + [`Routed`] — message-passing protocols run on
//!   the blackboard crate's one sans-io `TurnEngine`, with its exact
//!   grant/parking/replay discipline, plus per-link transcripts,
//!   per-player visibility, topology checks on every granted link, and
//!   per-link cost accounting ([`routed`]);
//! * [`Embedded`] — an adapter so routed protocols run on all existing
//!   blackboard drivers ([`embed`]).
//!
//! # Example
//!
//! ```
//! use bci_encoding::bitio::BitVec;
//! use bci_topology::{run_routed, Link, PlayerView, RoutedBoard, RoutedProtocol, Topology};
//! use rand::{RngCore, SeedableRng};
//! use rand_chacha::ChaCha8Rng;
//!
//! /// Player 1 sends one bit to player 0.
//! struct OneHop;
//!
//! impl RoutedProtocol for OneHop {
//!     type Input = bool;
//!     type Output = bool;
//!
//!     fn topology(&self) -> Topology {
//!         Topology::PointToPoint
//!     }
//!     fn num_players(&self) -> usize {
//!         2
//!     }
//!     fn next_turn(&self, board: &RoutedBoard) -> Option<(usize, Link)> {
//!         board
//!             .messages()
//!             .is_empty()
//!             .then_some((1, Link::Directed { from: 1, to: 0 }))
//!     }
//!     fn message(
//!         &self,
//!         _speaker: usize,
//!         input: &bool,
//!         _view: &PlayerView<'_>,
//!         _rng: &mut dyn RngCore,
//!     ) -> BitVec {
//!         BitVec::from_bools(&[*input])
//!     }
//!     fn output(&self, board: &RoutedBoard) -> bool {
//!         board.messages()[0].bits.get(0).unwrap()
//!     }
//! }
//!
//! let exec = run_routed(&OneHop, &[false, true], &ChaCha8Rng::seed_from_u64(0));
//! assert!(exec.output);
//! assert_eq!(exec.stats.directed_bits, 1);
//! ```

#![warn(missing_docs)]

pub mod embed;
pub mod model;
pub mod routed;

pub use embed::Embedded;
pub use model::{Link, Topology};
pub use routed::{
    run_routed, PlayerView, Routed, RoutedBoard, RoutedExecution, RoutedProtocol, SentMessage,
    TopologyCommStats,
};
