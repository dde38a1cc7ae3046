//! Routed protocols: message passing over any [`Topology`], driven by
//! the blackboard crate's [`TurnEngine`].
//!
//! A [`RoutedProtocol`] writes each message on a *link* instead of one
//! shared board. Wrapped in [`Routed`], it is a [`Schedule`], so the one
//! turn engine drives it with the blackboard contract unchanged — poll
//! for a grant, perform the turn anywhere, apply the reply; one
//! outstanding grant at a time; the serialized ChaCha8 session-RNG state
//! parked between turns and shipped inside every grant. What routing
//! adds:
//!
//! * every message is recorded with its [`Link`] (the grant's `route`),
//!   giving per-edge transcripts ([`RoutedBoard`]);
//! * a speaker composes its message from a [`PlayerView`] — only the
//!   messages its player can see under the link visibility rule — so
//!   privacy is structural, not a convention;
//! * every granted link is checked against the protocol's topology
//!   before the grant goes out (a star protocol cannot bypass its hub,
//!   no message-passing protocol can broadcast);
//! * per-link bits accounting rolls up into a [`TopologyCommStats`].
//!
//! Violations are the engine's [`ProtocolViolation`]s, link failures
//! included, so abort reasons render identically across drivers, and the
//! board has a canonical byte serialization + FNV-1a digest for the same
//! replay verification the mux/load harnesses perform on blackboard
//! sessions.
//!
//! # Determinism
//!
//! Exactly the blackboard discipline: grants serialize the turns, the
//! RNG state round-trips through the speaking player, and the schedule
//! ([`RoutedProtocol::next_turn`]) is a function of the board alone.
//! [`run_routed`] is the serial reference driver; any other driver must
//! produce byte-identical [`RoutedBoard`]s (see the driver-equivalence
//! tests in `bci-mux`).

use bci_blackboard::engine::{ProtocolViolation, Schedule, Step, TurnEngine};
use bci_blackboard::PlayerId;
use bci_encoding::bitio::BitVec;
use rand::RngCore;
use rand_chacha::ChaCha8Rng;

use crate::model::{Link, Topology};

/// One message of a routed transcript: who spoke, on which link, what bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentMessage {
    /// The player that wrote the message.
    pub speaker: PlayerId,
    /// The link it travelled on.
    pub link: Link,
    /// The payload.
    pub bits: BitVec,
}

/// The routed transcript: an append-only log of [`SentMessage`]s.
///
/// The per-link sibling of the blackboard `Board`. The full log is the
/// *global* transcript (what a referee sees); players only ever observe
/// their [`PlayerView`] of it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutedBoard {
    messages: Vec<SentMessage>,
    total_bits: usize,
}

impl RoutedBoard {
    /// An empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a message.
    pub fn write(&mut self, speaker: PlayerId, link: Link, bits: BitVec) {
        self.total_bits += bits.len();
        self.messages.push(SentMessage {
            speaker,
            link,
            bits,
        });
    }

    /// All messages, in write order.
    pub fn messages(&self) -> &[SentMessage] {
        &self.messages
    }

    /// Total payload bits across all links — the communication cost.
    pub fn total_bits(&self) -> usize {
        self.total_bits
    }

    /// The sub-transcript `player` can see.
    pub fn view(&self, player: PlayerId) -> PlayerView<'_> {
        PlayerView {
            player,
            messages: self
                .messages
                .iter()
                .filter(|m| m.link.visible_to(player))
                .collect(),
        }
    }

    /// Canonical byte serialization (mirrors `Board::to_bytes` framing):
    /// `u32` message count, then per message `u32` speaker, `u8` link kind
    /// (0 broadcast / 1 directed), directed links' `u32 from`/`u32 to`,
    /// `u32` bit length, and the payload packed LSB-first.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.messages.len() as u32).to_le_bytes());
        for m in &self.messages {
            out.extend_from_slice(&(m.speaker as u32).to_le_bytes());
            match m.link {
                Link::Broadcast => out.push(0),
                Link::Directed { from, to } => {
                    out.push(1);
                    out.extend_from_slice(&(from as u32).to_le_bytes());
                    out.extend_from_slice(&(to as u32).to_le_bytes());
                }
            }
            out.extend_from_slice(&(m.bits.len() as u32).to_le_bytes());
            let mut byte = 0u8;
            for (i, bit) in m.bits.iter().enumerate() {
                if bit {
                    byte |= 1 << (i % 8);
                }
                if i % 8 == 7 {
                    out.push(byte);
                    byte = 0;
                }
            }
            if m.bits.len() % 8 != 0 {
                out.push(byte);
            }
        }
        out
    }

    /// FNV-1a (64-bit) digest of [`to_bytes`](Self::to_bytes) — the same
    /// digest primitive the repo's transcript-verification paths fold.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.to_bytes())
    }
}

/// FNV-1a (64-bit) over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// What one player sees of a routed transcript: the messages on links
/// visible to it, in global write order.
#[derive(Debug, Clone)]
pub struct PlayerView<'a> {
    player: PlayerId,
    messages: Vec<&'a SentMessage>,
}

impl<'a> PlayerView<'a> {
    /// The observing player.
    pub fn player(&self) -> PlayerId {
        self.player
    }

    /// The visible messages, in write order.
    pub fn messages(&self) -> &[&'a SentMessage] {
        &self.messages
    }

    /// Number of visible messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether nothing is visible yet.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Total visible payload bits.
    pub fn total_bits(&self) -> usize {
        self.messages.iter().map(|m| m.bits.len()).sum()
    }
}

/// Per-link / per-player communication accounting for one routed
/// transcript.
///
/// The interesting cross-model quantity is not just the total: the star
/// topology concentrates `Θ(nk)` bits at its hub while point-to-point
/// spreads the same total across the ring, so the hot-spot columns
/// ([`max_player_bits`](Self::max_player_bits)) separate models that the
/// totals alone cannot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopologyCommStats {
    /// Total payload bits (== `RoutedBoard::total_bits`).
    pub total_bits: usize,
    /// Messages written.
    pub messages: usize,
    /// Bits sent on the shared board.
    pub broadcast_bits: usize,
    /// Bits sent on directed links.
    pub directed_bits: usize,
    /// Per directed link `(from, to)`, the bits it carried — sorted by
    /// `(from, to)` for deterministic rendering.
    pub link_bits: Vec<((PlayerId, PlayerId), usize)>,
    /// Bits the heaviest single directed link carried.
    pub max_link_bits: usize,
    /// Per player, bits sent plus bits received on directed links (the
    /// player's switched load; broadcast bits are excluded — the board
    /// is nobody's port).
    pub player_bits: Vec<usize>,
    /// The heaviest player's directed load — the hot spot.
    pub max_player_bits: usize,
}

impl TopologyCommStats {
    /// Accounts a transcript for a `players`-player protocol.
    pub fn from_board(board: &RoutedBoard, players: usize) -> Self {
        let mut stats = TopologyCommStats {
            player_bits: vec![0; players],
            ..TopologyCommStats::default()
        };
        let mut links: Vec<((PlayerId, PlayerId), usize)> = Vec::new();
        for m in board.messages() {
            stats.total_bits += m.bits.len();
            stats.messages += 1;
            match m.link {
                Link::Broadcast => stats.broadcast_bits += m.bits.len(),
                Link::Directed { from, to } => {
                    stats.directed_bits += m.bits.len();
                    stats.player_bits[from] += m.bits.len();
                    stats.player_bits[to] += m.bits.len();
                    match links.iter_mut().find(|(l, _)| *l == (from, to)) {
                        Some((_, bits)) => *bits += m.bits.len(),
                        None => links.push(((from, to), m.bits.len())),
                    }
                }
            }
        }
        links.sort_unstable_by_key(|&(l, _)| l);
        stats.max_link_bits = links.iter().map(|&(_, b)| b).max().unwrap_or(0);
        stats.max_player_bits = stats.player_bits.iter().copied().max().unwrap_or(0);
        stats.link_bits = links;
        stats
    }
}

/// A protocol over a communication [`Topology`].
///
/// The routed sibling of the blackboard `Protocol` trait. The contract
/// mirrors the paper's convention that the transcript determines the
/// schedule: [`next_turn`](Self::next_turn) must be a function of the
/// board's public metadata (who spoke, on which link, how many bits) —
/// an oblivious turn order is always safe — while
/// [`message`](Self::message) sees only the speaker's [`PlayerView`], so
/// message *contents* can never leak across invisible links.
pub trait RoutedProtocol {
    /// Per-player input.
    type Input;
    /// The protocol's output, a function of the final board.
    type Output;

    /// The topology every granted link is validated against.
    fn topology(&self) -> Topology;

    /// Number of players `k`.
    fn num_players(&self) -> usize;

    /// Whose turn it is and on which link, or `None` when halted.
    /// Directed links must have `from == speaker`.
    fn next_turn(&self, board: &RoutedBoard) -> Option<(PlayerId, Link)>;

    /// The speaker's message for the granted turn, computed from its own
    /// input, its view of the transcript, and the session randomness.
    fn message(
        &self,
        speaker: PlayerId,
        input: &Self::Input,
        view: &PlayerView<'_>,
        rng: &mut dyn RngCore,
    ) -> BitVec;

    /// The output determined by the final board.
    fn output(&self, board: &RoutedBoard) -> Self::Output;
}

/// A [`RoutedProtocol`] as the turn engine's [`Schedule`]: the
/// transcript is a [`RoutedBoard`], every grant's `route` is its
/// [`Link`], and [`check_turn`](Schedule::check_turn) enforces the link
/// discipline.
///
/// Drive it like a blackboard protocol — `TurnEngine::with_rng(&Routed(&p),
/// ..)` — with the speaker composing its message from
/// `engine.board().view(grant.speaker)`; [`run_routed`] is the reference
/// loop.
#[derive(Debug)]
pub struct Routed<'a, P>(pub &'a P);

impl<P: RoutedProtocol> Schedule for Routed<'_, P> {
    type Board = RoutedBoard;
    type Route = Link;
    type Output = P::Output;

    fn players(&self) -> usize {
        self.0.num_players()
    }

    fn next_turn(&self, board: &RoutedBoard) -> Option<(PlayerId, Link)> {
        self.0.next_turn(board)
    }

    /// Rejects, in order, a malformed link, a directed link that does
    /// not start at the speaker, and a link the topology forbids.
    fn check_turn(&self, speaker: PlayerId, link: Link) -> Result<(), ProtocolViolation> {
        let players = self.0.num_players();
        if !link.well_formed(players) {
            return Err(ProtocolViolation::MalformedLink { link, players });
        }
        if matches!(link, Link::Directed { from, .. } if from != speaker) {
            return Err(ProtocolViolation::ForeignLink { speaker, link });
        }
        let topology = self.0.topology();
        if !topology.allows(&link) {
            return Err(ProtocolViolation::LinkNotAllowed {
                speaker,
                link,
                topology: topology.name(),
            });
        }
        Ok(())
    }

    fn record(&self, board: &mut RoutedBoard, speaker: PlayerId, link: Link, bits: BitVec) {
        board.write(speaker, link, bits);
    }

    fn bits(&self, board: &RoutedBoard) -> usize {
        board.total_bits()
    }

    fn decide(&self, board: &RoutedBoard) -> P::Output {
        self.0.output(board)
    }
}

/// One completed routed execution: transcript, output, accounting,
/// digest.
#[derive(Debug, Clone)]
pub struct RoutedExecution<O> {
    /// The final global transcript.
    pub board: RoutedBoard,
    /// The protocol's output.
    pub output: O,
    /// Per-link / per-player accounting.
    pub stats: TopologyCommStats,
    /// FNV-1a digest of the canonical transcript bytes.
    pub digest: u64,
}

/// The serial reference driver: runs `protocol` on `inputs` through the
/// [`TurnEngine`] under the grant/parking discipline, starting from
/// `rng`'s current state.
///
/// # Panics
///
/// Panics on any [`ProtocolViolation`] — the serial driver treats
/// contract violations as programming errors, exactly like the
/// blackboard `run`/`run_traced`.
pub fn run_routed<P: RoutedProtocol>(
    protocol: &P,
    inputs: &[P::Input],
    rng: &ChaCha8Rng,
) -> RoutedExecution<P::Output> {
    let routed = Routed(protocol);
    let mut engine = TurnEngine::with_rng(&routed, inputs.len(), rng).expect("input count matches");
    while let Step::Grant(grant) = engine.poll().expect("routed protocol violation") {
        let mut rng = grant.resume_rng();
        let bits = protocol.message(
            grant.speaker,
            &inputs[grant.speaker],
            &engine.board().view(grant.speaker),
            &mut rng,
        );
        engine
            .apply(grant.speaker, bits, Some(&rng.state_bytes()))
            .expect("reply matches the grant");
    }
    let output = engine.output();
    let board = engine.into_board();
    let stats = TopologyCommStats::from_board(&board, protocol.num_players());
    let digest = board.digest();
    RoutedExecution {
        board,
        output,
        stats,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::STATE_LEN;

    /// Non-hub players send one random bit to the hub; the hub answers
    /// each with the parity so far.
    struct StarEcho {
        k: usize,
    }

    impl RoutedProtocol for StarEcho {
        type Input = ();
        type Output = usize;

        fn topology(&self) -> Topology {
            Topology::CoordinatorStar { hub: 0 }
        }

        fn num_players(&self) -> usize {
            self.k
        }

        fn next_turn(&self, board: &RoutedBoard) -> Option<(PlayerId, Link)> {
            let t = board.messages().len();
            let spokes = self.k - 1;
            if t < spokes {
                let p = t + 1;
                Some((p, Link::Directed { from: p, to: 0 }))
            } else if t < 2 * spokes {
                let p = t - spokes + 1;
                Some((0, Link::Directed { from: 0, to: p }))
            } else {
                None
            }
        }

        fn message(
            &self,
            speaker: PlayerId,
            _input: &(),
            view: &PlayerView<'_>,
            rng: &mut dyn RngCore,
        ) -> BitVec {
            if speaker == 0 {
                let parity = view
                    .messages()
                    .iter()
                    .filter(|m| {
                        m.link
                            == Link::Directed {
                                from: m.speaker,
                                to: 0,
                            }
                    })
                    .filter(|m| m.bits.get(0) == Some(true))
                    .count()
                    % 2;
                BitVec::from_bools(&[parity == 1])
            } else {
                BitVec::from_bools(&[rng.next_u32() & 1 == 1])
            }
        }

        fn output(&self, board: &RoutedBoard) -> usize {
            board.total_bits()
        }
    }

    /// A 3-player protocol on `topology` that grants `turns[t]` on turn
    /// `t` and repeats the last turn forever.
    struct Scripted {
        topology: Topology,
        turns: Vec<(PlayerId, Link)>,
    }

    impl RoutedProtocol for Scripted {
        type Input = ();
        type Output = ();
        fn topology(&self) -> Topology {
            self.topology
        }
        fn num_players(&self) -> usize {
            3
        }
        fn next_turn(&self, b: &RoutedBoard) -> Option<(PlayerId, Link)> {
            Some(self.turns[b.messages().len().min(self.turns.len() - 1)])
        }
        fn message(
            &self,
            _s: PlayerId,
            _i: &(),
            _v: &PlayerView<'_>,
            _r: &mut dyn RngCore,
        ) -> BitVec {
            BitVec::from_bools(&[true])
        }
        fn output(&self, _b: &RoutedBoard) {}
    }

    /// The violation the first poll reports for `turns` on `topology`.
    fn first_violation(topology: Topology, turns: Vec<(PlayerId, Link)>) -> ProtocolViolation {
        let proto = Scripted { topology, turns };
        let routed = Routed(&proto);
        TurnEngine::new(&routed, 3).unwrap().poll().unwrap_err()
    }

    const STAR: Topology = Topology::CoordinatorStar { hub: 0 };

    #[test]
    fn star_echo_runs_and_accounts_per_link() {
        let rng = ChaCha8Rng::seed_from_u64(5);
        let exec = run_routed(&StarEcho { k: 4 }, &[(); 4], &rng);
        assert_eq!(exec.output, 6);
        assert_eq!(exec.stats.total_bits, 6);
        assert_eq!(exec.stats.broadcast_bits, 0);
        assert_eq!(exec.stats.directed_bits, 6);
        // Six links, one bit each: 1->0, 2->0, 3->0, 0->1, 0->2, 0->3.
        assert_eq!(exec.stats.link_bits.len(), 6);
        assert!(exec.stats.link_bits.iter().all(|&(_, b)| b == 1));
        // The hub touches every message; spokes touch two each.
        assert_eq!(exec.stats.player_bits, vec![6, 2, 2, 2]);
        assert_eq!(exec.stats.max_player_bits, 6);
        assert_eq!(exec.stats.max_link_bits, 1);
    }

    #[test]
    fn replay_from_the_same_seed_is_byte_identical() {
        let rng = ChaCha8Rng::seed_from_u64(11);
        let a = run_routed(&StarEcho { k: 5 }, &[(); 5], &rng);
        let b = run_routed(&StarEcho { k: 5 }, &[(); 5], &rng);
        assert_eq!(a.board, b.board);
        assert_eq!(a.board.to_bytes(), b.board.to_bytes());
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn views_hide_invisible_links() {
        let rng = ChaCha8Rng::seed_from_u64(3);
        let exec = run_routed(&StarEcho { k: 4 }, &[(); 4], &rng);
        // Player 1 sees exactly its own uplink and its downlink.
        let view = exec.board.view(1);
        assert_eq!(view.len(), 2);
        assert!(view.messages().iter().all(|m| m.link.visible_to(1)));
        // The hub sees everything.
        assert_eq!(exec.board.view(0).len(), exec.board.messages().len());
    }

    #[test]
    fn the_engine_enforces_the_topology() {
        // The star topology forbids a spoke-to-spoke link.
        let sneaky = Scripted {
            topology: STAR,
            turns: vec![(1, Link::Directed { from: 1, to: 2 })],
        };
        let routed = Routed(&sneaky);
        let mut engine = TurnEngine::new(&routed, 3).unwrap();
        let err = engine.poll().unwrap_err();
        assert_eq!(
            err,
            ProtocolViolation::LinkNotAllowed {
                speaker: 1,
                link: Link::Directed { from: 1, to: 2 },
                topology: "star",
            }
        );
        assert_eq!(
            err.to_string(),
            "player 1 granted link 1->2, not allowed under the star topology"
        );
        // The violation is stable under re-poll.
        assert_eq!(engine.poll().unwrap_err(), err);
    }

    #[test]
    fn foreign_and_malformed_links_are_violations() {
        let p2p = Topology::PointToPoint;
        // from != speaker.
        let err = first_violation(p2p, vec![(1, Link::Directed { from: 2, to: 0 })]);
        assert_eq!(
            err,
            ProtocolViolation::ForeignLink {
                speaker: 1,
                link: Link::Directed { from: 2, to: 0 },
            }
        );
        assert_eq!(err.to_string(), "player 1 granted foreign link 2->0");
        // Out-of-range endpoint.
        let err = first_violation(p2p, vec![(1, Link::Directed { from: 1, to: 9 })]);
        assert_eq!(
            err,
            ProtocolViolation::MalformedLink {
                link: Link::Directed { from: 1, to: 9 },
                players: 3,
            }
        );
        assert_eq!(err.to_string(), "malformed link 1->9 for 3 players");
    }

    #[test]
    fn grant_discipline_matches_the_blackboard_engine() {
        let proto = StarEcho { k: 3 };
        let routed = Routed(&proto);
        let rng = ChaCha8Rng::seed_from_u64(0);
        let mut engine = TurnEngine::with_rng(&routed, 3, &rng).unwrap();

        // Reply before any grant.
        let err = engine.apply(1, BitVec::new(), None).unwrap_err();
        assert_eq!(err, ProtocolViolation::ReplyWithoutGrant { speaker: 1 });

        // Poll is idempotent while a grant is outstanding.
        let first = engine.poll().unwrap();
        let again = engine.poll().unwrap();
        assert_eq!(first, again);
        let Step::Grant(grant) = first else {
            panic!("expected a grant")
        };
        assert_eq!(grant.speaker, 1);
        assert_eq!(grant.route, Link::Directed { from: 1, to: 0 });
        assert!(grant.rng_state.is_some());

        // Wrong speaker; then bad RNG state; the canonical strings hold.
        let err = engine
            .apply(2, BitVec::new(), Some(&[0u8; STATE_LEN]))
            .unwrap_err();
        assert_eq!(err.to_string(), "player 2 replied on player 1's grant");
        let err = engine.apply(1, BitVec::new(), Some(&[1, 2])).unwrap_err();
        assert_eq!(err.to_string(), "player 1 returned a bad RNG state");

        // A good reply lands; the RNG state re-parks.
        let mut rng = grant.resume_rng();
        let bits = proto.message(1, &(), &engine.board().view(1), &mut rng);
        engine
            .apply(1, bits, Some(&rng.state_bytes()))
            .expect("valid reply");
        assert_eq!(engine.steps(), 1);
        assert!(engine.rng_state().is_some());
    }

    #[test]
    fn runaway_guard_trips_at_the_configured_budget() {
        let chatty = Scripted {
            topology: Topology::PointToPoint,
            turns: vec![(0, Link::Directed { from: 0, to: 1 })],
        };
        let routed = Routed(&chatty);
        let mut engine = TurnEngine::new(&routed, 3).unwrap().with_max_steps(8);
        let err = loop {
            match engine.poll() {
                Ok(Step::Grant(g)) => {
                    engine
                        .apply(g.speaker, BitVec::from_bools(&[true]), None)
                        .unwrap();
                }
                Ok(Step::Halted) => panic!("a scripted protocol never halts"),
                Err(v) => break v,
            }
        };
        assert_eq!(err, ProtocolViolation::Runaway { max_steps: 8 });
        assert_eq!(err.to_string(), "protocol exceeded 8 turns");
        assert_eq!(engine.steps(), 8);
    }

    #[test]
    fn poll_checks_speaker_then_link_then_budget() {
        // An out-of-range speaker on a malformed link: the speaker check
        // comes first.
        let err = first_violation(STAR, vec![(5, Link::Directed { from: 5, to: 5 })]);
        assert_eq!(
            err,
            ProtocolViolation::SpeakerOutOfRange {
                speaker: 5,
                players: 3
            }
        );

        // Past the step budget, a forbidden link is still reported as
        // the link violation, not as a runaway.
        let spoke_to_spoke = Link::Directed { from: 1, to: 2 };
        let late = Scripted {
            topology: STAR,
            turns: vec![
                (1, Link::Directed { from: 1, to: 0 }),
                (0, Link::Directed { from: 0, to: 2 }),
                (1, spoke_to_spoke),
            ],
        };
        let routed = Routed(&late);
        let mut engine = TurnEngine::new(&routed, 3).unwrap().with_max_steps(2);
        while engine.steps() < 2 {
            let Step::Grant(g) = engine.poll().unwrap() else {
                panic!("halted early")
            };
            engine.apply(g.speaker, BitVec::new(), None).unwrap();
        }
        assert_eq!(
            engine.poll().unwrap_err(),
            ProtocolViolation::LinkNotAllowed {
                speaker: 1,
                link: spoke_to_spoke,
                topology: "star",
            }
        );
    }

    #[test]
    fn serialization_distinguishes_links() {
        let mut a = RoutedBoard::new();
        a.write(
            0,
            Link::Directed { from: 0, to: 1 },
            BitVec::from_bools(&[true]),
        );
        let mut b = RoutedBoard::new();
        b.write(
            0,
            Link::Directed { from: 0, to: 2 },
            BitVec::from_bools(&[true]),
        );
        let mut c = RoutedBoard::new();
        c.write(0, Link::Broadcast, BitVec::from_bools(&[true]));
        assert_ne!(a.to_bytes(), b.to_bytes());
        assert_ne!(a.to_bytes(), c.to_bytes());
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
