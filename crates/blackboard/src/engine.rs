//! The sans-io turn engine: one protocol state machine for every driver.
//!
//! The paper's broadcast model is a pure state machine — the board alone
//! determines the next speaker — yet historically each transport in this
//! repo re-implemented the turn-drive loop: the serial runner, the two
//! in-process fabric transports, the v1 TCP coordinator, and the mux
//! daemon's park/resume table. [`TurnEngine`] extracts that loop into one
//! place with **no I/O, no threads, and no clocks** inside:
//!
//! * [`TurnEngine::poll`] asks the protocol whose turn it is and returns a
//!   [`Step`]: either a [`Grant`] (speaker + route + turn number + the
//!   parked session-RNG state, when the engine holds one) or
//!   [`Step::Halted`].
//! * The *driver* performs the granted turn wherever it likes — on the
//!   calling thread, on a player thread, or on the far side of a TCP
//!   socket — and hands the written bits (plus the post-message RNG
//!   state) back via [`TurnEngine::apply`].
//!
//! The engine owns the transcript, the turn cursor, the serialized
//! [`STATE_LEN`]-byte ChaCha8 session-RNG state between turns, the
//! runaway step guard, and bits-written accounting. Everything a protocol
//! can do wrong — naming an out-of-range speaker, granting a link it may
//! not use, never halting, a reply without an outstanding grant, the
//! wrong speaker replying, a malformed RNG state — is a structured
//! [`ProtocolViolation`] whose `Display` is the canonical abort-reason
//! string shared by every transport, so the fabric's `SessionOutcome`
//! taxonomy is populated identically no matter which driver detected the
//! violation.
//!
//! The engine sees a protocol as a [`Schedule`]. Every blackboard
//! [`Protocol`] is one, with the zero-sized route `()`; `bci_topology`
//! runs message-passing protocols with a link per turn.
//!
//! # Determinism
//!
//! Because the engine serializes writes (one outstanding grant at a time)
//! and the RNG state makes the round trip through the speaking player,
//! every driver consumes the randomness stream in the same order and
//! produces **bit-identical transcripts** for the same seed. The
//! driver-equivalence gate (`crates/mux/tests/driver_equivalence.rs`)
//! asserts this across all five drivers.
//!
//! # Example: a serial driver
//!
//! ```
//! use bci_blackboard::engine::{Step, TurnEngine};
//! use bci_blackboard::protocol::Protocol;
//! use bci_blackboard::board::Board;
//! use bci_encoding::bitio::BitVec;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! struct Echo;
//! impl Protocol for Echo {
//!     type Input = bool;
//!     type Output = usize;
//!     fn num_players(&self) -> usize { 2 }
//!     fn next_speaker(&self, board: &Board) -> Option<usize> {
//!         (board.messages().len() < 2).then_some(board.messages().len())
//!     }
//!     fn message(&self, _p: usize, input: &bool, _b: &Board,
//!                _rng: &mut dyn rand::RngCore) -> BitVec {
//!         BitVec::from_bools(&[*input])
//!     }
//!     fn output(&self, board: &Board) -> usize { board.total_bits() }
//! }
//!
//! let protocol = Echo;
//! let inputs = [true, false];
//! let rng = ChaCha8Rng::seed_from_u64(7);
//! let mut engine = TurnEngine::with_rng(&protocol, inputs.len(), &rng).unwrap();
//! loop {
//!     match engine.poll().unwrap() {
//!         Step::Grant(grant) => {
//!             let mut rng = grant.resume_rng();
//!             let bits = protocol.message(grant.speaker, &inputs[grant.speaker],
//!                                         engine.board(), &mut rng);
//!             engine.apply(grant.speaker, bits, Some(&rng.state_bytes())).unwrap();
//!         }
//!         Step::Halted => break,
//!     }
//! }
//! assert_eq!(engine.output(), 2);
//! assert_eq!(engine.bits_written(), 2);
//! ```

use std::fmt;

use bci_encoding::bitio::BitVec;
use rand_chacha::{ChaCha8Rng, STATE_LEN};

use crate::board::Board;
use crate::link::Link;
use crate::protocol::{Protocol, MAX_STEPS};
use crate::PlayerId;

/// A protocol as the turn engine sees it: who speaks next, on which
/// route, and how a write lands on the transcript.
///
/// Every blackboard [`Protocol`] is a `Schedule` (over [`Board`], with
/// route `()`) through a blanket impl. The method names differ from
/// [`Protocol`]'s so calls on a type implementing both stay unambiguous.
pub trait Schedule {
    /// The transcript the engine owns.
    type Board: Clone + Default + fmt::Debug;
    /// What a turn names besides its speaker: `()` on the blackboard, the
    /// [`Link`] for message-passing protocols.
    type Route: Copy + Eq + fmt::Debug;
    /// The output a final transcript determines.
    type Output;

    /// Number of players `k`.
    fn players(&self) -> usize;

    /// Whose turn it is and on which route, or `None` when halted.
    fn next_turn(&self, board: &Self::Board) -> Option<(PlayerId, Self::Route)>;

    /// Validates a turn whose speaker is in range, before it is granted.
    fn check_turn(&self, _speaker: PlayerId, _route: Self::Route) -> Result<(), ProtocolViolation> {
        Ok(())
    }

    /// Appends the speaker's message to the transcript.
    fn record(&self, board: &mut Self::Board, speaker: PlayerId, route: Self::Route, bits: BitVec);

    /// Total bits on the transcript — the communication cost.
    fn bits(&self, board: &Self::Board) -> usize;

    /// The output determined by the (final) transcript.
    fn decide(&self, board: &Self::Board) -> Self::Output;
}

impl<P: Protocol> Schedule for P {
    type Board = Board;
    type Route = ();
    type Output = P::Output;

    fn players(&self) -> usize {
        self.num_players()
    }

    fn next_turn(&self, board: &Board) -> Option<(PlayerId, ())> {
        self.next_speaker(board).map(|speaker| (speaker, ()))
    }

    fn record(&self, board: &mut Board, speaker: PlayerId, _route: (), bits: BitVec) {
        board.write(speaker, bits);
    }

    fn bits(&self, board: &Board) -> usize {
        board.total_bits()
    }

    fn decide(&self, board: &Board) -> P::Output {
        self.output(board)
    }
}

/// What the engine asks its driver to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<R = ()> {
    /// A turn is granted: the driver must have `speaker` compute its
    /// message and hand the bits back via [`TurnEngine::apply`].
    Grant(Grant<R>),
    /// The protocol halted; the board is final and
    /// [`TurnEngine::output`] is defined.
    Halted,
}

/// One granted turn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant<R = ()> {
    /// The player whose turn it is.
    pub speaker: PlayerId,
    /// The route the message will be recorded on ([`Schedule::Route`]).
    pub route: R,
    /// Zero-based turn number (== board writes so far).
    pub turn: usize,
    /// The serialized session-RNG state the speaker must resume from,
    /// when the engine holds the RNG (engines built with
    /// [`TurnEngine::with_rng`]). `None` for external-RNG engines
    /// ([`TurnEngine::new`]), where the driver owns the random source.
    pub rng_state: Option<[u8; STATE_LEN]>,
}

impl<R> Grant<R> {
    /// Resumes the session RNG from the grant's serialized state.
    ///
    /// # Panics
    ///
    /// Panics if the engine was built without an RNG
    /// ([`TurnEngine::new`]); external-RNG drivers bring their own.
    pub fn resume_rng(&self) -> ChaCha8Rng {
        let state = self
            .rng_state
            .as_ref()
            .expect("grant carries no RNG state (external-RNG engine)");
        ChaCha8Rng::from_state_bytes(state)
    }
}

/// A violation of the protocol/driver contract, detected by the engine.
///
/// The `Display` impl renders the canonical abort-reason string used
/// across every transport, so mapping a violation onto the fabric's
/// `SessionOutcome::Aborted` (or a panic, for the serial runner) yields
/// identical wording no matter which driver caught it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolViolation {
    /// The driver supplied a different number of inputs than the
    /// protocol has players.
    InputCount {
        /// `Schedule::players()`.
        expected: usize,
        /// Inputs the driver supplied.
        got: usize,
    },
    /// The schedule named a player outside `0..players`.
    SpeakerOutOfRange {
        /// The out-of-range speaker.
        speaker: PlayerId,
        /// Roster size `k`.
        players: usize,
    },
    /// The granted link is malformed: an endpoint out of range, or a
    /// directed self-loop.
    MalformedLink {
        /// The offending link.
        link: Link,
        /// Roster size `k`.
        players: usize,
    },
    /// A directed link whose `from` is not the granted speaker.
    ForeignLink {
        /// The granted speaker.
        speaker: PlayerId,
        /// The link (with `from != speaker`).
        link: Link,
    },
    /// The protocol granted a link its own topology forbids.
    LinkNotAllowed {
        /// The granted speaker.
        speaker: PlayerId,
        /// The offending link.
        link: Link,
        /// The CLI-facing name of the protocol's topology.
        topology: &'static str,
    },
    /// The protocol did not halt within the step budget.
    Runaway {
        /// The configured cap ([`TurnEngine::with_max_steps`]).
        max_steps: usize,
    },
    /// [`TurnEngine::apply`] was called with no grant outstanding.
    ReplyWithoutGrant {
        /// The player that replied.
        speaker: PlayerId,
    },
    /// A different player replied than the one holding the grant.
    WrongSpeaker {
        /// The player holding the outstanding grant.
        granted: PlayerId,
        /// The player that actually replied.
        speaker: PlayerId,
    },
    /// The reply's serialized RNG state was missing or malformed.
    BadRngState {
        /// The replying player.
        speaker: PlayerId,
        /// Length of the state supplied (`!= STATE_LEN`).
        len: usize,
    },
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolViolation::InputCount { expected, got } => {
                write!(f, "expected {expected} inputs, got {got}")
            }
            ProtocolViolation::SpeakerOutOfRange { speaker, players } => {
                write!(f, "protocol named speaker {speaker} of {players}")
            }
            ProtocolViolation::MalformedLink { link, players } => {
                write!(f, "malformed link {link} for {players} players")
            }
            ProtocolViolation::ForeignLink { speaker, link } => {
                write!(f, "player {speaker} granted foreign link {link}")
            }
            ProtocolViolation::LinkNotAllowed {
                speaker,
                link,
                topology,
            } => write!(
                f,
                "player {speaker} granted link {link}, not allowed under the {topology} topology"
            ),
            ProtocolViolation::Runaway { max_steps } => {
                write!(f, "protocol exceeded {max_steps} turns")
            }
            ProtocolViolation::ReplyWithoutGrant { speaker } => {
                write!(f, "player {speaker} replied without an outstanding grant")
            }
            ProtocolViolation::WrongSpeaker { granted, speaker } => {
                write!(f, "player {speaker} replied on player {granted}'s grant")
            }
            ProtocolViolation::BadRngState { speaker, .. } => {
                write!(f, "player {speaker} returned a bad RNG state")
            }
        }
    }
}

impl std::error::Error for ProtocolViolation {}

/// Where the session RNG lives right now.
#[derive(Debug, Clone)]
enum RngSlot {
    /// The driver owns the random source; the engine never sees it.
    External,
    /// Parked in the engine between turns.
    Parked([u8; STATE_LEN]),
    /// Out with the granted speaker. The copy lets [`TurnEngine::poll`]
    /// re-issue an identical grant (idempotence), e.g. for a
    /// reconnect-and-regrant driver.
    Lent([u8; STATE_LEN]),
}

/// The sans-io protocol state machine driving one session.
///
/// See the [module docs](self) for the contract and an example driver.
pub struct TurnEngine<'p, P: Schedule> {
    protocol: &'p P,
    board: P::Board,
    rng: RngSlot,
    steps: usize,
    max_steps: usize,
    granted: Option<(PlayerId, P::Route)>,
    halted: bool,
}

// Manual impls: a derive would demand `P: Debug` / `P: Clone`, but the
// engine only holds `&P`.
impl<P: Schedule> fmt::Debug for TurnEngine<'_, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TurnEngine")
            .field("board", &self.board)
            .field("rng", &self.rng)
            .field("steps", &self.steps)
            .field("max_steps", &self.max_steps)
            .field("granted", &self.granted)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl<P: Schedule> Clone for TurnEngine<'_, P> {
    fn clone(&self) -> Self {
        TurnEngine {
            protocol: self.protocol,
            board: self.board.clone(),
            rng: self.rng.clone(),
            steps: self.steps,
            max_steps: self.max_steps,
            granted: self.granted,
            halted: self.halted,
        }
    }
}

impl<'p, P: Schedule> TurnEngine<'p, P> {
    /// An engine whose driver owns the random source (grants carry no
    /// RNG state). Used by the serial runner, whose public API accepts
    /// any `&mut dyn RngCore`.
    ///
    /// # Errors
    ///
    /// [`ProtocolViolation::InputCount`] if `input_count` differs from
    /// `protocol.players()`.
    pub fn new(protocol: &'p P, input_count: usize) -> Result<Self, ProtocolViolation> {
        Self::build(protocol, input_count, RngSlot::External)
    }

    /// An engine that parks the serialized ChaCha8 session-RNG state
    /// between turns and ships it inside every [`Grant`] — the discipline
    /// all transports share.
    ///
    /// # Errors
    ///
    /// [`ProtocolViolation::InputCount`] if `input_count` differs from
    /// `protocol.players()`.
    pub fn with_rng(
        protocol: &'p P,
        input_count: usize,
        rng: &ChaCha8Rng,
    ) -> Result<Self, ProtocolViolation> {
        Self::build(protocol, input_count, RngSlot::Parked(rng.state_bytes()))
    }

    fn build(protocol: &'p P, input_count: usize, rng: RngSlot) -> Result<Self, ProtocolViolation> {
        let expected = protocol.players();
        if input_count != expected {
            return Err(ProtocolViolation::InputCount {
                expected,
                got: input_count,
            });
        }
        Ok(TurnEngine {
            protocol,
            board: P::Board::default(),
            rng,
            steps: 0,
            max_steps: MAX_STEPS,
            granted: None,
            halted: false,
        })
    }

    /// Overrides the runaway guard (default
    /// [`MAX_STEPS`]). Networked coordinators thread their
    /// deployment's cap through here so a buggy non-terminating
    /// protocol aborts instead of spinning a session forever.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Advances the state machine: grants the next turn, re-issues the
    /// outstanding grant (polling is idempotent), or reports the halt.
    ///
    /// A new turn is checked in this order: speaker range, then
    /// [`Schedule::check_turn`], then the step budget.
    ///
    /// # Errors
    ///
    /// * [`ProtocolViolation::SpeakerOutOfRange`] — the schedule named a
    ///   player `>= players()`;
    /// * whatever [`Schedule::check_turn`] rejects (the link violations,
    ///   for message-passing protocols);
    /// * [`ProtocolViolation::Runaway`] — the step budget is exhausted
    ///   and the protocol still wants to speak.
    pub fn poll(&mut self) -> Result<Step<P::Route>, ProtocolViolation> {
        if self.halted {
            return Ok(Step::Halted);
        }
        if let Some((speaker, route)) = self.granted {
            return Ok(Step::Grant(self.issue(speaker, route)));
        }
        let Some((speaker, route)) = self.protocol.next_turn(&self.board) else {
            self.halted = true;
            return Ok(Step::Halted);
        };
        let players = self.protocol.players();
        if speaker >= players {
            return Err(ProtocolViolation::SpeakerOutOfRange { speaker, players });
        }
        self.protocol.check_turn(speaker, route)?;
        if self.steps >= self.max_steps {
            return Err(ProtocolViolation::Runaway {
                max_steps: self.max_steps,
            });
        }
        self.granted = Some((speaker, route));
        if let RngSlot::Parked(state) = self.rng {
            self.rng = RngSlot::Lent(state);
        }
        Ok(Step::Grant(self.issue(speaker, route)))
    }

    fn issue(&self, speaker: PlayerId, route: P::Route) -> Grant<P::Route> {
        Grant {
            speaker,
            route,
            turn: self.steps,
            rng_state: match self.rng {
                RngSlot::External => None,
                RngSlot::Parked(state) | RngSlot::Lent(state) => Some(state),
            },
        }
    }

    /// Applies the granted speaker's reply: records `bits` on the granted
    /// route, re-parks the returned RNG state, and advances the turn
    /// cursor.
    ///
    /// `rng_state` must be the speaker's post-message serialized state
    /// for engines built with [`with_rng`](Self::with_rng); external-RNG
    /// engines ignore it.
    ///
    /// # Errors
    ///
    /// * [`ProtocolViolation::ReplyWithoutGrant`] — no grant outstanding;
    /// * [`ProtocolViolation::WrongSpeaker`] — `speaker` is not the
    ///   granted player;
    /// * [`ProtocolViolation::BadRngState`] — the engine parks the RNG
    ///   but the reply's state is missing or not [`STATE_LEN`] bytes.
    pub fn apply(
        &mut self,
        speaker: PlayerId,
        bits: BitVec,
        rng_state: Option<&[u8]>,
    ) -> Result<(), ProtocolViolation> {
        let Some((granted, route)) = self.granted else {
            return Err(ProtocolViolation::ReplyWithoutGrant { speaker });
        };
        if speaker != granted {
            return Err(ProtocolViolation::WrongSpeaker { granted, speaker });
        }
        if let RngSlot::Lent(_) = self.rng {
            let state: [u8; STATE_LEN] = match rng_state {
                Some(bytes) => match bytes.try_into() {
                    Ok(state) => state,
                    Err(_) => {
                        return Err(ProtocolViolation::BadRngState {
                            speaker,
                            len: bytes.len(),
                        })
                    }
                },
                None => return Err(ProtocolViolation::BadRngState { speaker, len: 0 }),
            };
            self.rng = RngSlot::Parked(state);
        }
        self.granted = None;
        self.protocol.record(&mut self.board, speaker, route, bits);
        self.steps += 1;
        Ok(())
    }

    /// The protocol this engine drives.
    pub fn protocol(&self) -> &'p P {
        self.protocol
    }

    /// The board (= the transcript so far).
    pub fn board(&self) -> &P::Board {
        &self.board
    }

    /// Turn cursor: board writes applied so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Total bits written — the communication cost so far.
    pub fn bits_written(&self) -> usize {
        self.protocol.bits(&self.board)
    }

    /// The player holding an outstanding grant, if any.
    pub fn granted(&self) -> Option<PlayerId> {
        self.granted.map(|(speaker, _)| speaker)
    }

    /// `true` once [`poll`](Self::poll) has observed the halt.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The parked session-RNG state, when the engine holds one and no
    /// grant is outstanding. Lets a driver snapshot a session mid-run.
    pub fn rng_state(&self) -> Option<&[u8; STATE_LEN]> {
        match &self.rng {
            RngSlot::Parked(state) => Some(state),
            _ => None,
        }
    }

    /// The protocol's output for the final board.
    ///
    /// Meaningful once the engine halted; on a partial board this is
    /// whatever the protocol makes of it. May panic if the *protocol's*
    /// output does — drivers that must contain that wrap this call in
    /// `catch_unwind`.
    pub fn output(&self) -> P::Output {
        self.protocol.decide(&self.board)
    }

    /// Consumes the engine, returning the board (for drivers that seal a
    /// session result with the partial transcript).
    pub fn into_board(self) -> P::Board {
        self.board
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    /// Players 0..k speak one random bit each, in order.
    struct RoundRobin {
        k: usize,
    }

    impl Protocol for RoundRobin {
        type Input = ();
        type Output = usize;

        fn num_players(&self) -> usize {
            self.k
        }

        fn next_speaker(&self, board: &Board) -> Option<PlayerId> {
            (board.messages().len() < self.k).then_some(board.messages().len())
        }

        fn message(
            &self,
            _player: PlayerId,
            _input: &(),
            _board: &Board,
            rng: &mut dyn RngCore,
        ) -> BitVec {
            BitVec::from_bools(&[rng.next_u32() & 1 == 1])
        }

        fn output(&self, board: &Board) -> usize {
            board.total_bits()
        }
    }

    /// A `k`-player protocol naming `next` as the speaker on every turn
    /// (`None`: it halts at once).
    struct Fixed {
        k: usize,
        next: Option<PlayerId>,
    }

    impl Protocol for Fixed {
        type Input = ();
        type Output = ();
        fn num_players(&self) -> usize {
            self.k
        }
        fn next_speaker(&self, _board: &Board) -> Option<PlayerId> {
            self.next
        }
        fn message(&self, _p: PlayerId, _i: &(), _b: &Board, _r: &mut dyn RngCore) -> BitVec {
            BitVec::from_bools(&[true])
        }
        fn output(&self, _board: &Board) {}
    }

    fn drive(engine: &mut TurnEngine<'_, RoundRobin>, inputs: &[()]) {
        while let Step::Grant(grant) = engine.poll().expect("no violation") {
            let mut rng = grant.resume_rng();
            let bits = engine.protocol().message(
                grant.speaker,
                &inputs[grant.speaker],
                engine.board(),
                &mut rng,
            );
            engine
                .apply(grant.speaker, bits, Some(&rng.state_bytes()))
                .expect("apply");
        }
    }

    #[test]
    fn engine_matches_the_serial_runner() {
        let protocol = RoundRobin { k: 5 };
        let inputs = [(); 5];
        for seed in 0..20u64 {
            let serial = {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                crate::protocol::run(&protocol, &inputs, &mut rng)
            };
            let rng = ChaCha8Rng::seed_from_u64(seed);
            let mut engine = TurnEngine::with_rng(&protocol, 5, &rng).unwrap();
            drive(&mut engine, &inputs);
            assert_eq!(engine.board(), &serial.board, "seed {seed}");
            assert_eq!(engine.output(), serial.output);
            assert_eq!(engine.bits_written(), serial.bits_written);
            assert_eq!(engine.steps(), 5);
            assert!(engine.is_halted());
        }
    }

    #[test]
    fn rng_round_trips_through_grants() {
        // The final parked state equals a straight-line run's state: the
        // engine neither loses nor duplicates randomness.
        let protocol = RoundRobin { k: 4 };
        let mut straight = ChaCha8Rng::seed_from_u64(9);
        let board = {
            let mut b = Board::new();
            for p in 0..4 {
                b.write(p, protocol.message(p, &(), &Board::new(), &mut straight));
            }
            b
        };
        let rng = ChaCha8Rng::seed_from_u64(9);
        let mut engine = TurnEngine::with_rng(&protocol, 4, &rng).unwrap();
        drive(&mut engine, &[(); 4]);
        assert_eq!(
            engine.rng_state().expect("parked"),
            &straight.state_bytes(),
            "post-run RNG states diverged"
        );
        assert_eq!(engine.board().total_bits(), board.total_bits());
    }

    #[test]
    fn input_count_is_checked_at_construction() {
        let protocol = RoundRobin { k: 3 };
        let err = TurnEngine::new(&protocol, 2).unwrap_err();
        assert_eq!(
            err,
            ProtocolViolation::InputCount {
                expected: 3,
                got: 2
            }
        );
        assert_eq!(err.to_string(), "expected 3 inputs, got 2");
    }

    #[test]
    fn poll_is_idempotent_while_a_grant_is_outstanding() {
        let protocol = RoundRobin { k: 2 };
        let rng = ChaCha8Rng::seed_from_u64(0);
        let mut engine = TurnEngine::with_rng(&protocol, 2, &rng).unwrap();
        let first = engine.poll().unwrap();
        let again = engine.poll().unwrap();
        assert_eq!(first, again, "re-poll re-issues the same grant");
        let Step::Grant(grant) = first else {
            panic!("expected a grant")
        };
        assert_eq!(grant.speaker, 0);
        assert_eq!(grant.turn, 0);
        assert!(grant.rng_state.is_some());
        assert_eq!(engine.granted(), Some(0));
    }

    #[test]
    fn halted_poll_is_idempotent() {
        let silent = Fixed { k: 1, next: None };
        let mut engine = TurnEngine::new(&silent, 1).unwrap();
        assert_eq!(engine.poll().unwrap(), Step::Halted);
        assert_eq!(engine.poll().unwrap(), Step::Halted);
        assert!(engine.is_halted());
    }

    #[test]
    fn reply_contract_violations_are_structured() {
        let protocol = RoundRobin { k: 3 };
        let rng = ChaCha8Rng::seed_from_u64(1);
        let mut engine = TurnEngine::with_rng(&protocol, 3, &rng).unwrap();

        // Reply before any grant.
        let err = engine.apply(0, BitVec::new(), None).unwrap_err();
        assert_eq!(err, ProtocolViolation::ReplyWithoutGrant { speaker: 0 });
        assert!(err.to_string().contains("without an outstanding grant"));

        // Wrong speaker replies.
        let Step::Grant(grant) = engine.poll().unwrap() else {
            panic!("grant expected")
        };
        assert_eq!(grant.speaker, 0);
        let err = engine
            .apply(2, BitVec::new(), Some(&[0u8; STATE_LEN]))
            .unwrap_err();
        assert_eq!(
            err,
            ProtocolViolation::WrongSpeaker {
                granted: 0,
                speaker: 2
            }
        );
        assert_eq!(err.to_string(), "player 2 replied on player 0's grant");

        // Malformed RNG state.
        let err = engine
            .apply(0, BitVec::new(), Some(&[1, 2, 3]))
            .unwrap_err();
        assert_eq!(err, ProtocolViolation::BadRngState { speaker: 0, len: 3 });
        assert_eq!(err.to_string(), "player 0 returned a bad RNG state");
        let err = engine.apply(0, BitVec::new(), None).unwrap_err();
        assert_eq!(err, ProtocolViolation::BadRngState { speaker: 0, len: 0 });

        // A good reply still lands after the failed attempts.
        let mut rng = grant.resume_rng();
        let bits = protocol.message(0, &(), engine.board(), &mut rng);
        engine
            .apply(0, bits, Some(&rng.state_bytes()))
            .expect("valid reply");
        assert_eq!(engine.steps(), 1);
    }

    #[test]
    fn out_of_range_speaker_is_a_violation() {
        let bad = Fixed {
            k: 2,
            next: Some(7),
        };
        let mut engine = TurnEngine::new(&bad, 2).unwrap();
        let err = engine.poll().unwrap_err();
        assert_eq!(
            err,
            ProtocolViolation::SpeakerOutOfRange {
                speaker: 7,
                players: 2
            }
        );
        assert_eq!(err.to_string(), "protocol named speaker 7 of 2");
        // The violation is stable: polling again reports it again.
        assert_eq!(engine.poll().unwrap_err(), err);
    }

    #[test]
    fn runaway_guard_trips_at_the_configured_budget() {
        let never_halts = Fixed {
            k: 1,
            next: Some(0),
        };
        let mut engine = TurnEngine::new(&never_halts, 1).unwrap().with_max_steps(16);
        let mut applied = 0usize;
        let err = loop {
            match engine.poll() {
                Ok(Step::Grant(grant)) => {
                    engine
                        .apply(grant.speaker, BitVec::from_bools(&[true]), None)
                        .unwrap();
                    applied += 1;
                }
                Ok(Step::Halted) => panic!("a fixed speaker never halts"),
                Err(v) => break v,
            }
        };
        assert_eq!(applied, 16, "exactly max_steps writes land");
        assert_eq!(err, ProtocolViolation::Runaway { max_steps: 16 });
        assert_eq!(err.to_string(), "protocol exceeded 16 turns");
    }

    #[test]
    fn external_rng_grants_carry_no_state() {
        let protocol = RoundRobin { k: 2 };
        let mut engine = TurnEngine::new(&protocol, 2).unwrap();
        let Step::Grant(grant) = engine.poll().unwrap() else {
            panic!("grant expected")
        };
        assert_eq!(grant.rng_state, None);
        // apply ignores rng_state in external mode.
        engine
            .apply(grant.speaker, BitVec::from_bools(&[true]), None)
            .unwrap();
        assert_eq!(engine.steps(), 1);
        assert_eq!(engine.rng_state(), None);
    }
}
