//! Property tests for routed protocols on the turn engine:
//! deterministic replay under the RNG parking discipline, and exact
//! agreement between the native routed execution and the blackboard
//! embedding, over random protocols whose link schedule depends on the
//! randomness consumed so far.

use bci_blackboard::engine::{Step, TurnEngine};
use bci_blackboard::PlayerId;
use bci_encoding::bitio::BitVec;
use bci_topology::{
    run_routed, Embedded, Link, PlayerView, Routed, RoutedBoard, RoutedProtocol, Topology,
};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn fnv1a(words: &[u64]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

/// A randomly-parameterized routed protocol: each turn's speaker and
/// destination are a hash of the evolving transcript — including
/// `total_bits`, which depends on how much randomness each message drew.
/// Any divergence in the RNG stream derails the whole link schedule, so
/// transcript equality is a sharp witness of bit-identical execution.
struct RandRouted {
    players: usize,
    rounds: usize,
    max_extra_bits: usize,
    star: bool,
}

impl RandRouted {
    fn total_turns(&self) -> usize {
        self.players * self.rounds
    }
}

impl RoutedProtocol for RandRouted {
    type Input = u64;
    type Output = u64;

    fn topology(&self) -> Topology {
        if self.star {
            Topology::CoordinatorStar { hub: 0 }
        } else {
            Topology::PointToPoint
        }
    }

    fn num_players(&self) -> usize {
        self.players
    }

    fn next_turn(&self, board: &RoutedBoard) -> Option<(PlayerId, Link)> {
        let turn = board.messages().len();
        if turn >= self.total_turns() {
            return None;
        }
        let h = fnv1a(&[turn as u64, board.total_bits() as u64]);
        let from = h as usize % self.players;
        let to = if self.star {
            // Every edge touches the hub: spokes talk to 0, 0 picks a spoke.
            if from == 0 {
                1 + (h >> 16) as usize % (self.players - 1)
            } else {
                0
            }
        } else {
            // Any directed edge except a self-loop.
            let raw = (h >> 16) as usize % (self.players - 1);
            if raw >= from {
                raw + 1
            } else {
                raw
            }
        };
        Some((from, Link::Directed { from, to }))
    }

    fn message(
        &self,
        speaker: PlayerId,
        input: &u64,
        view: &PlayerView<'_>,
        rng: &mut dyn RngCore,
    ) -> BitVec {
        let coin = rng.random_bool(0.5);
        let extra = rng.random_range(0..=self.max_extra_bits);
        let mut bits = vec![
            (input >> (view.len() % 64)) & 1 == 1,
            coin,
            speaker.is_multiple_of(2),
            view.total_bits().is_multiple_of(2),
        ];
        for _ in 0..extra {
            bits.push(rng.random_bool(0.5));
        }
        BitVec::from_bools(&bits)
    }

    fn output(&self, board: &RoutedBoard) -> u64 {
        board.digest()
    }
}

fn sample_inputs(players: usize, rng: &mut ChaCha8Rng) -> Vec<u64> {
    (0..players).map(|_| rng.next_u64()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed, same protocol → byte-identical boards, digests, and
    /// per-link accounting on every run.
    #[test]
    fn run_routed_is_deterministic(
        players in 2usize..6,
        rounds in 1usize..4,
        max_extra_bits in 0usize..10,
        star in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let proto = RandRouted { players, rounds, max_extra_bits, star };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inputs = sample_inputs(players, &mut rng);

        let a = run_routed(&proto, &inputs, &rng);
        let b = run_routed(&proto, &inputs, &rng);
        prop_assert_eq!(a.board.messages().len(), proto.total_turns());
        prop_assert_eq!(a.board.to_bytes(), b.board.to_bytes());
        prop_assert_eq!(a.digest, b.digest);
        prop_assert_eq!(a.output, b.output);
        prop_assert_eq!(a.stats.link_bits, b.stats.link_bits);
        prop_assert_eq!(a.stats.player_bits, b.stats.player_bits);
    }

    /// A hand-rolled engine drive through the park/lend/repark RNG
    /// discipline — the path every external transport would use —
    /// reproduces the serial reference execution exactly, and leaves the
    /// engine's parked RNG in the same state as an external RNG driven
    /// straight through.
    #[test]
    fn parked_replay_matches_the_serial_reference(
        players in 2usize..6,
        rounds in 1usize..4,
        max_extra_bits in 0usize..10,
        star in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let proto = RandRouted { players, rounds, max_extra_bits, star };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inputs = sample_inputs(players, &mut rng);

        let serial = run_routed(&proto, &inputs, &rng);
        let mut external = rng.clone();

        let routed = Routed(&proto);
        let mut engine = TurnEngine::with_rng(&routed, inputs.len(), &rng)
            .expect("input count matches");
        while let Step::Grant(grant) = engine.poll().expect("no violations") {
            // Re-polling must re-issue the same grant (idempotence).
            let again = match engine.poll().expect("no violations") {
                Step::Grant(g) => g,
                Step::Halted => panic!("halted while a grant is outstanding"),
            };
            prop_assert_eq!(again.speaker, grant.speaker);
            prop_assert_eq!(again.route, grant.route);
            let mut lent = grant.resume_rng();
            let bits = proto.message(
                grant.speaker,
                &inputs[grant.speaker],
                &engine.board().view(grant.speaker),
                &mut lent,
            );
            // The continuous external RNG must produce the same bits.
            let direct = proto.message(
                grant.speaker,
                &inputs[grant.speaker],
                &engine.board().view(grant.speaker),
                &mut external,
            );
            prop_assert_eq!(&bits, &direct);
            engine
                .apply(grant.speaker, bits, Some(&lent.state_bytes()))
                .expect("reply matches the grant");
        }
        prop_assert_eq!(engine.board().to_bytes(), serial.board.to_bytes());
        prop_assert_eq!(engine.board().digest(), serial.digest);
        prop_assert_eq!(engine.bits_written(), serial.stats.total_bits);
        prop_assert_eq!(
            engine.rng_state().expect("parked after halt"),
            &external.state_bytes(),
            "parked RNG diverged from the straight-through external stream"
        );
    }

    /// The blackboard embedding executes the identical routed protocol:
    /// decoding the blackboard transcript recovers the native routed
    /// board byte for byte, with the only cost difference being the link
    /// headers.
    #[test]
    fn embedding_agrees_with_the_native_run(
        players in 2usize..6,
        rounds in 1usize..4,
        max_extra_bits in 0usize..10,
        star in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let proto = RandRouted { players, rounds, max_extra_bits, star };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inputs = sample_inputs(players, &mut rng);

        let native = run_routed(&proto, &inputs, &rng);

        let embedded = Embedded::new(RandRouted { players, rounds, max_extra_bits, star });
        let mut bb_rng = rng.clone();
        let exec = bci_blackboard::protocol::run(&embedded, &inputs, &mut bb_rng);

        let decoded = embedded.decode_board(&exec.board);
        prop_assert_eq!(decoded.to_bytes(), native.board.to_bytes());
        prop_assert_eq!(exec.output, native.output);
        prop_assert_eq!(
            exec.bits_written,
            native.stats.total_bits
                + native.board.messages().len() * embedded.header_bits()
        );
    }
}
