//! The mux workloads: k = 2 synthetic players, one thread and one
//! loopback connection each, against an in-process mux daemon running
//! DISJ sessions (n = 64, sweep density) in closed-loop batches; plus the
//! per-turn, per-frame and per-session costs of the layers under it,
//! measured in process on the same request mix.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use bci_blackboard::engine::{Step, TurnEngine};
use bci_blackboard::protocol::Protocol;
use bci_blackboard::runner::derive_trial_seed;
use bci_encoding::bitio::BitVec;
use bci_encoding::wire::Wire;
use bci_mux::daemon::{accept_mux_roster, run_mux_daemon, MuxOptions};
use bci_mux::load::{inprocess_digest_fold, LoadSpec};
use bci_mux::player::{connect_mux_player, run_mux_player, MuxPlayerReport};
use bci_net::coordinator::SessionInfo;
use bci_net::frame::{BroadcastFrame, Frame, FrameReader, InputFrame, OutcomeFrame, NO_PLAYER};
use bci_net::overhead::fold_digest_u64;
use bci_net::transport::WireStats;
use bci_protocols::disj::broadcast::BroadcastDisj;
use bci_protocols::disj::disj_function;
use bci_protocols::workload;
use bci_telemetry::hist::TURN_LATENCY_US_BOUNDS;
use bci_telemetry::{Histogram, Recorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::measure::{cpu_time_s, median, nproc, peak_rss_mb, percentile, timed, Metrics};

/// Synthetic players: one thread each, so the load generator uses as
/// many threads as the benchmark host has CPUs.
pub const PLAYERS: usize = 2;

/// Sessions per daemon run. Each run pays its own listener bind, dial and
/// roster handshake, which is what `setup_s` times.
pub const BATCH: u64 = 8192;

const PROTOCOL_ID: &str = "disj";

fn spec(sessions: u64, window: usize, seed: u64) -> LoadSpec {
    let mut spec = LoadSpec::new(sessions, PLAYERS);
    spec.seed = seed;
    spec.max_inflight = window;
    spec
}

/// One daemon run: set-up, the timed sessions, and their verification.
#[derive(Debug)]
pub struct Batch {
    pub sessions: u64,
    /// Listener bind + player dial + roster handshake, in seconds.
    pub setup_s: f64,
    /// Roster complete → last outcome, in seconds.
    pub elapsed_s: f64,
    /// Process CPU seconds spent while the daemon ran.
    pub cpu_s: f64,
    pub completed: u64,
    /// The exact p50 and p99 of per-session admission → outcome latency,
    /// in milliseconds. Only these are kept, so what a run retains does
    /// not grow with its length or throughput.
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub turns: u64,
    pub wire: WireStats,
    pub reconnects: u64,
    /// Player 0's client-side gaps between broadcasts of a session.
    pub turn_gaps: Histogram,
    /// Every digest fold equals the in-process replay's.
    pub verified: bool,
    /// Seconds the in-process replay took (outside the timed window).
    pub verify_s: f64,
}

impl Batch {
    /// Sessions that did not end `Completed`, or all of them when the
    /// transcripts do not match the in-process replay.
    pub fn failed(&self) -> u64 {
        if self.verified {
            self.sessions - self.completed
        } else {
            self.sessions
        }
    }
}

/// Runs `sessions` sessions at in-flight window `window` under master
/// seed `seed`, with the daemon reporting to `recorder`.
pub fn run_batch(
    sessions: u64,
    window: usize,
    seed: u64,
    recorder: &Recorder,
) -> Result<Batch, String> {
    let spec = spec(sessions, window, seed);
    let protocol = BroadcastDisj::new(spec.n, PLAYERS);
    let (n, density) = (spec.n, spec.density);
    let opts = MuxOptions {
        deadline: spec.deadline,
        max_inflight: window,
        config: spec.config.clone(),
        dump_flight_on_failure: false,
    };
    let info = SessionInfo {
        protocol_id: PROTOCOL_ID.to_string(),
        players: PLAYERS as u32,
        seed,
        params: vec![n as u64, sessions],
    };

    let t0 = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
    type PlayerRun = Result<(MuxPlayerReport, u32), String>;
    let (daemon, setup_s, cpu_s, players) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PLAYERS)
            .map(|p| {
                let (protocol, config) = (&protocol, &spec.config);
                scope.spawn(move || -> PlayerRun {
                    let (conn, _ack, retries) =
                        connect_mux_player(addr, p, PROTOCOL_ID, config, seed)
                            .map_err(|e| format!("player {p} dial: {e}"))?;
                    let report = run_mux_player(protocol, conn, p, config, p == 0)
                        .map_err(|e| format!("player {p}: {e}"))?;
                    Ok((report, retries))
                })
            })
            .collect();
        let roster_deadline = Instant::now() + spec.config.io_timeout;
        let roster = accept_mux_roster(&listener, &info, &spec.config, roster_deadline, recorder);
        let setup_s = t0.elapsed().as_secs_f64();
        drop(listener);
        let (daemon, cpu_s) = match roster {
            Ok(conns) => {
                let cpu0 = cpu_time_s();
                let report = run_mux_daemon(
                    &protocol,
                    conns,
                    sessions,
                    seed,
                    |_, rng| workload::random_sets(n, PLAYERS, density, rng),
                    &opts,
                    recorder,
                );
                (Ok(report), cpu_time_s() - cpu0)
            }
            Err(e) => (Err(format!("roster: {e}")), 0.0),
        };
        let players: Vec<PlayerRun> = handles
            .into_iter()
            .map(|h| h.join().expect("player thread panicked"))
            .collect();
        (daemon, setup_s, cpu_s, players)
    });
    let daemon = daemon?;
    let players = players.into_iter().collect::<Result<Vec<_>, String>>()?;

    let t = Instant::now();
    let replay = inprocess_digest_fold(&spec);
    let verify_s = t.elapsed().as_secs_f64();
    let (p0, _) = &players[0];
    let client_fold = p0
        .digests
        .iter()
        .fold(0u64, |acc, &(_, d)| fold_digest_u64(acc, d));
    let verified = p0.digests.len() as u64 == sessions
        && client_fold == replay
        && daemon.digest_fold() == replay;
    let mut latencies_ms: Vec<f64> = daemon
        .records
        .iter()
        .map(|r| r.latency_us as f64 / 1e3)
        .collect();
    if latencies_ms.is_empty() {
        return Err("daemon reported no sessions".into());
    }
    Ok(Batch {
        sessions,
        setup_s,
        elapsed_s: daemon.elapsed.as_secs_f64(),
        cpu_s,
        completed: daemon.completed() as u64,
        latency_p50_ms: percentile(&mut latencies_ms, 50.0),
        latency_p99_ms: percentile(&mut latencies_ms, 99.0),
        turns: daemon.records.iter().map(|r| u64::from(r.turns)).sum(),
        wire: daemon.wire,
        reconnects: players.iter().map(|(_, r)| u64::from(*r)).sum(),
        turn_gaps: players.into_iter().next().expect("player 0").0.turn_gaps,
        verified,
        verify_s,
    })
}

/// Every batch of one closed-loop run at one window.
#[derive(Debug, Default)]
pub struct MuxRun {
    pub batches: Vec<Batch>,
    /// Batches that could not run at all (bind, dial or roster failed).
    pub errors: u64,
}

/// Runs batches at `window` until `budget` has passed (at least one).
/// Batch `b` uses master seed `derive_trial_seed(seed, b)`.
pub fn run(
    window: usize,
    seed: u64,
    budget: Duration,
    recorder: &Recorder,
    spans: &Recorder,
) -> MuxRun {
    let mut out = MuxRun::default();
    let start = Instant::now();
    let mut b = 0u64;
    while b == 0 || start.elapsed() < budget {
        let (batch, _) = timed(spans, None, &format!("mux.w{window}.batch"), || {
            run_batch(BATCH, window, derive_trial_seed(seed, b), recorder)
        });
        b += 1;
        match batch {
            Ok(batch) => {
                if batch.failed() > 0 {
                    eprintln!(
                        "mux: batch {b}: {} of {} sessions failed (verified: {})",
                        batch.failed(),
                        batch.sessions,
                        batch.verified
                    );
                }
                out.batches.push(batch);
            }
            Err(e) => {
                eprintln!("mux: batch {b} did not run: {e}");
                out.errors += 1;
            }
        }
    }
    out
}

impl MuxRun {
    pub fn attempted(&self) -> u64 {
        self.errors * BATCH + self.batches.iter().map(|b| b.sessions).sum::<u64>()
    }

    pub fn failed(&self) -> u64 {
        self.errors * BATCH + self.batches.iter().map(Batch::failed).sum::<u64>()
    }

    fn sum(&self, f: impl Fn(&Batch) -> f64) -> f64 {
        self.batches.iter().map(f).sum()
    }

    fn median_over_batches(&self, f: impl Fn(&Batch) -> f64) -> f64 {
        median(&self.batches.iter().map(f).collect::<Vec<_>>())
    }

    /// Completed sessions per second: the median over batches.
    pub fn sessions_per_s(&self) -> f64 {
        self.median_over_batches(|b| b.completed as f64 / b.elapsed_s)
    }

    /// The median over batches of each batch's exact p50 of per-session
    /// admission → outcome latency.
    pub fn session_p50_ms(&self) -> f64 {
        self.median_over_batches(|b| b.latency_p50_ms)
    }

    /// As [`MuxRun::session_p50_ms`], for p99. A batch holds `BATCH`
    /// sessions, so its p99 has 81 samples beyond it.
    pub fn session_p99_ms(&self) -> f64 {
        self.median_over_batches(|b| b.latency_p99_ms)
    }

    pub fn setup_s(&self) -> f64 {
        self.median_over_batches(|b| b.setup_s)
    }

    fn sessions(&self) -> f64 {
        self.sum(|b| b.sessions as f64)
    }

    pub fn wire_bits_per_bit(&self) -> f64 {
        let mut wire = WireStats::default();
        for b in &self.batches {
            wire.merge(&b.wire);
        }
        wire.overhead_ratio()
    }

    /// The end-to-end metrics: an operation is one session.
    pub fn end_to_end(&self, m: &mut Metrics) {
        m.put("setup_s", self.setup_s(), "s");
        m.put("ops_per_s", self.sessions_per_s(), "1/s");
        m.put("op_p50_ms", self.session_p50_ms(), "ms");
        m.put("op_p99_ms", self.session_p99_ms(), "ms");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
    }

    /// The per-session layer rows of a traced run: wire counts, the
    /// daemon's turn service time from `recorder`, client turn gaps, CPU
    /// use, and the share of a session spent queued, plus the transport's
    /// own cost per session once the in-process costs are taken out.
    pub fn layers(&self, recorder: &Recorder, costs: &InProcessCosts, m: &mut Metrics) {
        let sessions = self.sessions();
        let turns = self.sum(|b| b.turns as f64) / sessions;
        let frames = self.sum(|b| (b.wire.frames_tx + b.wire.frames_rx) as f64) / sessions;
        let wire_bytes = self.sum(|b| b.wire.bytes_total() as f64) / sessions;
        let service = recorder
            .snapshot()
            .hist("mux.turn_latency_us")
            .cloned()
            .unwrap_or_else(|| Histogram::new(TURN_LATENCY_US_BOUNDS));
        let mut gaps = Histogram::new(TURN_LATENCY_US_BOUNDS);
        for b in &self.batches {
            gaps.merge(&b.turn_gaps);
        }
        let wall = self.sum(|b| b.elapsed_s);
        let busy = self.sum(|b| b.cpu_s) / (wall * nproc() as f64);
        let service_p50 = service.percentile(50.0) as f64;
        let session_p50_us = self.session_p50_ms() * 1e3;
        let wall_us_per_session = 1e6 / self.sessions_per_s();
        let transport_us = wall_us_per_session
            - turns * costs.engine_ns_per_turn / 1e3
            - frames * costs.codec_ns_per_frame / 1e3
            - costs.sample_us_per_session;
        let verify = self.median_over_batches(|b| b.verify_s);

        m.put("mux.cpu_busy_frac", busy, "ratio");
        m.put("mux.transport_us_per_session", transport_us, "us");
        m.put("mux.turns_per_session", turns, "count");
        m.put("mux.frames_per_session", frames, "count");
        m.put("mux.wire_bytes_per_session", wire_bytes, "B");
        m.put("mux.wire_bits_per_bit", self.wire_bits_per_bit(), "ratio");
        m.put(
            "mux.reconnects",
            self.sum(|b| b.reconnects as f64) / sessions,
            "count",
        );
        m.put("mux.turn_service_p50_us", service_p50, "us");
        m.put(
            "mux.turn_service_p99_us",
            service.percentile(99.0) as f64,
            "us",
        );
        m.put(
            "mux.client_turn_gap_p50_us",
            gaps.percentile(50.0) as f64,
            "us",
        );
        m.put(
            "mux.queue_share",
            1.0 - turns * service_p50 / session_p50_us,
            "ratio",
        );
        m.put("mux.verify_replay_s", verify, "s");
    }
}

/// Costs of the layers under the daemon, measured in process on the
/// request mix the daemon serves: the same protocol, inputs and seeds.
#[derive(Debug, Clone, Copy)]
pub struct InProcessCosts {
    /// `workload::random_sets` per session, in microseconds.
    pub sample_us_per_session: f64,
    /// `TurnEngine::poll` + `apply` per turn, in nanoseconds.
    pub engine_ns_per_turn: f64,
    /// `Frame::to_bytes_mux` + `FrameReader::poll_mux` per frame, in
    /// nanoseconds.
    pub codec_ns_per_frame: f64,
}

/// A player's reply to one grant, recorded so the engine can be timed
/// on its own.
struct Reply {
    speaker: usize,
    bits: BitVec,
    rng: Vec<u8>,
}

/// Measures [`InProcessCosts`] over `sessions` sessions of master seed
/// `seed`. Checks every session's output against the DISJ function and
/// every decoded frame against the one encoded; returns an error naming
/// the first mismatch.
pub fn inprocess_costs(sessions: u64, seed: u64) -> Result<InProcessCosts, String> {
    let spec = spec(sessions, 1, seed);
    let protocol = BroadcastDisj::new(spec.n, PLAYERS);

    let t = Instant::now();
    let sampled: Vec<(Vec<_>, ChaCha8Rng)> = (0..sessions)
        .map(|s| {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_trial_seed(seed, s));
            let inputs = workload::random_sets(spec.n, PLAYERS, spec.density, &mut rng);
            (inputs, rng)
        })
        .collect();
    let sample_s = t.elapsed().as_secs_f64();

    // Play every session once to record the replies and the frames the
    // daemon and the players would exchange for it.
    let mut replies: Vec<Vec<Reply>> = Vec::with_capacity(sampled.len());
    let mut frames: Vec<(u64, Frame)> = Vec::new();
    for (s, (inputs, rng)) in sampled.iter().enumerate() {
        let s = s as u64;
        for (p, input) in inputs.iter().enumerate() {
            frames.push((
                s,
                Frame::Input(InputFrame {
                    session: s as u32,
                    player: p as u32,
                    payload: input.to_wire_bytes(),
                }),
            ));
        }
        let mut engine = TurnEngine::with_rng(&protocol, inputs.len(), rng)
            .map_err(|e| format!("session {s}: {e}"))?;
        let mut prev = (NO_PLAYER, BitVec::new());
        let mut session_replies = Vec::new();
        loop {
            let step = engine.poll().map_err(|e| format!("session {s}: {e}"))?;
            let grant = match &step {
                Step::Grant(g) => Some(g),
                Step::Halted => None,
            };
            let publish = Frame::Broadcast(BroadcastFrame {
                turn: engine.steps() as u32,
                speaker: prev.0,
                bits: prev.1.clone(),
                next: grant.map_or(NO_PLAYER, |g| g.speaker as u32),
                rng: grant.map_or(Vec::new(), |g| g.rng_state.expect("parked rng").to_vec()),
            });
            frames.extend((0..PLAYERS).map(|_| (s, publish.clone())));
            let Some(grant) = grant else { break };
            let mut player_rng = grant.resume_rng();
            let speaker = grant.speaker;
            let bits = protocol.message(speaker, &inputs[speaker], engine.board(), &mut player_rng);
            let reply = Reply {
                speaker,
                bits: bits.clone(),
                rng: player_rng.state_bytes().to_vec(),
            };
            frames.push((
                s,
                Frame::Broadcast(BroadcastFrame {
                    turn: grant.turn as u32,
                    speaker: speaker as u32,
                    bits: bits.clone(),
                    next: NO_PLAYER,
                    rng: reply.rng.clone(),
                }),
            ));
            engine
                .apply(speaker, bits.clone(), Some(&reply.rng))
                .map_err(|e| format!("session {s}: {e}"))?;
            prev = (speaker as u32, bits);
            session_replies.push(reply);
        }
        if engine.output() != disj_function(inputs) {
            return Err(format!("session {s}: engine output differs from DISJ"));
        }
        let outcome = Frame::Outcome(OutcomeFrame {
            kind: 0,
            reason: String::new(),
            output: engine.output().to_wire_bytes(),
            remaining: (sessions - s - 1) as u32,
        });
        frames.extend((0..PLAYERS).map(|_| (s, outcome.clone())));
        replies.push(session_replies);
    }

    // The engine alone: replay the recorded replies through poll/apply.
    let t = Instant::now();
    let mut turns = 0usize;
    for ((inputs, rng), session_replies) in sampled.iter().zip(&replies) {
        let mut engine = TurnEngine::with_rng(&protocol, inputs.len(), rng)
            .map_err(|e| format!("engine: {e}"))?;
        for reply in session_replies {
            match engine.poll().map_err(|e| format!("engine: {e}"))? {
                Step::Grant(g) if g.speaker == reply.speaker => {}
                other => return Err(format!("engine replay diverged: {other:?}")),
            }
            engine
                .apply(reply.speaker, reply.bits.clone(), Some(&reply.rng))
                .map_err(|e| format!("engine: {e}"))?;
        }
        if engine.poll().map_err(|e| format!("engine: {e}"))? != Step::Halted {
            return Err("engine replay did not halt".into());
        }
        turns += engine.steps();
        std::hint::black_box(engine.board());
    }
    let engine_s = t.elapsed().as_secs_f64();

    // The wire codec: encode every frame, then decode the stream.
    let t = Instant::now();
    let mut stream = Vec::new();
    for (s, frame) in &frames {
        stream.extend_from_slice(&frame.to_bytes_mux(*s));
    }
    let mut reader = FrameReader::new_mux();
    let mut src: &[u8] = &stream;
    let mut decoded = Vec::with_capacity(frames.len());
    while decoded.len() < frames.len() {
        match reader.poll_mux(&mut src) {
            Ok(Some(hit)) => decoded.push(hit),
            Ok(None) => return Err("codec: stream ended early".into()),
            Err(e) => return Err(format!("codec: {e}")),
        }
    }
    let codec_s = t.elapsed().as_secs_f64();
    if decoded != frames {
        return Err("codec: decoded frames differ from the encoded ones".into());
    }

    Ok(InProcessCosts {
        sample_us_per_session: sample_s * 1e6 / sessions as f64,
        engine_ns_per_turn: engine_s * 1e9 / turns as f64,
        codec_ns_per_frame: codec_s * 1e9 / frames.len() as f64,
    })
}

impl InProcessCosts {
    pub fn layers(&self, m: &mut Metrics) {
        m.put(
            "blackboard.engine_ns_per_turn",
            self.engine_ns_per_turn,
            "ns",
        );
        m.put("net.frame_codec_ns", self.codec_ns_per_frame, "ns");
        m.put(
            "protocols.workload_sample_us",
            self.sample_us_per_session,
            "us",
        );
    }
}

/// The in-flight windows of the sweep.
pub const SWEEP: [usize; 5] = [1, 16, 64, 256, 1024];

/// The inflight × throughput × latency curve: one untraced batch per
/// window. Window 16 is the paced regime, where round trips and poll
/// wake-ups, not queueing, set latency. Returns `(attempted, failed)`
/// sessions.
pub fn sweep(seed: u64, spans: &Recorder, m: &mut Metrics) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for (i, &w) in SWEEP.iter().enumerate() {
        // Window 1 runs one session at a time; fewer keep it short.
        let sessions = if w == 1 { BATCH / 8 } else { BATCH };
        let seed = derive_trial_seed(seed, 1_000 + i as u64);
        let (batch, _) = timed(spans, None, &format!("mux.sweep.w{w}"), || {
            run_batch(sessions, w, seed, &Recorder::disabled())
        });
        attempted += sessions;
        let rows = match batch {
            Ok(b) => {
                failed += b.failed();
                let run = MuxRun {
                    batches: vec![b],
                    errors: 0,
                };
                [
                    run.sessions_per_s(),
                    run.session_p50_ms(),
                    run.session_p99_ms(),
                ]
            }
            Err(e) => {
                eprintln!("mux: sweep window {w} did not run: {e}");
                failed += sessions;
                [f64::NAN; 3]
            }
        };
        m.put(format!("mux.sweep.w{w}.sessions_per_s"), rows[0], "1/s");
        m.put(format!("mux.sweep.w{w}.session_p50_ms"), rows[1], "ms");
        m.put(format!("mux.sweep.w{w}.session_p99_ms"), rows[2], "ms");
    }
    (attempted, failed)
}
