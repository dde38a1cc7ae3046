//! The multiplexed coordinator daemon: one reactor thread, thousands of
//! parked sequencer sessions.
//!
//! ## Shape
//!
//! The daemon owns a pool of `k` player connections (one per roster
//! slot, speaking the v2 session-id envelope) and a **session table**.
//! Each in-flight session is parked as a `SessionSlot` holding the
//! session's sans-io [`TurnEngine`] — board prefix, 41-byte serialized
//! ChaCha8 session-RNG state, turn cursor, and runaway budget — plus
//! the wall-clock bookkeeping (admission time, grant issue time) the
//! engine deliberately doesn't own. A session consumes daemon CPU only
//! for the instants it takes to apply a reply and issue the next grant;
//! the rest of its lifetime it is 100-odd bytes in a `HashMap`.
//!
//! ## The reactor
//!
//! [`run_mux_daemon`] loops: flush every connection's write buffer,
//! drain every connection's frame reader, dispatch each reply to its
//! session, and sleep `poll_sleep` only when nothing progressed.
//! Deadline scans are throttled (every [`DEADLINE_SCAN_INTERVAL`]) so
//! 10k in-flight sessions don't turn the hot loop into a table walk.
//! Writes never block: grants and outcomes are queued on the
//! connection's buffer and drained opportunistically, so one slow client
//! degrades *its* latency, not the reactor.
//!
//! ## Determinism
//!
//! Per session `s`: `seed = derive_trial_seed(master_seed, s)`, inputs
//! sampled from `ChaCha8Rng::seed_from_u64(seed)`, and the post-sampling
//! RNG becomes the session RNG — exactly the discipline of
//! `bci_net::overhead` and the fabric schedulers. Turn replies carry the
//! post-message RNG state, which is parked verbatim and embedded in the
//! next grant, so randomness is consumed in serial order and the
//! transcript is bit-identical to `InProcessTransport` for the same
//! seed, regardless of how sessions interleave on the wire.

use std::collections::HashMap;
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bci_blackboard::engine::{Step, TurnEngine};
use bci_blackboard::protocol::Protocol;
use bci_blackboard::runner::derive_trial_seed;
use bci_encoding::bitio::BitVec;
use bci_encoding::wire::Wire;
use bci_fabric::transport::DEFAULT_STALL_CAP;
use bci_net::admin::{check_admin_hello, stats_reply};
use bci_net::coordinator::SessionInfo;
use bci_net::frame::{
    BroadcastFrame, Frame, Hello, InputFrame, NetError, OutcomeFrame, CONTROL_SESSION, NO_PLAYER,
    PROTOCOL_VERSION_MUX,
};
use bci_net::overhead::transcript_digest;
use bci_net::transport::WireStats;
use bci_net::NetConfig;
use bci_telemetry::hist::{QUEUE_BYTES_BOUNDS, TURN_LATENCY_US_BOUNDS};
use bci_telemetry::{Json, Recorder, SpanKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::conn::MuxConn;

/// How often the reactor walks the session table looking for blown
/// per-session deadlines and stale connections.
pub const DEADLINE_SCAN_INTERVAL: Duration = Duration::from_millis(10);

/// Default bound on concurrently in-flight sessions. Bounds daemon
/// memory and keeps the outcome `remaining` countdown meaningful while
/// still saturating the connection pool.
pub const DEFAULT_MAX_INFLIGHT: usize = 1024;

/// Knobs for one daemon run.
#[derive(Debug, Clone)]
pub struct MuxOptions {
    /// Wall-clock budget per session, measured from admission.
    pub deadline: Option<Duration>,
    /// Cap on concurrently in-flight sessions.
    pub max_inflight: usize,
    /// Socket-level configuration (timeouts, heartbeat policy, frame cap).
    pub config: NetConfig,
    /// Dump the recorder's flight ring to stderr when a session ends
    /// `TimedOut`/`Aborted` (rate-limited to once per second so an
    /// abort storm doesn't flood the log). No-op unless the recorder
    /// was built with [`Recorder::with_flight`].
    pub dump_flight_on_failure: bool,
}

impl Default for MuxOptions {
    fn default() -> Self {
        MuxOptions {
            deadline: None,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            config: NetConfig::default(),
            dump_flight_on_failure: false,
        }
    }
}

/// One session parked in the daemon's table.
///
/// The parked state *is* the sans-io [`TurnEngine`]: board prefix, turn
/// cursor, runaway budget, and the serialized ChaCha8 state between
/// turns all live inside it. While a grant is outstanding the engine
/// records who holds it and `granted_at` records since when (the one
/// clock the engine refuses to own).
#[derive(Debug)]
struct SessionSlot<'p, P: Protocol> {
    engine: TurnEngine<'p, P>,
    /// When the outstanding grant was issued, for turn-latency metrics.
    granted_at: Option<Instant>,
    /// The previous authoritative write, folded into the next grant.
    prev: Option<(u32, BitVec)>,
    started: Instant,
}

/// How one session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRecord {
    /// The session id.
    pub session: u64,
    /// 0 = completed, 1 = timed out, 2 = aborted (the
    /// `SessionOutcome` variants, in declaration order).
    pub kind: u8,
    /// Abort reason; empty otherwise.
    pub reason: String,
    /// Wire-encoded `P::Output` when completed; empty otherwise.
    pub output: Vec<u8>,
    /// FNV-1a digest of the final board's canonical bytes.
    pub digest: u64,
    /// Bits on the final board (the paper's communication measure).
    pub transcript_bits: u64,
    /// Board writes applied before the end.
    pub turns: u32,
    /// Admission → outcome, in microseconds.
    pub latency_us: u64,
}

/// Everything one daemon run produced.
#[derive(Debug)]
pub struct MuxRunReport {
    /// One record per session, sorted by session id.
    pub records: Vec<SessionRecord>,
    /// Wire accounting summed over the connection pool (v2 framing).
    pub wire: WireStats,
    /// Roster-complete → last outcome queued.
    pub elapsed: Duration,
}

impl MuxRunReport {
    /// Sessions that completed.
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.kind == 0).count()
    }

    /// Sessions that timed out or aborted.
    pub fn failed(&self) -> usize {
        self.records.len() - self.completed()
    }

    /// Folds the per-session transcript digests in session-id order
    /// (records are kept sorted, so completion order doesn't leak in).
    pub fn digest_fold(&self) -> u64 {
        self.records.iter().fold(0u64, |acc, r| {
            bci_net::overhead::fold_digest_u64(acc, r.digest)
        })
    }
}

/// Accepts v2 handshakes on `listener` until every roster slot is
/// filled, mirroring `bci_net::coordinator::accept_roster` but for the
/// multiplexed envelope: clients must announce
/// [`PROTOCOL_VERSION_MUX`], and all control frames ride the
/// [`CONTROL_SESSION`] id. A rejected hello never burns the slot.
///
/// Roster assembly is counted on `recorder` (`mux.roster_accepted`,
/// `mux.hello_rejected`) so a live scrape shows how many dial attempts
/// it took to fill the pool — the mux-side analogue of the v1
/// transport's reconnect totals.
pub fn accept_mux_roster(
    listener: &TcpListener,
    info: &SessionInfo,
    config: &NetConfig,
    deadline: Instant,
    recorder: &Recorder,
) -> Result<Vec<MuxConn>, NetError> {
    listener.set_nonblocking(true)?;
    let k = info.players as usize;
    let mut slots: Vec<Option<MuxConn>> = (0..k).map(|_| None).collect();
    let mut registered = 0usize;
    while registered < k {
        if Instant::now() >= deadline {
            return Err(NetError::Protocol(format!(
                "mux roster incomplete: {registered}/{k} players registered before deadline"
            )));
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let mut conn = MuxConn::new(stream, config.max_frame_len)?;
                let hello_deadline = Instant::now() + config.io_timeout;
                let (_, frame) = match conn.recv_deadline(hello_deadline, config) {
                    Ok(hit) => hit,
                    Err(_) => continue, // died before saying hello
                };
                let reject = |mut conn: MuxConn, message: String| {
                    recorder.counter_add("mux.hello_rejected", 1);
                    let _ =
                        conn.send_now(CONTROL_SESSION, &Frame::Error { code: 1, message }, config);
                };
                let hello = match frame {
                    Frame::Hello(h) => h,
                    other => {
                        reject(conn, format!("expected hello, got {}", other.name()));
                        continue;
                    }
                };
                if hello.version != PROTOCOL_VERSION_MUX {
                    reject(
                        conn,
                        format!(
                            "version mismatch: mux daemon speaks {PROTOCOL_VERSION_MUX}, \
                             client {}",
                            hello.version
                        ),
                    );
                    continue;
                }
                if hello.protocol_id != info.protocol_id {
                    reject(
                        conn,
                        format!(
                            "protocol mismatch: serving {:?}, client asked for {:?}",
                            info.protocol_id, hello.protocol_id
                        ),
                    );
                    continue;
                }
                let player = hello.player as usize;
                if player >= k {
                    reject(
                        conn,
                        format!("player index {player} out of range (roster size {k})"),
                    );
                    continue;
                }
                if slots[player].is_some() {
                    reject(conn, format!("player {player} already registered"));
                    continue;
                }
                let ack = Frame::Hello(Hello {
                    version: PROTOCOL_VERSION_MUX,
                    protocol_id: info.protocol_id.clone(),
                    player: hello.player,
                    players: info.players,
                    seed: info.seed,
                    params: info.params.clone(),
                });
                if conn.send_now(CONTROL_SESSION, &ack, config).is_err() {
                    continue;
                }
                slots[player] = Some(conn);
                registered += 1;
                recorder.counter_add("mux.roster_accepted", 1);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                std::thread::sleep(config.poll_sleep);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("all slots registered"))
        .collect())
}

/// One connected admin scraper being served inline by the reactor.
struct AdminPeer {
    conn: MuxConn,
    greeted: bool,
}

/// The daemon's mutable state while the reactor runs.
struct Reactor<'a, P: Protocol> {
    protocol: &'a P,
    conns: Vec<MuxConn>,
    last_seen: Vec<Instant>,
    table: HashMap<u64, SessionSlot<'a, P>>,
    records: Vec<SessionRecord>,
    next_session: u64,
    total: u64,
    finished: u64,
    /// `finished` as of the last time every player write buffer was
    /// fully drained. Sessions finished since then may still have
    /// outcomes sitting in a buffer — they are "draining".
    drain_watermark: u64,
    master_seed: u64,
    opts: &'a MuxOptions,
    recorder: &'a Recorder,
    last_flight_dump: Option<Instant>,
    /// Reused encode buffer for [`Reactor::broadcast`].
    fanout: Vec<u8>,
}

impl<'a, P> Reactor<'a, P>
where
    P: Protocol,
    P::Input: Wire,
    P::Output: Wire,
{
    /// Admits sessions until the in-flight cap or the total is reached:
    /// derives the session seed, samples inputs, ships each player its
    /// share, and issues the first grant.
    fn admit<F>(&mut self, sample_inputs: &F)
    where
        F: Fn(u64, &mut ChaCha8Rng) -> Vec<P::Input>,
    {
        while self.table.len() < self.opts.max_inflight && self.next_session < self.total {
            let session = self.next_session;
            self.next_session += 1;
            let seed = derive_trial_seed(self.master_seed, session);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let inputs = sample_inputs(session, &mut rng);
            debug_assert_eq!(inputs.len(), self.conns.len(), "input count");
            for (player, input) in inputs.iter().enumerate() {
                self.conns[player].queue(
                    session,
                    &Frame::Input(InputFrame {
                        session: session as u32,
                        player: player as u32,
                        payload: input.to_wire_bytes(),
                    }),
                );
            }
            let engine = TurnEngine::with_rng(self.protocol, inputs.len(), &rng)
                .expect("sample_inputs produced one input per player")
                .with_max_steps(self.opts.config.max_steps);
            let slot = SessionSlot {
                engine,
                granted_at: None,
                prev: None,
                started: Instant::now(),
            };
            self.table.insert(session, slot);
            self.recorder.counter_add("mux.sessions_started", 1);
            if self.recorder.events_enabled() {
                self.recorder.point(
                    SpanKind::Session,
                    session,
                    vec![("phase", Json::str("admit"))],
                );
            }
            self.grant(session);
        }
    }

    /// Polls the session's engine and issues the next grant (folding in
    /// the previous authoritative write), or finishes the session when
    /// the engine halts. Engine violations — out-of-range speaker,
    /// runaway protocol — finish the session aborted with the
    /// violation's canonical reason.
    fn grant(&mut self, session: u64) {
        let step = {
            let slot = self
                .table
                .get_mut(&session)
                .expect("granting a live session");
            match slot.engine.poll() {
                Ok(step) => step,
                Err(violation) => {
                    self.finish(session, 2, violation.to_string(), Vec::new());
                    return;
                }
            }
        };
        let next = match &step {
            Step::Grant(grant) => Some(grant),
            Step::Halted => None,
        };
        let frame = {
            let slot = self
                .table
                .get_mut(&session)
                .expect("granting a live session");
            let (prev_speaker, prev_bits) = slot.prev.take().unwrap_or((NO_PLAYER, BitVec::new()));
            let rng_bytes = match next {
                Some(grant) => grant
                    .rng_state
                    .expect("mux engine carries the session rng")
                    .to_vec(),
                None => Vec::new(),
            };
            if next.is_some() {
                slot.granted_at = Some(Instant::now());
            }
            Frame::Broadcast(BroadcastFrame {
                turn: slot.engine.steps() as u32,
                speaker: prev_speaker,
                bits: prev_bits,
                next: next.map(|g| g.speaker as u32).unwrap_or(NO_PLAYER),
                rng: rng_bytes,
            })
        };
        self.broadcast(session, &frame);
        if next.is_none() {
            let output = {
                let slot = &self.table[&session];
                catch_unwind(AssertUnwindSafe(|| slot.engine.output()))
            };
            match output {
                Ok(o) => self.finish(session, 0, String::new(), o.to_wire_bytes()),
                Err(_) => self.finish(session, 2, "protocol output panicked".into(), Vec::new()),
            }
        }
    }

    /// Queues `frame` for `session` on every player connection. The
    /// frame is encoded once and the same bytes are appended to each
    /// connection's write buffer.
    fn broadcast(&mut self, session: u64, frame: &Frame) {
        self.fanout.clear();
        frame.encode_into(Some(session), &mut self.fanout);
        for conn in &mut self.conns {
            conn.queue_encoded(&self.fanout);
        }
    }

    /// Applies a granted speaker's reply through the session's engine
    /// (which re-parks the RNG state and writes the board), records turn
    /// latency, and issues the next grant. Engine violations — a reply
    /// with no grant outstanding, the wrong speaker, a malformed RNG
    /// state — finish the session aborted.
    fn apply_reply(&mut self, session: u64, player: usize, reply: BroadcastFrame) {
        let Some(slot) = self.table.get_mut(&session) else {
            // A reply raced a deadline outcome; it has nowhere to land.
            self.recorder.counter_add("mux.late_replies", 1);
            return;
        };
        // The wire names a speaker twice (connection index and frame
        // field); cross-check both against the engine's outstanding
        // grant before applying, so a mismatched connection can't spend
        // another player's grant.
        let failure = match slot.engine.granted() {
            None => Some(format!(
                "player {player} replied without an outstanding grant"
            )),
            Some(speaker) if player != speaker || reply.speaker as usize != speaker => Some(
                format!("player {player} replied on player {speaker}'s grant"),
            ),
            Some(speaker) => {
                match slot
                    .engine
                    .apply(speaker, reply.bits.clone(), Some(&reply.rng))
                {
                    Ok(()) => {
                        if let Some(granted_at) = slot.granted_at.take() {
                            self.recorder.hist_record(
                                "mux.turn_latency_us",
                                granted_at.elapsed().as_micros() as u64,
                                TURN_LATENCY_US_BOUNDS,
                            );
                        }
                        slot.prev = Some((speaker as u32, reply.bits));
                        None
                    }
                    Err(violation) => Some(violation.to_string()),
                }
            }
        };
        match failure {
            Some(reason) => self.finish(session, 2, reason, Vec::new()),
            None => self.grant(session),
        }
    }

    /// Removes `session` from the table, queues its outcome to every
    /// connection, and records it. `remaining` in the outcome frame is
    /// the global count of unfinished sessions, so the run's final
    /// outcome (in TCP order on every connection) carries 0 and releases
    /// the clients.
    fn finish(&mut self, session: u64, kind: u8, reason: String, output: Vec<u8>) {
        let slot = self
            .table
            .remove(&session)
            .expect("finishing a live session");
        self.finished += 1;
        let remaining = (self.total - self.finished) as u32;
        let frame = Frame::Outcome(OutcomeFrame {
            kind,
            reason: reason.clone(),
            output: output.clone(),
            remaining,
        });
        self.broadcast(session, &frame);
        let counter = match kind {
            0 => "mux.sessions_completed",
            1 => "mux.sessions_timed_out",
            _ => "mux.sessions_aborted",
        };
        self.recorder.counter_add(counter, 1);
        let turns = slot.engine.steps() as u32;
        if self.recorder.events_enabled() {
            let mut attrs = vec![
                ("phase", Json::str("finish")),
                ("kind", Json::UInt(kind as u64)),
                ("turns", Json::UInt(turns as u64)),
            ];
            if !reason.is_empty() {
                attrs.push(("reason", Json::str(&reason)));
            }
            self.recorder.point(SpanKind::Session, session, attrs);
        }
        let board = slot.engine.into_board();
        self.records.push(SessionRecord {
            session,
            kind,
            reason: reason.clone(),
            output,
            digest: transcript_digest(&board),
            transcript_bits: board.total_bits() as u64,
            turns,
            latency_us: slot.started.elapsed().as_micros() as u64,
        });
        if kind != 0 && self.opts.dump_flight_on_failure {
            self.dump_flight(session, kind, &reason);
        }
    }

    /// Dumps the flight ring to stderr for a failed session, at most
    /// once per second (an `abort_all` storm finishes thousands of
    /// sessions with the same ring contents).
    fn dump_flight(&mut self, session: u64, kind: u8, reason: &str) {
        let now = Instant::now();
        let due = self
            .last_flight_dump
            .is_none_or(|last| now.duration_since(last) >= Duration::from_secs(1));
        if !due {
            return;
        }
        let dump = self.recorder.flight_jsonl();
        if dump.is_empty() {
            return;
        }
        self.last_flight_dump = Some(now);
        eprintln!("--- flight recorder (session {session} ended kind={kind} {reason}) ---");
        eprint!("{dump}");
        eprintln!("--- end flight recorder ---");
    }

    /// Publishes the daemon's internal levels as gauges, immediately
    /// before a snapshot is taken for an admin reply. Gauges the
    /// recorder can't see on its own: roster and session-table
    /// occupancy, per-state session counts, inflight-window usage, and
    /// outbound queue depth.
    fn set_gauges(&self) {
        let inflight = self.table.len() as u64;
        let granted = self
            .table
            .values()
            .filter(|slot| slot.engine.granted().is_some())
            .count() as u64;
        let rec = self.recorder;
        rec.gauge_set("mux.roster_players", self.conns.len() as u64);
        rec.gauge_set("mux.inflight", inflight);
        rec.gauge_set("mux.inflight_limit", self.opts.max_inflight as u64);
        rec.gauge_set("mux.sessions_granted", granted);
        rec.gauge_set("mux.sessions_parked", inflight - granted);
        rec.gauge_set(
            "mux.sessions_draining",
            self.finished - self.drain_watermark,
        );
        rec.gauge_set("mux.sessions_remaining", self.total - self.finished);
        rec.gauge_set(
            "mux.outbound_queue_bytes",
            self.conns.iter().map(MuxConn::pending_out).sum::<usize>() as u64,
        );
    }

    /// Accepts and serves admin scrapers without ever blocking the
    /// reactor: handshakes are validated with the shared
    /// [`check_admin_hello`], replies are built by the shared
    /// [`stats_reply`], and a misbehaving or dead peer is dropped —
    /// never aborted into the run the way a player failure is.
    fn serve_admins(&mut self, listener: &TcpListener, peers: &mut Vec<AdminPeer>) {
        // Drain the accept queue; WouldBlock (or a transient error)
        // ends the sweep until the next tick.
        while let Ok((stream, _)) = listener.accept() {
            if let Ok(conn) = MuxConn::new(stream, self.opts.config.max_frame_len) {
                peers.push(AdminPeer {
                    conn,
                    greeted: false,
                });
            }
        }
        let mut i = 0;
        while i < peers.len() {
            let mut dead = peers[i].conn.flush().is_err();
            while !dead {
                match peers[i].conn.poll() {
                    Ok(Some((_, frame))) => match frame {
                        Frame::Hello(hello) if !peers[i].greeted => {
                            match check_admin_hello(&hello) {
                                Ok(ack) => {
                                    peers[i].conn.queue(CONTROL_SESSION, &ack);
                                    peers[i].greeted = true;
                                }
                                Err(rejection) => {
                                    peers[i].conn.queue(CONTROL_SESSION, &rejection);
                                    let _ = peers[i].conn.flush();
                                    dead = true;
                                }
                            }
                        }
                        Frame::Stats { what } if peers[i].greeted => {
                            // Counted before the snapshot, so every reply
                            // includes itself: the first scrape reads 1.
                            self.recorder.counter_add("mux.stats_served", 1);
                            self.set_gauges();
                            let reply =
                                Frame::StatsReply(Box::new(stats_reply(self.recorder, what)));
                            peers[i].conn.queue(CONTROL_SESSION, &reply);
                        }
                        Frame::Heartbeat { .. } => {}
                        other => {
                            peers[i].conn.queue(
                                CONTROL_SESSION,
                                &Frame::Error {
                                    code: 1,
                                    message: format!(
                                        "unexpected {} on admin channel",
                                        other.name()
                                    ),
                                },
                            );
                            let _ = peers[i].conn.flush();
                            dead = true;
                        }
                    },
                    Ok(None) => break,
                    Err(_) => dead = true,
                }
            }
            if !dead {
                dead = peers[i].conn.flush().is_err();
            }
            if dead {
                peers.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Marks every unfinished session aborted (connection-pool failure:
    /// with a player gone, no session can make progress). Shrinking
    /// `total` to the admitted count *before* finishing makes the last
    /// outcome's `remaining` hit 0, so any surviving client still exits
    /// cleanly instead of waiting for sessions that will never start.
    fn abort_all(&mut self, reason: &str) {
        self.total = self.next_session;
        let mut live: Vec<u64> = self.table.keys().copied().collect();
        live.sort_unstable();
        for session in live {
            self.finish(session, 2, reason.to_string(), Vec::new());
        }
    }
}

/// Runs `total_sessions` sessions of `protocol` over an already-accepted
/// v2 connection pool, multiplexing up to `opts.max_inflight` at a time.
///
/// `sample_inputs(session, rng)` must sample the per-player inputs from
/// `rng` (already seeded with `derive_trial_seed(master_seed, session)`)
/// and leave `rng` positioned to serve as the session RNG — the exact
/// discipline of `bci_net::overhead::overhead_point`, which is what
/// makes transcripts comparable across every transport in the repo.
///
/// The returned report carries one [`SessionRecord`] per session
/// (sorted by id) and the pool's wire accounting. A dead or stale
/// connection aborts every unfinished session — with a roster player
/// gone, no session can complete — but still returns a report rather
/// than an error, so the load harness can count the damage.
pub fn run_mux_daemon<P, F>(
    protocol: &P,
    conns: Vec<MuxConn>,
    total_sessions: u64,
    master_seed: u64,
    sample_inputs: F,
    opts: &MuxOptions,
    recorder: &Recorder,
) -> MuxRunReport
where
    P: Protocol,
    P::Input: Wire,
    P::Output: Wire,
    F: Fn(u64, &mut ChaCha8Rng) -> Vec<P::Input>,
{
    run_mux_daemon_with_admin(
        protocol,
        conns,
        None,
        total_sessions,
        master_seed,
        sample_inputs,
        opts,
        recorder,
    )
}

/// [`run_mux_daemon`] plus a live admin stats channel: when
/// `admin_listener` is given, the reactor also accepts read-only admin
/// peers on it (typically the roster listener, reused once the roster
/// is full) and answers their `Stats` requests inline from the
/// throttled scan tick — so a scrape observes the daemon mid-run
/// without a lock, a second thread, or any effect on session state.
/// Admin traffic is excluded from the run's wire accounting.
#[allow(clippy::too_many_arguments)]
pub fn run_mux_daemon_with_admin<P, F>(
    protocol: &P,
    conns: Vec<MuxConn>,
    admin_listener: Option<&TcpListener>,
    total_sessions: u64,
    master_seed: u64,
    sample_inputs: F,
    opts: &MuxOptions,
    recorder: &Recorder,
) -> MuxRunReport
where
    P: Protocol,
    P::Input: Wire,
    P::Output: Wire,
    F: Fn(u64, &mut ChaCha8Rng) -> Vec<P::Input>,
{
    assert_eq!(conns.len(), protocol.num_players(), "pool size");
    assert!(opts.max_inflight > 0, "max_inflight must be positive");
    let start = Instant::now();
    let config = opts.config.clone();
    let stale_after = config.heartbeat_interval * config.miss_limit;
    let k = conns.len();
    let mut reactor = Reactor {
        protocol,
        conns,
        last_seen: vec![Instant::now(); k],
        table: HashMap::new(),
        records: Vec::new(),
        next_session: 0,
        total: total_sessions,
        finished: 0,
        drain_watermark: 0,
        master_seed,
        opts,
        recorder,
        last_flight_dump: None,
        fanout: Vec::new(),
    };
    if let Some(listener) = admin_listener {
        // The roster phase left it nonblocking; make sure regardless.
        let _ = listener.set_nonblocking(true);
    }
    let mut admin_peers: Vec<AdminPeer> = Vec::new();
    reactor.admit(&sample_inputs);

    let mut last_scan = Instant::now();
    let mut last_progress = Instant::now();
    'run: while reactor.finished < reactor.total {
        let mut progressed = false;

        // Drain write buffers first: grants queued last iteration are
        // what unblocks the players.
        let mut all_drained = true;
        for player in 0..reactor.conns.len() {
            match reactor.conns[player].flush() {
                Ok(drained) => all_drained &= drained,
                Err(_) => {
                    reactor.abort_all(&format!("player {player} disconnected"));
                    break 'run;
                }
            }
        }
        if all_drained {
            reactor.drain_watermark = reactor.finished;
        }

        // Drain every connection's reader and dispatch.
        for player in 0..reactor.conns.len() {
            loop {
                match reactor.conns[player].poll() {
                    Ok(Some((session, frame))) => {
                        reactor.last_seen[player] = Instant::now();
                        progressed = true;
                        match frame {
                            Frame::Heartbeat { .. } => {}
                            Frame::Broadcast(b) => reactor.apply_reply(session, player, b),
                            Frame::Error { message, .. } => {
                                reactor.abort_all(&format!("player {player} error: {message}"));
                                break 'run;
                            }
                            other => {
                                reactor.abort_all(&format!(
                                    "player {player} sent unexpected {} frame",
                                    other.name()
                                ));
                                break 'run;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(NetError::Disconnected | NetError::Io(_)) => {
                        reactor.abort_all(&format!("player {player} disconnected"));
                        break 'run;
                    }
                    Err(e) => {
                        reactor.abort_all(&format!("player {player}: {e}"));
                        break 'run;
                    }
                }
            }
        }

        // Finishing sessions freed in-flight slots; top the table up.
        reactor.admit(&sample_inputs);

        // Throttled table walk: per-session deadlines + pool staleness.
        // Admin peers are accepted and served on the same tick — a
        // scrape costs at most one scan interval of latency and zero
        // cycles on the hot path.
        if last_scan.elapsed() >= DEADLINE_SCAN_INTERVAL {
            last_scan = Instant::now();
            reactor.recorder.hist_record(
                "mux.outbound_queue_bytes",
                reactor
                    .conns
                    .iter()
                    .map(MuxConn::pending_out)
                    .sum::<usize>() as u64,
                QUEUE_BYTES_BOUNDS,
            );
            if let Some(listener) = admin_listener {
                reactor.serve_admins(listener, &mut admin_peers);
            }
            if let Some(deadline) = opts.deadline {
                let mut expired: Vec<u64> = reactor
                    .table
                    .iter()
                    .filter(|(_, slot)| slot.started.elapsed() >= deadline)
                    .map(|(&s, _)| s)
                    .collect();
                expired.sort_unstable();
                for session in expired {
                    reactor.finish(session, 1, String::new(), Vec::new());
                    progressed = true;
                }
                reactor.admit(&sample_inputs);
            }
            if let Some(player) = reactor
                .last_seen
                .iter()
                .position(|seen| seen.elapsed() > stale_after)
            {
                reactor.abort_all(&format!(
                    "player {player} missed {} heartbeats",
                    config.miss_limit
                ));
                break 'run;
            }
        }

        if progressed {
            last_progress = Instant::now();
        } else {
            if last_progress.elapsed() > DEFAULT_STALL_CAP {
                reactor.abort_all("reactor stalled past the stall cap");
                break 'run;
            }
            std::thread::sleep(config.poll_sleep);
        }
    }

    // Push the final outcomes out (best effort, bounded).
    let flush_deadline = Instant::now() + config.io_timeout;
    for conn in &mut reactor.conns {
        while let Ok(false) = conn.flush() {
            if Instant::now() >= flush_deadline {
                break;
            }
            std::thread::sleep(config.poll_sleep);
        }
    }

    let mut wire = WireStats::default();
    for conn in &reactor.conns {
        wire.bytes_tx += conn.bytes_written;
        wire.bytes_rx += conn.bytes_read();
        wire.frames_tx += conn.frames_written;
        wire.frames_rx += conn.frames_read();
        wire.payload_bytes_tx += conn.payload_bytes_written;
        wire.payload_bytes_rx += conn.payload_bytes_read();
    }
    recorder.counter_add("mux.bytes_tx", wire.bytes_tx);
    recorder.counter_add("mux.bytes_rx", wire.bytes_rx);
    recorder.counter_add("mux.frames_tx", wire.frames_tx);
    recorder.counter_add("mux.frames_rx", wire.frames_rx);

    let mut records = reactor.records;
    records.sort_unstable_by_key(|r| r.session);
    wire.transcript_bits = records.iter().map(|r| r.transcript_bits).sum();
    MuxRunReport {
        records,
        wire,
        elapsed: start.elapsed(),
    }
}
