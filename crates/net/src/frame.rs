//! Length-prefixed binary frames and the incremental frame reader.
//!
//! Every message on a `bci-net` socket is one frame. The v1 layout
//! (single-session coordinator, `Hello.version == 1`):
//!
//! ```text
//! ┌────────────────┬─────────┬────────────────────┐
//! │ u32 LE length  │ u8 tag  │ payload (Wire-coded)│
//! └────────────────┴─────────┴────────────────────┘
//! ```
//!
//! The multiplexed coordinator (`Hello.version == 2`, the `bci-mux`
//! crate) extends the header with a session id so thousands of
//! concurrent sessions can interleave on one pooled connection:
//!
//! ```text
//! ┌────────────────┬───────────────────┬─────────┬────────────────────┐
//! │ u32 LE length  │ u64 LE session_id │ u8 tag  │ payload (Wire-coded)│
//! └────────────────┴───────────────────┴─────────┴────────────────────┘
//! ```
//!
//! In both layouts the length counts everything after the length prefix
//! (session id, tag, payload), so a reader needs exactly two reads to
//! know how much to buffer. Payloads are encoded with the dependency-free
//! [`Wire`] codec from `bci-encoding` and are *identical* between v1 and
//! v2 — only the envelope differs; see `docs/net.md` for the per-tag
//! field tables.
//!
//! [`FrameReader`] is deliberately *incremental*: it consumes whatever
//! bytes `read` returns and surfaces a frame only once one is complete, so
//! a read timeout that fires mid-frame never corrupts the stream — the
//! partial bytes stay buffered and the caller observes an idle tick. A
//! reader is constructed for one envelope version ([`FrameReader::new`]
//! for v1, [`FrameReader::new_mux`] for v2) and can cap the accepted
//! frame length below [`MAX_FRAME_LEN`] via [`FrameReader::with_limits`].

use std::fmt;
use std::io::{self, Read};

use bci_encoding::bitio::BitVec;
use bci_encoding::wire::{Wire, WireError};
use bci_telemetry::{Histogram, Snapshot};

/// Version carried in every `Hello` to the single-session coordinator;
/// peers with a different version refuse the handshake.
pub const PROTOCOL_VERSION: u16 = 1;

/// `Hello` version spoken by the multiplexed coordinator (`bci-mux`):
/// every frame carries a `u64` session id between the length prefix and
/// the tag byte. Payload encodings are identical to v1.
pub const PROTOCOL_VERSION_MUX: u16 = 2;

/// Sentinel player id: "nobody" (initial grant has no prior speaker; a
/// final broadcast grants no next turn).
pub const NO_PLAYER: u32 = u32::MAX;

/// Session id used for connection-scoped v2 frames (`Hello`,
/// `Heartbeat`, fatal `Error`) that belong to no particular session.
pub const CONTROL_SESSION: u64 = u64::MAX;

/// Sentinel player id announced in an admin `Hello`: the peer is a
/// read-only stats scraper, not a protocol participant. Coordinators
/// never assign this id to a real player (rosters are far smaller and
/// [`NO_PLAYER`] is the other reserved value).
pub const ADMIN_PLAYER: u32 = u32::MAX - 1;

/// Default hard cap on a frame's length field. A peer announcing more is
/// treated as malformed before any allocation happens. Deployments can
/// lower (or raise, up to [`MAX_FRAME_LEN_CEILING`]) the cap via
/// `NetConfig::max_frame_len`.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Absolute ceiling any configured frame-length cap must stay under: a
/// cap above this cannot be satisfied by honest traffic and only widens
/// the pre-allocation attack surface.
pub const MAX_FRAME_LEN_CEILING: usize = 1 << 30;

/// Smallest admissible frame-length cap: a v2 header (8-byte session id
/// and tag) plus a `Heartbeat` payload must fit, or no liveness traffic
/// can flow at all.
pub const MIN_FRAME_LEN_CAP: usize = 64;

/// Everything that can go wrong on a connection.
#[derive(Debug)]
pub enum NetError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer closed the connection (clean EOF).
    Disconnected,
    /// A frame payload failed to decode.
    Decode(WireError),
    /// A structurally invalid frame: unknown tag, zero or oversized
    /// length, bad RNG-state length.
    BadFrame(&'static str),
    /// The peer violated the session protocol (bad handshake, unexpected
    /// frame, duplicate registration, …).
    Protocol(String),
    /// The peer went silent: no frame for more than
    /// `heartbeat_interval × miss_limit`.
    HeartbeatsMissed(u32),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Disconnected => write!(f, "connection closed"),
            NetError::Decode(e) => write!(f, "frame decode error: {e}"),
            NetError::BadFrame(what) => write!(f, "malformed frame: {what}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::HeartbeatsMissed(n) => write!(f, "peer missed {n} heartbeats"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Decode(e)
    }
}

/// The versioned handshake, sent client → coordinator on connect and
/// echoed back (with the session parameters filled in) as the ack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// [`PROTOCOL_VERSION`] of the sender.
    pub version: u16,
    /// Protocol identifier both sides must agree on (e.g. `"disj"`).
    pub protocol_id: String,
    /// Requested player index (client) / confirmed index (ack).
    pub player: u32,
    /// Roster size `k`. Zero in the client hello; filled in by the ack.
    pub players: u32,
    /// Master seed of the run. Zero in the client hello.
    pub seed: u64,
    /// Protocol-specific parameters (for `disj`: `[n]`). Empty in the
    /// client hello.
    pub params: Vec<u64>,
}

impl Wire for Hello {
    fn encode(&self, out: &mut Vec<u8>) {
        self.version.encode(out);
        self.protocol_id.encode(out);
        self.player.encode(out);
        self.players.encode(out);
        self.seed.encode(out);
        self.params.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Hello {
            version: u16::decode(input)?,
            protocol_id: String::decode(input)?,
            player: u32::decode(input)?,
            players: u32::decode(input)?,
            seed: u64::decode(input)?,
            params: Vec::decode(input)?,
        })
    }
}

/// A player's input share, coordinator → player, once per session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputFrame {
    /// Session index within the run (0-based).
    pub session: u32,
    /// The addressee (defense in depth; each socket belongs to one player).
    pub player: u32,
    /// The [`Wire`]-encoded `P::Input`.
    pub payload: Vec<u8>,
}

impl Wire for InputFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.session.encode(out);
        self.player.encode(out);
        self.payload.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(InputFrame {
            session: u32::decode(input)?,
            player: u32::decode(input)?,
            payload: Vec::decode(input)?,
        })
    }
}

/// A board write and/or turn grant.
///
/// Coordinator → players: "`speaker` wrote `bits` (apply it to your board
/// replica); `next` speaks now, seeded with `rng`". The initial grant has
/// `speaker == NO_PLAYER` and empty `bits`; the final publish has
/// `next == NO_PLAYER` and empty `rng`.
///
/// Player → coordinator: the granted player's reply — `speaker` is the
/// sender, `bits` its message, `rng` the session RNG state *after*
/// computing it (the RNG round-trips exactly as in the in-process channel
/// transport, which is what keeps transcripts bit-identical).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastFrame {
    /// Turn index (number of board writes before this one).
    pub turn: u32,
    /// Who wrote `bits`; [`NO_PLAYER`] on the initial grant.
    pub speaker: u32,
    /// The written message bits.
    pub bits: BitVec,
    /// Who speaks next; [`NO_PLAYER`] when no turn is granted.
    pub next: u32,
    /// Serialized ChaCha8 session RNG state
    /// ([`rand_chacha::STATE_LEN`] bytes) when a turn is granted or a
    /// reply hands the RNG back; empty otherwise.
    pub rng: Vec<u8>,
}

impl Wire for BroadcastFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.turn.encode(out);
        self.speaker.encode(out);
        self.bits.encode(out);
        self.next.encode(out);
        self.rng.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(BroadcastFrame {
            turn: u32::decode(input)?,
            speaker: u32::decode(input)?,
            bits: BitVec::decode(input)?,
            next: u32::decode(input)?,
            rng: Vec::decode(input)?,
        })
    }
}

/// How a session ended, coordinator → players.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeFrame {
    /// 0 = completed, 1 = timed out, 2 = aborted (the
    /// `SessionOutcome` variants, in declaration order).
    pub kind: u8,
    /// The abort reason; empty otherwise.
    pub reason: String,
    /// The [`Wire`]-encoded `P::Output` when completed; empty otherwise.
    pub output: Vec<u8>,
    /// Sessions still to come on this connection. Non-zero means "stay
    /// connected, the next `Input` frame is on its way".
    pub remaining: u32,
}

impl Wire for OutcomeFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind.encode(out);
        self.reason.encode(out);
        self.output.encode(out);
        self.remaining.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(OutcomeFrame {
            kind: u8::decode(input)?,
            reason: String::decode(input)?,
            output: Vec::decode(input)?,
            remaining: u32::decode(input)?,
        })
    }
}

/// One named `u64` metric (a counter or gauge) inside a
/// [`StatsPayload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedValue {
    /// Metric name (e.g. `mux.sessions_started`).
    pub name: String,
    /// Metric value.
    pub value: u64,
}

impl Wire for NamedValue {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.value.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(NamedValue {
            name: String::decode(input)?,
            value: u64::decode(input)?,
        })
    }
}

/// One histogram inside a [`StatsPayload`]: the full bucket ladder plus
/// counts and exact extremes, enough for the receiving side to rebuild a
/// [`Histogram`] and compute percentiles or deltas locally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistPayload {
    /// Histogram name (e.g. `mux.turn_latency_us`).
    pub name: String,
    /// Bucket upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// `bounds.len() + 1` per-bucket counts, overflow last.
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Exact smallest sample (0 when empty).
    pub min: u64,
    /// Exact largest sample (0 when empty).
    pub max: u64,
}

impl Wire for HistPayload {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.bounds.encode(out);
        self.counts.encode(out);
        self.count.encode(out);
        self.sum.encode(out);
        self.min.encode(out);
        self.max.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(HistPayload {
            name: String::decode(input)?,
            bounds: Vec::decode(input)?,
            counts: Vec::decode(input)?,
            count: u64::decode(input)?,
            sum: u64::decode(input)?,
            min: u64::decode(input)?,
            max: u64::decode(input)?,
        })
    }
}

/// A live [`Snapshot`] in wire form: uptime, counters, gauges, and full
/// histograms. Transported binary (not JSON) so the scraping side can
/// rebuild a real [`Snapshot`] — rendering JSON or Prometheus text
/// locally and subtracting successive scrapes for delta views.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsPayload {
    /// Microseconds the serving recorder had been alive.
    pub uptime_us: u64,
    /// Monotone counters, name-sorted.
    pub counters: Vec<NamedValue>,
    /// Point-in-time gauges, name-sorted.
    pub gauges: Vec<NamedValue>,
    /// Histograms, name-sorted.
    pub hists: Vec<HistPayload>,
}

impl Wire for StatsPayload {
    fn encode(&self, out: &mut Vec<u8>) {
        self.uptime_us.encode(out);
        self.counters.encode(out);
        self.gauges.encode(out);
        self.hists.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(StatsPayload {
            uptime_us: u64::decode(input)?,
            counters: Vec::decode(input)?,
            gauges: Vec::decode(input)?,
            hists: Vec::decode(input)?,
        })
    }
}

impl StatsPayload {
    /// Wire form of a snapshot (BTreeMap iteration keeps names sorted).
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        StatsPayload {
            uptime_us: snap.uptime_us,
            counters: snap
                .counters
                .iter()
                .map(|(name, &value)| NamedValue {
                    name: name.clone(),
                    value,
                })
                .collect(),
            gauges: snap
                .gauges
                .iter()
                .map(|(name, &value)| NamedValue {
                    name: name.clone(),
                    value,
                })
                .collect(),
            hists: snap
                .hists
                .iter()
                .map(|(name, h)| HistPayload {
                    name: name.clone(),
                    bounds: h.bounds().to_vec(),
                    counts: h.counts().to_vec(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                })
                .collect(),
        }
    }

    /// Rebuilds a [`Snapshot`], validating every histogram's internal
    /// consistency ([`Histogram::from_parts`]). Fails as a protocol
    /// violation on corrupt or self-contradictory payloads.
    pub fn into_snapshot(self) -> Result<Snapshot, NetError> {
        let mut snap = Snapshot {
            uptime_us: self.uptime_us,
            ..Snapshot::default()
        };
        for nv in self.counters {
            snap.counters.insert(nv.name, nv.value);
        }
        for nv in self.gauges {
            snap.gauges.insert(nv.name, nv.value);
        }
        for h in self.hists {
            let hist = Histogram::from_parts(h.bounds, h.counts, h.count, h.sum, h.min, h.max)
                .map_err(|e| NetError::Protocol(format!("bad histogram '{}': {e}", h.name)))?;
            snap.hists.insert(h.name, hist);
        }
        Ok(snap)
    }
}

/// What a [`Frame::Stats`] request asks for; bits combine.
pub mod stats_request {
    /// The metrics snapshot (counters, gauges, histograms, uptime).
    pub const SNAPSHOT: u8 = 1;
    /// The flight-recorder ring as JSON lines.
    pub const EVENTS: u8 = 2;
}

/// Reply to a [`Frame::Stats`] request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReplyFrame {
    /// The live snapshot; empty (all-default) unless
    /// [`stats_request::SNAPSHOT`] was asked for.
    pub payload: StatsPayload,
    /// Flight-recorder dump, one JSON object per line; empty unless
    /// [`stats_request::EVENTS`] was asked for (or no ring is attached).
    pub events_jsonl: String,
}

impl Wire for StatsReplyFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.payload.encode(out);
        self.events_jsonl.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(StatsReplyFrame {
            payload: StatsPayload::decode(input)?,
            events_jsonl: String::decode(input)?,
        })
    }
}

/// One frame on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Handshake (tag 0).
    Hello(Hello),
    /// Input share delivery (tag 1).
    Input(InputFrame),
    /// Board write / turn grant / reply (tag 2).
    Broadcast(BroadcastFrame),
    /// Liveness ping with a monotone sequence number (tag 3).
    Heartbeat {
        /// Sender-local monotone counter.
        seq: u64,
    },
    /// Session end (tag 4).
    Outcome(OutcomeFrame),
    /// Fatal structured error (tag 5). The sender closes after this.
    Error {
        /// Machine-readable error class (currently informational).
        code: u8,
        /// Human-readable description.
        message: String,
    },
    /// Read-only stats request from an admin peer (tag 6). `what` is a
    /// bitmask of [`stats_request`] bits.
    Stats {
        /// Which sections the scraper wants.
        what: u8,
    },
    /// Reply to [`Frame::Stats`] (tag 7). Boxed: a full snapshot dwarfs
    /// every other variant and would bloat `size_of::<Frame>()` on the
    /// hot dispatch paths.
    StatsReply(Box<StatsReplyFrame>),
}

/// Starting capacity of the buffer [`Frame::to_bytes`] and
/// [`Frame::to_bytes_mux`] return: enough for every per-turn frame (a v2
/// grant carrying a 41-byte RNG state and a short message is under 100
/// bytes) to be encoded without growing it.
const FRESH_FRAME_CAPACITY: usize = 128;

const TAG_HELLO: u8 = 0;
const TAG_INPUT: u8 = 1;
const TAG_BROADCAST: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_OUTCOME: u8 = 4;
const TAG_ERROR: u8 = 5;
const TAG_STATS: u8 = 6;
const TAG_STATS_REPLY: u8 = 7;

impl Frame {
    /// The frame's tag byte.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Hello(_) => TAG_HELLO,
            Frame::Input(_) => TAG_INPUT,
            Frame::Broadcast(_) => TAG_BROADCAST,
            Frame::Heartbeat { .. } => TAG_HEARTBEAT,
            Frame::Outcome(_) => TAG_OUTCOME,
            Frame::Error { .. } => TAG_ERROR,
            Frame::Stats { .. } => TAG_STATS,
            Frame::StatsReply(_) => TAG_STATS_REPLY,
        }
    }

    /// A short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello(_) => "hello",
            Frame::Input(_) => "input",
            Frame::Broadcast(_) => "broadcast",
            Frame::Heartbeat { .. } => "heartbeat",
            Frame::Outcome(_) => "outcome",
            Frame::Error { .. } => "error",
            Frame::Stats { .. } => "stats",
            Frame::StatsReply(_) => "stats_reply",
        }
    }

    /// Serializes the tag + Wire payload (no envelope).
    fn encode_body(&self, body: &mut Vec<u8>) {
        body.push(self.tag());
        match self {
            Frame::Hello(h) => h.encode(body),
            Frame::Input(i) => i.encode(body),
            Frame::Broadcast(b) => b.encode(body),
            Frame::Heartbeat { seq } => seq.encode(body),
            Frame::Outcome(o) => o.encode(body),
            Frame::Error { code, message } => {
                code.encode(body);
                message.encode(body);
            }
            Frame::Stats { what } => what.encode(body),
            Frame::StatsReply(reply) => reply.encode(body),
        }
    }

    /// Appends one write-ready frame to `out`: the `u32` length prefix,
    /// then `session` for a v2 (multiplexed) envelope or nothing for v1,
    /// then the tag and payload. The payload is encoded straight into
    /// `out` and the length prefix patched in afterwards, so a caller
    /// that reuses `out` encodes without allocating.
    pub fn encode_into(&self, session: Option<u64>, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        if let Some(session) = session {
            out.extend_from_slice(&session.to_le_bytes());
        }
        self.encode_body(out);
        let len = u32::try_from(out.len() - start - 4).expect("frame fits u32");
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Serializes tag + payload + length prefix into a write-ready v1
    /// buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRESH_FRAME_CAPACITY);
        self.encode_into(None, &mut out);
        out
    }

    /// Serializes into a write-ready v2 (multiplexed) buffer: the length
    /// prefix is followed by `session` and then the v1 body.
    pub fn to_bytes_mux(&self, session: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRESH_FRAME_CAPACITY);
        self.encode_into(Some(session), &mut out);
        out
    }

    /// Decodes a frame body (tag byte + payload, no length prefix).
    pub fn from_body(body: &[u8]) -> Result<Frame, NetError> {
        let (&tag, payload) = body.split_first().ok_or(NetError::BadFrame("empty body"))?;
        let frame = match tag {
            TAG_HELLO => Frame::Hello(Hello::from_wire_bytes(payload)?),
            TAG_INPUT => Frame::Input(InputFrame::from_wire_bytes(payload)?),
            TAG_BROADCAST => Frame::Broadcast(BroadcastFrame::from_wire_bytes(payload)?),
            TAG_HEARTBEAT => Frame::Heartbeat {
                seq: u64::from_wire_bytes(payload)?,
            },
            TAG_OUTCOME => Frame::Outcome(OutcomeFrame::from_wire_bytes(payload)?),
            TAG_ERROR => {
                let mut input = payload;
                let code = u8::decode(&mut input)?;
                let message = String::decode(&mut input)?;
                if !input.is_empty() {
                    return Err(NetError::Decode(WireError::TrailingBytes));
                }
                Frame::Error { code, message }
            }
            TAG_STATS => Frame::Stats {
                what: u8::from_wire_bytes(payload)?,
            },
            TAG_STATS_REPLY => {
                Frame::StatsReply(Box::new(StatsReplyFrame::from_wire_bytes(payload)?))
            }
            _ => return Err(NetError::BadFrame("unknown tag")),
        };
        Ok(frame)
    }
}

/// Incremental frame decoder over any [`Read`].
///
/// `poll` returns `Ok(Some(frame))` when a complete frame is buffered,
/// `Ok(None)` on an idle tick (the read timed out / would block with no
/// complete frame available), and errors on EOF, I/O failure, or a
/// malformed frame. Partial frames persist in the buffer across polls.
///
/// A reader decodes exactly one envelope version: [`FrameReader::new`]
/// for v1 (no session id), [`FrameReader::new_mux`] for v2 (every frame
/// carries a `u64` session id). [`FrameReader::with_limits`] additionally
/// caps the accepted frame length.
///
/// Decoding reads each frame straight out of the receive buffer.
/// Consumed frames only advance a head offset; the buffer moves its
/// unconsumed tail to the front once per read from the stream, not once
/// per frame.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`.
    head: usize,
    /// Whether frames carry a v2 session-id header.
    sessioned: bool,
    /// Frames whose length field exceeds this are rejected before any
    /// payload is buffered.
    max_len: usize,
    /// Total raw bytes consumed from the stream (length prefixes,
    /// session ids, tags, payloads — everything).
    pub bytes_read: u64,
    /// Total complete frames produced.
    pub frames_read: u64,
    /// Total Wire-payload bytes decoded: [`Self::bytes_read`] minus all
    /// framing (length prefix + tag, plus the session id on v2). The
    /// difference is the exact framing overhead on the inbound half.
    pub payload_bytes_read: u64,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::with_limits(false, MAX_FRAME_LEN)
    }
}

impl FrameReader {
    /// A v1 reader with an empty buffer and the default length cap.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// A v2 (session-id) reader with the default length cap.
    pub fn new_mux() -> Self {
        FrameReader::with_limits(true, MAX_FRAME_LEN)
    }

    /// A reader for the given envelope version and frame-length cap.
    pub fn with_limits(sessioned: bool, max_len: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            head: 0,
            sessioned,
            max_len,
            bytes_read: 0,
            frames_read: 0,
            payload_bytes_read: 0,
        }
    }

    /// Bytes of per-frame framing this reader's envelope version pays:
    /// length prefix + tag, plus the session id on v2.
    pub fn header_bytes_per_frame(&self) -> u64 {
        if self.sessioned {
            13
        } else {
            5
        }
    }

    fn take_buffered(&mut self) -> Result<Option<(u64, Frame)>, NetError> {
        let buffered = &self.buf[self.head..];
        if buffered.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(buffered[..4].try_into().expect("4 bytes")) as usize;
        if len == 0 {
            return Err(NetError::BadFrame("zero-length frame"));
        }
        if len > self.max_len {
            return Err(NetError::BadFrame("oversized frame"));
        }
        if buffered.len() < 4 + len {
            return Ok(None);
        }
        let body = &buffered[4..4 + len];
        let (session, body) = if self.sessioned {
            if len < 9 {
                return Err(NetError::BadFrame("truncated session header"));
            }
            let session = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
            (session, &body[8..])
        } else {
            (0, body)
        };
        let frame = Frame::from_body(body)?;
        // The body still holds the tag byte; payload is everything after.
        self.payload_bytes_read += (body.len() - 1) as u64;
        self.head += 4 + len;
        self.frames_read += 1;
        Ok(Some((session, frame)))
    }

    fn fill_from(&mut self, stream: &mut impl Read) -> Result<Option<()>, NetError> {
        // Compact before refilling: drop the frames consumed since the
        // last read, keeping only the partial frame that follows them.
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        let mut tmp = [0u8; 4096];
        loop {
            match stream.read(&mut tmp) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => {
                    self.bytes_read += n as u64;
                    self.buf.extend_from_slice(&tmp[..n]);
                    return Ok(Some(()));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Makes progress on a v1 `stream`: drains buffered frames first,
    /// then reads. See the type docs for the return contract.
    pub fn poll(&mut self, stream: &mut impl Read) -> Result<Option<Frame>, NetError> {
        debug_assert!(!self.sessioned, "poll() on a v2 reader discards sessions");
        Ok(self.poll_mux(stream)?.map(|(_, frame)| frame))
    }

    /// Makes progress on `stream` and surfaces `(session_id, frame)`
    /// pairs. On a v1 reader the session id is always 0.
    pub fn poll_mux(&mut self, stream: &mut impl Read) -> Result<Option<(u64, Frame)>, NetError> {
        loop {
            if let Some(hit) = self.take_buffered()? {
                return Ok(Some(hit));
            }
            if self.fill_from(stream)?.is_none() {
                return Ok(None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello(Hello {
                version: PROTOCOL_VERSION,
                protocol_id: "disj".into(),
                player: 2,
                players: 4,
                seed: 0xFEED,
                params: vec![256],
            }),
            Frame::Input(InputFrame {
                session: 1,
                player: 2,
                payload: vec![1, 2, 3],
            }),
            Frame::Broadcast(BroadcastFrame {
                turn: 7,
                speaker: 1,
                bits: BitVec::from_bools(&[true, false, true]),
                next: 2,
                rng: vec![0; 41],
            }),
            Frame::Heartbeat { seq: 99 },
            Frame::Outcome(OutcomeFrame {
                kind: 2,
                reason: "player 1 crashed".into(),
                output: vec![],
                remaining: 0,
            }),
            Frame::Error {
                code: 1,
                message: "bad hello".into(),
            },
            Frame::Stats {
                what: stats_request::SNAPSHOT | stats_request::EVENTS,
            },
            Frame::StatsReply(Box::new(StatsReplyFrame {
                payload: StatsPayload {
                    uptime_us: 123_456,
                    counters: vec![NamedValue {
                        name: "mux.sessions_started".into(),
                        value: 10,
                    }],
                    gauges: vec![NamedValue {
                        name: "mux.inflight".into(),
                        value: 4,
                    }],
                    hists: vec![HistPayload {
                        name: "mux.turn_latency_us".into(),
                        bounds: vec![10, 20],
                        counts: vec![1, 2, 0],
                        count: 3,
                        sum: 45,
                        min: 5,
                        max: 19,
                    }],
                },
                events_jsonl: "{\"ts_us\":1,\"ev\":\"point\",\"span\":\"session\",\"id\":0}\n"
                    .into(),
            })),
        ]
    }

    fn pinned_frames() -> Vec<Frame> {
        vec![
            Frame::Hello(Hello {
                version: PROTOCOL_VERSION_MUX,
                protocol_id: "disj".into(),
                player: 1,
                players: 3,
                seed: 0x0123_4567_89AB_CDEF,
                params: vec![256, 7],
            }),
            Frame::Input(InputFrame {
                session: 5,
                player: 2,
                payload: vec![],
            }),
            // An initial grant: no prior speaker, no bits, a 41-byte rng.
            Frame::Broadcast(BroadcastFrame {
                turn: 0,
                speaker: NO_PLAYER,
                bits: BitVec::new(),
                next: 2,
                rng: (0..41u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect(),
            }),
            // A final publish: 11 bits (partial last byte), no rng.
            Frame::Broadcast(BroadcastFrame {
                turn: 4,
                speaker: 1,
                bits: BitVec::from_bools(&[
                    true, false, true, true, false, false, true, false, true, true, false,
                ]),
                next: NO_PLAYER,
                rng: vec![],
            }),
            Frame::Heartbeat { seq: 0xDEAD_BEEF },
            Frame::Outcome(OutcomeFrame {
                kind: 0,
                reason: String::new(),
                output: vec![1],
                remaining: 0,
            }),
            Frame::Error {
                code: 1,
                message: "bad hello".into(),
            },
            Frame::Stats {
                what: stats_request::SNAPSHOT,
            },
            Frame::StatsReply(Box::new(StatsReplyFrame {
                payload: StatsPayload {
                    uptime_us: 77,
                    counters: vec![NamedValue {
                        name: "c".into(),
                        value: 9,
                    }],
                    gauges: vec![],
                    hists: vec![HistPayload {
                        name: "h".into(),
                        bounds: vec![10],
                        counts: vec![1, 0],
                        count: 1,
                        sum: 4,
                        min: 4,
                        max: 4,
                    }],
                },
                events_jsonl: String::new(),
            })),
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact v1 and v2 bytes of one frame per variant, captured from
    /// the per-element encoder that preceded `encode_into` and the bulk
    /// byte and bit packers. Frame `i` rides v2 session `0x1000 + i`.
    #[test]
    fn wire_bytes_are_pinned() {
        let expected: [(&str, &str); 9] = [
            (
                "2f000000000200040000006469736a0100000003000000efcdab896745230102\
                00000000010000000000000700000000000000",
                "370000000010000000000000000200040000006469736a0100000003000000ef\
                cdab89674523010200000000010000000000000700000000000000",
            ),
            (
                "0d00000001050000000200000000000000",
                "15000000011000000000000001050000000200000000000000",
            ),
            (
                "3e0000000200000000ffffffff0000000002000000290000005a7f1035cee384\
                59721728cde6bb5c710a2fc0e5be53740922c798bd566b0c21fa9fb0556e0324\
                f992",
                "4600000002100000000000000200000000ffffffff0000000002000000290000\
                005a7f1035cee38459721728cde6bb5c710a2fc0e5be53740922c798bd566b0c\
                21fa9fb0556e0324f992",
            ),
            (
                "170000000204000000010000000b0000004d03ffffffff00000000",
                "1f00000003100000000000000204000000010000000b0000004d03ffffffff00\
                000000",
            ),
            (
                "0900000003efbeadde00000000",
                "11000000041000000000000003efbeadde00000000",
            ),
            (
                "0f000000040000000000010000000100000000",
                "170000000510000000000000040000000000010000000100000000",
            ),
            (
                "0f0000000501090000006261642068656c6c6f",
                "1700000006100000000000000501090000006261642068656c6c6f",
            ),
            ("020000000601", "0a00000007100000000000000601"),
            (
                "6b000000074d0000000000000001000000010000006309000000000000000000\
                0000010000000100000068010000000a00000000000000020000000100000000\
                0000000000000000000000010000000000000004000000000000000400000000\
                000000040000000000000000000000",
                "730000000810000000000000074d000000000000000100000001000000630900\
                00000000000000000000010000000100000068010000000a0000000000000002\
                0000000100000000000000000000000000000001000000000000000400000000\
                0000000400000000000000040000000000000000000000",
            ),
        ];
        let frames = pinned_frames();
        assert_eq!(frames.len(), expected.len());
        for (i, (frame, (v1, v2))) in frames.iter().zip(expected).enumerate() {
            let session = 0x1000 + i as u64;
            assert_eq!(hex(&frame.to_bytes()), v1, "v1 bytes of {}", frame.name());
            assert_eq!(
                hex(&frame.to_bytes_mux(session)),
                v2,
                "v2 bytes of {}",
                frame.name()
            );
            // Appending to a non-empty buffer writes the same bytes.
            let mut out = vec![0xAA];
            frame.encode_into(Some(session), &mut out);
            assert_eq!(hex(&out[1..]), v2);
            assert_eq!(Frame::from_body(&frame.to_bytes()[4..]).unwrap(), *frame);
        }
    }

    #[test]
    fn frames_round_trip_through_bytes() {
        for frame in sample_frames() {
            let bytes = frame.to_bytes();
            let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            assert_eq!(len, bytes.len() - 4);
            assert_eq!(Frame::from_body(&bytes[4..]).unwrap(), frame);
        }
    }

    #[test]
    fn reader_reassembles_frames_from_dribbled_bytes() {
        // Concatenate all sample frames, then feed the stream one byte at
        // a time: every frame must come out intact and in order.
        let frames = sample_frames();
        let stream: Vec<u8> = frames.iter().flat_map(Frame::to_bytes).collect();
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        for &byte in &stream {
            // A one-byte Read yields the byte then "WouldBlock" (empty
            // slice read returns Ok(0) = EOF, so stop before that).
            if let Some((session, frame)) = reader.take_buffered().unwrap() {
                assert_eq!(session, 0, "v1 frames carry no session");
                out.push(frame);
            }
            reader.buf.push(byte);
            reader.bytes_read += 1;
        }
        while let Some((_, frame)) = reader.take_buffered().unwrap() {
            out.push(frame);
        }
        assert_eq!(out, frames);
        assert_eq!(reader.bytes_read, stream.len() as u64);
        let header_bytes = reader.frames_read * reader.header_bytes_per_frame();
        assert_eq!(
            reader.payload_bytes_read + header_bytes,
            reader.bytes_read,
            "payload + framing must account for every byte"
        );
    }

    #[test]
    fn mux_reader_round_trips_session_ids() {
        let frames = sample_frames();
        let sessions: Vec<u64> = vec![0, 7, u64::MAX, 42, 9_999_999_999, 3, CONTROL_SESSION, 1];
        assert_eq!(
            sessions.len(),
            frames.len(),
            "every sample frame rides once"
        );
        let stream: Vec<u8> = frames
            .iter()
            .zip(&sessions)
            .flat_map(|(f, &s)| f.to_bytes_mux(s))
            .collect();
        let mut reader = FrameReader::new_mux();
        let mut cursor = &stream[..];
        let mut out = Vec::new();
        while let Ok(Some(hit)) = reader.poll_mux(&mut cursor) {
            out.push(hit);
        }
        let expected: Vec<(u64, Frame)> = sessions.into_iter().zip(frames).collect();
        assert_eq!(out, expected);
        let header_bytes = reader.frames_read * reader.header_bytes_per_frame();
        assert_eq!(reader.payload_bytes_read + header_bytes, reader.bytes_read);
    }

    #[test]
    fn mux_reader_rejects_truncated_session_headers() {
        // A v2 frame must be at least session id + tag = 9 bytes long.
        let mut reader = FrameReader::new_mux();
        reader.buf.extend_from_slice(&5u32.to_le_bytes());
        reader.buf.extend_from_slice(&[0; 5]);
        assert!(matches!(
            reader.take_buffered(),
            Err(NetError::BadFrame("truncated session header"))
        ));
    }

    #[test]
    fn configured_length_cap_is_enforced() {
        let mut reader = FrameReader::with_limits(false, 128);
        let frame = Frame::Error {
            code: 0,
            message: "x".repeat(200),
        };
        let bytes = frame.to_bytes();
        let mut cursor = &bytes[..];
        assert!(matches!(
            reader.poll(&mut cursor),
            Err(NetError::BadFrame("oversized frame"))
        ));
    }

    #[test]
    fn oversized_and_zero_length_frames_are_rejected() {
        let mut reader = FrameReader::new();
        reader.buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            reader.take_buffered(),
            Err(NetError::BadFrame("zero-length frame"))
        ));

        let mut reader = FrameReader::new();
        reader
            .buf
            .extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        // The length field alone convicts the frame — no payload needed.
        assert!(matches!(
            reader.take_buffered(),
            Err(NetError::BadFrame("oversized frame"))
        ));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(
            Frame::from_body(&[0xEE, 0, 0]),
            Err(NetError::BadFrame("unknown tag"))
        ));
        assert!(matches!(
            Frame::from_body(&[]),
            Err(NetError::BadFrame("empty body"))
        ));
    }

    #[test]
    fn stats_payload_round_trips_through_a_snapshot() {
        use bci_telemetry::Recorder;
        let rec = Recorder::metrics_only();
        rec.counter_add("net.frames_tx", 9);
        rec.gauge_set("net.roster", 3);
        rec.hist_record("net.lat_us", 42, &[10, 100]);
        rec.hist_record("net.lat_us", 7, &[10, 100]);
        let snap = rec.snapshot();
        let payload = StatsPayload::from_snapshot(&snap);
        let bytes = payload.to_wire_bytes();
        let rebuilt = StatsPayload::from_wire_bytes(&bytes)
            .expect("decode")
            .into_snapshot()
            .expect("validate");
        assert_eq!(rebuilt, snap, "snapshot survives the wire round-trip");
        assert_eq!(
            rebuilt.hist("net.lat_us").expect("hist").percentile(100.0),
            42
        );
    }

    #[test]
    fn corrupt_stats_payloads_are_rejected_loudly() {
        let payload = StatsPayload {
            uptime_us: 0,
            counters: vec![],
            gauges: vec![],
            hists: vec![HistPayload {
                name: "bad".into(),
                bounds: vec![10, 20],
                counts: vec![1, 0, 0],
                count: 7, // contradicts the bucket counts
                sum: 5,
                min: 5,
                max: 5,
            }],
        };
        match payload.into_snapshot() {
            Err(NetError::Protocol(msg)) => {
                assert!(msg.contains("bad"), "names the culprit: {msg}")
            }
            other => panic!("corrupt histogram must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn admin_player_is_disjoint_from_real_and_sentinel_ids() {
        assert_ne!(ADMIN_PLAYER, NO_PLAYER);
        assert!(
            ADMIN_PLAYER > u16::MAX as u32,
            "no realistic roster reaches it"
        );
    }

    #[test]
    fn eof_is_disconnected() {
        let mut reader = FrameReader::new();
        let mut empty: &[u8] = &[];
        assert!(matches!(
            reader.poll(&mut empty),
            Err(NetError::Disconnected)
        ));
    }
}
