//! A pooled, write-buffered connection speaking the v2 (session-id)
//! frame envelope.
//!
//! The daemon sweeps many of these from one thread, so a [`MuxConn`]
//! must never block it: reads go through a v2 [`FrameReader`] (partial
//! frames stay buffered across `WouldBlock`s), and writes go into an
//! in-memory buffer that [`MuxConn::flush`] drains as far as the socket
//! allows. Only the *player* side, which has nothing better to do than
//! wait, uses the blocking-ish [`MuxConn::send_now`] /
//! [`MuxConn::recv_deadline`] helpers.

use std::io::{self, Write};
use std::net::TcpStream;
use std::time::Instant;

use bci_net::frame::{Frame, FrameReader, NetError};
use bci_net::NetConfig;

/// Per-frame framing bytes on a v2 connection: `u32` length prefix +
/// `u64` session id + tag byte.
pub const V2_HEADER_BYTES: u64 = 13;

/// One session-multiplexed peer connection.
#[derive(Debug)]
pub struct MuxConn {
    stream: TcpStream,
    reader: FrameReader,
    /// Queued-but-unwritten wire bytes. `out_cursor` marks how much of
    /// the front has already hit the socket; the buffer is compacted on
    /// every full drain.
    out: Vec<u8>,
    out_cursor: usize,
    /// Total raw bytes that reached the socket (framing included).
    pub bytes_written: u64,
    /// Total frames queued for write.
    pub frames_written: u64,
    /// Total Wire-payload bytes queued: framing excluded.
    pub payload_bytes_written: u64,
}

impl MuxConn {
    /// Wraps a connected stream: disables Nagle, switches to
    /// non-blocking, installs a v2 frame reader capped at
    /// `max_frame_len`.
    pub fn new(stream: TcpStream, max_frame_len: usize) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(MuxConn {
            stream,
            reader: FrameReader::with_limits(true, max_frame_len),
            out: Vec::new(),
            out_cursor: 0,
            bytes_written: 0,
            frames_written: 0,
            payload_bytes_written: 0,
        })
    }

    /// Total raw bytes consumed from the socket.
    pub fn bytes_read(&self) -> u64 {
        self.reader.bytes_read
    }

    /// Total complete frames decoded from the socket.
    pub fn frames_read(&self) -> u64 {
        self.reader.frames_read
    }

    /// Total Wire-payload bytes decoded (framing excluded).
    pub fn payload_bytes_read(&self) -> u64 {
        self.reader.payload_bytes_read
    }

    /// Bytes queued but not yet written to the socket.
    pub fn pending_out(&self) -> usize {
        self.out.len() - self.out_cursor
    }

    /// Queues one frame for `session`, encoding it straight into the
    /// write buffer. Never touches the socket — call [`MuxConn::flush`]
    /// to make wire progress.
    pub fn queue(&mut self, session: u64, frame: &Frame) {
        let start = self.out.len();
        frame.encode_into(Some(session), &mut self.out);
        self.count_queued(self.out.len() - start);
    }

    /// Queues one frame already encoded as a v2 frame by
    /// [`Frame::encode_into`] with a session id: the fan-out path, which
    /// encodes a broadcast once and appends the same bytes to every
    /// connection. Accounts exactly as [`MuxConn::queue`] does.
    pub fn queue_encoded(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
        self.count_queued(bytes.len());
    }

    fn count_queued(&mut self, frame_len: usize) {
        self.payload_bytes_written += frame_len as u64 - V2_HEADER_BYTES;
        self.frames_written += 1;
    }

    /// Writes as much of the queued bytes as the socket will take right
    /// now. Returns `Ok(true)` when the queue is fully drained,
    /// `Ok(false)` when bytes remain (the socket would block).
    pub fn flush(&mut self) -> Result<bool, NetError> {
        while self.out_cursor < self.out.len() {
            match self.stream.write(&self.out[self.out_cursor..]) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => {
                    self.out_cursor += n;
                    self.bytes_written += n as u64;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(false)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        self.out.clear();
        self.out_cursor = 0;
        Ok(true)
    }

    /// Queues `frame` and flushes until the queue drains, sleeping
    /// `config.poll_sleep` between `WouldBlock`s and giving up with
    /// `TimedOut` after `config.io_timeout`. The player-side send.
    pub fn send_now(
        &mut self,
        session: u64,
        frame: &Frame,
        config: &NetConfig,
    ) -> Result<(), NetError> {
        self.queue(session, frame);
        let started = Instant::now();
        while !self.flush()? {
            if started.elapsed() >= config.io_timeout {
                return Err(NetError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "write stalled past io_timeout",
                )));
            }
            std::thread::sleep(config.poll_sleep);
        }
        Ok(())
    }

    /// Non-blocking read attempt: `Ok(Some((session, frame)))` when a
    /// complete frame is available, `Ok(None)` when the socket is idle.
    pub fn poll(&mut self) -> Result<Option<(u64, Frame)>, NetError> {
        self.reader.poll_mux(&mut self.stream)
    }

    /// Blocks (by polling) until a frame arrives or `deadline` passes.
    pub fn recv_deadline(
        &mut self,
        deadline: Instant,
        config: &NetConfig,
    ) -> Result<(u64, Frame), NetError> {
        loop {
            if let Some(hit) = self.poll()? {
                return Ok(hit);
            }
            if Instant::now() >= deadline {
                return Err(NetError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no frame before deadline",
                )));
            }
            std::thread::sleep(config.poll_sleep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bci_encoding::bitio::BitVec;
    use bci_net::frame::{BroadcastFrame, MAX_FRAME_LEN};
    use std::net::TcpListener;

    #[test]
    fn queued_frames_cross_after_flush() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = NetConfig::default();

        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut client = MuxConn::new(client, MAX_FRAME_LEN).unwrap();
        let mut server = MuxConn::new(server, MAX_FRAME_LEN).unwrap();

        let frame = Frame::Heartbeat { seq: 7 };
        client.queue(11, &frame);
        client.queue(22, &frame);
        assert!(client.pending_out() > 0);
        assert!(client.flush().unwrap(), "loopback drains instantly");
        assert_eq!(client.pending_out(), 0);

        let deadline = Instant::now() + config.io_timeout;
        assert_eq!(
            server.recv_deadline(deadline, &config).unwrap(),
            (11, frame.clone())
        );
        assert_eq!(
            server.recv_deadline(deadline, &config).unwrap(),
            (22, frame)
        );

        // v2 accounting identity on both ends.
        assert_eq!(client.frames_written, 2);
        assert_eq!(
            client.bytes_written,
            client.payload_bytes_written + V2_HEADER_BYTES * client.frames_written
        );
        assert_eq!(server.bytes_read(), client.bytes_written);
        assert_eq!(
            server.bytes_read(),
            server.payload_bytes_read() + V2_HEADER_BYTES * server.frames_read()
        );
    }

    #[test]
    fn fanned_out_frame_is_accounted_per_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = NetConfig::default();
        let mut pairs = Vec::new();
        for _ in 0..2 {
            let client = TcpStream::connect(addr).unwrap();
            let (server, _) = listener.accept().unwrap();
            pairs.push((
                MuxConn::new(server, MAX_FRAME_LEN).unwrap(),
                MuxConn::new(client, MAX_FRAME_LEN).unwrap(),
            ));
        }

        // Encode once, append the same bytes to both connections.
        let frame = Frame::Broadcast(BroadcastFrame {
            turn: 3,
            speaker: 1,
            bits: BitVec::from_bools(&[true, false, true, true, false]),
            next: 0,
            rng: (0..41).collect(),
        });
        let mut encoded = Vec::new();
        frame.encode_into(Some(9), &mut encoded);
        for (sender, _) in &mut pairs {
            sender.queue_encoded(&encoded);
            assert!(sender.flush().unwrap(), "loopback drains instantly");
        }

        let deadline = Instant::now() + config.io_timeout;
        for (sender, receiver) in &mut pairs {
            assert_eq!(
                receiver.recv_deadline(deadline, &config).unwrap(),
                (9, frame.clone())
            );
            assert_eq!(sender.frames_written, 1);
            assert_eq!(sender.bytes_written, encoded.len() as u64);
            assert_eq!(
                sender.bytes_written,
                sender.payload_bytes_written + V2_HEADER_BYTES * sender.frames_written
            );
            assert_eq!(receiver.bytes_read(), sender.bytes_written);
            assert_eq!(
                receiver.payload_bytes_read(),
                sender.payload_bytes_written,
                "both ends agree on the payload bytes"
            );
        }
    }
}
