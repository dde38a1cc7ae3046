//! A framed, non-blocking TCP connection with byte/frame accounting.
//!
//! [`Conn`] keeps its socket permanently in non-blocking mode:
//!
//! * reads go through the incremental [`FrameReader`], so a read that
//!   would block is just an idle tick and partial frames stay buffered;
//! * writes loop over partial `write` calls, sleeping
//!   [`crate::NetConfig::poll_sleep`] between `WouldBlock`s, bounded by
//!   [`crate::NetConfig::io_timeout`].
//!
//! This keeps both the coordinator (sweeping many sockets from one
//! thread) and the player client (interleaving reads with heartbeat
//! sends) single-threaded without ever risking a torn frame.

use std::io::{self, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::frame::{Frame, FrameReader, NetError, MAX_FRAME_LEN};
use crate::NetConfig;

/// Per-frame framing bytes on a v1 connection: the `u32` length prefix
/// plus the tag byte. Every accounting identity in this crate hangs off
/// this constant: `bytes == payload_bytes + V1_HEADER_BYTES × frames`.
pub const V1_HEADER_BYTES: u64 = 5;

/// One framed peer connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// Reused encode buffer: [`Conn::send`] writes each frame from here.
    out: Vec<u8>,
    /// Total raw bytes written to the socket (framing included).
    pub bytes_written: u64,
    /// Total frames written to the socket.
    pub frames_written: u64,
    /// Total Wire-payload bytes written: [`Self::bytes_written`] minus
    /// the [`V1_HEADER_BYTES`] framing each frame pays.
    pub payload_bytes_written: u64,
}

impl Conn {
    /// Wraps a connected stream: disables Nagle, switches to non-blocking.
    /// Inbound frames are capped at the default [`MAX_FRAME_LEN`].
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        Conn::with_max_frame_len(stream, MAX_FRAME_LEN)
    }

    /// Like [`Conn::new`] but capping inbound frames at `max_frame_len`
    /// (`NetConfig::max_frame_len` in deployments).
    pub fn with_max_frame_len(stream: TcpStream, max_frame_len: usize) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            reader: FrameReader::with_limits(false, max_frame_len),
            out: Vec::new(),
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

    /// Total Wire-payload bytes decoded from the socket (framing
    /// excluded).
    pub fn payload_bytes_read(&self) -> u64 {
        self.reader.payload_bytes_read
    }

    /// The peer's address, if the socket can still report it.
    pub fn peer_addr(&self) -> Option<std::net::SocketAddr> {
        self.stream.peer_addr().ok()
    }

    /// Writes one frame, looping over partial writes. Gives up with
    /// `TimedOut` if the peer stops draining for longer than
    /// `config.io_timeout`.
    pub fn send(&mut self, frame: &Frame, config: &NetConfig) -> Result<(), NetError> {
        self.out.clear();
        frame.encode_into(None, &mut self.out);
        let bytes = &self.out;
        let started = Instant::now();
        let mut written = 0usize;
        while written < bytes.len() {
            match self.stream.write(&bytes[written..]) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => written += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if started.elapsed() >= config.io_timeout {
                        return Err(NetError::Io(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "write stalled past io_timeout",
                        )));
                    }
                    std::thread::sleep(config.poll_sleep);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        self.bytes_written += bytes.len() as u64;
        self.payload_bytes_written += bytes.len() as u64 - V1_HEADER_BYTES;
        self.frames_written += 1;
        Ok(())
    }

    /// Non-blocking read attempt: `Ok(Some(frame))` when a complete frame
    /// is available, `Ok(None)` when the socket is idle.
    pub fn poll(&mut self) -> Result<Option<Frame>, NetError> {
        self.reader.poll(&mut self.stream)
    }

    /// Blocks (by polling) until a frame arrives or `deadline` passes.
    pub fn recv_deadline(
        &mut self,
        deadline: Instant,
        config: &NetConfig,
    ) -> Result<Frame, NetError> {
        loop {
            if let Some(frame) = self.poll()? {
                return Ok(frame);
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
    use std::net::TcpListener;

    #[test]
    fn frames_cross_a_loopback_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = NetConfig::default();

        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut client = Conn::new(client).unwrap();
        let mut server = Conn::new(server).unwrap();

        let frame = Frame::Heartbeat { seq: 42 };
        client.send(&frame, &config).unwrap();
        let got = server
            .recv_deadline(Instant::now() + config.io_timeout, &config)
            .unwrap();
        assert_eq!(got, frame);
        assert_eq!(client.frames_written, 1);
        assert_eq!(server.frames_read(), 1);
        assert_eq!(client.bytes_written, server.bytes_read());
        // The accounting identity both ends agree on: framed bytes =
        // payload bytes + 5 bytes of framing per frame.
        assert_eq!(
            client.bytes_written,
            client.payload_bytes_written + V1_HEADER_BYTES * client.frames_written
        );
        assert_eq!(
            server.bytes_read(),
            server.payload_bytes_read() + V1_HEADER_BYTES * server.frames_read()
        );
    }

    #[test]
    fn poll_reports_idle_not_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (_server, _) = listener.accept().unwrap();
        let mut client = Conn::new(client).unwrap();
        assert!(matches!(client.poll(), Ok(None)));
    }

    #[test]
    fn peer_close_is_disconnected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        drop(server);
        let mut client = Conn::new(client).unwrap();
        // Polling after the peer hangs up must surface Disconnected.
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        loop {
            match client.poll() {
                Ok(None) => {
                    assert!(Instant::now() < deadline, "hangup never observed");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(NetError::Disconnected) => break,
                other => panic!("unexpected: {other:?}"),
            }
        }
    }
}
