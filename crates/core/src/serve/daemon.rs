//! The TCP front end for [`ServeCore`](super::ServeCore): one
//! listener, one thread per connection, one JSON object per line in
//! each direction. Every accepted stream sets `TCP_NODELAY`, so a
//! response leaves as soon as it is written instead of waiting on
//! Nagle's algorithm, and no request line is read past
//! [`MAX_LINE_BYTES`].
//!
//! The daemon owns nothing the engine does not already guarantee — it
//! only translates lines into [`submit`](super::ServeCore::submit)
//! calls and tickets back into lines. A `drain` op (or
//! [`DaemonHandle::shutdown`]) stops the listener, drains the engine
//! (every accepted request is still answered), and joins every
//! connection thread before returning the final counters. Threads of
//! connections that have already closed are joined sooner, as the next
//! connection is accepted.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use super::{
    parse_client_line, ClientOp, ServeConfig, ServeCore, ServeResponse, ServeStats, ServeStatus,
    Submission,
};
use paraconv_registry::ArtifactError;

/// The longest request line the daemon reads, newline excluded. Legal
/// lines are a few hundred bytes; a longer one is answered `invalid`
/// and skipped through its newline without being held in memory.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A running daemon: the bound address plus the handles needed to
/// drain it.
#[derive(Debug)]
pub struct DaemonHandle {
    core: Arc<ServeCore>,
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), starts the
/// engine's workers, and serves until [`DaemonHandle::shutdown`] or a
/// client sends `drain`.
///
/// # Errors
///
/// [`ArtifactError`] if the registry cannot be opened, or an
/// IO-flavoured error if the socket cannot be bound.
pub fn serve(addr: &str, config: ServeConfig) -> Result<DaemonHandle, ArtifactError> {
    let listener = TcpListener::bind(addr).map_err(|e| {
        ArtifactError::Io(std::io::Error::new(e.kind(), format!("bind `{addr}`: {e}")))
    })?;
    let local = listener.local_addr().map_err(ArtifactError::Io)?;
    let core = Arc::new(ServeCore::new(config)?);
    core.start();

    let stopping = Arc::new(AtomicBool::new(false));
    let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_core = Arc::clone(&core);
    let accept_stop = Arc::clone(&stopping);
    let accept_conns = Arc::clone(&connections);
    let accept_thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let core = Arc::clone(&accept_core);
            let stop = Arc::clone(&accept_stop);
            let mut conns = lock(&accept_conns);
            join_finished(&mut conns);
            conns.push(std::thread::spawn(move || {
                serve_connection(&core, stream, &stop);
                paraconv_obs::flush_thread();
            }));
        }
    });

    Ok(DaemonHandle {
        core,
        addr: local,
        stopping,
        accept_thread: Mutex::new(Some(accept_thread)),
        connections,
    })
}

impl DaemonHandle {
    /// The bound address (useful with port `0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the socket (for stats and tests).
    #[must_use]
    pub fn core(&self) -> &ServeCore {
        &self.core
    }

    /// Blocks until a client's `drain` op (or a concurrent
    /// [`shutdown`](Self::shutdown)) flips the stopping flag. The CLI
    /// parks here so the daemon's lifetime is client-controlled.
    pub fn wait_for_drain(&self) {
        while !self.stopping.load(Ordering::Acquire) {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
    }

    /// Graceful shutdown: stop accepting connections, drain the
    /// engine (queued work still completes), join every thread, and
    /// return the final counters. Idempotent.
    pub fn shutdown(&self) -> ServeStats {
        self.stopping.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection; it
        // checks the flag before handing the stream to a worker.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = lock(&self.accept_thread).take() {
            let _ = thread.join();
        }
        let stats = self.core.drain();
        let conns = std::mem::take(&mut *lock(&self.connections));
        for conn in conns {
            let _ = conn.join();
        }
        stats
    }
}

/// Joins the connection threads that have ended and keeps the live
/// ones, so an ended thread's stack stays mapped only until the next
/// connection arrives, not until shutdown.
fn join_finished(conns: &mut Vec<JoinHandle<()>>) {
    let (ended, live) = std::mem::take(conns)
        .into_iter()
        .partition(JoinHandle::is_finished);
    *conns = live;
    for conn in ended {
        let _ = conn.join();
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Drives one client connection line-by-line until EOF, a read error
/// (non-UTF-8 included), a write failure, or a `drain` op.
fn serve_connection(core: &ServeCore, stream: TcpStream, stopping: &AtomicBool) {
    // Best effort: without it the connection still works, only slower.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let line = match read_line(&mut reader, &mut buf) {
            Ok(Some(Line::Text(line))) => line,
            Ok(Some(Line::TooLong)) => {
                let detail = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                let response = ServeResponse::with_detail("", ServeStatus::Invalid, detail);
                if write_line(&mut writer, &response).is_err() {
                    break;
                }
                continue;
            }
            Ok(None) | Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        if stopping.load(Ordering::Acquire) {
            let id = super::extract_id(&line);
            let response =
                ServeResponse::with_detail(id, ServeStatus::Draining, "daemon is draining");
            if write_line(&mut writer, &response).is_err() {
                break;
            }
            continue;
        }
        let (response, drain_after) = dispatch(core, &line);
        if write_line(&mut writer, &response).is_err() {
            break;
        }
        if drain_after {
            stopping.store(true, Ordering::Release);
            break;
        }
    }
}

/// One read from a connection.
enum Line {
    /// A line without its `\n` or `\r\n`.
    Text(String),
    /// A line longer than [`MAX_LINE_BYTES`], already skipped.
    TooLong,
}

/// Reads the next line into `buf`, as [`BufRead::lines`] would, but
/// never buffers more of it than [`MAX_LINE_BYTES`] and a `\r\n`.
/// `None` at end of stream; an error for a failed read or a line that
/// is not UTF-8.
fn read_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Option<Line>> {
    buf.clear();
    let limit = MAX_LINE_BYTES as u64 + 2;
    if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    let ended = buf.last() == Some(&b'\n');
    if ended {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > MAX_LINE_BYTES {
        if !ended {
            reader.skip_until(b'\n')?;
        }
        return Ok(Some(Line::TooLong));
    }
    let text = std::str::from_utf8(buf)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(Some(Line::Text(text.to_owned())))
}

/// Turns one request line into one response; the bool asks the caller
/// to begin a daemon-wide drain after writing the response.
fn dispatch(core: &ServeCore, line: &str) -> (ServeResponse, bool) {
    match parse_client_line(line) {
        Err(e) => (
            ServeResponse::with_detail(super::extract_id(line), ServeStatus::Invalid, e.detail),
            false,
        ),
        Ok(ClientOp::Ping { id }) => (ServeResponse::status(id, ServeStatus::Pong), false),
        Ok(ClientOp::Stats { id }) => (
            ServeResponse::with_detail(id, ServeStatus::Report, core.stats().to_json()),
            false,
        ),
        Ok(ClientOp::Drain { id }) => (
            ServeResponse::with_detail(id, ServeStatus::Report, "draining"),
            true,
        ),
        Ok(ClientOp::Plan(request)) => match core.submit(request) {
            Submission::Accepted(ticket) => (ticket.wait(), false),
            Submission::Rejected(response) => (response, false),
        },
    }
}

fn write_line(
    writer: &mut std::io::BufWriter<TcpStream>,
    response: &ServeResponse,
) -> std::io::Result<()> {
    writer.write_all(response.to_json().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_streams_set_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let probe = server.try_clone().expect("clone");
        assert!(!probe.nodelay().expect("read option"), "off by default");
        drop(client);
        let core = ServeCore::new(ServeConfig::default()).expect("serve core");
        serve_connection(&core, server, &AtomicBool::new(false));
        assert!(probe.nodelay().expect("read option"));
    }

    /// Polls `done` for up to ten seconds.
    fn wait_until(done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Sends a `ping` and reads the reply line.
    fn ping(client: &mut BufReader<TcpStream>) -> String {
        client
            .get_mut()
            .write_all(b"{\"op\":\"ping\",\"id\":\"p\"}\n")
            .expect("send");
        let mut reply = String::new();
        client.read_line(&mut reply).expect("reply");
        reply
    }

    #[test]
    fn closed_connections_are_joined_as_the_next_one_arrives() {
        let daemon = serve(
            "127.0.0.1:0",
            ServeConfig {
                jobs: 1,
                ..ServeConfig::default()
            },
        )
        .expect("serves");
        let connect = || BufReader::new(TcpStream::connect(daemon.addr()).expect("connect"));
        let connections = || lock(&daemon.connections).len();
        for _ in 0..32 {
            let mut client = connect();
            assert!(ping(&mut client).contains("pong"));
            drop(client);
            // The accept joined the previous connection before serving
            // this one, which has now ended too.
            wait_until(|| {
                let conns = lock(&daemon.connections);
                !conns.is_empty() && conns.iter().all(JoinHandle::is_finished)
            });
            assert_eq!(connections(), 1);
        }
        let mut live = connect();
        assert!(ping(&mut live).contains("pong"));
        wait_until(|| connections() == 1);
        assert!(!lock(&daemon.connections)[0].is_finished());

        // Shutdown waits for the live connection, which is still served
        // (told the daemon is draining) until it closes.
        std::thread::scope(|scope| {
            let stopped = scope.spawn(|| daemon.shutdown());
            wait_until(|| daemon.stopping.load(Ordering::Acquire));
            assert!(ping(&mut live).contains("draining"));
            assert!(!stopped.is_finished());
            drop(live);
            stopped.join().expect("shuts down");
        });
        assert_eq!(connections(), 0);
    }

    #[test]
    fn a_line_past_the_limit_is_skipped_whole() {
        let fits = "x".repeat(MAX_LINE_BYTES);
        // The last line runs past the limit into the end of the stream.
        let input = format!("{fits}\r\n{fits}y\n{fits}\ry and more\nping\n{fits}{fits}");
        let mut reader = BufReader::new(input.as_bytes());
        let mut buf = Vec::new();
        let mut next = || read_line(&mut reader, &mut buf).expect("reads");
        assert!(matches!(next(), Some(Line::Text(line)) if line == fits));
        assert!(matches!(next(), Some(Line::TooLong)));
        assert!(matches!(next(), Some(Line::TooLong)));
        assert!(matches!(next(), Some(Line::Text(line)) if line == "ping"));
        assert!(matches!(next(), Some(Line::TooLong)));
        assert!(next().is_none());
    }

    #[test]
    fn blank_and_crlf_lines_read_as_text() {
        let mut reader = BufReader::new(&b"\n\r\nping\r\npong"[..]);
        let mut buf = Vec::new();
        let mut next = || match read_line(&mut reader, &mut buf).expect("reads") {
            Some(Line::Text(line)) => Some(line),
            Some(Line::TooLong) => panic!("no line here is long"),
            None => None,
        };
        assert_eq!(next().as_deref(), Some(""));
        assert_eq!(next().as_deref(), Some(""));
        assert_eq!(next().as_deref(), Some("ping"));
        assert_eq!(next().as_deref(), Some("pong"));
        assert_eq!(next(), None);
    }

    #[test]
    fn a_line_that_is_not_utf8_is_a_read_error() {
        let mut reader = BufReader::new(&b"\xff\xfe\n"[..]);
        let err = read_line(&mut reader, &mut Vec::new())
            .err()
            .expect("not UTF-8");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
