//! The load generator's side of the daemon: a fresh daemon per set-up,
//! line-protocol connections, and the closed and open request loops.

use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use paraconv::sched::AllocationPolicy;
use paraconv::serve::daemon::{self, DaemonHandle};
use paraconv::serve::{plan_line, PlanRequest, ServeConfig, ServeResponse, ServeStats};

use crate::gen::{Arrival, Req};

/// A running `paraconv serve` daemon on a loopback ephemeral port,
/// backed by a registry directory of its own.
#[derive(Debug)]
pub struct Server {
    handle: DaemonHandle,
    dir: PathBuf,
}

impl Server {
    /// Starts a daemon on a fresh registry at `dir` (emptied first),
    /// with `jobs` workers.
    ///
    /// # Errors
    ///
    /// When the directory or the daemon cannot be set up.
    pub fn start(dir: &Path, jobs: usize) -> Result<Server, String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        let config = ServeConfig {
            jobs,
            registry_path: Some(dir.to_path_buf()),
            ..ServeConfig::default()
        };
        let handle = daemon::serve("127.0.0.1:0", config).map_err(|e| format!("serve: {e}"))?;
        Ok(Server {
            handle,
            dir: dir.to_path_buf(),
        })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The registry directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Drains the daemon, joins its threads and returns its counters.
    pub fn shutdown(self) -> ServeStats {
        self.handle.shutdown()
    }
}

/// The wire request for `req` with correlation id `id`.
#[must_use]
pub fn line_for(req: &Req, id: &str, tenant: usize) -> String {
    plan_line(&PlanRequest {
        id: id.to_owned(),
        tenant: format!("tenant-{tenant}"),
        benchmark: req.benchmark.to_owned(),
        pes: req.pes,
        iterations: req.iterations,
        policy: AllocationPolicy::DynamicProgram,
        deadline_ms: None,
    })
}

/// One client connection speaking the JSONL protocol.
#[derive(Debug)]
pub struct Conn {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// When the socket cannot be opened.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            writer: BufWriter::new(stream),
            reader: BufReader::new(read_half),
        })
    }

    /// Sends one line and reads one response, returning it with the
    /// round-trip time in seconds.
    ///
    /// # Errors
    ///
    /// On a socket failure or an unparsable response.
    pub fn call(&mut self, line: &str) -> Result<(ServeResponse, f64), String> {
        let start = Instant::now();
        send(&mut self.writer, line)?;
        let response = recv(&mut self.reader)?;
        Ok((response, start.elapsed().as_secs_f64()))
    }
}

fn send(writer: &mut BufWriter<TcpStream>, line: &str) -> Result<(), String> {
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send: {e}"))
}

fn recv(reader: &mut BufReader<TcpStream>) -> Result<ServeResponse, String> {
    let mut buf = String::new();
    let n = reader
        .read_line(&mut buf)
        .map_err(|e| format!("recv: {e}"))?;
    if n == 0 {
        return Err("daemon closed the connection".into());
    }
    ServeResponse::parse(&buf).map_err(|e| format!("bad response `{}`: {e}", buf.trim()))
}

/// One answered request of a closed loop.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Index of the request in the stream.
    pub index: usize,
    /// Send-to-response time in seconds.
    pub latency_s: f64,
    /// The daemon's response.
    pub response: ServeResponse,
}

/// Drives `stream` as a closed loop, one request in flight per
/// connection. Stops at the end of `stream` or at the first round
/// boundary (`round` requests) after `seconds`, so every run sees whole
/// rounds of the same mix. Returns the answers and the wall time of the
/// loop.
///
/// # Errors
///
/// On any socket or protocol failure.
pub fn closed_loop(
    conns: Vec<Conn>,
    stream: &[Req],
    round: usize,
    seconds: f64,
) -> Result<(Vec<Answer>, f64), String> {
    let cursor = Mutex::new(0usize);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<Result<Vec<Answer>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let index = {
                            let mut next = cursor.lock().expect("cursor lock is never poisoned");
                            let boundary = next.is_multiple_of(round);
                            if *next >= stream.len() || (boundary && Instant::now() >= deadline) {
                                break;
                            }
                            *next += 1;
                            *next - 1
                        };
                        let line = line_for(&stream[index], &format!("c{index}"), c);
                        let (response, latency_s) = conn.call(&line)?;
                        out.push(Answer {
                            index,
                            latency_s,
                            response,
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut answers = Vec::new();
    for r in results {
        answers.extend(r?);
    }
    answers.sort_by_key(|a| a.index);
    Ok((answers, wall))
}

/// One request of an open-loop step, as sent and answered.
#[derive(Debug, Clone)]
pub struct Timed {
    /// The arrival it realises.
    pub arrival: Arrival,
    /// Seconds the send ran behind its due time.
    pub late_s: f64,
    /// Seconds the line waited on its connection behind the previous
    /// request: the daemon reads a connection's next line only after
    /// answering the last one. Measured on the client, from the send to
    /// the read of the previous response.
    pub queued_s: f64,
    /// Seconds from the due time to the response.
    pub latency_s: f64,
    /// The daemon's response.
    pub response: ServeResponse,
}

/// Outstanding requests per connection a saturating step keeps.
pub const SATURATION_DEPTH: usize = 32;

/// How a step's sender paces its lines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Each line at its due time.
    Due,
    /// As fast as a pipeline [`SATURATION_DEPTH`] deep allows, until
    /// `until_s` seconds into the step: measures capacity.
    Saturate {
        /// When to stop sending.
        until_s: f64,
    },
}

/// Sends `arrivals` over `conns` (arrival `i` on connection
/// `i % conns.len()`) as `pacing` says, pipelining lines without
/// waiting for responses. One thread per connection both sends and
/// reads. Returns the answered requests, in send order per connection,
/// and the connections for reuse.
///
/// # Errors
///
/// On any socket or protocol failure, or a response out of order.
pub fn open_loop(
    conns: Vec<Conn>,
    arrivals: &[Arrival],
    pacing: Pacing,
) -> Result<(Vec<Timed>, Vec<Conn>), String> {
    let n = conns.len();
    let start = Instant::now();
    let per_conn: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let mine: Vec<(usize, Arrival)> = arrivals
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| i % n == c)
                    .collect();
                scope.spawn(move || drive_connection(conn, &mine, start, pacing))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut answered = Vec::new();
    let mut conns = Vec::new();
    for r in per_conn {
        let (timed, conn) = r?;
        answered.extend(timed);
        conns.push(conn);
    }
    Ok((answered, conns))
}

/// Writes all of `bytes` to a non-blocking socket.
fn write_nonblocking(stream: &mut TcpStream, mut bytes: &[u8]) -> Result<(), String> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("send: {e}")),
        }
    }
    Ok(())
}

/// How long a connection's thread sleeps while a response is awaited.
const POLL: Duration = Duration::from_micros(100);

/// What one connection's share of a step returns: its answered
/// requests and the connection for reuse.
type ConnOutcome = Result<(Vec<Timed>, Conn), String>;

/// One connection's share of a step, on one thread: the socket is
/// non-blocking, and the thread writes every line that is due, reads
/// every response that has arrived, and sleeps until the next line is
/// due or, while responses are awaited, for [`POLL`].
fn drive_connection(
    conn: Conn,
    mine: &[(usize, Arrival)],
    start: Instant,
    pacing: Pacing,
) -> ConnOutcome {
    let Conn {
        mut writer,
        mut reader,
    } = conn;
    let io = |e: std::io::Error| format!("socket: {e}");
    reader.get_ref().set_nonblocking(true).map_err(io)?;
    let mut sent_at: Vec<f64> = Vec::with_capacity(mine.len());
    let mut timed: Vec<Timed> = Vec::with_capacity(mine.len());
    let mut pending: Vec<u8> = Vec::new();
    let mut stopped = false;
    let mut ended = false;
    'step: loop {
        let mut out: Vec<u8> = Vec::new();
        while !stopped && sent_at.len() < mine.len() {
            let (i, arrival) = mine[sent_at.len()];
            let now = start.elapsed().as_secs_f64();
            match pacing {
                Pacing::Due => {
                    if arrival.due_s > now {
                        break;
                    }
                }
                Pacing::Saturate { until_s } => {
                    if now >= until_s {
                        stopped = true;
                        break;
                    }
                    if sent_at.len() - timed.len() >= SATURATION_DEPTH {
                        break;
                    }
                }
            }
            out.extend_from_slice(
                line_for(&arrival.req, &format!("o{i}"), arrival.tenant).as_bytes(),
            );
            out.push(b'\n');
            sent_at.push(now);
        }
        if sent_at.len() == mine.len() {
            stopped = true;
        }
        if stopped && !ended {
            // A ping closes the step: its pong is the last line to read.
            out.extend_from_slice(b"{\"op\":\"ping\",\"id\":\"end\"}\n");
            ended = true;
        }
        let wrote = !out.is_empty();
        write_nonblocking(writer.get_mut(), &out)?;

        let mut read = false;
        loop {
            match reader.read_until(b'\n', &mut pending) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(_) if pending.ends_with(b"\n") => {
                    read = true;
                    let at = start.elapsed().as_secs_f64();
                    let text = String::from_utf8_lossy(&pending).into_owned();
                    pending.clear();
                    let response = ServeResponse::parse(&text)
                        .map_err(|e| format!("bad response `{}`: {e}", text.trim()))?;
                    if response.id == "end" {
                        break 'step;
                    }
                    let k = timed.len();
                    let (i, arrival) = *mine.get(k).ok_or("more responses than requests")?;
                    if response.id != format!("o{i}") {
                        return Err(format!("response `{}` out of order", response.id));
                    }
                    let previous_read = timed.last().map_or(0.0, |p| p.arrival.due_s + p.latency_s);
                    timed.push(Timed {
                        arrival,
                        late_s: (sent_at[k] - arrival.due_s).max(0.0),
                        queued_s: (previous_read - sent_at[k]).max(0.0),
                        latency_s: at - arrival.due_s,
                        response,
                    });
                }
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io(e)),
            }
        }
        if !wrote && !read {
            let awaited = sent_at.len() > timed.len() || ended;
            let next_due = match pacing {
                Pacing::Due if !stopped => {
                    let due = mine[sent_at.len()].1.due_s - start.elapsed().as_secs_f64();
                    Duration::from_secs_f64(due.max(0.0))
                }
                _ => POLL,
            };
            std::thread::sleep(if awaited {
                next_due.min(POLL)
            } else {
                next_due
            });
        }
    }
    reader.get_ref().set_nonblocking(false).map_err(io)?;
    Ok((timed, Conn { writer, reader }))
}

/// Mean round trip of `n` plan requests that arrive with an expired
/// deadline (`deadline_ms: 0`): each is parsed, admitted, queued and
/// answered `deadline` by a worker without planning, so this is the
/// cost of the socket, the protocol and the admission queue's hand-off.
///
/// # Errors
///
/// On a socket or protocol failure, or any answer but `deadline`.
pub fn queue_rtt(conn: &mut Conn, n: usize) -> Result<f64, String> {
    let mut total = 0.0;
    for i in 0..n {
        let line = plan_line(&PlanRequest {
            id: format!("q{i}"),
            tenant: "probe".into(),
            benchmark: "cat".into(),
            pes: 16,
            iterations: 1,
            policy: AllocationPolicy::DynamicProgram,
            deadline_ms: Some(0),
        });
        let (response, rtt) = conn.call(&line)?;
        if response.status != paraconv::serve::ServeStatus::Deadline {
            return Err(format!("expired probe answered {}", response.to_json()));
        }
        total += rtt;
    }
    Ok(total / n.max(1) as f64)
}

/// Mean round trip of `n` `ping` lines, in seconds: the cost of the
/// socket and the protocol with no planning behind it.
///
/// # Errors
///
/// On a socket or protocol failure.
pub fn ping_rtt(conn: &mut Conn, n: usize) -> Result<f64, String> {
    let mut total = 0.0;
    for i in 0..n {
        let (response, rtt) = conn.call(&format!("{{\"op\":\"ping\",\"id\":\"p{i}\"}}"))?;
        if response.id != format!("p{i}") {
            return Err(format!("ping answered by `{}`", response.id));
        }
        total += rtt;
    }
    Ok(total / n.max(1) as f64)
}
