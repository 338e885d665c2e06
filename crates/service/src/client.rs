//! A blocking client for the `fgstpd` protocol.
//!
//! [`Client`] wraps one connection and exposes a method per command.
//! [`Client::results`] with `wait` consumes the daemon's streamed row
//! events, handing each to a callback as it arrives and returning the
//! job's terminal summary. Protocol-level refusals surface as
//! [`ClientError::Protocol`] carrying the daemon's structured
//! [`ProtocolError`]; transport and framing problems are the other two
//! variants.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use fgstp_sim::ExperimentSpec;
use fgstp_telemetry::json::Json;

use crate::protocol::{wire_line, ProtocolError, Request};
use crate::queue::JobState;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport problem (connect, read, write, early EOF).
    Io(std::io::Error),
    /// The daemon refused the request with a structured error.
    Protocol(ProtocolError),
    /// The daemon sent a line the client cannot interpret.
    Malformed(String),
    /// A connect or read deadline expired (see
    /// [`Client::connect_timeout`] and [`Client::set_read_timeout`]):
    /// which phase, and the deadline that passed.
    Timeout {
        /// `"connect"` or `"read"`.
        phase: &'static str,
        /// The deadline that expired.
        after: Duration,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Malformed(m) => write!(f, "malformed reply: {m}"),
            ClientError::Timeout { phase, after } => {
                write!(f, "{phase} timed out after {:.1}s", after.as_secs_f64())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

/// A submitted job's identity, from the `submit` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submitted {
    /// Daemon job id.
    pub job: u64,
    /// Whether the daemon served it from an existing job's results.
    pub dedup: bool,
}

/// A finished (or polled) job's terminal summary, from the `end` event.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job id.
    pub job: u64,
    /// `done`, `failed` — or `pending` from a no-wait poll.
    pub state: String,
    /// Rows streamed in this call.
    pub rows: usize,
    /// The failure message of a failed job.
    pub error: Option<String>,
}

impl JobOutcome {
    /// Whether the job finished with every row produced.
    pub fn is_done(&self) -> bool {
        self.state == JobState::Done.label()
    }
}

/// One connection to a daemon; see the [module docs](self).
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    read_timeout: Option<Duration>,
    /// Bytes of the reply line being read. It persists across read
    /// timeouts: a timeout may leave a partial line here, finished by
    /// the next read.
    line: Vec<u8>,
}

impl Client {
    /// Connects to a daemon, blocking for as long as the OS allows.
    /// Prefer [`Client::connect_timeout`] in anything interactive.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    /// Connects to a daemon with a deadline on the connect itself: a
    /// daemon that is not accepting (wedged machine, firewalled port)
    /// surfaces as [`ClientError::Timeout`] after `timeout` instead of
    /// hanging the caller indefinitely. Every address the name resolves
    /// to is tried in turn, each under the same deadline.
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
        let mut last: Option<std::io::Error> = None;
        for a in &addrs {
            match TcpStream::connect_timeout(a, timeout) {
                Ok(stream) => return Ok(Client::from_stream(stream)?),
                Err(e) => last = Some(e),
            }
        }
        match last {
            Some(e) if e.kind() == std::io::ErrorKind::TimedOut => Err(ClientError::Timeout {
                phase: "connect",
                after: timeout,
            }),
            Some(e) => Err(ClientError::Io(e)),
            None => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ))),
        }
    }

    /// Requests are single writes, so `TCP_NODELAY` costs nothing and
    /// keeps Nagle's algorithm from holding one back for an ACK.
    fn from_stream(stream: TcpStream) -> std::io::Result<Client> {
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            read_timeout: None,
            line: Vec::new(),
        })
    }

    /// Caps how long any single reply read may block; an expired deadline
    /// surfaces as [`ClientError::Timeout`] with phase `"read"` instead
    /// of blocking forever on a daemon that stops responding. `None`
    /// restores unbounded reads. Note that a streaming `results --wait`
    /// read legitimately blocks until the next row, so the cap bounds the
    /// gap *between* rows, not the whole job.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(())
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.writer
            .write_all(wire_line(&req.to_json()).as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_line(&mut self) -> Result<Json, ClientError> {
        // Read bytes, not a `String`: a timeout may split a multi-byte
        // character, and `read_line` would drop the partial read.
        let n = match self.reader.read_until(b'\n', &mut self.line) {
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) && self.read_timeout.is_some() =>
            {
                return Err(ClientError::Timeout {
                    phase: "read",
                    after: self.read_timeout.unwrap_or_default(),
                });
            }
            Err(e) => return Err(e.into()),
        };
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )));
        }
        let parsed = match std::str::from_utf8(&self.line) {
            Ok(text) => Json::parse(text.trim_end()).map_err(ClientError::Malformed),
            Err(e) => Err(ClientError::Malformed(e.to_string())),
        };
        self.line.clear();
        parsed
    }

    /// Reads one reply, turning `{"ok": false}` into a protocol error.
    fn read_reply(&mut self) -> Result<Json, ClientError> {
        let v = self.read_line()?;
        if v.get("ok") == Some(&Json::Bool(false)) {
            let e = ProtocolError::from_reply(&v)
                .unwrap_or_else(|| ProtocolError::new("bad-reply", "unrecognized error reply"));
            return Err(ClientError::Protocol(e));
        }
        Ok(v)
    }

    /// Submits a spec; the daemon validates it again before enqueueing.
    pub fn submit(&mut self, spec: &ExperimentSpec) -> Result<Submitted, ClientError> {
        self.send(&Request::Submit { spec: spec.clone() })?;
        let v = self.read_reply()?;
        let job = v
            .get("job")
            .and_then(Json::as_f64)
            .ok_or_else(|| ClientError::Malformed("submit reply without job id".to_owned()))?;
        Ok(Submitted {
            job: job as u64,
            dedup: v.get("dedup") == Some(&Json::Bool(true)),
        })
    }

    /// Fetches job status lines (every job when `job` is `None`).
    pub fn status(&mut self, job: Option<u64>) -> Result<Vec<Json>, ClientError> {
        self.send(&Request::Status { job })?;
        let v = self.read_reply()?;
        Ok(v.get("jobs")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .to_vec())
    }

    /// Reads a job's rows, calling `on_row` per row. With `wait`, blocks
    /// (streaming) until the job is terminal; otherwise returns what
    /// exists now with state `pending` if unfinished.
    pub fn results(
        &mut self,
        job: u64,
        wait: bool,
        mut on_row: impl FnMut(&Json),
    ) -> Result<JobOutcome, ClientError> {
        self.send(&Request::Results { job, wait })?;
        loop {
            let v = self.read_reply()?;
            match v.get("event").and_then(Json::as_str) {
                Some("row") => {
                    if let Some(row) = v.get("row") {
                        on_row(row);
                    }
                }
                Some("end") => {
                    return Ok(JobOutcome {
                        job,
                        state: v
                            .get("state")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                            .to_owned(),
                        rows: v.get("rows").and_then(Json::as_f64).unwrap_or(0.0) as usize,
                        error: v.get("error").and_then(Json::as_str).map(str::to_owned),
                    });
                }
                _ => {
                    return Err(ClientError::Malformed(format!(
                        "unexpected results event: {}",
                        wire_line(&v).trim_end()
                    )))
                }
            }
        }
    }

    /// Convenience: submit, wait, and collect every row.
    pub fn run_to_completion(
        &mut self,
        spec: &ExperimentSpec,
    ) -> Result<(Submitted, Vec<Json>, JobOutcome), ClientError> {
        let sub = self.submit(spec)?;
        let mut rows = Vec::new();
        let outcome = self.results(sub.job, true, |row| rows.push(row.clone()))?;
        Ok((sub, rows, outcome))
    }

    /// Fetches the service counters and throughput figures.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.send(&Request::Stats)?;
        self.read_reply()
    }

    /// Asks the daemon to stop; `drain` finishes queued jobs first.
    pub fn shutdown(&mut self, drain: bool) -> Result<(), ClientError> {
        self.send(&Request::Shutdown { drain })?;
        self.read_reply().map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected client and the server end of its socket.
    fn loopback_pair() -> (Client, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn connected_client_disables_nagle() {
        let (client, _server) = loopback_pair();
        assert!(client.writer.nodelay().unwrap());
        assert!(client.reader.get_ref().nodelay().unwrap());
    }

    #[test]
    fn a_line_split_by_a_read_timeout_is_finished_by_the_next_read() {
        let (mut client, mut server) = loopback_pair();
        let timeout = Duration::from_millis(100);
        client.set_read_timeout(Some(timeout)).unwrap();

        server.write_all(b"{\"ok\": true, \"jo").unwrap();
        match client.read_line() {
            Err(ClientError::Timeout { phase, after }) => {
                assert_eq!(phase, "read");
                assert_eq!(after, timeout);
            }
            other => panic!("expected a read timeout, got {other:?}"),
        }

        server.write_all(b"b\": 7}\n").unwrap();
        let v = client.read_line().unwrap();
        assert_eq!(v.get("job"), Some(&Json::Num(7.0)));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    }
}
