//! A minimal closed-loop HTTP/1.1 load client.
//!
//! Responses are framed by `Content-Length`. The connection is reused
//! unless the server answers `Connection: close`, so a server that gains
//! keep-alive is measured as such without a change here. Connect, read
//! and write timeouts turn a stalled or crashed gateway into failed
//! operations instead of a hung run.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest a connect may take.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Longest the client waits on one read or write.
pub const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// Largest response head the client accepts.
const MAX_HEAD: usize = 64 * 1024;
/// Largest response body the client accepts.
const MAX_BODY: usize = 256 * 1024 * 1024;

/// One answered request.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Time spent connecting, when this request opened a connection.
    pub connect: Option<Duration>,
    /// Whole round trip, connect included.
    pub total: Duration,
}

/// A client bound to one server address holding at most one connection.
pub struct Client {
    addr: SocketAddr,
    io_timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for `addr` with the default [`IO_TIMEOUT`]; it connects
    /// lazily.
    pub fn new(addr: SocketAddr) -> Client {
        Client::with_timeout(addr, IO_TIMEOUT)
    }

    /// A client whose reads and writes give up after `io_timeout`.
    pub fn with_timeout(addr: SocketAddr, io_timeout: Duration) -> Client {
        Client {
            addr,
            io_timeout,
            conn: None,
        }
    }

    /// Sends one raw request and reads the whole response.
    ///
    /// # Errors
    ///
    /// A description of the connect, I/O, timeout or framing failure. The
    /// connection is dropped, so the next request reconnects.
    pub fn request(&mut self, raw: &[u8]) -> Result<Reply, String> {
        let start = Instant::now();
        let reused = self.conn.is_some();
        let mut connect = None;
        let mut result = self
            .connected(&mut connect)
            .and_then(|()| self.exchange(raw));
        // A kept-alive connection the server closed while idle fails
        // before any response byte: resend once on a fresh connection.
        if let Err((_, true)) = &result {
            if reused {
                self.conn = None;
                result = self
                    .connected(&mut connect)
                    .and_then(|()| self.exchange(raw));
            }
        }
        match result {
            Ok((status, body, close)) => {
                if close {
                    self.conn = None;
                }
                Ok(Reply {
                    status,
                    body,
                    connect,
                    total: start.elapsed(),
                })
            }
            Err((e, _)) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    /// Opens a connection unless one is held, recording the connect time.
    fn connected(&mut self, connect: &mut Option<Duration>) -> Result<(), (String, bool)> {
        if self.conn.is_some() {
            return Ok(());
        }
        let t = Instant::now();
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)
            .map_err(|e| (format!("connect: {e}"), false))?;
        stream
            .set_read_timeout(Some(self.io_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.io_timeout)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| (format!("socket options: {e}"), false))?;
        *connect = Some(connect.unwrap_or_default() + t.elapsed());
        self.conn = Some(BufReader::new(stream));
        Ok(())
    }

    /// Writes the request and reads the response. An error carries
    /// whether the peer closed the connection before any response byte,
    /// the one failure a resend on a fresh connection can mend.
    fn exchange(&mut self, raw: &[u8]) -> Result<(u16, String, bool), (String, bool)> {
        let conn = self.conn.as_mut().expect("connected above");
        conn.get_mut()
            .write_all(raw)
            .map_err(|e| (format!("write: {e}"), peer_closed(&e)))?;
        let mut status_line = String::new();
        match conn.read_line(&mut status_line) {
            Ok(0) => return Err(("connection closed before the response".into(), true)),
            Ok(_) => {}
            Err(e) => return Err((format!("read head: {e}"), peer_closed(&e))),
        }
        let head_len = status_line.len();
        self.read_rest(status_line, head_len)
            .map_err(|e| (e, false))
    }

    fn read_rest(
        &mut self,
        status_line: String,
        mut head_len: usize,
    ) -> Result<(u16, String, bool), String> {
        let conn = self.conn.as_mut().expect("connected above");
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line: {status_line:?}"))?;
        let mut content_length = None;
        let mut close = false;
        loop {
            let mut line = String::new();
            read_line(conn, &mut line, &mut head_len)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| format!("bad Content-Length: {value}"))?,
                    );
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let len = content_length.ok_or("response without Content-Length")?;
        if len > MAX_BODY {
            return Err(format!("response body of {len} bytes"));
        }
        let mut body = vec![0u8; len];
        conn.read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        let body = String::from_utf8(body).map_err(|_| "response body is not UTF-8")?;
        Ok((status, body, close))
    }
}

fn peer_closed(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset};
    matches!(e.kind(), BrokenPipe | ConnectionAborted | ConnectionReset)
}

fn read_line(
    conn: &mut BufReader<TcpStream>,
    line: &mut String,
    head_len: &mut usize,
) -> Result<(), String> {
    let n = conn
        .read_line(line)
        .map_err(|e| format!("read head: {e}"))?;
    if n == 0 {
        return Err("connection closed before the response head ended".into());
    }
    *head_len += n;
    if *head_len > MAX_HEAD {
        return Err("response head too large".into());
    }
    Ok(())
}
