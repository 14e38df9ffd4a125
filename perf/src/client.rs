//! The load generator's HTTP/1.1 client: one connection per request,
//! because mt-serve answers every request with `Connection: close`.
//!
//! The client reads until the server closes, so the server side of each
//! connection takes the TIME_WAIT state and a long run cannot exhaust the
//! client's ephemeral ports.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A request that takes longer than this is a failure, not a sample.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The `X-Cache` header (`hit` or `miss` on job endpoints).
    pub x_cache: Option<String>,
    /// The body bytes.
    pub body: Vec<u8>,
}

/// When each client-side step of one request ended.
#[derive(Debug, Clone, Copy)]
pub struct Steps {
    /// Before `connect`.
    pub start: Instant,
    /// Connected.
    pub connected: Instant,
    /// Request written.
    pub written: Instant,
    /// First response byte read.
    pub first_byte: Instant,
    /// Server closed the connection; the response is complete.
    pub done: Instant,
}

/// Sends one request and reads the whole response.
///
/// # Errors
///
/// Transport errors, timeouts, and malformed or truncated responses.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(Reply, Steps)> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    stream.write_all(&wire)?;
    let written = Instant::now();

    let mut raw = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let n = stream.read(&mut chunk)?;
    let first_byte = Instant::now();
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    raw.extend_from_slice(&chunk[..n]);
    stream.read_to_end(&mut raw)?;
    let done = Instant::now();
    let reply = parse_response(&raw)?;
    Ok((
        reply,
        Steps {
            start,
            connected,
            written,
            first_byte,
            done,
        },
    ))
}

/// Splits a complete `Connection: close` response into status, the
/// `X-Cache` header and a body whose length matches `Content-Length`.
fn parse_response(raw: &[u8]) -> io::Result<Reply> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response head never ended"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.get(..3))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut x_cache = None;
    let mut length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("x-cache") {
                x_cache = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            }
        }
    }
    let body = raw[head_end + 4..].to_vec();
    if length != Some(body.len()) {
        return Err(bad("body length differs from Content-Length"));
    }
    Ok(Reply {
        status,
        x_cache,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_serve_style_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\
                    Content-Type: application/json\r\nX-Cache: hit\r\n\r\n{}\n\n\n";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.x_cache.as_deref(), Some("hit"));
        assert_eq!(r.body, b"{}\n\n\n");
    }

    #[test]
    fn rejects_truncated_bodies_and_garbage() {
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}";
        assert!(parse_response(short).is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_err());
        assert!(parse_response(b"SMTP 220\r\n\r\n").is_err());
    }

    #[test]
    fn talks_to_mt_serve() {
        let server = mt_serve::serve(mt_serve::ServerConfig {
            workers: 1,
            ..mt_serve::ServerConfig::default()
        })
        .expect("bind an ephemeral port");
        let (reply, steps) = request(server.addr(), "GET", "/healthz", b"").unwrap();
        assert_eq!((reply.status, reply.body.as_slice()), (200, &b"ok\n"[..]));
        assert!(steps.start <= steps.connected && steps.first_byte <= steps.done);
        let (reply, _) = request(server.addr(), "POST", "/run", b"halt\n").unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.x_cache.as_deref(), Some("miss"));
        server.shutdown();
    }
}
