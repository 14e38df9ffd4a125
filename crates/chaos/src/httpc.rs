//! The workspace's one HTTP/1.1 client for `mt-serve`: `mtasm client`,
//! `repro-chaos` and the serve crate's tests all send their requests
//! through it.
//!
//! Hand-rolled like the server: the workspace takes no dependencies,
//! and chaos scenarios *need* byte-level control of the socket (torn
//! heads, half-closes, mid-body disconnects) that a real client library
//! would hide — they take [`connect`], [`write_request`] and
//! [`read_reply`] separately. Every exchange is one request on a fresh
//! connection with `Connection: close`.
//!
//! Writes are deliberately tolerant — an overloaded or draining server
//! may answer and close before it reads the request, so a failed
//! `write` with a valid response already on the wire is a success, not
//! an error. Only the read side decides whether the request went out
//! and came back ([`Error`]).

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mt_trace::json::{self, Json};

/// Socket-level timeout for every read and write. Generous: this is a
/// hang backstop, not a latency assertion.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One parsed response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    /// The `X-Cache` header (`hit`/`miss` from `mt-serve`), if sent.
    pub cache: Option<String>,
    pub body: String,
}

/// Why an exchange produced no reply.
#[derive(Debug)]
pub enum Error {
    /// Connect or socket setup failed: the request never went out.
    NotSent(String),
    /// The request went out (or the server dropped us while it did),
    /// but no complete reply came back.
    NoReply(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotSent(m) | Error::NoReply(m) => f.write_str(m),
        }
    }
}

/// `http://host:port` → `host:port`: the address a `--url` names.
pub fn host_port(url: &str) -> Result<&str, String> {
    url.strip_prefix("http://")
        .ok_or_else(|| format!("bad --url `{url}` (need http://host:port)"))
        .map(|rest| rest.trim_end_matches('/'))
}

/// Connects with both timeouts armed.
pub fn connect(addr: &str) -> Result<TcpStream, Error> {
    let not_sent = |e: std::io::Error| Error::NotSent(format!("connect {addr}: {e}"));
    let stream = TcpStream::connect(addr).map_err(not_sent)?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(not_sent)?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(not_sent)?;
    Ok(stream)
}

/// Writes one complete request — head and body in a single
/// `write_all`. `client_id` is the `X-Client-Id` the server picks a
/// fairness lane by.
pub fn write_request(
    w: &mut impl Write,
    addr: &str,
    method: &str,
    target: &str,
    client_id: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut wire = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nX-Client-Id: {client_id}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    w.write_all(&wire)?;
    w.flush()
}

/// Reads a status line, headers, and body from a stream the request
/// has already been written to. Without a `Content-Length` the body
/// runs to EOF.
pub fn read_reply(stream: TcpStream) -> Result<Reply, Error> {
    let no_reply = |what: &str, e: std::io::Error| Error::NoReply(format!("{what}: {e}"));
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| no_reply("read status", e))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            Error::NoReply(format!(
                "short read: status line `{}`",
                status_line.trim_end()
            ))
        })?;
    let mut cache = None;
    let mut content_length = None;
    loop {
        let mut line = String::new();
        if reader
            .read_line(&mut line)
            .map_err(|e| no_reply("read header", e))?
            == 0
        {
            return Err(Error::NoReply("short read: head".to_string()));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("x-cache") {
            cache = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("content-length") {
            let n = value
                .parse::<u64>()
                .map_err(|e| Error::NoReply(format!("bad content-length `{value}`: {e}")))?;
            content_length = Some(n);
        }
    }
    // `take` bounds the read by what arrives, not by what the server
    // claims, so a huge `Content-Length` cannot force a huge allocation.
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            (&mut reader)
                .take(n)
                .read_to_end(&mut body)
                .map_err(|e| no_reply("read body", e))?;
            if body.len() as u64 != n {
                return Err(Error::NoReply(format!(
                    "short read: body {} of {n} bytes",
                    body.len()
                )));
            }
        }
        None => {
            reader
                .read_to_end(&mut body)
                .map_err(|e| no_reply("read body", e))?;
        }
    }
    Ok(Reply {
        status,
        cache,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// One request over a fresh connection. A failed write is tolerated
/// (see the module doc): only a missing or unreadable *reply* is an
/// error.
pub fn request(
    addr: &str,
    method: &str,
    target: &str,
    client_id: &str,
    body: &[u8],
) -> Result<Reply, Error> {
    let stream = connect(addr)?;
    let _ = write_request(&mut &stream, addr, method, target, client_id, body);
    read_reply(stream)
}

/// One bodiless `GET`.
pub fn get(addr: &str, target: &str) -> Result<Reply, Error> {
    request(addr, "GET", target, "probe", b"")
}

/// One `POST` from the `client_id` lane.
pub fn post(addr: &str, target: &str, client_id: &str, body: &[u8]) -> Result<Reply, Error> {
    request(addr, "POST", target, client_id, body)
}

/// Fetches and parses the `/metrics` JSON document.
pub fn metrics(addr: &str) -> Result<Json, String> {
    let reply = get(addr, "/metrics").map_err(|e| e.to_string())?;
    if reply.status != 200 {
        return Err(format!("/metrics answered {}", reply.status));
    }
    json::parse(&reply.body).map_err(|e| format!("/metrics parse: {e}"))
}

/// Looks up a numeric field by dot-path in a JSON document.
pub fn field_u64(doc: &Json, path: &[&str]) -> Option<u64> {
    let mut node = doc;
    for key in path {
        node = node.get(key)?;
    }
    node.as_f64().map(|f| f as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    /// A one-shot server: accepts one connection, reads the request
    /// head, writes `answer` verbatim, and closes. Joins to the head it
    /// read.
    fn serve_once(answer: &'static [u8]) -> (String, JoinHandle<String>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(&stream);
            let mut head = String::new();
            while !head.ends_with("\r\n\r\n") {
                assert_ne!(reader.read_line(&mut head).unwrap(), 0, "client hung up");
            }
            (&stream).write_all(answer).unwrap();
            head
        });
        (addr, server)
    }

    #[test]
    fn unreachable_port_is_not_sent() {
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let err = get(&addr, "/healthz").unwrap_err();
        assert!(matches!(err, Error::NotSent(_)), "{err:?}");
    }

    #[test]
    fn close_without_an_answer_is_no_reply() {
        let (addr, server) = serve_once(b"");
        let err = get(&addr, "/healthz").unwrap_err();
        assert!(matches!(err, Error::NoReply(_)), "{err:?}");
        server.join().unwrap();
    }

    #[test]
    fn body_shorter_than_its_content_length_is_no_reply() {
        let (addr, server) = serve_once(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort");
        let err = get(&addr, "/healthz").unwrap_err();
        assert!(matches!(err, Error::NoReply(_)), "{err:?}");
        server.join().unwrap();
    }

    #[test]
    fn parses_x_cache_in_any_case_and_a_sized_body() {
        let (addr, server) = serve_once(
            b"HTTP/1.1 429 Too Many Requests\r\nx-CACHE: miss\r\ncontent-length: 5\r\n\r\nhello",
        );
        let reply = get(&addr, "/metrics").unwrap();
        assert_eq!(reply.status, 429);
        assert_eq!(reply.cache.as_deref(), Some("miss"));
        assert_eq!(reply.body, "hello");
        let head = server.join().unwrap();
        assert!(head.starts_with("GET /metrics HTTP/1.1\r\n"), "{head}");
        assert!(head.contains("\r\nX-Client-Id: probe\r\n"), "{head}");
        assert!(head.contains("\r\nConnection: close\r\n"), "{head}");
    }
}
