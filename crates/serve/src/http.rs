//! Minimal HTTP/1.1 framing — just enough protocol for a localhost
//! tool server, with hard size limits so a confused client cannot make
//! the process allocate unboundedly.
//!
//! The subset: request line + headers + `Content-Length` bodies, one
//! request per connection (`Connection: close` on every response).
//! No chunked encoding, no keep-alive, no percent-decoding beyond `%xx`
//! in query values. That is all `mtasm client` and `curl` need.
//!
//! Reading is split in two ([`read_head`] / [`read_body`]) so the server
//! can run them under *different* deadlines: a client gets a short budget
//! to produce the request head (a slow-loris dribbling one header byte
//! per second cannot pin a connection slot for long) and a separate
//! budget for the body. Deadlines are absolute, enforced per-syscall by
//! [`DeadlineStream`] — partial progress never extends them.

use std::cell::Cell;
use std::io::{BufRead, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body (assembly source is small).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string, e.g. `/run`.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First query value for `key`.
    pub fn query_get(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A query flag: present and not `0`/`false`/empty.
    pub fn query_flag(&self, key: &str) -> bool {
        matches!(self.query_get(key), Some(v) if !v.is_empty() && v != "0" && v != "false")
    }

    /// First header value for lower-case `name`.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant maps to one response
/// status so handlers can reject without guessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Connection closed before a full request arrived.
    Closed,
    /// Malformed request line or header.
    Malformed(String),
    /// Head or body over the hard limits (413).
    TooLarge,
    /// A read or write deadline expired mid-request (408).
    Timeout,
    /// I/O failure other than a timeout.
    Io(String),
}

impl HttpError {
    /// The response status this error maps to (0 = no response possible).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Closed | HttpError::Io(_) => 0,
            HttpError::Malformed(_) => 400,
            HttpError::TooLarge => 413,
            HttpError::Timeout => 408,
        }
    }
}

/// Maps an I/O failure to the matching [`HttpError`]. `TimedOut` and
/// `WouldBlock` both mean an armed socket timeout fired (Unix reports
/// `SO_RCVTIMEO` expiry as `EAGAIN`, i.e. `WouldBlock`).
fn io_error(e: std::io::Error) -> HttpError {
    match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => HttpError::Timeout,
        _ => HttpError::Io(e.to_string()),
    }
}

/// A parsed request head: everything before the body. The server admits
/// or rejects on this alone (and switches from the header deadline to the
/// body deadline) before committing to the body read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Decoded query pairs, in order.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Parsed `Content-Length` (0 when absent), already checked against
    /// [`MAX_BODY_BYTES`].
    pub content_length: usize,
}

/// Reads and parses the request head (request line + headers) only.
pub fn read_head(reader: &mut impl BufRead) -> Result<Head, HttpError> {
    let mut head = Vec::new();
    // Read until the blank line, byte-limited.
    loop {
        let mut line = Vec::new();
        let n = reader
            .by_ref()
            .take((MAX_HEAD_BYTES - head.len() + 1) as u64)
            .read_until(b'\n', &mut line)
            .map_err(io_error)?;
        if n == 0 {
            return Err(if head.is_empty() {
                HttpError::Closed
            } else {
                HttpError::Malformed("truncated head".to_string())
            });
        }
        head.extend_from_slice(&line);
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        if line == b"\r\n" || line == b"\n" {
            break;
        }
    }
    let head =
        String::from_utf8(head).map_err(|_| HttpError::Malformed("non-UTF-8 head".into()))?;
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = (
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
    );
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1") {
        return Err(HttpError::Malformed(format!(
            "bad request line `{request_line}`"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length: usize = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad content-length `{v}`")))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();

    Ok(Head {
        method: method.to_string(),
        path: path.to_string(),
        query,
        headers,
        content_length,
    })
}

/// Reads the body promised by `head` and assembles the full [`Request`].
pub fn read_body(reader: &mut impl BufRead, head: Head) -> Result<Request, HttpError> {
    let mut body = vec![0u8; head.content_length];
    reader.read_exact(&mut body).map_err(io_error)?;
    Ok(Request {
        method: head.method,
        path: head.path,
        query: head.query,
        headers: head.headers,
        body,
    })
}

/// Reads one request from `reader` ([`read_head`] + [`read_body`] under
/// whatever single deadline the reader already carries).
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    let head = read_head(reader)?;
    read_body(reader, head)
}

/// Decodes `%xx` escapes (`x` an ASCII hex digit) and `+` (space);
/// invalid escapes pass through.
fn percent_decode(s: &str) -> String {
    let hex = |b: u8| (b as char).to_digit(16);
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => match bytes.get(i + 1..i + 3).map(|h| (hex(h[0]), hex(h[1]))) {
                Some((Some(hi), Some(lo))) => {
                    out.push((hi << 4 | lo) as u8);
                    i += 2;
                }
                _ => out.push(b'%'),
            },
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A [`TcpStream`] with *absolute* read and write deadlines.
///
/// [`TcpStream::set_read_timeout`] alone is a per-syscall budget: a peer
/// that delivers one byte per timeout period resets the clock on every
/// read and holds the connection open indefinitely (the slow-loris
/// pattern, and its mirror image on the write side — a reader that
/// drains one window per timeout pins the responding worker). This
/// wrapper re-arms the socket timeout before every syscall with the time
/// *remaining* until a fixed deadline, so partial progress never buys
/// the peer more time: total connection occupancy is bounded by the
/// deadline no matter how the bytes trickle.
///
/// Deadlines are interior-mutable (`Cell`) so the stream can sit behind
/// a shared reference — a `BufReader<&DeadlineStream>` and a later
/// `write_to(&mut &stream)` coexist, mirroring `TcpStream`'s own
/// `impl Read for &TcpStream`. `None` disables the deadline on that
/// direction (reverting to an unbounded blocking socket).
#[derive(Debug)]
pub struct DeadlineStream {
    stream: TcpStream,
    read_deadline: Cell<Option<Instant>>,
    write_deadline: Cell<Option<Instant>>,
}

impl DeadlineStream {
    /// Wraps `stream` with no deadlines armed.
    pub fn new(stream: TcpStream) -> DeadlineStream {
        DeadlineStream {
            stream,
            read_deadline: Cell::new(None),
            write_deadline: Cell::new(None),
        }
    }

    /// Sets (or clears) the absolute read deadline.
    pub fn set_read_deadline(&self, deadline: Option<Instant>) {
        self.read_deadline.set(deadline);
    }

    /// Sets (or clears) the absolute write deadline.
    pub fn set_write_deadline(&self, deadline: Option<Instant>) {
        self.write_deadline.set(deadline);
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &TcpStream {
        &self.stream
    }

    /// Arms the one-syscall socket timeout for the time remaining until
    /// `deadline`; an already-expired deadline fails without touching the
    /// socket. The minimum armed timeout is 1 ms — `set_read_timeout(0)`
    /// means "no timeout" to the OS, the opposite of "no time left".
    fn arm(&self, deadline: Option<Instant>, write: bool) -> std::io::Result<()> {
        let timeout = match deadline {
            None => None,
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        if write {
                            "write deadline expired"
                        } else {
                            "read deadline expired"
                        },
                    ));
                }
                Some(remaining.max(Duration::from_millis(1)))
            }
        };
        if write {
            self.stream.set_write_timeout(timeout)
        } else {
            self.stream.set_read_timeout(timeout)
        }
    }
}

impl Read for &DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.arm(self.read_deadline.get(), false)?;
        (&self.stream).read(buf)
    }
}

impl Write for &DeadlineStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.arm(self.write_deadline.get(), true)?;
        (&self.stream).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        (&self.stream).flush()
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        (&mut &*self).read(buf)
    }
}

impl Write for DeadlineStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        (&mut &*self).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        (&mut &*self).flush()
    }
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the always-present set.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a body and content type.
    pub fn new(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".to_string(), content_type.to_string())],
            body: body.into(),
        }
    }

    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response::new(status, "application/json", body)
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response::new(status, "text/plain; charset=utf-8", body)
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The standard reason phrase for the statuses this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// Serializes the response (one request per connection, so always
    /// `Connection: close`) and hands it to `w` in a single `write_all`:
    /// each `write` on a [`DeadlineStream`] costs a syscall and a
    /// deadline re-arm, so writing the format fragments one by one would
    /// pay both per fragment.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut wire = Vec::with_capacity(256 + self.body.len());
        write!(
            wire,
            "HTTP/1.1 {} {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            Response::reason(self.status),
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(wire, "{name}: {value}\r\n")?;
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = parse(
            "POST /run?profile=1&lint=0&name=a%20b HTTP/1.1\r\n\
             Host: x\r\nX-Client-Id: alpha\r\nContent-Length: 5\r\n\r\nhalt\n",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert!(req.query_flag("profile"));
        assert!(!req.query_flag("lint"));
        assert_eq!(req.query_get("name"), Some("a b"));
        assert_eq!(req.header("x-client-id"), Some("alpha"));
        assert_eq!(req.body, b"halt\n");
    }

    /// `u8::from_str_radix` accepts a leading sign, so parsing the two
    /// bytes after `%` with it decodes `%+5` to U+0005. An escape takes
    /// exactly two hex digits; anything else passes through (and `+`
    /// still means space).
    #[test]
    fn signed_percent_escape_passes_through() {
        let req = parse("GET /run?name=%+5&b=%-1&c=%4a%4 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_get("name"), Some("% 5"));
        assert_eq!(req.query_get("b"), Some("%-1"));
        assert_eq!(req.query_get("c"), Some("J%4"));
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert_eq!(parse("").unwrap_err(), HttpError::Closed);
        assert_eq!(parse("ZZZ\r\n\r\n").unwrap_err().status(), 400);
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbroken header\r\n\r\n").unwrap_err(),
            HttpError::Malformed(_)
        ));
        // Truncated: head never ends.
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nHost: x\r\n").unwrap_err(),
            HttpError::Malformed(_)
        ));
    }

    #[test]
    fn enforces_size_limits() {
        let huge_header = format!(
            "GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert_eq!(parse(&huge_header).unwrap_err(), HttpError::TooLarge);
        let huge_body = format!(
            "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse(&huge_body).unwrap_err(), HttpError::TooLarge);
    }

    #[test]
    fn head_body_split_matches_read_request() {
        let raw = "POST /run?trace=1 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhalt\n";
        let mut r = BufReader::new(raw.as_bytes());
        let head = read_head(&mut r).unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.content_length, 5);
        let req = read_body(&mut r, head).unwrap();
        assert_eq!(req, parse(raw).unwrap());
    }

    /// An I/O-level timeout surfaces as the typed `Timeout` error (408),
    /// not a generic `Io`.
    #[test]
    fn socket_timeouts_map_to_http_timeout() {
        struct TimesOut;
        impl std::io::Read for TimesOut {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(ErrorKind::WouldBlock, "slow"))
            }
        }
        let err = read_request(&mut BufReader::new(TimesOut)).unwrap_err();
        assert_eq!(err, HttpError::Timeout);
        assert_eq!(err.status(), 408);
    }

    /// Slow-loris regression: a peer dripping one header byte at a time
    /// makes continuous progress, but the *absolute* read deadline still
    /// bounds the total time the connection is held.
    #[test]
    fn dripped_header_bytes_cannot_outlive_the_read_deadline() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let dripper = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Never finishes the head; one byte every 20 ms would reset a
            // plain per-read socket timeout forever.
            for b in b"GET / HTTP/1.1\r\nX-Slow: aaaaaaaaaaaaaaaaaaaaaaaaaaaaa" {
                if s.write_all(&[*b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let (conn, _) = listener.accept().unwrap();
        let stream = DeadlineStream::new(conn);
        stream.set_read_deadline(Some(Instant::now() + Duration::from_millis(200)));
        let start = Instant::now();
        let err = read_request(&mut BufReader::new(&stream)).unwrap_err();
        assert_eq!(err, HttpError::Timeout);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline did not bound the drip: {:?}",
            start.elapsed()
        );
        drop(stream);
        dripper.join().unwrap();
    }

    /// Stalled-reader regression: a client that stops reading
    /// mid-response cannot pin the writer — the absolute write deadline
    /// bounds the total write time even if the kernel accepts a few more
    /// buffered chunks along the way.
    #[test]
    fn stalled_reader_hits_the_write_deadline() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The "client": connects and never reads a byte.
        let stalled = TcpStream::connect(addr).unwrap();
        let (conn, _) = listener.accept().unwrap();
        let stream = DeadlineStream::new(conn);
        stream.set_write_deadline(Some(Instant::now() + Duration::from_millis(300)));
        let start = Instant::now();
        let chunk = vec![0u8; 64 * 1024];
        let mut buffered = 0usize;
        let err = loop {
            match (&stream).write(&chunk) {
                // Kernel buffers soak up the first few MB; track how
                // much they took so a hung test has a useful message.
                Ok(n) => {
                    buffered += n;
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "write never blocked after {buffered} buffered bytes"
                    );
                }
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock),
            "unexpected write error: {err}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "write deadline did not bound a stalled reader: {:?}",
            start.elapsed()
        );
        drop(stalled);
    }

    /// An already-expired deadline fails immediately, without a syscall
    /// that might block.
    #[test]
    fn expired_deadline_fails_fast() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (conn, _) = listener.accept().unwrap();
        let stream = DeadlineStream::new(conn);
        stream.set_read_deadline(Some(Instant::now() - Duration::from_secs(1)));
        let start = Instant::now();
        let mut buf = [0u8; 1];
        let err = (&stream).read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    use proptest::prelude::*;

    /// Percent-encodes every byte outside the unreserved set.
    fn percent_encode(s: &str) -> String {
        s.bytes()
            .map(|b| match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                    (b as char).to_string()
                }
                _ => format!("%{b:02X}"),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any bytes, bare or after a plausible request prefix, parse to a
        /// request or a structured error — never a panic.
        #[test]
        fn arbitrary_bytes_never_panic_the_parser(
            prefix in 0usize..4,
            noise in prop::collection::vec(any::<u8>(), 0..300),
            terminated in any::<bool>(),
        ) {
            let mut raw = [
                "",
                "GET /run?",
                "POST /run?lint=1&x=%4 HTTP/1.1\r\nContent-Length: 4\r\n",
                "GET / HTTP/1.1\r\nHost: x\r\n",
            ][prefix]
                .as_bytes()
                .to_vec();
            raw.extend_from_slice(&noise);
            if terminated {
                raw.extend_from_slice(b"\r\n\r\n");
            }
            if let Ok(req) = read_request(&mut BufReader::new(raw.as_slice())) {
                prop_assert!(!req.method.is_empty());
                prop_assert!(req.body.len() <= MAX_BODY_BYTES);
            }
        }

        /// A percent-encoded string decodes back to itself as a query
        /// value.
        #[test]
        fn percent_encoded_query_values_round_trip(value in ".{0,48}") {
            let raw = format!("GET /run?k={}&z=1 HTTP/1.1\r\n\r\n", percent_encode(&value));
            let req = parse(&raw).unwrap();
            prop_assert_eq!(req.query_get("k"), Some(value.as_str()));
            prop_assert_eq!(req.query_get("z"), Some("1"));
        }
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::json(200, "{}")
            .with_header("X-Cache", "hit")
            .write_to(&mut out)
            .unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\
             Content-Type: application/json\r\nX-Cache: hit\r\n\r\n{}"
        );
    }

    /// A `Write` that records every call it gets.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Every response reaches the stream in one `write` call, whatever
    /// its headers and body.
    #[test]
    fn write_to_makes_one_write_call_per_response() {
        let cases = [
            (
                Response::json(200, "{\"cycles\": 7}\n").with_header("X-Cache", "hit"),
                "HTTP/1.1 200 OK\r\nContent-Length: 14\r\nConnection: close\r\n\
                 Content-Type: application/json\r\nX-Cache: hit\r\n\r\n{\"cycles\": 7}\n",
            ),
            (
                Response::json(429, "{}\n").with_header("Retry-After", "1"),
                "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 3\r\n\
                 Connection: close\r\nContent-Type: application/json\r\n\
                 Retry-After: 1\r\n\r\n{}\n",
            ),
            (
                Response::text(200, ""),
                "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\
                 Content-Type: text/plain; charset=utf-8\r\n\r\n",
            ),
        ];
        for (response, wire) in cases {
            let mut w = CountingWriter::default();
            response.write_to(&mut w).unwrap();
            assert_eq!(w.writes, 1, "{wire:?}");
            assert_eq!(String::from_utf8(w.bytes).unwrap(), wire);
        }
    }
}
