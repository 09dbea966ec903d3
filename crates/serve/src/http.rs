//! A deliberately minimal HTTP/1.1 layer over `std::net::TcpStream`.
//!
//! The daemon speaks exactly the subset its clients need: one request
//! per connection (`Connection: close` on every response), `GET`/`POST`,
//! `Content-Length` bodies only (no chunked encoding), ASCII headers.
//! Anything outside that subset is a typed [`HttpError`] the worker
//! turns into the matching 4xx — never a panic, never an unbounded
//! read. Every dimension of a request is capped *before* allocation:
//!
//! - request line length ([`MAX_REQUEST_LINE`]) → 414
//! - header count ([`MAX_HEADERS`]) and total head bytes
//!   ([`MAX_HEAD_BYTES`]) → 431
//! - body bytes (per-server `max_body_bytes`) → 413
//! - wall-clock read time (2× the per-read timeout) → 408, so a
//!   slow-loris drip cannot hold a worker by resetting the socket
//!   timeout one byte at a time

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Cap on the request line + headers. Generous for hand-written
/// clients, small enough that a garbage stream cannot balloon memory.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Cap on distinct header lines; beyond it the request is a 431.
pub const MAX_HEADERS: usize = 64;

/// Cap on the request line (method + path + version); beyond it, 414.
pub const MAX_REQUEST_LINE: usize = 4096;

/// Per-connection socket timeout: a client that stops mid-request (or
/// never sends one) releases the worker within this bound.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug)]
pub enum HttpError {
    /// The stream closed before a complete request arrived.
    Closed,
    /// Request line, headers, or framing violated the supported subset.
    Malformed(String),
    /// Body exceeded the configured cap.
    TooLarge(String),
    /// Too many headers, or the head as a whole exceeded its cap.
    HeaderLimit(String),
    /// The request line exceeded [`MAX_REQUEST_LINE`].
    LineLimit(String),
    /// The client fed bytes too slowly: the wall-clock deadline for
    /// reading one request expired before it completed.
    Timeout,
    Io(std::io::Error),
}

impl HttpError {
    /// The status code this error should be answered with, or `None`
    /// when there is nobody left to answer (close / transport error).
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::Closed | HttpError::Io(_) => None,
            HttpError::Malformed(_) => Some(400),
            HttpError::Timeout => Some(408),
            HttpError::TooLarge(_) => Some(413),
            HttpError::LineLimit(_) => Some(414),
            HttpError::HeaderLimit(_) => Some(431),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed before a complete request"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
            HttpError::HeaderLimit(m) => write!(f, "header limit exceeded: {m}"),
            HttpError::LineLimit(m) => write!(f, "request line too long: {m}"),
            HttpError::Timeout => write!(f, "timed out reading the request"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

#[derive(Debug)]
pub struct HttpRequest {
    pub method: String,
    pub path: String,
    /// Parsed headers, names lowercased, values trimmed, wire order
    /// preserved. Bounded by [`MAX_HEADERS`]/[`MAX_HEAD_BYTES`].
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read one request (head + `Content-Length` body) from the stream.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<HttpRequest, HttpError> {
    read_request_timeout(stream, max_body, IO_TIMEOUT)
}

/// [`read_request`] with an explicit per-read timeout. The whole request
/// is bounded by twice the timeout. A lying `Content-Length` (larger
/// than the bytes that ever arrive) stalls a worker for the full
/// timeout, so servers expecting hostile traffic should pass something
/// much shorter than the 10 s default.
pub fn read_request_with_timeout(
    stream: &mut TcpStream,
    max_body: usize,
    timeout: Duration,
) -> Result<HttpRequest, HttpError> {
    read_request_timeout(stream, max_body, timeout)
}

/// Best-effort read-and-discard of one request so a rejection response
/// survives the close: dropping a socket with unread request bytes in
/// its receive buffer makes the kernel send RST, which can destroy the
/// in-flight response before the client reads it. Short timeout so a
/// slow client cannot wedge the (single) thread rejections run on.
pub fn drain_request(stream: &mut TcpStream, max_body: usize) {
    let _ = read_request_timeout(stream, max_body, Duration::from_secs(1));
}

fn read_request_timeout(
    stream: &mut TcpStream,
    max_body: usize,
    timeout: Duration,
) -> Result<HttpRequest, HttpError> {
    stream
        .set_read_timeout(Some(timeout))
        .map_err(HttpError::Io)?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(HttpError::Io)?;
    // The socket timeout bounds one read; this bounds the whole
    // request. A drip client resets the former with every byte but can
    // never reset the latter.
    let deadline = Instant::now() + timeout * 2;
    let overdue = |d: Instant| {
        if Instant::now() >= d {
            Err(HttpError::Timeout)
        } else {
            Ok(())
        }
    };

    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeaderLimit(format!(
                "head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        overdue(deadline)?;
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(HttpError::Timeout)
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        if n == 0 {
            if buf.is_empty() {
                return Err(HttpError::Closed);
            }
            return Err(HttpError::Malformed("truncated request head".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    // The in-loop check catches unterminated garbage; a terminated head
    // can still land past the cap on the read that found the terminator.
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError::HeaderLimit(format!(
            "head of {head_end} bytes exceeds {MAX_HEAD_BYTES}"
        )));
    }

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("non-UTF-8 request head".into()))?;
    if head.contains('\0') {
        return Err(HttpError::Malformed("NUL byte in request head".into()));
    }

    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    if request_line.len() > MAX_REQUEST_LINE {
        return Err(HttpError::LineLimit(format!(
            "{} bytes exceeds the {MAX_REQUEST_LINE} byte cap",
            request_line.len()
        )));
    }
    let mut first = request_line.split_whitespace();
    let method = first
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let path = first
        .next()
        .ok_or_else(|| HttpError::Malformed("request line has no path".into()))?
        .to_string();
    match first.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(HttpError::Malformed("expected HTTP/1.x".into())),
    }

    // Parse every header once, strictly: a line without a colon (or
    // with an empty name) is framing junk, not a header to skip over —
    // skipping is how request-smuggling bugs start.
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::HeaderLimit(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!(
                "header line without a colon: {:?}",
                truncate_for_log(line)
            )));
        };
        let name = name.trim();
        if name.is_empty() || !name.bytes().all(|b| b.is_ascii_graphic()) {
            return Err(HttpError::Malformed(format!(
                "invalid header name: {:?}",
                truncate_for_log(line)
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let header_all = |name: &str| -> Vec<&str> {
        headers
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    };
    let content_length: usize = match header_all("content-length")[..] {
        [] => 0,
        [v] => v
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?,
        // Duplicates — even agreeing ones — are the classic smuggling
        // vector; reject rather than pick one.
        [..] => {
            return Err(HttpError::Malformed(
                "multiple content-length headers".into(),
            ))
        }
    };
    if content_length > max_body {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds the {max_body} byte cap"
        )));
    }
    if !header_all("transfer-encoding").is_empty() {
        return Err(HttpError::Malformed(
            "transfer-encoding is not supported; send content-length".into(),
        ));
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        overdue(deadline)?;
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(HttpError::Timeout)
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        if n == 0 {
            return Err(HttpError::Malformed("truncated request body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    // Anything past the declared length is pipelined junk: dropped, not
    // parsed (one request per connection).
    body.truncate(content_length);
    Ok(HttpRequest {
        method,
        path,
        headers,
        body,
    })
}

fn truncate_for_log(line: &str) -> String {
    let mut s: String = line.chars().take(48).collect();
    if s.len() < line.len() {
        s.push('…');
    }
    s
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write a complete response and flush. Every response closes the
/// connection (one request per connection keeps the admission-control
/// accounting exact: one accepted socket == one unit of queued work).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, String)],
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (k, v) in extra_headers {
        out.push_str(k);
        out.push_str(": ");
        out.push_str(v);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(raw: &[u8]) -> Result<HttpRequest, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            // Close the write half so truncated requests hit EOF.
            s.shutdown(std::net::Shutdown::Write).ok();
            s
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let r = read_request(&mut server_side, 1024);
        client.join().unwrap();
        r
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = roundtrip(b"POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/run");
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn header_lookup_is_case_insensitive_first_match_trimmed() {
        let req = roundtrip(
            b"POST /v1/run HTTP/1.1\r\nX-Asap-Tenant:  team-a \r\nx-asap-tenant: team-b\r\nContent-Length: 0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.header("X-ASAP-TENANT"), Some("team-a"));
        assert_eq!(req.header("x-asap-tenant"), Some("team-a"));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_zero_length_post() {
        let req = roundtrip(b"POST /v1/run HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert_eq!(req.method, "POST");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(matches!(roundtrip(b""), Err(HttpError::Closed)));
        assert!(matches!(
            roundtrip(b"not an http request\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            roundtrip(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            roundtrip(b"POST /x HTTP/1.1\r\nContent-Length: 99999\r\n\r\n"),
            Err(HttpError::TooLarge(_))
        ));
        assert!(matches!(
            roundtrip(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn content_length_smaller_than_body_drops_the_excess() {
        // Extra bytes past the declared length are pipelined junk the
        // parser must ignore, not a second request to serve.
        let req =
            roundtrip(b"POST /v1/run HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdEXTRA").unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn content_length_larger_than_body_is_a_truncated_request() {
        let err = roundtrip(b"POST /v1/run HTTP/1.1\r\nContent-Length: 9\r\n\r\nabcd").unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
        assert_eq!(err.status(), Some(400));
    }

    #[test]
    fn duplicate_content_length_is_rejected_even_when_agreeing() {
        for raw in [
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd".as_slice(),
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 9\r\n\r\nabcd".as_slice(),
        ] {
            let err = roundtrip(raw).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{err}");
        }
    }

    #[test]
    fn request_line_at_limit_parses_and_over_limit_is_414() {
        // Exactly at the cap: "GET /aaa...a HTTP/1.1" == MAX_REQUEST_LINE bytes.
        let path_len = MAX_REQUEST_LINE - "GET / HTTP/1.1".len();
        let at = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(path_len));
        let req = roundtrip(at.as_bytes()).unwrap();
        assert_eq!(req.path.len(), path_len + 1);

        let over = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(path_len + 1));
        let err = roundtrip(over.as_bytes()).unwrap_err();
        assert!(matches!(err, HttpError::LineLimit(_)), "{err}");
        assert_eq!(err.status(), Some(414));
    }

    #[test]
    fn header_count_over_limit_is_431() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            raw.push_str(&format!("X-H{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        let err = roundtrip(raw.as_bytes()).unwrap_err();
        assert!(matches!(err, HttpError::HeaderLimit(_)), "{err}");
        assert_eq!(err.status(), Some(431));
    }

    #[test]
    fn oversized_head_is_431() {
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "b".repeat(MAX_HEAD_BYTES + 1)
        );
        let err = roundtrip(raw.as_bytes()).unwrap_err();
        assert!(matches!(err, HttpError::HeaderLimit(_)), "{err}");
    }

    #[test]
    fn crlf_split_header_values_cannot_smuggle_content_length() {
        // A client "value" carrying its own CRLF materializes as an
        // extra header line on the wire. If that line smuggles a second
        // Content-Length, the duplicate check fires; if it is junk
        // without a colon, strict parsing fires. Either way: 400.
        let smuggle =
            b"POST /x HTTP/1.1\r\nX-A: v\r\nContent-Length: 2\r\nContent-Length: 0\r\n\r\nok";
        assert!(matches!(
            roundtrip(smuggle).unwrap_err(),
            HttpError::Malformed(_)
        ));
        let junk = b"GET / HTTP/1.1\r\nX-A: v\r\ninjected junk line\r\n\r\n";
        assert!(matches!(
            roundtrip(junk).unwrap_err(),
            HttpError::Malformed(_)
        ));
    }

    #[test]
    fn nul_bytes_in_head_are_rejected() {
        assert!(matches!(
            roundtrip(b"GET / HTTP/1.1\r\nX-A: a\x00b\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }
}
