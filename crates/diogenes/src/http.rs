//! A hand-rolled HTTP/1.1 subset for `diogenes serve`.
//!
//! The workspace builds with no external crates, so the daemon parses
//! and emits HTTP itself. The subset is deliberately small: request
//! bodies sized by `Content-Length`, no chunked transfer, no TLS.
//! Connections are single-shot (`Connection: close`) unless the client
//! opts into keep-alive, in which case up to
//! [`MAX_KEEPALIVE_EXCHANGES`] requests are served per connection under
//! the same read timeout — what a live-streaming client polling
//! `?epoch=` snapshots needs. It keeps every byte on the wire
//! auditable.
//!
//! The parser ([`read_request_buffered`]) reads from any [`Read`], so
//! its limits and fail-closed behaviour are tested on in-memory byte
//! streams at every chunking. Socket options are the caller's: the
//! daemon sets the [`READ_TIMEOUT`] and `TCP_NODELAY` once per accepted
//! connection. Nagle's algorithm stays off because
//! [`write_response_conn`] writes the head and the body separately;
//! with Nagle on, the body waits for the client's delayed ACK of the
//! head. On Linux loopback that cost about 44 ms per exchange, so a
//! submit-and-fetch job took ~88 ms where its work takes well under a
//! millisecond.
//!
//! Limits guard the daemon against malformed or hostile peers: the head
//! (request line + headers) is capped at [`MAX_HEAD_BYTES`] and bodies
//! at [`MAX_BODY_BYTES`]; anything larger is an error the caller maps to
//! a 4xx response.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum bytes accepted for the request line + headers.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Maximum bytes accepted for a request body (FFB sweep documents can be
/// sizeable, but nothing legitimate approaches this).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// How long a connection may sit idle mid-request before the daemon
/// gives up on it. Keep-alive connections run the same timeout between
/// exchanges: an idle poller is disconnected, not held open forever.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Most requests served over one keep-alive connection before the
/// daemon closes it anyway — bounds how long a single peer can pin a
/// worker thread.
pub const MAX_KEEPALIVE_EXCHANGES: usize = 32;

/// One parsed request.
#[derive(Debug, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target, query string split off.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Raw header pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First query parameter with this name (`/trace?job=<id>`).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Split a query string into pairs, percent-decoding both halves. A
/// bare token (`?verbose`) becomes `("verbose", "")`.
fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

/// Minimal percent-decoding (`%2F` → `/`, `+` → space). Malformed
/// escapes pass through literally — query parsing must never fail a
/// request.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let decoded = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
                match decoded {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Read and parse one request from `stream`. `Ok(None)` means the peer
/// closed the connection before sending anything (e.g. a port probe,
/// the daemon's own shutdown self-connect, or a drained keep-alive) —
/// not an error worth logging.
///
/// `carry` holds bytes received past the previous request's body (a
/// pipelined client may send its next request in the same segment). On
/// return, `carry` holds whatever arrived past *this* request's body, so
/// sequential calls with the same buffer never drop pipelined bytes.
/// Start a connection with an empty `carry`.
pub fn read_request_buffered<R: Read>(
    stream: &mut R,
    carry: &mut Vec<u8>,
) -> Result<Option<Request>, String> {
    let mut buf: Vec<u8> = std::mem::take(carry);
    buf.reserve(1024);
    let mut chunk = [0u8; 4096];
    let head_len = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err("request head exceeds limit".to_string());
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err("connection closed mid-request".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| "head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or("missing method")?.to_ascii_uppercase();
    let target = parts.next().ok_or("missing request target")?;
    let version = parts.next().ok_or("missing HTTP version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version {version:?}"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) =
            line.split_once(':').ok_or_else(|| format!("malformed header line {line:?}"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length: usize = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v.parse().map_err(|_| format!("bad content-length {v:?}"))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err("request body exceeds limit".to_string());
    }

    // Whatever followed the head in the buffer is the body's prefix; the
    // handler decodes the FFB payload in place from the body buffer.
    let mut body = buf.split_off(head_len + 4);
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|e| format!("read body: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".to_string());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    // Bytes past the body belong to the next pipelined request.
    *carry = body.split_off(content_length);

    Ok(Some(Request { method, path, query, headers, body }))
}

/// Whether the client asked to reuse the connection. The daemon's
/// subset treats close as the default for every request — keep-alive is
/// strictly opt-in via `Connection: keep-alive`.
pub fn wants_keep_alive(req: &Request) -> bool {
    req.header("connection")
        .map(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case("keep-alive")))
        .unwrap_or(false)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reason phrase for the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Emit one complete response and flush it. `Connection: close` — the
/// terminal exchange of every connection.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write_response_conn(stream, status, content_type, body, false)
}

/// [`write_response`] with an explicit connection disposition:
/// `keep_alive = true` advertises `Connection: keep-alive` so the
/// client keeps the socket open for the next exchange.
pub fn write_response_conn(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n",
        reason(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Parse one request from a byte stream that ends after `raw`.
    fn parse_raw(raw: &[u8]) -> Result<Option<Request>, String> {
        read_request_buffered(&mut &raw[..], &mut Vec::new())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse_raw(
            b"POST /run?trace=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 14\r\n\r\n{\"app\": \"als\"}",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run", "query string split off the path");
        assert_eq!(req.query_param("trace"), Some("1"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"{\"app\": \"als\"}");
    }

    #[test]
    fn query_strings_decode_into_parameters() {
        let req =
            parse_raw(b"GET /trace?job=ab%2Fcd&flag&x=a+b HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.path, "/trace");
        assert_eq!(req.query_param("job"), Some("ab/cd"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.query_param("x"), Some("a b"));
        assert_eq!(req.query_param("missing"), None);
        // Malformed escapes pass through rather than erroring.
        let req = parse_raw(b"GET /trace?job=%zz%2 HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.query_param("job"), Some("%zz%2"));
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = parse_raw(b"GET /stats HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert!(req.body.is_empty());
    }

    #[test]
    fn empty_connection_reads_as_none() {
        assert!(parse_raw(b"").unwrap().is_none());
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(parse_raw(b"NOT-HTTP\r\n\r\n").is_err(), "bad request line");
        assert!(
            parse_raw(b"POST /run HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort").is_err(),
            "body shorter than content-length"
        );
        assert!(
            parse_raw(b"POST /run HTTP/1.1\r\nContent-Length: eleventy\r\n\r\n").is_err(),
            "unparseable content-length"
        );
    }

    /// Two requests pipelined into one write must both parse when read
    /// sequentially through a shared carry buffer — the first read's
    /// surplus bytes are the second request, not garbage to drop.
    #[test]
    fn pipelined_sequential_requests_parse_through_the_carry_buffer() {
        // Both requests (and the second's body) arrive in one segment.
        let raw: &[u8] =
            b"POST /run HTTP/1.1\r\nConnection: keep-alive\r\nContent-Length: 7\r\n\r\n\
              {\"a\":1}GET /stats?live=1 HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        let mut stream = raw;
        let mut carry = Vec::new();
        let first = read_request_buffered(&mut stream, &mut carry).unwrap().unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.body, b"{\"a\":1}");
        assert!(wants_keep_alive(&first));
        assert!(!carry.is_empty(), "second request buffered, not discarded");
        let second = read_request_buffered(&mut stream, &mut carry).unwrap().unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/stats");
        assert_eq!(second.query_param("live"), Some("1"));
        assert!(wants_keep_alive(&second));
        // Third read: the stream is drained and closed.
        assert!(read_request_buffered(&mut stream, &mut carry).unwrap().is_none());
    }

    #[test]
    fn keep_alive_is_opt_in_and_token_aware() {
        let close = parse_raw(b"GET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(!wants_keep_alive(&close), "no header means close in this subset");
        let ka = parse_raw(b"GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n").unwrap().unwrap();
        assert!(wants_keep_alive(&ka), "case-insensitive");
        let multi = parse_raw(b"GET / HTTP/1.1\r\nConnection: upgrade, keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(wants_keep_alive(&multi), "token list");
        let explicit = parse_raw(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
        assert!(!wants_keep_alive(&explicit));
    }

    #[test]
    fn keep_alive_response_writer_advertises_reuse() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            write_response_conn(&mut s, 200, "application/json", b"{}", true).unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        server.join().unwrap();
        let text = String::from_utf8(got).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
    }

    #[test]
    fn response_writer_emits_well_formed_http() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            write_response(&mut s, 200, "application/json", b"{\"ok\":true}").unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let mut got = Vec::new();
        client.read_to_end(&mut got).unwrap();
        server.join().unwrap();
        let text = String::from_utf8(got).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }
}
