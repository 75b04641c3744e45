//! Property-based tests for the daemon's HTTP request parser: it fails
//! closed on arbitrary, garbled and truncated input (an `Err`, or `None`
//! for an empty stream — never a panic), and a request followed by a
//! pipelined one parses identically however the bytes are split across
//! reads.

// Gated: run with `--features extern-testing` (see workspace README).
#![cfg(feature = "extern-testing")]

use std::io::Read;

use diogenes::http::{read_request_buffered, Request};
use proptest::prelude::*;

/// A byte stream that hands out at most `chunks[i]` bytes (all >= 1) on
/// its i-th read, cycling, the way a socket delivers a request in
/// segments.
struct Chunked<'a> {
    data: &'a [u8],
    chunks: &'a [usize],
    reads: usize,
}

impl<'a> Chunked<'a> {
    fn new(data: &'a [u8], chunks: &'a [usize]) -> Self {
        Chunked { data, chunks, reads: 0 }
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let limit = self.chunks[self.reads % self.chunks.len()];
        self.reads += 1;
        let n = buf.len().min(limit).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Parse every request in `data`, read through `chunks`, until the
/// stream is drained or the parser refuses.
fn parse_all(data: &[u8], chunks: &[usize]) -> Vec<Result<Option<Request>, String>> {
    let mut stream = Chunked::new(data, chunks);
    let mut carry = Vec::new();
    let mut out = Vec::new();
    loop {
        let r = read_request_buffered(&mut stream, &mut carry);
        let go_on = matches!(r, Ok(Some(_)));
        out.push(r);
        if !go_on {
            return out;
        }
    }
}

/// xorshift64 expansion of a seed into one well-formed request.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[(self.next() % from.len() as u64) as usize]
    }

    fn request(&mut self, body: &[u8]) -> Vec<u8> {
        let method = self.pick(&["GET", "POST", "post", "DELETE"]);
        let mut target = String::new();
        for _ in 0..1 + self.next() % 3 {
            target.push('/');
            target.push_str(self.pick(&["report", "stats", "a%2Fb", "x+y", "0123abcd", ""]));
        }
        if self.next().is_multiple_of(2) {
            target.push('?');
            for _ in 0..1 + self.next() % 3 {
                target
                    .push_str(self.pick(&["epoch=3", "stream=1", "flag", "job=%zz", "&", "k=a+b"]));
                target.push('&');
            }
        }
        let mut head = format!("{method} {target} HTTP/1.{}\r\n", self.next() % 2);
        for _ in 0..self.next() % 4 {
            let name = self.pick(&["Host", "Accept", "Connection", "X-Trace", "user-agent"]);
            let value = self.pick(&["test", "keep-alive", "a: b", "application/json;q=0.9", ""]);
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if !body.is_empty() || self.next().is_multiple_of(2) {
            head.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        let mut raw = head.into_bytes();
        raw.extend_from_slice(body);
        raw
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random bytes are never a request: the parser refuses them (or
    /// sees an empty stream) and never panics.
    #[test]
    fn arbitrary_bytes_fail_closed(
        data in proptest::collection::vec(any::<u8>(), 0..700),
        chunks in proptest::collection::vec(1usize..300, 1..6),
    ) {
        let first = parse_all(&data, &chunks).remove(0);
        match first {
            Ok(None) => prop_assert!(data.is_empty()),
            Ok(Some(req)) => panic!("random bytes parsed as {req:?}"),
            Err(_) => {}
        }
    }

    /// Every strict prefix of a valid request is refused; the empty one
    /// reads as a clean close.
    #[test]
    fn truncated_requests_fail_closed(
        seed in 1u64..u64::MAX,
        body in proptest::collection::vec(any::<u8>(), 0..64),
        chunks in proptest::collection::vec(1usize..40, 1..5),
    ) {
        let raw = Gen(seed).request(&body);
        let full = parse_all(&raw, &chunks).remove(0);
        prop_assert_eq!(full.map(|r| r.map(|r| r.body)), Ok(Some(body.clone())));
        for cut in 0..raw.len() {
            match parse_all(&raw[..cut], &chunks).remove(0) {
                Ok(None) => prop_assert_eq!(cut, 0),
                Ok(Some(req)) => panic!("prefix of {cut}/{} bytes parsed as {req:?}", raw.len()),
                Err(_) => prop_assert!(cut > 0),
            }
        }
    }

    /// A valid request with bytes flipped, dropped or injected may parse
    /// or not, but never panics.
    #[test]
    fn garbled_requests_never_panic(
        seed in 1u64..u64::MAX,
        body in proptest::collection::vec(any::<u8>(), 0..32),
        edits in proptest::collection::vec((0usize..400, any::<u8>(), 0u8..3), 1..8),
    ) {
        let mut raw = Gen(seed).request(&body);
        for (at, byte, op) in edits {
            let at = at % (raw.len() + 1);
            match op {
                0 if at < raw.len() => raw[at] = byte,
                1 if at < raw.len() => {
                    raw.remove(at);
                }
                _ => raw.insert(at, byte),
            }
        }
        for r in parse_all(&raw, &[usize::MAX]).into_iter().flatten().flatten() {
            prop_assert!(r.body.len() <= diogenes::http::MAX_BODY_BYTES);
        }
    }

    /// A request and a pipelined successor parse to the same two
    /// requests at every chunking, and the stream then reads as closed.
    #[test]
    fn pipelined_requests_parse_identically_at_any_chunking(
        seeds in (1u64..u64::MAX, 1u64..u64::MAX),
        bodies in (
            proptest::collection::vec(any::<u8>(), 0..48),
            proptest::collection::vec(any::<u8>(), 0..48),
        ),
        chunks in proptest::collection::vec(1usize..64, 1..6),
    ) {
        let mut raw = Gen(seeds.0).request(&bodies.0);
        raw.extend(Gen(seeds.1).request(&bodies.1));
        let whole = parse_all(&raw, &[usize::MAX]);
        prop_assert_eq!(whole.len(), 3);
        prop_assert!(matches!(whole[2], Ok(None)), "{:?}", whole[2]);
        let got: Vec<Vec<u8>> =
            whole[..2].iter().map(|r| r.as_ref().unwrap().as_ref().unwrap().body.clone()).collect();
        prop_assert_eq!(got, vec![bodies.0.clone(), bodies.1.clone()]);
        prop_assert_eq!(parse_all(&raw, &chunks), whole);
    }
}
