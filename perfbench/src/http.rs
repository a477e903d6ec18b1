//! The load generator's HTTP/1.1 client: one keep-alive connection,
//! one request in flight, `Content-Length` framing only (all the
//! daemon ever sends outside `/events?follow=1`).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response head or body the client accepts.
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

/// Parses a response head (status line plus headers, without the blank
/// line): `(status, content_length)`.
pub fn parse_head(head: &[u8]) -> Result<(u16, usize), String> {
    let head = std::str::from_utf8(head).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .filter(|s| (100..600).contains(s))
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut length = None;
    for line in lines {
        let (name, value) =
            line.split_once(':').ok_or_else(|| format!("header without a colon: {line:?}"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n = value.parse::<usize>().map_err(|_| format!("bad Content-Length {value:?}"))?;
            if n > MAX_RESPONSE_BYTES {
                return Err(format!("Content-Length {n} too large"));
            }
            length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err("chunked responses are not expected".into());
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    Ok((status, length))
}

/// Reads one response from `reader`. `buf` carries bytes read past the
/// previous response; on return it holds bytes past this one.
pub fn read_response(reader: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<Response> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        if buf.len() > MAX_RESPONSE_BYTES {
            return Err(invalid("response head too long".into()));
        }
        let n = reader.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed before a response"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let (status, length) = parse_head(&buf[..head_end]).map_err(invalid)?;
    let body_start = head_end + 4;
    while buf.len() < body_start + length {
        let n = reader.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-body"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = buf[body_start..body_start + length].to_vec();
    buf.drain(..body_start + length);
    Ok(Response { status, body })
}

/// A keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    request: Vec<u8>,
}

impl Conn {
    /// Connects to `addr`. Every read and write times out after
    /// `timeout`, so a wedged daemon fails the run instead of hanging it.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        // The request goes out as one write; the client's own Nagle
        // setting plays no part in what the daemon's answer costs.
        stream.set_nodelay(true)?;
        Ok(Self { stream, buf: Vec::new(), request: Vec::with_capacity(256) })
    }

    /// Sends one request and waits for its response.
    pub fn call(&mut self, method: &str, target: &str, body: &str) -> io::Result<Response> {
        self.request.clear();
        write!(
            self.request,
            "{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.stream.write_all(&self.request)?;
        read_response(&mut self.stream, &mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Yields its bytes in fixed-size pieces, like a socket would.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(self.data.len()).min(out.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    const TWO: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\nConnection: keep-alive\r\n\r\n{\"a\":1}HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\nConnection: close\r\n\r\n{}";

    #[test]
    fn parses_back_to_back_responses_in_any_segmentation() {
        for step in [1, 3, 7, 64, TWO.len()] {
            let mut r = Trickle { data: TWO, step };
            let mut buf = Vec::new();
            let a = read_response(&mut r, &mut buf).unwrap();
            assert_eq!((a.status, a.body.as_slice()), (200, &b"{\"a\":1}"[..]));
            let b = read_response(&mut r, &mut buf).unwrap();
            assert_eq!((b.status, b.body.as_slice()), (404, &b"{}"[..]));
            assert!(buf.is_empty());
            assert_eq!(
                read_response(&mut r, &mut buf).unwrap_err().kind(),
                io::ErrorKind::UnexpectedEof
            );
        }
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: 0").is_ok());
        assert!(parse_head(b"HTTP/1.1 200 OK").is_err(), "no length");
        assert!(parse_head(b"HTTP/2 200 OK\r\nContent-Length: 0").is_err());
        assert!(parse_head(b"HTTP/1.1 abc OK\r\nContent-Length: 0").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: x").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nno colon").is_err());
        assert_eq!(parse_head(b"HTTP/1.0 503 X\r\nContent-Length: 3").unwrap(), (503, 3));
    }

    #[test]
    fn truncated_body_is_an_error() {
        let mut r = Trickle { data: b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc", step: 4 };
        let err = read_response(&mut r, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
