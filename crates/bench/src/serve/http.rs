//! Minimal zero-dependency HTTP/1.1 plumbing for `jellytool serve`.
//!
//! Implements exactly the slice the daemon needs: request-line + header
//! parsing, `Content-Length` bodies (bounded), keep-alive, and response
//! writing. Every malformed input maps to a 4xx [`HttpError`] — the
//! parser never panics on untrusted bytes, which the serve test suite
//! pins with a fuzz-ish corpus of broken requests.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest accepted request body. Fault plans are tiny; anything bigger
/// is a client bug (or abuse) and is rejected with 413 before buffering.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted request line or header line.
const MAX_LINE_BYTES: usize = 8 * 1024;

/// Largest accepted header count.
const MAX_HEADERS: usize = 64;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path, plus query string if any), e.g.
    /// `/paths/3/17`.
    pub target: String,
    /// Decoded request body (empty for bodiless requests).
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why a request could not be parsed; carries the status code the
/// connection handler must answer with.
#[derive(Debug)]
pub struct HttpError {
    /// HTTP status to respond with (4xx/5xx).
    pub status: u16,
    /// Human-readable reason, embedded in the JSON error body.
    pub reason: String,
}

impl HttpError {
    fn bad(reason: impl Into<String>) -> Self {
        Self { status: 400, reason: reason.into() }
    }
}

/// Reads one request from `reader`. Returns `Ok(None)` on a clean EOF
/// before any byte of a new request (the client closed a keep-alive
/// connection), `Err` with a 4xx on anything malformed.
pub fn read_request(
    reader: &mut BufReader<&TcpStream>,
) -> io::Result<Result<Option<Request>, HttpError>> {
    let line = match read_line(reader)? {
        ReadLine::Eof => return Ok(Ok(None)),
        ReadLine::TooLong => {
            return Ok(Err(HttpError { status: 431, reason: "request line too long".into() }))
        }
        ReadLine::Line(l) => l,
    };
    if line.is_empty() {
        return Ok(Err(HttpError::bad("empty request line")));
    }
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Ok(Err(HttpError::bad("malformed request line")));
    };
    if parts.next().is_some() || method.is_empty() || target.is_empty() {
        return Ok(Err(HttpError::bad("malformed request line")));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Ok(Err(HttpError {
            status: 505,
            reason: format!("unsupported version {version:?}"),
        }));
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Ok(Err(HttpError::bad("malformed method")));
    }
    if !target.starts_with('/') {
        return Ok(Err(HttpError::bad("target must be an absolute path")));
    }

    // Headers: only Content-Length, Connection and Transfer-Encoding
    // are semantically meaningful to this server.
    let mut content_length = 0usize;
    let mut keep_alive = version == "HTTP/1.1";
    let mut headers = 0usize;
    loop {
        let header = match read_line(reader)? {
            ReadLine::Eof => return Ok(Err(HttpError::bad("connection closed mid-headers"))),
            ReadLine::TooLong => {
                return Ok(Err(HttpError { status: 431, reason: "header line too long".into() }))
            }
            ReadLine::Line(l) => l,
        };
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Ok(Err(HttpError { status: 431, reason: "too many headers".into() }));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Ok(Err(HttpError::bad("header without a colon")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let Ok(len) = value.parse::<usize>() else {
                return Ok(Err(HttpError::bad("unparseable Content-Length")));
            };
            if len > MAX_BODY_BYTES {
                return Ok(Err(HttpError { status: 413, reason: "body too large".into() }));
            }
            content_length = len;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Ok(Err(HttpError {
                status: 501,
                reason: "Transfer-Encoding not supported".into(),
            }));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }

    let mut body = vec![0u8; content_length];
    if content_length > 0 && reader.read_exact(&mut body).is_err() {
        return Ok(Err(HttpError::bad("connection closed mid-body")));
    }
    let Ok(body) = String::from_utf8(body) else {
        return Ok(Err(HttpError::bad("body is not UTF-8")));
    };
    Ok(Ok(Some(Request {
        method: method.to_string(),
        target: target.to_string(),
        body,
        keep_alive,
    })))
}

enum ReadLine {
    Line(String),
    Eof,
    TooLong,
}

/// Reads one CRLF- (or bare-LF-) terminated line, bounded by
/// [`MAX_LINE_BYTES`]. Invalid UTF-8 maps to a replacement-free error
/// via the lossless byte check.
fn read_line(reader: &mut BufReader<&TcpStream>) -> io::Result<ReadLine> {
    let mut buf = Vec::new();
    let mut limited = reader.take((MAX_LINE_BYTES + 1) as u64);
    let n = limited.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(ReadLine::Eof);
    }
    if buf.last() != Some(&b'\n') {
        // No terminator within the cap: either the line is too long or
        // the peer closed mid-line; both end the request.
        return Ok(if n > MAX_LINE_BYTES { ReadLine::TooLong } else { ReadLine::Eof });
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(ReadLine::Line(s)),
        Err(_) => Ok(ReadLine::Line(String::from("\u{fffd}"))), // parsed as malformed upstream
    }
}

/// A status line's canonical reason phrase.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "",
    }
}

/// Frames one response into `frame` (cleared first) and sends it in one
/// `write`: status line, `Content-Type`, `Content-Length`, `Connection`,
/// then the already-rendered `body`. One write per response is what
/// keeps a keep-alive round trip at socket speed: a response split into
/// small segments leaves the tail waiting on Nagle's algorithm until the
/// client's delayed ACK arrives (tens of milliseconds).
pub fn write_response(
    stream: &mut (impl Write + ?Sized),
    frame: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    frame.clear();
    write!(
        frame,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason_phrase(status),
        body.len(),
    )?;
    frame.extend_from_slice(body.as_bytes());
    stream.write_all(frame)?;
    stream.flush()
}

/// Writes the head of a chunked response (`Transfer-Encoding: chunked`,
/// no `Content-Length`) in one `write`, framed in `frame`. The
/// connection is dedicated to the stream and closes when it ends.
pub fn write_chunked_head(
    stream: &mut (impl Write + ?Sized),
    frame: &mut Vec<u8>,
    status: u16,
    content_type: &str,
) -> io::Result<()> {
    frame.clear();
    write!(
        frame,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        reason_phrase(status),
    )?;
    stream.write_all(frame)?;
    stream.flush()
}

/// Writes one chunk (size line, data, CRLF) in one `write`, framed in
/// `frame`. Empty payloads are skipped — a zero-length chunk is the
/// terminator in HTTP chunked framing, which only [`write_chunked_end`]
/// may emit.
pub fn write_chunk(
    stream: &mut (impl Write + ?Sized),
    frame: &mut Vec<u8>,
    data: &str,
) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    frame.clear();
    write!(frame, "{:x}\r\n", data.len())?;
    frame.extend_from_slice(data.as_bytes());
    frame.extend_from_slice(b"\r\n");
    stream.write_all(frame)?;
    stream.flush()
}

/// Terminates a chunked response, in one `write`.
pub fn write_chunked_end(stream: &mut (impl Write + ?Sized)) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct Counting {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Sends `send` into a fresh sink; returns its write count and bytes.
    fn sent(send: impl FnOnce(&mut Counting) -> io::Result<()>) -> (usize, String) {
        let mut sink = Counting::default();
        send(&mut sink).expect("a counting sink never fails");
        (sink.writes, String::from_utf8(sink.bytes).expect("framing is ASCII"))
    }

    #[test]
    fn each_response_chunk_and_terminator_is_one_write() {
        // A frame buffer reused across calls, as a connection reuses it.
        let mut frame = b"stale bytes from an earlier response".to_vec();
        let body = "{\"src\":0,\"dst\":5}";
        let (writes, bytes) =
            sent(|s| write_response(s, &mut frame, 200, "application/json", body, true));
        assert_eq!(writes, 1);
        assert_eq!(
            bytes,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 17\r\n\
             Connection: keep-alive\r\n\r\n{\"src\":0,\"dst\":5}"
        );
        let (writes, bytes) =
            sent(|s| write_response(s, &mut frame, 404, "application/json", "{}", false));
        assert_eq!(writes, 1);
        assert_eq!(
            bytes,
            "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
             Connection: close\r\n\r\n{}"
        );

        let (writes, bytes) = sent(|s| write_chunked_head(s, &mut frame, 200, "text/plain"));
        assert_eq!(writes, 1);
        assert_eq!(
            bytes,
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nTransfer-Encoding: chunked\r\n\
             Connection: close\r\n\r\n"
        );
        let event = "seq 1 tick 0 serve-started\n".repeat(2);
        let (writes, bytes) = sent(|s| write_chunk(s, &mut frame, &event));
        assert_eq!((writes, bytes), (1, format!("36\r\n{event}\r\n")));
        assert_eq!(sent(|s| write_chunk(s, &mut frame, "")), (0, String::new()));
        assert_eq!(sent(write_chunked_end), (1, "0\r\n\r\n".to_string()));
    }
}
