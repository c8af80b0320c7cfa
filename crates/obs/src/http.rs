//! The workspace's one HTTP/1.1 core over raw `TcpStream`s: request-head
//! parsing, body reading, a response writer, and a blocking acceptor.
//! [`crate::MetricsServer`] and `kgfd serve` are both route tables on it.
//!
//! The head/body split matters for `kgfd serve`'s acceptor/worker design:
//! the acceptor reads only the *head* (request line + headers, bounded),
//! which is enough to route, shed, and size-check a request without ever
//! blocking on a slow body upload; the worker that picks the request up
//! completes the body read under the same stream timeout. One request per
//! connection, `Connection: close`, no keep-alive, no TLS.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cap on the request line + headers; a peer that cannot finish its
/// headers in this budget is malformed.
const MAX_HEAD_BYTES: usize = 8192;

/// How long a peer may take to deliver (or accept) any one segment of a
/// request or response, so a slow or stuck client cannot wedge a server.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// `Content-Type` of the Prometheus text exposition format.
pub const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

/// The routed portion of a request: everything before the body.
#[derive(Debug)]
pub struct RequestHead {
    /// `GET`, `POST`, ... (uppercased as received).
    pub method: String,
    /// Request target, e.g. `/v1/discover`.
    pub path: String,
    /// Declared `Content-Length` (0 when absent).
    pub content_length: usize,
    /// Body bytes that arrived in the same segments as the headers.
    pub body_prefix: Vec<u8>,
}

/// Reads the head of one request. Returns `None` for connections that
/// close or misbehave before completing their headers (probes, port
/// scanners) — those are dropped without a response.
pub fn read_head(stream: &mut TcpStream) -> Option<RequestHead> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let header_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head_text = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head_text.lines();
    let request_line = lines.next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?.to_ascii_uppercase();
    let path = parts.next()?.to_string();
    let content_length = lines
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .next()
        .unwrap_or(0);
    Some(RequestHead {
        method,
        path,
        content_length,
        body_prefix: buf[header_end + 4..].to_vec(),
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Completes the body read started by [`read_head`]: the prefix already
/// buffered plus whatever the declared `Content-Length` still owes.
/// Returns `None` if the peer closes or stalls before delivering it all.
pub fn read_body(stream: &mut TcpStream, head: &RequestHead) -> Option<Vec<u8>> {
    let mut body = head.body_prefix.clone();
    if body.len() > head.content_length {
        // More bytes than declared: pipelined garbage; reject.
        return None;
    }
    let mut chunk = [0u8; 4096];
    while body.len() < head.content_length {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
        }
    }
    (body.len() == head.content_length).then_some(body)
}

/// Reads and discards up to `limit` bytes of an unread request body.
///
/// Refusal paths (shed, oversized, draining, expired) answer without ever
/// reading the body — but closing a socket with unread data in its receive
/// buffer makes the kernel send RST, which can destroy the refusal
/// response before the peer reads it. Draining first (bounded, under the
/// stream's read timeout) lets the peer finish its upload and then read
/// the refusal cleanly.
pub fn discard_body(stream: &mut TcpStream, limit: usize) {
    let mut remaining = limit;
    let mut chunk = [0u8; 4096];
    while remaining > 0 {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => remaining = remaining.saturating_sub(n),
        }
    }
}

/// An HTTP status a server emits, with its canonical reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    /// The reason phrase for the status line.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// `"2xx"`, `"4xx"`, or `"5xx"` — the class label used for the
    /// `serve.responses.*` counters.
    pub fn class(self) -> &'static str {
        match self.0 {
            200..=299 => "2xx",
            400..=499 => "4xx",
            _ => "5xx",
        }
    }
}

/// Writes one complete response in a single write and flushes it. Errors
/// are swallowed: a peer that hung up mid-response is its own problem,
/// not the server's.
pub fn respond(
    stream: &mut TcpStream,
    status: Status,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) {
    let mut response = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        status.0,
        status.reason(),
        body.len(),
    );
    for (name, value) in extra_headers {
        response.push_str(&format!("{name}: {value}\r\n"));
    }
    response.push_str("Connection: close\r\n\r\n");
    let mut bytes = response.into_bytes();
    bytes.extend_from_slice(body);
    let _ = stream.write_all(&bytes);
    let _ = stream.flush();
}

/// A listener served by one background thread: a blocking `incoming()`
/// loop that sets 2 s read/write timeouts on each connection and hands it
/// to the server's handler, one connection at a time.
///
/// [`Acceptor::stop`] (or drop) flips a stop flag, then connects to the
/// listener itself so the blocked `accept` returns and sees the flag, and
/// joins the thread — so the port is released before it returns.
pub struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Acceptor {
    /// Starts serving `listener` on a thread named `name`, calling
    /// `handle` for every accepted connection.
    pub fn start<F>(listener: TcpListener, name: &str, mut handle: F) -> std::io::Result<Acceptor>
    where
        F: FnMut(TcpStream) + Send + 'static,
    {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else {
                        // Back off on accept errors (e.g. out of file
                        // descriptors) instead of spinning on them.
                        std::thread::sleep(Duration::from_millis(2));
                        continue;
                    };
                    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
                    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                    handle(stream);
                }
            })?;
        Ok(Acceptor {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the acceptor thread. Idempotent.
    pub fn stop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call; an error just means the listener is
        // already gone, which is equally fine.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(request: &[u8]) -> Option<RequestHead> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(request).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        read_head(&mut server_side)
    }

    #[test]
    fn parses_method_path_and_length() {
        let head = roundtrip(b"POST /v1/score HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/v1/score");
        assert_eq!(head.content_length, 5);
        assert_eq!(head.body_prefix, b"hello");
    }

    #[test]
    fn header_case_is_ignored() {
        let head = roundtrip(b"POST /x HTTP/1.1\r\ncontent-length: 3\r\n\r\n").unwrap();
        assert_eq!(head.content_length, 3);
        assert!(head.body_prefix.is_empty());
    }

    #[test]
    fn garbage_head_is_dropped() {
        assert!(roundtrip(b"\r\n\r\n").is_none());
        assert!(roundtrip(b"no newline ever").is_none());
    }

    #[test]
    fn status_classes_partition() {
        assert_eq!(Status(200).class(), "2xx");
        assert_eq!(Status(429).class(), "4xx");
        assert_eq!(Status(503).class(), "5xx");
        assert_eq!(Status(408).reason(), "Request Timeout");
    }
}
