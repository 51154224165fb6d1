//! Hand-rolled HTTP/1.1 front end: request parsing, response writing, and a
//! blocking worker-thread-pool server over [`std::net::TcpListener`].
//!
//! Scope is deliberately the subset a JSON API needs — `Content-Length`
//! bodies (a request with `Transfer-Encoding` is refused), persistent
//! connections (HTTP/1.1 keep-alive is what makes the closed-loop benchmark
//! measure the service rather than TCP handshakes), and `%xx` query
//! decoding. Requests are capped at
//! [`MAX_BODY`] bytes; anything malformed is answered with `400` and the
//! connection is dropped, so a confused peer cannot wedge a worker thread.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Upper bound on request bodies (1 MiB of JSON ≈ 20k batched answers).
pub const MAX_BODY: usize = 1 << 20;

/// Per-connection socket read timeout; a stalled peer frees its worker
/// thread after this long.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path without the query string (e.g. `/tables/t1/truth`).
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should be kept open after responding.
    pub keep_alive: bool,
    /// Correlation id: the sanitized `X-Request-Id` header when the client
    /// sent one, otherwise a server-generated `req-<hex>`. Echoed back on
    /// the response and threaded into event traces.
    pub request_id: String,
}

impl Request {
    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// One response; the server adds the framing headers.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (`Retry-After` on 429/503 responses), written verbatim
    /// after the framing headers.
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl std::fmt::Display) -> Response {
        Response {
            status,
            body: body.to_string().into_bytes(),
            content_type: "application/json",
            headers: Vec::new(),
        }
    }

    /// Attach an extra header (builder-style).
    pub fn with_header(mut self, name: &'static str, value: impl std::fmt::Display) -> Response {
        self.headers.push((name, value.to_string()));
        self
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

fn decode_percent(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 3 <= bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (decode_percent(k), decode_percent(v)),
            None => (decode_percent(kv), String::new()),
        })
        .collect()
}

/// Longest accepted request/header line; `read_line` grows its buffer until
/// a newline arrives, so without this cap a peer streaming newline-free
/// bytes would allocate without bound (`MAX_BODY` only limits the body).
const MAX_LINE: u64 = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 100;

/// Longest accepted `X-Request-Id` value; anything longer is truncated so a
/// hostile client cannot bloat event traces.
const MAX_REQUEST_ID: usize = 64;

/// Source of server-generated correlation ids.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Keep a client-supplied correlation id loggable: URL/label-safe charset,
/// bounded length. Returns `None` when nothing usable remains.
fn sanitize_request_id(raw: &str) -> Option<String> {
    let id: String = raw
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || "._-".contains(*c))
        .take(MAX_REQUEST_ID)
        .collect();
    if id.is_empty() {
        None
    } else {
        Some(id)
    }
}

/// `read_line` with the [`MAX_LINE`] allocation cap.
fn read_line_capped(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
) -> std::io::Result<usize> {
    let n = reader.by_ref().take(MAX_LINE).read_line(line)?;
    if n as u64 >= MAX_LINE && !line.ends_with('\n') {
        return Err(bad("line too long"));
    }
    Ok(n)
}

/// Read one request off the connection. `Ok(None)` means the peer closed
/// cleanly between requests; `Err` covers malformed input and timeouts.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> std::io::Result<Option<Request>> {
    let mut line = String::new();
    if read_line_capped(reader, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_uppercase(), t.to_string(), v.to_string()),
        _ => return Err(bad("malformed request line")),
    };
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length: Option<usize> = None;
    let mut request_id: Option<String> = None;
    for header_count in 0usize.. {
        if header_count >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let mut header = String::new();
        if read_line_capped(reader, &mut header)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed header"));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                let n = value.parse().map_err(|_| bad("unparsable Content-Length"))?;
                if n > MAX_BODY {
                    return Err(bad("body too large"));
                }
                if content_length.is_some_and(|len| len != n) {
                    return Err(bad("conflicting Content-Length headers"));
                }
                content_length = Some(n);
            }
            // The body's framing would be read as the next request.
            "transfer-encoding" => return Err(bad("Transfer-Encoding is not supported")),
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            "x-request-id" => request_id = sanitize_request_id(value),
            _ => {}
        }
    }
    let mut body = vec![0u8; content_length.unwrap_or(0)];
    reader.read_exact(&mut body)?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (decode_percent(p), parse_query(q)),
        None => (decode_percent(&target), Vec::new()),
    };
    let request_id = request_id
        .unwrap_or_else(|| format!("req-{:x}", NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)));
    Ok(Some(Request { method, path, query, body, keep_alive, request_id }))
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Write a response with framing headers.
pub fn write_response(
    stream: &mut TcpStream,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &resp.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

/// The request handler the server dispatches to.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (the actual port when started on port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the worker pool and join every thread.
    /// In-flight requests finish. A worker parked on an **idle keep-alive
    /// connection** only returns at its read timeout, so close client
    /// connections before calling this when prompt shutdown matters.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Start serving `handler` on `addr` (use port 0 for an ephemeral port) with
/// `threads` worker threads.
pub fn serve(addr: &str, threads: usize, handler: Handler) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));

    let workers: Vec<_> = (0..threads.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            std::thread::spawn(move || loop {
                // Holding the receiver lock only while popping keeps the pool
                // work-stealing: whichever thread is free takes the next
                // connection.
                let stream = match rx.lock().expect("rx lock").recv() {
                    Ok(s) => s,
                    Err(_) => return, // sender dropped: shutting down
                };
                handle_connection(stream, &handler);
            })
        })
        .collect();

    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = stream {
                // Dropped sender (impossible while this loop runs) would mean
                // the pool is gone; just stop accepting then.
                if tx.send(stream).is_err() {
                    break;
                }
            }
        }
        // `tx` drops here, draining the worker pool.
    });

    Ok(ServerHandle { addr: local, stop, accept_thread: Some(accept_thread), workers })
}

fn handle_connection(stream: TcpStream, handler: &Handler) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader) {
            Ok(Some(req)) => {
                let keep = req.keep_alive;
                let mut resp = handler(&req);
                // Echo the correlation id so clients can match responses to
                // their own ids (or learn the server-generated one).
                resp.headers.push(("X-Request-Id", req.request_id.clone()));
                if write_response(&mut writer, &resp, keep).is_err() || !keep {
                    return;
                }
            }
            Ok(None) => return,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let resp = Response::json(
                    400,
                    format!("{{\"error\":\"{}\"}}", e.to_string().replace('"', "'")),
                );
                let _ = write_response(&mut writer, &resp, false);
                return;
            }
            Err(_) => return, // timeout or reset
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> ServerHandle {
        serve(
            "127.0.0.1:0",
            2,
            Arc::new(|req: &Request| {
                let body = format!(
                    "{{\"method\":\"{}\",\"path\":\"{}\",\"q\":{},\"len\":{}}}",
                    req.method,
                    req.path,
                    req.query.len(),
                    req.body.len()
                );
                Response::json(200, body)
            }),
        )
        .expect("bind")
    }

    fn roundtrip(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_requests_and_shuts_down() {
        let server = echo_server();
        let addr = server.addr();
        let reply = roundtrip(
            addr,
            "GET /x/y?a=1&b=two%20words HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("\"path\":\"/x/y\""), "{reply}");
        assert!(reply.contains("\"q\":2"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        for i in 0..3 {
            let body = format!("ping{i}");
            let req = format!(
                "POST /echo HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            );
            s.write_all(req.as_bytes()).unwrap();
            // Read the response head + body off the shared connection.
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("HTTP/1.1 200"), "{line}");
            let mut len = 0usize;
            loop {
                let mut h = String::new();
                reader.read_line(&mut h).unwrap();
                if h.trim_end().is_empty() {
                    break;
                }
                if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                    len = v.trim().parse().unwrap();
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            assert!(String::from_utf8(body).unwrap().contains("\"len\":5"));
        }
        // Close the keep-alive connection before shutting down: shutdown
        // joins the workers, and a worker parked on an idle connection only
        // returns at its read timeout.
        drop(s);
        server.shutdown();
    }

    #[test]
    fn rejects_oversized_and_malformed_requests() {
        let server = echo_server();
        let addr = server.addr();
        let huge =
            format!("POST / HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(roundtrip(addr, &huge).starts_with("HTTP/1.1 400"), "oversized body");
        assert!(roundtrip(addr, "NONSENSE\r\n\r\n").starts_with("HTTP/1.1 400"), "bad line");
        // Abusive inputs (over-long line, header flood) must get the peer
        // cut off, not buffered without bound. The server closes with the
        // peer's data still in flight, so the client may see the 400 or a
        // plain reset — both prove the cutoff; an echo of the request would
        // mean the flood was accepted.
        let abusive = |raw: &str| -> String {
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = s.write_all(raw.as_bytes());
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            out
        };
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(16 * 1024));
        let reply = abusive(&long_line);
        assert!(reply.is_empty() || reply.starts_with("HTTP/1.1 400"), "unbounded line: {reply}");
        let many = format!("GET / HTTP/1.1\r\n{}\r\n", "X-H: v\r\n".repeat(150));
        let reply = abusive(&many);
        assert!(reply.is_empty() || reply.starts_with("HTTP/1.1 400"), "header flood: {reply}");
        server.shutdown();
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(decode_percent("a%20b+c%2Fd"), "a b c/d");
        assert_eq!(decode_percent("100%"), "100%"); // truncated escape passes through
    }
}
