//! Keep-alive HTTP/1.1 client with per-outcome request accounting.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use tcrowd_service::Json;

/// Attempts a request gets (the first plus retries) before the run fails.
const ATTEMPTS: usize = 5;

/// Request outcomes of one workload phase. Every retry counts as a failure
/// of the attempt before it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub attempted: u64,
    pub ok: u64,
    pub c4xx: u64,
    pub c429: u64,
    pub c503: u64,
    pub transport: u64,
}

impl Counts {
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    pub fn add(&mut self, o: &Counts) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.c4xx += o.c4xx;
        self.c429 += o.c429;
        self.c503 += o.c503;
        self.transport += o.transport;
    }

    pub fn describe(&self) -> String {
        format!(
            "attempted={} ok={} 4xx={} 429={} 503={} transport={}",
            self.attempted, self.ok, self.c4xx, self.c429, self.c503, self.transport
        )
    }
}

/// One answered request.
pub struct Reply {
    pub body: Json,
    /// Request id sent in `X-Request-Id`, which the traced handler sees.
    pub rid: String,
    pub sent: Instant,
    pub done: Instant,
    /// True when an earlier attempt of this request failed: the request
    /// then misses every latency limit.
    pub retried: bool,
}

impl Reply {
    /// Round trip of the successful attempt; infinite for a retried request.
    pub fn latency_ms(&self) -> f64 {
        if self.retried {
            f64::INFINITY
        } else {
            (self.done - self.sent).as_secs_f64() * 1e3
        }
    }

    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.body.get(key).and_then(Json::as_u64).ok_or_else(|| format!("reply lacks '{key}'"))
    }
}

pub struct Client {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    name: String,
    seq: u64,
    pub counts: Counts,
}

impl Client {
    pub fn new(addr: SocketAddr, name: &str) -> Client {
        Client { addr, stream: None, name: name.to_string(), seq: 0, counts: Counts::default() }
    }

    /// Close the connection; the next request reconnects. Each open
    /// connection holds one of the server's worker threads.
    pub fn close(&mut self) {
        self.stream = None;
    }

    /// A fresh request id (`<client>-<seq>`).
    pub fn next_rid(&mut self) -> String {
        self.seq += 1;
        format!("{}-{}", self.name, self.seq)
    }

    pub fn get(&mut self, path: &str) -> Result<Reply, String> {
        self.call("GET", path, "")
    }

    pub fn post(&mut self, path: &str, body: &str) -> Result<Reply, String> {
        self.call("POST", path, body)
    }

    /// Send with retries: transport errors reconnect, 429 and 503 wait and
    /// resend verbatim (the service acknowledged nothing); other statuses
    /// fail the run.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> Result<Reply, String> {
        let rid = self.next_rid();
        let mut backoff = Duration::from_millis(20);
        for attempt in 0..ATTEMPTS {
            self.counts.attempted += 1;
            let sent = Instant::now();
            match self.attempt(method, path, body, &rid) {
                Ok((status, json)) => {
                    let done = Instant::now();
                    match status {
                        200..=299 => {
                            self.counts.ok += 1;
                            return Ok(Reply { body: json, rid, sent, done, retried: attempt > 0 });
                        }
                        429 | 503 => {
                            if status == 429 {
                                self.counts.c429 += 1;
                            } else {
                                self.counts.c503 += 1;
                            }
                        }
                        _ => {
                            self.counts.c4xx += 1;
                            return Err(format!("{method} {path}: HTTP {status}: {json}"));
                        }
                    }
                }
                Err(e) => {
                    self.counts.transport += 1;
                    self.stream = None;
                    if attempt + 1 == ATTEMPTS {
                        return Err(format!("{method} {path}: {e}"));
                    }
                }
            }
            std::thread::sleep(backoff);
            backoff *= 2;
        }
        Err(format!("{method} {path}: still refused after {ATTEMPTS} attempts"))
    }

    fn attempt(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        rid: &str,
    ) -> std::io::Result<(u16, Json)> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(BufReader::new(s));
        }
        let stream = self.stream.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nX-Request-Id: {rid}\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        let mut raw = Vec::with_capacity(head.len() + body.len());
        raw.extend_from_slice(head.as_bytes());
        raw.extend_from_slice(body.as_bytes());
        stream.get_mut().write_all(&raw)?;
        let mut line = String::new();
        if stream.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line".into()));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if stream.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-headers".into()));
            }
            if line.trim_end().is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                len = v.trim().parse().map_err(|_| bad("bad Content-Length".into()))?;
            }
        }
        let mut buf = vec![0u8; len];
        stream.read_exact(&mut buf)?;
        let text = String::from_utf8(buf).map_err(|_| bad("body is not UTF-8".into()))?;
        let json = tcrowd_service::json::parse(&text).map_err(bad)?;
        Ok((status, json))
    }
}
