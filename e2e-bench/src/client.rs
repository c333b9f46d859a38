//! A minimal keep-alive HTTP/1.1 client for the load generator.
//!
//! Requests are rendered to bytes before the measured phase, so the
//! timed interval — first byte written to last byte read — holds no
//! client-side JSON work.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Render a `POST` with a JSON body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: cape\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Render a `GET`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: cape\r\n\r\n").into_bytes()
}

/// One response and its latency.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// First request byte written to last response byte read.
    pub latency: Duration,
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect with Nagle off and a read timeout that turns a hung
    /// server into a transport error.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { stream, buf: Vec::with_capacity(64 * 1024) })
    }

    /// Send one pre-rendered request and read its response.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        let t0 = Instant::now();
        self.stream.write_all(request)?;
        let (status, body) = self.read_response()?;
        Ok(Reply { status, body, latency: t0.elapsed() })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> std::io::Result<(u16, Vec<u8>)> {
        let invalid = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|e| invalid(format!("response head is not UTF-8: {e}")))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line `{status_line}`")))?;
        let mut length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| invalid(format!("bad content-length `{value}`")))?;
                }
            }
        }
        let body_start = head_end + 4;
        while self.buf.len() < body_start + length {
            self.fill()?;
        }
        let body = self.buf[body_start..body_start + length].to_vec();
        self.buf.drain(..body_start + length);
        Ok((status, body))
    }
}
