//! A blocking keep-alive HTTP/1.1 client for the daemon's GET endpoints.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::stats::Ops;

/// One response: status and body.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// One keep-alive connection that reconnects when the server retires it.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// Every request sent; a request fails when it gets no response even
    /// after one reconnect.
    pub ops: Ops,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            ops: Ops::default(),
        }
    }

    /// GET `path`, retrying once on a fresh connection if the current one
    /// fails. Counts the request in [`Client::ops`].
    pub fn get(&mut self, path: &str) -> Option<Response> {
        let response = self.try_get(path).or_else(|_| {
            self.conn = None;
            self.try_get(path)
        });
        self.ops.record(response.is_ok());
        response.ok()
    }

    fn try_get(&mut self, path: &str) -> std::io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connection just opened");
        conn.get_mut()
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
        let mut line = String::new();
        if conn.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(std::io::ErrorKind::InvalidData)?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if conn.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(|_| std::io::ErrorKind::InvalidData)?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; length];
        conn.read_exact(&mut body)?;
        if close {
            // The server retires keep-alive connections after a request
            // quota; the next request opens a fresh one.
            self.conn = None;
        }
        let body = String::from_utf8(body).map_err(|_| std::io::ErrorKind::InvalidData)?;
        Ok(Response { status, body })
    }
}

/// The raw text of JSON field `key` in a flat object body.
fn field<'b>(body: &'b str, key: &str) -> Option<&'b str> {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat)? + pat.len();
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Integer field `key` of a flat JSON object body.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    field(body, key)?.parse().ok()
}

/// Number field `key` of a flat JSON object body.
pub fn json_f64(body: &str, key: &str) -> Option<f64> {
    field(body, key)?.parse().ok()
}

/// The `(node, score)` rows of a `/scores` body.
pub fn score_rows(body: &str) -> Option<Vec<(u32, f64)>> {
    let list = &body[body.find("\"scores\":[")? + 10..];
    let mut rows = Vec::new();
    for row in list.split("{\"node\":").skip(1) {
        let (node, rest) = row.split_once(",\"score\":")?;
        let score = rest.split('}').next()?;
        rows.push((node.parse().ok()?, score.parse().ok()?));
    }
    Some(rows)
}
