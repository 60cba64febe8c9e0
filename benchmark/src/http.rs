//! A minimal HTTP/1.1 client for the daemon: one request per
//! connection (the server always answers `Connection: close`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Send one request and read the whole reply. A reply whose body is
/// shorter or longer than its `Content-Length` is an error.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut message = format!(
        "{method} {path} HTTP/1.1\r\nHost: benchmark\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    message.extend_from_slice(body);
    stream
        .write_all(&message)
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    parse_reply(&raw)
}

fn parse_reply(raw: &[u8]) -> Result<Reply, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("reply has no header terminator")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "reply head is not UTF-8")?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("reply has no status code")?;
    let advertised: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or("reply has no Content-Length")?;
    let body = raw[head_end + 4..].to_vec();
    if body.len() != advertised {
        return Err(format!(
            "short body: Content-Length {advertised}, received {}",
            body.len()
        ));
    }
    Ok(Reply { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_complete_reply_and_rejects_a_torn_one() {
        let ok =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 2\r\n\r\n{}";
        let reply = parse_reply(ok).unwrap();
        assert_eq!((reply.status, reply.body.as_slice()), (200, &b"{}"[..]));
        let torn = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}";
        assert!(parse_reply(torn).unwrap_err().contains("short body"));
        let shed = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(parse_reply(shed).unwrap().status, 429);
        assert!(parse_reply(b"garbage").is_err());
    }
}
