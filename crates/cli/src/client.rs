//! One HTTP/1.1 exchange with a `maestro serve` daemon, on a fresh
//! connection: the client of `maestro loadgen` and of the trace explorer
//! (`maestro trace --from`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A complete response: its status, the two serve-plane headers the
/// retry and brownout discipline keys on, and its body.
#[derive(Debug, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    /// The daemon's computed backoff hint (`Retry-After`, seconds).
    pub retry_after: Option<u64>,
    /// Served in brownout (`x-maestro-degraded`).
    pub degraded: bool,
    pub body: String,
}

/// How one exchange ended.
#[derive(Debug, PartialEq, Eq)]
pub enum Exchange {
    Reply(Reply),
    /// No byte arrived: the connect or the send failed, or the peer
    /// closed or reset the connection before answering.
    Refused,
    /// A reply started but did not complete: it ended short of its
    /// `Content-Length`, or it is an NDJSON stream whose last line is not
    /// its `"final":true` line.
    Dropped,
}

/// The first socket address `addr` (`host:port`) resolves to.
pub fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve `{addr}`: {e}"))?
        .next()
        .ok_or_else(|| format!("`{addr}` resolves to no address"))
}

/// Send `method path` with `body` to `addr` on a fresh `Connection:
/// close` connection and read the reply. `timeout` bounds the connect and
/// each read and write.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Exchange {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, timeout) else {
        return Exchange::Refused;
    };
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    if stream.write_all(request.as_bytes()).is_err() {
        return Exchange::Refused;
    }
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while let Ok(n @ 1..) = stream.read(&mut chunk) {
        buf.extend_from_slice(&chunk[..n]);
        if let Some(reply) = complete(&buf) {
            return Exchange::Reply(reply);
        }
    }
    if buf.is_empty() {
        Exchange::Refused
    } else {
        Exchange::Dropped
    }
}

/// The reply in `buf`, once all of it has arrived. A `Content-Length`
/// reply is complete at its declared length, an NDJSON stream (framed by
/// the connection's end) once its last line is the `"final":true` line.
fn complete(buf: &[u8]) -> Option<Reply> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let body = &buf[head_end + 4..];
    let header = |name: &str| {
        head.lines().find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.eq_ignore_ascii_case(name).then(|| value.trim())
        })
    };
    let body = match header("Content-Length").and_then(|v| v.parse::<usize>().ok()) {
        Some(length) => body.get(..length)?,
        None if header("Content-Type") == Some("application/x-ndjson") => {
            let last = body.strip_suffix(b"\n")?.rsplit(|&b| b == b'\n').next()?;
            if !std::str::from_utf8(last).ok()?.contains("\"final\":true") {
                return None;
            }
            body
        }
        None => return None,
    };
    Some(Reply {
        status: head.split_whitespace().nth(1)?.parse().ok()?,
        retry_after: header("Retry-After").and_then(|v| v.parse().ok()),
        degraded: header("x-maestro-degraded").is_some(),
        body: String::from_utf8_lossy(body).into_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener};

    /// One exchange against a peer that writes `reply`, ends it, and
    /// reads the request until the client hangs up.
    fn against(reply: &str) -> Exchange {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let reply = reply.to_string();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            conn.write_all(reply.as_bytes()).expect("write reply");
            conn.shutdown(Shutdown::Write).expect("end the reply");
            let _ = conn.read_to_end(&mut Vec::new());
        });
        let outcome = exchange(addr, "POST", "/v1/analyze", "{}", Duration::from_secs(5));
        peer.join().expect("peer thread");
        outcome
    }

    #[test]
    fn a_complete_reply_yields_its_status_headers_and_body() {
        let outcome = against(
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 5\r\nRetry-After: 3\r\nx-maestro-degraded: cache-only\r\n\r\nshed!",
        );
        assert_eq!(
            outcome,
            Exchange::Reply(Reply {
                status: 503,
                retry_after: Some(3),
                degraded: true,
                body: "shed!".to_string(),
            })
        );
        let Exchange::Reply(plain) = against("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
        else {
            panic!("a complete reply");
        };
        assert_eq!((plain.retry_after, plain.degraded), (None, false));
    }

    #[test]
    fn a_reply_one_byte_short_of_its_length_is_dropped() {
        assert_eq!(
            against("HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\nshort"),
            Exchange::Dropped
        );
    }

    #[test]
    fn a_stream_is_complete_only_with_its_final_line() {
        const HEAD: &str = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\r\n";
        let cut = format!("{HEAD}{{\"unit\":0}}\n{{\"unit\":1}}\n");
        assert_eq!(against(&cut), Exchange::Dropped);
        let unterminated = format!("{HEAD}{{\"unit\":0}}\n{{\"final\":true}}");
        assert_eq!(against(&unterminated), Exchange::Dropped);
        let whole = format!("{HEAD}{{\"unit\":0}}\n{{\"final\":true,\"partial\":false}}\n");
        let Exchange::Reply(reply) = against(&whole) else {
            panic!("a stream with its final line is complete");
        };
        assert_eq!(reply.status, 200);
        assert!(
            reply.body.ends_with("\"partial\":false}\n"),
            "{}",
            reply.body
        );
    }

    #[test]
    fn a_peer_that_closes_before_writing_is_refused() {
        assert_eq!(against(""), Exchange::Refused);
    }
}
