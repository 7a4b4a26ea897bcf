//! Dependency-free embedded HTTP server for the introspection endpoints.
//!
//! A single acceptor thread on a blocking [`std::net::TcpListener`] (set
//! non-blocking so shutdown is prompt), answering one request per
//! connection:
//!
//! * `GET /metrics` — Prometheus text exposition
//! * `GET /status`  — JSON snapshot of workers and topologies
//! * `GET /trace?last_ms=N` — Chrome-trace JSON from the flight recorder
//!
//! This is deliberately not a web framework: HTTP/1.1, `GET` only,
//! `Connection: close`, bounded request size, one-second socket
//! timeouts. Scrapers (Prometheus, `curl`) need nothing more, and the
//! whole server stays inside the standard library.

use super::IntrospectState;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Largest request head we accept; scrape requests are a few hundred
/// bytes, so anything bigger is a client error.
const MAX_REQUEST: usize = 8 * 1024;

const SOCKET_TIMEOUT: Duration = Duration::from_secs(1);

/// Acceptor loop; runs on its own thread until the executor shuts the
/// introspection state down.
pub(crate) fn serve(listener: TcpListener, state: Arc<IntrospectState>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !state.stopped() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Serve inline: responses are cheap snapshots and scrape
                // concurrency is low, so a thread-per-connection pool
                // would buy nothing but shutdown complexity.
                let _ = handle(stream, &state);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle(mut stream: TcpStream, state: &Arc<IntrospectState>) -> std::io::Result<()> {
    // The accepted socket inherits the listener's non-blocking flag on
    // some platforms; force blocking with timeouts for simple I/O.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;

    let head = match read_head(&mut stream) {
        Ok(h) => h,
        Err(_) => return respond(&mut stream, 400, "text/plain", "bad request\n"),
    };
    let mut parts = head.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return respond(&mut stream, 400, "text/plain", "bad request\n"),
    };
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "only GET is supported\n");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => respond(
            &mut stream,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &state.metrics_text(),
        ),
        "/status" => respond(&mut stream, 200, "application/json", &state.status_json()),
        "/trace" => {
            // An absent `last_ms` means the full retention window; a
            // *present but unparsable* one is a client error — serving
            // the full window for `last_ms=5oo` would silently hand back
            // far more (or different) data than the scraper asked for.
            let last = match query_param(query, "last_ms") {
                None => Duration::MAX,
                Some(raw) => match raw.parse::<u64>() {
                    Ok(ms) => Duration::from_millis(ms),
                    Err(_) => {
                        let mut body = crate::wire::json::Writer::compact();
                        body.begin_object();
                        let error =
                            format!("last_ms must be a non-negative integer, got \"{raw}\"");
                        body.field_str("error", &error);
                        body.end();
                        let body = body.finish() + "\n";
                        return respond(&mut stream, 400, "application/json", &body);
                    }
                },
            };
            respond(
                &mut stream,
                200,
                "application/json",
                &state.trace_json(last),
            )
        }
        _ => respond(
            &mut stream,
            404,
            "text/plain",
            "rustflow introspection: /metrics /status /trace?last_ms=N\n",
        ),
    }
}

/// Reads the request head (through the blank line); the routes take no
/// bodies, so anything after it is ignored.
fn read_head(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next().unwrap_or("").to_string();
    if line.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "empty request",
        ));
    }
    Ok(line)
}

fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
