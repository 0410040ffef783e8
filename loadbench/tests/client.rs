//! The load client against scripted servers.

use cogsdk_loadbench::client::Client;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Reads one request (head plus `Content-Length` body) from `stream`.
fn read_request(reader: &mut BufReader<TcpStream>) -> Option<String> {
    let mut head = String::new();
    let mut len = 0;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            len = v.trim().parse().ok()?;
        }
        head.push_str(&line);
        if line == "\r\n" {
            break;
        }
    }
    let mut body = vec![0; len];
    reader.read_exact(&mut body).ok()?;
    Some(head)
}

fn response(body: &str, close: bool) -> String {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!(
        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n{connection}\r\n{body}",
        body.len()
    )
}

const REQUEST: &[u8] = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";

#[test]
fn keeps_the_connection_alive_unless_told_to_close() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut accepted = 0;
        // First connection: two kept-alive answers, then one that closes.
        // Second connection: one answer.
        for answers in [3, 1] {
            let (stream, _) = listener.accept().unwrap();
            accepted += 1;
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            for k in 0..answers {
                read_request(&mut reader).unwrap();
                let close = answers == 3 && k == 2;
                stream
                    .write_all(response(&format!("r{k}"), close).as_bytes())
                    .unwrap();
            }
        }
        accepted
    });
    let mut client = Client::new(addr);
    let replies: Vec<_> = (0..4).map(|_| client.request(REQUEST).unwrap()).collect();
    assert_eq!(server.join().unwrap(), 2);
    let bodies: Vec<&str> = replies.iter().map(|r| r.body.as_str()).collect();
    assert_eq!(bodies, ["r0", "r1", "r2", "r0"]);
    let connects: Vec<bool> = replies.iter().map(|r| r.connect.is_some()).collect();
    assert_eq!(connects, [true, false, false, true]);
}

#[test]
fn a_stalled_server_fails_the_request_within_the_timeout() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        read_request(&mut reader);
        // Hold the connection open without answering.
        std::thread::sleep(Duration::from_millis(800));
    });
    let mut client = Client::with_timeout(addr, Duration::from_millis(200));
    let start = Instant::now();
    let result = client.request(REQUEST);
    assert!(result.is_err(), "{result:?}");
    assert!(start.elapsed() < Duration::from_millis(700));
    server.join().unwrap();
}

#[test]
fn a_truncated_body_and_a_dead_server_are_errors() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        read_request(&mut reader).unwrap();
        let mut stream = stream;
        stream
            .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc")
            .unwrap();
    });
    let mut client = Client::new(addr);
    assert!(client.request(REQUEST).is_err());
    server.join().unwrap();
    // The listener is gone: connecting fails instead of hanging.
    assert!(client.request(REQUEST).is_err());
}

#[test]
fn resends_once_when_an_idle_kept_alive_connection_was_closed() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (closed_tx, closed) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        // Answer once and keep the connection alive, then close it idle.
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        read_request(&mut reader).unwrap();
        let mut s = stream;
        s.write_all(response("first", false).as_bytes()).unwrap();
        drop(reader);
        drop(s);
        closed_tx.send(()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        read_request(&mut reader).unwrap();
        let mut s = stream;
        s.write_all(response("second", true).as_bytes()).unwrap();
    });
    let mut client = Client::new(addr);
    assert_eq!(client.request(REQUEST).unwrap().body, "first");
    closed.recv().unwrap();
    let second = client.request(REQUEST).unwrap();
    assert_eq!(second.body, "second");
    assert!(second.connect.is_some());
    server.join().unwrap();
}
