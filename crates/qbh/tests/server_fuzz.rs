//! Wire-protocol hardening: feed the server malformed bytes — truncations,
//! bit flips, lying length prefixes, garbage JSON — and require a typed
//! protocol error or a clean close every time. The server must never panic,
//! never over-allocate from an untrusted prefix, and must keep serving
//! well-formed requests afterwards.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hum_music::SongbookConfig;
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::fault::flip_bit;
use hum_qbh::system::{QbhConfig, QbhSystem};
use hum_server::{Client, ClientError, Server, ServerConfig};

fn start_server() -> (Server<QbhSystem>, u64) {
    let db = MelodyDatabase::from_songbook(&SongbookConfig {
        songs: 3,
        phrases_per_song: 2,
        min_notes: 4,
        max_notes: 7,
        ..SongbookConfig::default()
    });
    let len = db.len() as u64;
    let system = QbhSystem::build(&db, &QbhConfig::default());
    let server =
        Server::start(system, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    (server, len)
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    client
}

/// The server is alive iff a fresh connection still answers a good request.
fn assert_still_serving(addr: SocketAddr, len: u64, context: &str) {
    let mut client = connect(addr);
    assert_eq!(client.ping().unwrap_or_else(|e| panic!("{context}: {e}")), len, "{context}");
}

/// One canonical, well-formed knn frame: header + compact JSON payload.
fn canonical_frame() -> Vec<u8> {
    let payload: &[u8] = br#"{"op":"knn","pitch":[60.0,62.5,64.0,62.5],"k":1}"#;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Writes raw bytes, half-closes, and drains whatever the server answers.
/// A clean close — including a TCP reset when the server hangs up with
/// unread bytes still in flight — is acceptable; the only failure mode is
/// a hang (read timeout), which is exactly what this suite exists to catch.
fn slam_bytes(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    if stream.write_all(bytes).is_err() {
        // The server already rejected and closed; nothing left to drain.
        return Vec::new();
    }
    let _ = stream.shutdown(Shutdown::Write);
    let mut drained = Vec::new();
    let mut buf = [0u8; 1024];
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return drained,
            Ok(n) => drained.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return drained,
            Err(e) => panic!("server stopped responding mid-drain: {e}"),
        }
        assert!(Instant::now() < deadline, "drain did not finish: server hung");
    }
}

#[test]
fn garbage_json_and_wrong_shapes_get_typed_errors_on_a_live_connection() {
    let (server, len) = start_server();
    let mut client = connect(server.local_addr());

    // Each malformed payload below is framed correctly, so the connection
    // must survive: typed error back, next request still answered.
    let cases: &[(&[u8], &str)] = &[
        (b"not json at all", "protocol"),
        (b"", "protocol"),
        (b"{\"op\":\"knn\"", "protocol"),
        (b"\xff\xfe\x00garbage", "protocol"),
        (b"{\"op\":\"warp\"}", "unsupported"),
        (b"{\"op\":\"knn\",\"pitch\":\"sixty\",\"k\":3}", "bad_request"),
        (b"{\"op\":\"knn\",\"pitch\":[60.0],\"k\":-2}", "bad_request"),
        (b"{\"op\":\"knn\",\"pitch\":[60.0,null],\"k\":1}", "bad_request"),
        (b"{\"op\":\"insert\",\"id\":1,\"song\":0,\"phrase\":0}", "bad_request"),
        (b"[1,2,3]", "bad_request"),
        (b"42", "bad_request"),
    ];
    for (payload, expect) in cases {
        match client.send_raw_frame(payload) {
            Err(ClientError::Protocol(_)) => {
                assert_eq!(*expect, "protocol", "payload {payload:?}")
            }
            Err(ClientError::BadRequest(_)) => {
                assert_eq!(*expect, "bad_request", "payload {payload:?}")
            }
            Err(ClientError::Unsupported(_)) => {
                assert_eq!(*expect, "unsupported", "payload {payload:?}")
            }
            other => panic!("payload {payload:?}: want a typed error, got {other:?}"),
        }
        assert_eq!(client.ping().expect("connection survives"), len);
    }

    // A parser bomb (deep nesting) must hit the depth limit, not the stack.
    let mut bomb = Vec::new();
    bomb.extend(std::iter::repeat_n(b'[', 4096));
    bomb.extend(std::iter::repeat_n(b']', 4096));
    match client.send_raw_frame(&bomb) {
        Err(ClientError::Protocol(message)) => {
            assert!(message.contains("invalid JSON"), "{message}")
        }
        other => panic!("nesting bomb: want protocol error, got {other:?}"),
    }
    assert_eq!(client.ping().expect("connection survives the bomb"), len);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn resource_exhaustion_shapes_are_rejected_at_the_wire_boundary() {
    let (server, len) = start_server();
    let mut client = connect(server.local_addr());

    // `k` sizes result heaps and index walks downstream, so absurd values
    // must die at the parse boundary as typed errors — never reach the
    // engine, never allocate proportionally, never panic.
    match client.send_raw_frame(br#"{"op":"knn","pitch":[60.0],"k":1000000000000000}"#) {
        Err(ClientError::BadRequest(message)) => {
            assert!(message.contains("ceiling"), "{message}")
        }
        other => panic!("k=10^15: want bad_request naming the ceiling, got {other:?}"),
    }
    // u64::MAX is not exactly representable as f64, so the number layer
    // itself refuses it before the ceiling check can even run.
    match client.send_raw_frame(br#"{"op":"knn","pitch":[60.0],"k":18446744073709551615}"#) {
        Err(ClientError::BadRequest(message)) => {
            assert!(message.contains("'k'"), "{message}")
        }
        other => panic!("k=u64::MAX: want bad_request naming k, got {other:?}"),
    }
    // A negative radius is meaningless; typed rejection, not an engine trip.
    match client.send_raw_frame(br#"{"op":"range","pitch":[60.0],"radius":-1.0}"#) {
        Err(ClientError::BadRequest(message)) => {
            assert!(message.contains("radius"), "{message}")
        }
        other => panic!("radius=-1: want bad_request naming radius, got {other:?}"),
    }
    // A radius literal overflowing f64 never reaches request parsing: the
    // finite-only JSON layer rejects it as a protocol error.
    match client.send_raw_frame(br#"{"op":"range","pitch":[60.0],"radius":1e309}"#) {
        Err(ClientError::Protocol(message)) => {
            assert!(message.contains("invalid JSON"), "{message}")
        }
        other => panic!("radius=1e309: want protocol error, got {other:?}"),
    }
    // Remote shutdown is opt-in; the default config refuses the op and the
    // connection (and server) keep working.
    match client.send_raw_frame(br#"{"op":"shutdown"}"#) {
        Err(ClientError::BadRequest(message)) => {
            assert!(message.contains("disabled"), "{message}")
        }
        other => panic!("wire shutdown: want bad_request, got {other:?}"),
    }

    // The ceiling itself is serveable: a maximal-k request is clamped to
    // the corpus size internally and answers normally.
    let reply = client
        .knn(&[60.0, 62.5, 64.0], hum_server::MAX_WIRE_K as usize, &Default::default())
        .expect("k at the ceiling is legal");
    assert_eq!(reply.matches.len() as u64, len, "clamped to the whole corpus");

    assert_eq!(client.ping().expect("connection survives all of it"), len);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn lying_and_oversized_length_prefixes_are_rejected_without_allocation() {
    let (server, len) = start_server();
    let addr = server.local_addr();

    // A prefix claiming 2 GiB: the server must answer with a typed
    // protocol error naming the limit (proof it rejected the *prefix*
    // rather than trying to honor it) and close.
    let mut client = connect(addr);
    let mut huge = Vec::from(0x7FFF_FFFFu32.to_be_bytes());
    huge.extend_from_slice(b"ignored");
    match client.send_raw_bytes(&huge) {
        Err(ClientError::Protocol(message)) => {
            assert!(message.contains("exceeds maximum"), "{message}")
        }
        other => panic!("oversized prefix: want protocol error, got {other:?}"),
    }

    // Maximum u32 and exactly-one-over-the-limit prefixes, same story.
    for bad_len in [u32::MAX, (hum_server::MAX_FRAME_BYTES as u32) + 1] {
        let mut client = connect(addr);
        match client.send_raw_bytes(&bad_len.to_be_bytes()) {
            Err(ClientError::Protocol(message)) => {
                assert!(message.contains("exceeds maximum"), "{message}")
            }
            other => panic!("prefix {bad_len}: want protocol error, got {other:?}"),
        }
    }

    // A truncated frame (prefix promises 100 bytes, connection ends after
    // 10) gets a typed `truncated frame` error before the close.
    let mut truncated = Vec::from(100u32.to_be_bytes());
    truncated.extend_from_slice(b"0123456789");
    let drained = slam_bytes(addr, &truncated);
    let text = String::from_utf8_lossy(&drained);
    assert!(text.contains("truncated frame"), "got: {text}");

    // A bare, truncated header (2 of 4 length bytes) is also truncation.
    let drained = slam_bytes(addr, &[0x00, 0x00]);
    let text = String::from_utf8_lossy(&drained);
    assert!(text.contains("truncated frame"), "got: {text}");

    assert_still_serving(addr, len, "after prefix abuse");
    server.shutdown().expect("clean shutdown");
}

#[test]
fn every_single_bit_flip_of_a_valid_frame_is_survivable() {
    let (server, len) = start_server();
    let addr = server.local_addr();
    let frame = canonical_frame();

    // Exhaustive single-bit corruption of header and payload. Depending on
    // where the flip lands the server may answer normally (the JSON is
    // still valid), answer a typed error, or see a short/oversized frame
    // and close — but it must never panic, hang, or stop serving.
    for index in 0..frame.len() {
        for bit in 0..8u8 {
            let mut corrupted = frame.clone();
            flip_bit(&mut corrupted, index, bit);
            slam_bytes(addr, &corrupted);
        }
    }
    // Truncation sweep for the same frame: every cut point must end in a
    // typed `truncated frame` answer or a clean close.
    for end in 1..frame.len() {
        slam_bytes(addr, &frame[..end]);
    }

    assert_still_serving(addr, len, "after exhaustive bit flips");
    let mut client = connect(addr);
    let reply = client
        .knn(&[60.0, 62.5, 64.0, 62.5], 1, &Default::default())
        .expect("good requests still work");
    assert_eq!(reply.matches.len(), 1);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn random_garbage_streams_never_take_the_server_down() {
    let (server, len) = start_server();
    let addr = server.local_addr();

    // A deterministic xorshift keeps the garbage reproducible.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..64 {
        let size = 1 + (next() as usize % 256);
        let mut bytes = Vec::with_capacity(size);
        for _ in 0..size {
            bytes.push(next() as u8);
        }
        // Keep random "lengths" below the frame cap so the server commits
        // to reading a payload and then hits EOF — the nastier path.
        if round % 2 == 0 && bytes.len() >= 4 {
            bytes[0] = 0;
            bytes[1] &= 0x0F;
        }
        slam_bytes(addr, &bytes);
    }

    assert_still_serving(addr, len, "after garbage streams");
    server.shutdown().expect("clean shutdown");
}
