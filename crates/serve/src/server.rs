//! The TCP transport: a bounded accept queue drained by a fixed worker
//! pool, newline-delimited JSON per connection.
//!
//! ## Backpressure
//!
//! The accept thread never blocks on workers: when the pending queue is
//! full it answers the new connection with one `overloaded` error line
//! and drops it. Clients therefore always get an explicit signal — they
//! are never silently parked behind an unbounded backlog.
//!
//! ## Shutdown & drain
//!
//! A `shutdown` request (or [`Server::shutdown`]) flips the stop flag.
//! The accept thread exits (closing the listener, so new connects are
//! refused by the OS), queued connections are still served their
//! in-flight request, and each worker closes its connection after the
//! response it is currently producing. `learned` acks are durable
//! before they are written (see [`crate::service`]), so a drain never
//! loses a round a client saw confirmed.
//!
//! ## Framing
//!
//! Every response line — a normal reply, the oversized-line
//! `bad_request` and the `overloaded` shed — leaves through
//! [`write_line`]: one `write_all` of the encoded response plus its
//! `\n`, on a socket with `TCP_NODELAY` set at accept. Both halves are
//! needed. Writing the body and the newline separately sends two
//! segments, and Nagle holds the second until the client's delayed ACK
//! (~40 ms) — a fixed stall on every request. A single write still ends
//! a response larger than one MSS in a partial segment that Nagle holds
//! the same way, so Nagle is off for every connection.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind as IoErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::proto::{self, ErrorKind, Request, Response, ServeError};
use crate::service::Service;

/// Longest request line a connection may send, newline excluded. A
/// longer line is answered with `bad_request` and the connection is
/// closed, so a peer that never sends `\n` cannot grow server memory.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Transport tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads serving connections (each connection is pinned to
    /// one worker until it closes).
    pub workers: usize,
    /// Pending-connection queue capacity; connection number
    /// `queue_cap + 1` gets an `overloaded` error instead of a slot.
    pub queue_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_cap: 64,
        }
    }
}

struct Shared {
    service: Arc<Service>,
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    stop: AtomicBool,
    queue_cap: usize,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || self.service.is_draining()
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.service.begin_drain();
        self.ready.notify_all();
    }
}

/// A running TCP server; dropping it without [`Server::shutdown`] leaks
/// the threads, so call it (tests) or block on [`Server::join`]
/// (the CLI).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the accept thread
    /// plus the worker pool.
    pub fn start(service: Arc<Service>, addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        assert!(cfg.workers >= 1, "server needs at least one worker");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            service,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            queue_cap: cfg.queue_cap.max(1),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        let mut workers = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server stops (a `shutdown` request arrives) and
    /// every worker has drained.
    pub fn join(mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }

    /// Initiates the drain locally and blocks until it completes.
    pub fn shutdown(self) {
        self.shared.request_stop();
        self.join();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                tsvr_obs::counter!("serve.accepted").incr();
                let _ = stream.set_nodelay(true);
                enqueue(shared, stream);
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    // Wake every worker so drain can finish; the listener closes here,
    // making further connects fail fast at the OS level.
    shared.ready.notify_all();
}

fn enqueue(shared: &Shared, mut stream: TcpStream) {
    let depth = {
        let mut q = shared.queue.lock().unwrap();
        if q.len() >= shared.queue_cap {
            drop(q);
            tsvr_obs::counter!("serve.overloaded").incr();
            tsvr_obs::trace::incident(
                "serve.overloaded",
                &format!("queue at cap {}; connection shed", shared.queue_cap),
            );
            let resp = Response::Error(ServeError::new(
                ErrorKind::Overloaded,
                "connection queue full; retry later",
            ));
            let _ = write_line(&mut stream, &resp);
            return;
        }
        q.push_back(stream);
        q.len()
    };
    tsvr_obs::histogram!("serve.queue.depth").record(depth as u64);
    shared.ready.notify_one();
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if shared.stopping() {
                    break None;
                }
                let (guard, _) = shared
                    .ready
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap();
                q = guard;
            }
        };
        match stream {
            Some(s) => serve_connection(shared, s),
            // Queue fully drained and the server is stopping.
            None => return,
        }
    }
}

/// Serves one connection until EOF, a write failure, or drain. The read
/// timeout exists so a worker parked on an idle connection notices the
/// stop flag instead of pinning the drain forever.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // `read_until` may return a timeout error after consuming a
        // partial line into `line`; looping without clearing keeps
        // accumulating until the newline arrives. The `take` budget
        // caps the line at one byte past the limit.
        let n = loop {
            let budget = (MAX_REQUEST_BYTES + 1).saturating_sub(line.len()) as u64;
            match (&mut reader).take(budget).read_until(b'\n', &mut line) {
                Ok(n) => break n,
                Err(e)
                    if e.kind() == IoErrorKind::WouldBlock || e.kind() == IoErrorKind::TimedOut =>
                {
                    if shared.stopping() {
                        return;
                    }
                }
                Err(_) => return,
            }
        };
        if line.len() > MAX_REQUEST_BYTES && line.last() != Some(&b'\n') {
            let resp = Response::Error(ServeError::new(
                ErrorKind::BadRequest,
                format!("request line exceeds {MAX_REQUEST_BYTES} bytes; closing connection"),
            ));
            // The whole line leaves before the close (which resets a
            // connection with unread input).
            let _ = write_line(&mut writer, &resp);
            return;
        }
        if n == 0 {
            return; // EOF: client hung up.
        }
        let decoded = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => proto::decode_request(text),
            Err(e) => Err(format!("request line is not UTF-8: {e}")),
        };
        let is_shutdown = matches!(
            decoded,
            Ok(proto::Envelope {
                req: Request::Shutdown,
                ..
            })
        );
        let resp = match decoded {
            Ok(env) => shared.service.handle(&env),
            Err(msg) => Response::Error(ServeError::new(ErrorKind::BadRequest, msg)),
        };
        if write_line(&mut writer, &resp).is_err() {
            return;
        }
        if is_shutdown {
            shared.request_stop();
            return;
        }
        if shared.stopping() {
            // Drain: the in-flight request was answered; close so the
            // worker can exit.
            return;
        }
    }
}

/// Sends `resp` as one NDJSON line in a single `write_all` (see
/// "Framing" in the module doc).
fn write_line(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let mut line = proto::encode_response(resp);
    line.push('\n');
    stream.write_all(line.as_bytes())
}
