//! The analysts: one client per connection, driving the NDJSON protocol
//! closed-loop, or the same script in process through `Service::handle`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tsvr_core::RankedWindow;
use tsvr_obs::json::Json;
use tsvr_serve::{decode_response, encode_request, Envelope, Request, Response, Service};

/// A response not read within this long counts as failed; the
/// connection is dropped and the next request reconnects.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// The paper's result page.
pub const PAGE: usize = 20;
/// The paper's feedback rounds per session.
pub const ROUNDS: usize = 4;

/// Operations the bench sends, in report order.
pub const OPS: [&str; 5] = ["open", "page", "feedback", "close", "query"];

/// The query mix: `(class, expression)`.
pub const CLASSES: [(&str, &str); 6] = [
    ("broad", "all"),
    ("event", "event = accident"),
    ("camera", "camera = cam-01"),
    (
        "narrow",
        "camera = cam-02 and time in [3600, 7199] and vdiff >= 0.5",
    ),
    (
        "camera_event",
        "camera in (cam-00, cam-03) and event = accident",
    ),
    ("alpha", "theta >= 1.0"),
];

fn op_index(op: &str) -> usize {
    OPS.iter()
        .position(|&o| o == op)
        .expect("the bench sends only the ops in OPS")
}

/// One request/response pair as it crossed the wire (traced runs only).
pub struct Exchange {
    pub op: usize,
    pub request: String,
    pub response: String,
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

enum Link {
    Tcp {
        addr: SocketAddr,
        conn: Option<Conn>,
    },
    Local(Arc<Service>),
}

/// One analyst's connection plus everything it measured.
pub struct Client {
    link: Link,
    record: bool,
    pub attempted: [u64; 5],
    pub failed: [u64; 5],
    /// `(op, nanoseconds)` from request write to full response read.
    pub latencies: Vec<(usize, u64)>,
    pub exchanges: Vec<Exchange>,
    /// Client-side encode + decode time (traced runs only).
    pub codec_ns: u64,
}

impl Client {
    /// A TCP client; it connects on its first request. `record` keeps
    /// every line and times the client codec.
    pub fn tcp(addr: SocketAddr, record: bool) -> Client {
        Client::with(Link::Tcp { addr, conn: None }, record)
    }

    /// The same protocol in process, through `Service::handle`.
    pub fn local(service: Arc<Service>) -> Client {
        Client::with(Link::Local(service), false)
    }

    fn with(link: Link, record: bool) -> Client {
        Client {
            link,
            record,
            attempted: [0; 5],
            failed: [0; 5],
            latencies: Vec::new(),
            exchanges: Vec::new(),
            codec_ns: 0,
        }
    }

    /// Sends one request and waits for its response. `None` — counted
    /// as failed — on connect/write/read errors, the read timeout,
    /// undecodable responses and error responses.
    pub fn call(&mut self, req: Request) -> Option<(Response, u64)> {
        let op = op_index(req.op_name());
        self.attempted[op] += 1;
        let out = match &mut self.link {
            Link::Local(service) => {
                let t = Instant::now();
                let resp = service.handle(&Envelope::new(req));
                Some((resp, t.elapsed().as_nanos() as u64))
            }
            Link::Tcp { addr, conn } => {
                let c0 = self.record.then(Instant::now);
                let line = encode_request(&Envelope::new(req));
                let mut codec = c0.map_or(0, |c| c.elapsed().as_nanos() as u64);
                match exchange(*addr, conn, &line) {
                    Ok((text, ns)) => {
                        let c1 = self.record.then(Instant::now);
                        let resp = decode_response(&text);
                        codec += c1.map_or(0, |c| c.elapsed().as_nanos() as u64);
                        self.codec_ns += codec;
                        if self.record {
                            self.exchanges.push(Exchange {
                                op,
                                request: line,
                                response: text,
                            });
                        }
                        self.latencies.push((op, ns));
                        resp.ok().map(|r| (r, ns))
                    }
                    Err(_) => None,
                }
            }
        };
        match out {
            Some((Response::Error(_), _)) | None => {
                self.failed[op] += 1;
                None
            }
            ok => ok,
        }
    }

    /// Counts a well-formed response of the wrong kind as failed.
    fn reject<T>(&mut self, op: &str) -> Option<T> {
        self.failed[op_index(op)] += 1;
        None
    }
}

/// Writes one request line and reads one response line, connecting
/// first if needed. Any I/O error drops the connection.
fn exchange(
    addr: SocketAddr,
    conn: &mut Option<Conn>,
    line: &str,
) -> std::io::Result<(String, u64)> {
    if conn.is_none() {
        let stream = TcpStream::connect_timeout(&addr, READ_TIMEOUT)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(READ_TIMEOUT))?;
        *conn = Some(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        });
    }
    let c = conn.as_mut().expect("connected above");
    let t = Instant::now();
    let result = (|| {
        c.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut text = String::new();
        if c.reader.read_line(&mut text)? == 0 || !text.ends_with('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(text)
    })();
    let ns = t.elapsed().as_nanos() as u64;
    match result {
        Ok(text) => Ok((text, ns)),
        Err(e) => {
            *conn = None;
            Err(e)
        }
    }
}

/// One analyst session as served.
pub struct SessionRun {
    pub clip_id: u64,
    /// Every page served, as its encoded ranking.
    pub pages: Vec<String>,
    /// `open` plus the first `page`.
    pub first_page_ns: u64,
    /// `feedback` plus the following `page`, per round.
    pub rounds_ns: Vec<u64>,
    pub complete: bool,
}

fn ranking_json(ranking: &[u64]) -> String {
    Json::Arr(ranking.iter().map(|&w| Json::Num(w as f64)).collect()).to_string()
}

fn page(c: &mut Client, session_id: u64) -> Option<(Vec<u64>, u64)> {
    match c.call(Request::Page {
        session_id,
        n: Some(PAGE),
    })? {
        (Response::Page { ranking, .. }, ns) => Some((ranking, ns)),
        _ => c.reject("page"),
    }
}

/// The paper's protocol: open an OC-SVM session, then four rounds of
/// ground-truth labels for every shown window, each followed by the
/// re-ranked page, then close. Stops at the first failure.
pub fn session(c: &mut Client, clip_id: u64, query: &str, truth: &[bool]) -> SessionRun {
    let mut run = SessionRun {
        clip_id,
        pages: Vec::new(),
        first_page_ns: 0,
        rounds_ns: Vec::new(),
        complete: false,
    };
    let opened = c.call(Request::Open {
        clip_id,
        query: query.to_string(),
        learner: "ocsvm".into(),
    });
    let (session_id, open_ns) = match opened {
        Some((Response::Opened { session_id, .. }, ns)) => (session_id, ns),
        Some(_) => {
            c.reject::<()>("open");
            return run;
        }
        None => return run,
    };
    let Some((mut ranking, ns)) = page(c, session_id) else {
        return run;
    };
    run.first_page_ns = open_ns + ns;
    run.pages.push(ranking_json(&ranking));
    for round in 1..=ROUNDS {
        let labels = ranking
            .iter()
            .map(|&w| (w as u32, truth.get(w as usize).copied().unwrap_or(false)))
            .collect();
        let fb_ns = match c.call(Request::Feedback { session_id, labels }) {
            Some((Response::Learned { round: r, .. }, ns)) if r == round => ns,
            Some(_) => {
                c.reject::<()>("feedback");
                return run;
            }
            None => return run,
        };
        let Some((next, ns)) = page(c, session_id) else {
            return run;
        };
        ranking = next;
        run.rounds_ns.push(fb_ns + ns);
        run.pages.push(ranking_json(&ranking));
    }
    match c.call(Request::Close { session_id }) {
        Some((Response::Closed { .. }, _)) => run.complete = true,
        Some(_) => {
            c.reject::<()>("close");
        }
        None => {}
    }
    run
}

/// One planner query as served.
pub struct QueryRun {
    pub class: usize,
    pub ranking: Vec<RankedWindow>,
    pub ns: u64,
}

pub fn query(c: &mut Client, class: usize) -> Option<QueryRun> {
    match c.call(Request::Query {
        expr: CLASSES[class].1.to_string(),
        k: Some(PAGE),
    })? {
        (Response::QueryResult { ranking, .. }, ns) => Some(QueryRun { class, ranking, ns }),
        _ => c.reject("query"),
    }
}

/// What one client does for the length of the phase.
#[derive(Debug, Clone, Copy)]
pub enum Role {
    /// Sessions over clip ids `1..=recordings`; `index` of `of`
    /// session clients, so the clients interleave the clip cycle.
    Sessions { index: u64, of: u64, cap: usize },
    /// The query mix, starting `3 × index` classes in.
    Queries { index: usize, cap: usize },
}

/// Everything one client did in a phase.
pub struct ClientOut {
    pub client: Client,
    pub sessions: Vec<SessionRun>,
    pub queries: Vec<QueryRun>,
    pub wall_ns: u64,
}

/// Ground truth the session clients label with.
pub struct Truth<'a> {
    pub labels: &'a [Vec<bool>],
    pub queries: &'a [&'static str],
}

/// Runs every role on its own thread and connection, closed-loop, until
/// `seconds` pass or its cap is reached. A started session finishes.
pub fn drive(
    addr: SocketAddr,
    roles: &[Role],
    truth: &Truth,
    seconds: f64,
    record: bool,
) -> Vec<ClientOut> {
    let barrier = Barrier::new(roles.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = roles
            .iter()
            .map(|&role| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut client = Client::tcp(addr, record);
                    let (mut sessions, mut queries) = (Vec::new(), Vec::new());
                    barrier.wait();
                    let t0 = Instant::now();
                    let open =
                        |n: usize, cap: usize| n < cap && t0.elapsed().as_secs_f64() < seconds;
                    match role {
                        Role::Sessions { index, of, cap } => {
                            while open(sessions.len(), cap) {
                                let k = sessions.len() as u64 * of + index;
                                let r = (k % truth.labels.len() as u64) as usize;
                                sessions.push(session(
                                    &mut client,
                                    r as u64 + 1,
                                    truth.queries[r],
                                    &truth.labels[r],
                                ));
                            }
                        }
                        Role::Queries { index, cap } => {
                            let mut j = 0;
                            while open(j, cap) {
                                queries.extend(query(&mut client, (j + 3 * index) % CLASSES.len()));
                                j += 1;
                            }
                        }
                    }
                    ClientOut {
                        client,
                        sessions,
                        queries,
                        wall_ns: t0.elapsed().as_nanos() as u64,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}
