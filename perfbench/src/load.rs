//! Workload inputs and the load the benchmark puts on the embedded server:
//! seeded datasets turned into a record stream, the closed-loop
//! stop-and-wait clients, and the open-loop pipelined sender.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use multiem_datagen::benchmark_specs;
use multiem_embed::HashedLexicalEncoder;
use multiem_serve::http::{read_response, HttpClient};
use multiem_serve::{MatchServer, ServeConfig, ServerHandle};
use multiem_table::{Dataset, EntityId, Record, Value as AttrValue};
use serde::Value;

use crate::report::Tally;

/// A generated dataset as a record stream: sources interleaved round-robin,
/// each record with its JSON rendering and its ground-truth partners.
pub struct Stream {
    pub dataset: Dataset,
    /// Dataset id of each stream position.
    pub ids: Vec<EntityId>,
    pub records: Vec<Record>,
    /// JSON array of each record's attribute values.
    json: Vec<String>,
    /// Stream positions of each record's true partners.
    partners: Vec<Vec<usize>>,
}

impl Stream {
    /// Generate the `preset` at `scale` with the workload `seed` (which
    /// replaces the preset's own generator seed).
    pub fn generate(preset: &str, scale: f64, seed: u64) -> Self {
        let mut spec = benchmark_specs()
            .into_iter()
            .find(|spec| spec.name == preset)
            .expect("known datagen preset");
        spec.seed = seed;
        Self::from_dataset(spec.generate(scale))
    }

    fn from_dataset(dataset: Dataset) -> Self {
        let tables = dataset.tables();
        let longest = tables.iter().map(|t| t.len()).max().unwrap_or(0);
        let mut ids = Vec::with_capacity(dataset.total_entities());
        for row in 0..longest {
            for (source, table) in tables.iter().enumerate() {
                if row < table.len() {
                    ids.push(EntityId::new(source as u32, row as u32));
                }
            }
        }
        let records: Vec<Record> = ids
            .iter()
            .map(|&id| dataset.record(id).expect("id from the dataset").clone())
            .collect();
        let json = records.iter().map(record_json).collect();
        let position: HashMap<EntityId, usize> =
            ids.iter().enumerate().map(|(pos, &id)| (id, pos)).collect();
        let mut partners = vec![Vec::new(); ids.len()];
        if let Some(truth) = dataset.ground_truth() {
            for tuple in truth.tuples() {
                let members: Vec<usize> = tuple.members().iter().map(|id| position[id]).collect();
                for &a in &members {
                    partners[a].extend(members.iter().copied().filter(|&b| b != a));
                }
            }
        }
        Self {
            dataset,
            ids,
            records,
            json,
            partners,
        }
    }

    /// Attribute names of the dataset's schema.
    pub fn attributes(&self) -> Vec<String> {
        let schema = self.dataset.schema();
        (0..schema.len())
            .map(|a| schema.name(a).unwrap_or_default().to_string())
            .collect()
    }
}

/// `["text", 4.5, null]`: the record shape `POST /records` and `POST /match`
/// accept.
fn record_json(record: &Record) -> String {
    let values = record
        .values()
        .iter()
        .map(|v| match v {
            AttrValue::Text(s) => Value::Str(s.clone()),
            AttrValue::Number(x) if x.is_finite() => Value::Float(*x),
            _ => Value::Null,
        })
        .collect();
    serde_json::to_string(&Value::Seq(values)).expect("values render")
}

/// One request of a serve workload, naming a stream position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Insert(usize),
    Match(usize),
}

impl Op {
    /// The request's path and body.
    pub fn request(self, stream: &Stream) -> (&'static str, String) {
        match self {
            Op::Insert(pos) => (
                "/records",
                format!("{{\"records\":[{}]}}", stream.json[pos]),
            ),
            Op::Match(pos) => ("/match", format!("{{\"record\":{}}}", stream.json[pos])),
        }
    }
}

/// The exact bytes [`HttpClient::send`] writes for a request.
pub fn request_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: multiem\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// An embedded server: 2 workers, 1 I/O thread, the dataset's schema, and
/// every other setting at its default.
pub fn spawn_server(stream: &Stream, shards: usize, data_dir: Option<PathBuf>) -> ServerHandle {
    let config = ServeConfig {
        shards,
        workers: 2,
        io_threads: 1,
        attributes: stream.attributes(),
        data_dir,
        ..ServeConfig::default()
    };
    MatchServer::bind(config, HashedLexicalEncoder::default(), "127.0.0.1:0")
        .expect("bind embedded server")
        .spawn()
        .expect("spawn embedded server")
}

/// `GET /stats`, parsed.
pub fn fetch_stats(addr: &str) -> io::Result<Value> {
    let (status, body) = HttpClient::connect(addr)?.request("GET", "/stats", None)?;
    if status != 200 {
        return Err(io::Error::other(format!("/stats answered {status}")));
    }
    serde_json::from_str(&body).map_err(|e| io::Error::other(e.to_string()))
}

/// Look up `name` in a JSON object.
pub fn field<'a>(value: &'a Value, name: &str) -> Option<&'a Value> {
    value
        .as_map()?
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
}

/// `{"shard":..,"source":..,"row":..}` as a key.
fn server_id(value: &Value) -> Option<(u64, u64, u64)> {
    Some((
        field(value, "shard")?.as_u64()?,
        field(value, "source")?.as_u64()?,
        field(value, "row")?.as_u64()?,
    ))
}

/// What the clients learned from the server's answers: which stream
/// positions were acknowledged under which server ids, and for each match
/// query whether its top-1 answer was a true partner.
pub struct Book {
    ids: Mutex<HashMap<(u64, u64, u64), usize>>,
    acked: Vec<AtomicBool>,
    hit: Mutex<Vec<Option<bool>>>,
}

impl Book {
    pub fn new(len: usize) -> Self {
        Self {
            ids: Mutex::new(HashMap::new()),
            acked: (0..len).map(|_| AtomicBool::new(false)).collect(),
            hit: Mutex::new(vec![None; len]),
        }
    }

    /// Records acknowledged so far.
    pub fn acked(&self) -> usize {
        self.acked
            .iter()
            .filter(|a| a.load(Ordering::SeqCst))
            .count()
    }

    /// Scored queries whose top-1 answer was a true partner, and how many
    /// queries were scored.
    pub fn hits(&self) -> (usize, usize) {
        let hit = self.hit.lock().expect("book lock");
        let scored = hit.iter().flatten().count();
        let hits = hit.iter().flatten().filter(|&&h| h).count();
        (hits, scored)
    }

    /// Whether a query at `pos` can be scored: some true partner was
    /// acknowledged before the query was sent.
    fn scorable(&self, stream: &Stream, pos: usize) -> bool {
        stream.partners[pos]
            .iter()
            .any(|&p| self.acked[p].load(Ordering::SeqCst))
    }

    /// Check one answer and record what it says. Returns whether it was a
    /// well-formed 2xx answer.
    fn absorb(&self, stream: &Stream, op: Op, scorable: bool, status: u16, body: &str) -> bool {
        if !(200..300).contains(&status) {
            return false;
        }
        let Ok(value) = serde_json::from_str::<Value>(body) else {
            return false;
        };
        match op {
            Op::Insert(pos) => {
                let Some(id) = field(&value, "results")
                    .and_then(Value::as_seq)
                    .and_then(|r| r.first())
                    .and_then(server_id)
                else {
                    return false;
                };
                self.ids.lock().expect("book lock").insert(id, pos);
                self.acked[pos].store(true, Ordering::SeqCst);
                true
            }
            Op::Match(pos) => {
                let Some(matches) = field(&value, "matches").and_then(Value::as_seq) else {
                    return false;
                };
                let top = match matches.first() {
                    None => None,
                    Some(m) => match server_id(m) {
                        Some(id) => self.ids.lock().expect("book lock").get(&id).copied(),
                        None => return false,
                    },
                };
                if scorable {
                    let hit = top.is_some_and(|t| stream.partners[pos].contains(&t));
                    self.hit.lock().expect("book lock")[pos] = Some(hit);
                }
                true
            }
        }
    }
}

/// Client-side timings of one load phase.
#[derive(Debug, Default)]
pub struct Timings {
    /// `POST /records` latencies.
    pub write_ns: Vec<u64>,
    /// `POST /match` latencies.
    pub read_ns: Vec<u64>,
    /// How late each request was sent after it was due.
    pub late_ns: Vec<u64>,
    pub tally: Tally,
    pub elapsed: Duration,
}

impl Timings {
    pub fn merge(&mut self, other: Timings) {
        self.write_ns.extend(other.write_ns);
        self.read_ns.extend(other.read_ns);
        self.late_ns.extend(other.late_ns);
        self.tally.add(other.tally);
    }
}

/// A duration in nanoseconds, saturated into a `u64`.
pub fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Closed loop: `clients` stop-and-wait connections take the next op in
/// turn until `ops` runs out or, when `until` is set, cycle through `ops`
/// until that instant. A request is due when the client's previous answer
/// arrived.
pub fn closed_loop(
    addr: &str,
    clients: usize,
    ops: &[Op],
    until: Option<Instant>,
    stream: &Stream,
    book: &Book,
) -> Timings {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let mut total = Timings::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Timings::default();
                    let mut client = match HttpClient::connect(addr) {
                        Ok(client) => client,
                        Err(_) => {
                            out.tally.record(false);
                            return out;
                        }
                    };
                    let mut due = Instant::now();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let op = match until {
                            Some(deadline) if Instant::now() >= deadline => break,
                            Some(_) => ops[i % ops.len()],
                            None if i >= ops.len() => break,
                            None => ops[i],
                        };
                        let (path, body) = op.request(stream);
                        let scorable = matches!(op, Op::Match(pos) if book.scorable(stream, pos));
                        let sent = Instant::now();
                        out.late_ns.push(ns(sent - due));
                        let answer = client.request("POST", path, Some(&body));
                        due = Instant::now();
                        let ok = match &answer {
                            Ok((status, text)) => book.absorb(stream, op, scorable, *status, text),
                            Err(_) => false,
                        };
                        out.tally.record(ok);
                        match op {
                            Op::Insert(_) => out.write_ns.push(ns(due - sent)),
                            Op::Match(_) => out.read_ns.push(ns(due - sent)),
                        }
                        if answer.is_err() {
                            // The connection is in an unknown state.
                            match HttpClient::connect(addr) {
                                Ok(fresh) => client = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        for worker in workers {
            total.merge(worker.join().expect("client thread"));
        }
    });
    total.elapsed = started.elapsed();
    total
}

/// Open loop: one sender writes `ops` (cycled) on a schedule of `rate`
/// requests per second for `duration`, pipelined on one keep-alive
/// connection, while one reader takes the answers in order. Each latency
/// runs from when the request was due, so a stall also delays every
/// request scheduled behind it.
pub fn open_loop(
    addr: &str,
    rate: f64,
    duration: Duration,
    ops: &[Op],
    stream: &Stream,
    book: &Book,
) -> io::Result<Timings> {
    let writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    let reader = writer.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_secs(30)))?;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let count = (duration.as_secs_f64() * rate).floor() as usize;
    let (due_tx, due_rx) = mpsc::channel::<(Op, bool, Instant)>();
    let started = Instant::now();
    let mut out = Timings::default();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut writer = writer;
            let mut late_ns = Vec::with_capacity(count);
            for i in 0..count {
                let op = ops[i % ops.len()];
                let (path, body) = op.request(stream);
                let bytes = request_bytes(path, &body);
                let scorable = matches!(op, Op::Match(pos) if book.scorable(stream, pos));
                let due = started + interval * i as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late_ns.push(ns(Instant::now() - due));
                if due_tx.send((op, scorable, due)).is_err() || writer.write_all(&bytes).is_err() {
                    break;
                }
            }
            late_ns
        });
        let mut reader = BufReader::new(reader);
        for (op, scorable, due) in due_rx {
            let answer = read_response(&mut reader);
            let latency = ns(Instant::now() - due);
            let ok = match &answer {
                Ok((status, _, text)) => book.absorb(stream, op, scorable, *status, text),
                Err(_) => false,
            };
            out.tally.record(ok);
            match op {
                Op::Insert(_) => out.write_ns.push(latency),
                Op::Match(_) => out.read_ns.push(latency),
            }
            if answer.is_err() {
                break;
            }
        }
        out.late_ns = sender.join().expect("sender thread");
    });
    // Requests sent but never answered count as failures.
    let answered = out.tally.attempted as usize;
    for _ in answered..out.late_ns.len() {
        out.tally.record(false);
    }
    out.elapsed = started.elapsed();
    Ok(out)
}

/// CPU time (user + system, every thread) this process has used, in
/// seconds. `/proc/self/stat` counts it in clock ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of them.
    let rest = stat.rfind(')').map_or("", |end| &stat[end + 1..]);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// CPU time the hypervisor took from this machine (the `steal` column of
/// `/proc/stat`, summed over CPUs), in seconds.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse::<u64>().ok())
        .unwrap_or(0);
    ticks as f64 / 100.0
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiem_serve::http::{render_response, RequestParser};
    use std::io::Read;
    use std::net::TcpListener;

    /// A stub `/match` server answering `{"matches":[]}` at once, except
    /// that it sits on request `stall_at` for `stall` before answering.
    fn stub_server(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr").to_string();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut parser = RequestParser::new();
            let mut buf = [0u8; 4096];
            let mut served = 0usize;
            loop {
                while let Some(_request) = parser.try_next().expect("valid request") {
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    served += 1;
                    let response = render_response(200, "OK", "{\"matches\":[]}", false, &[]);
                    conn.write_all(&response).expect("answer");
                }
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => parser.feed(&buf[..n]),
                }
            }
        });
        (addr, handle)
    }

    fn tiny_stream() -> Stream {
        let spec = benchmark_specs()
            .into_iter()
            .find(|s| s.name == "geo")
            .expect("geo preset");
        Stream::from_dataset(spec.generate(0.01))
    }

    #[test]
    fn open_loop_latency_absorbs_a_stall_in_later_samples() {
        let stream = tiny_stream();
        let book = Book::new(stream.ids.len());
        let stall = Duration::from_millis(200);
        let (addr, server) = stub_server(5, stall);
        let ops = [Op::Match(0)];
        // 100 req/s for 0.6 s: requests 6..=24 fall due while request 5 stalls.
        let out = open_loop(
            &addr,
            100.0,
            Duration::from_millis(600),
            &ops,
            &stream,
            &book,
        )
        .expect("open loop");
        server.join().expect("stub thread");
        assert_eq!((out.tally.attempted, out.tally.failed), (60, 0));
        let ms: Vec<f64> = out.read_ns.iter().map(|&n| n as f64 / 1e6).collect();
        // The stalled request itself waits the whole stall...
        assert!(ms[5] >= 195.0, "stalled request took {} ms", ms[5]);
        // ...and each request due during it waits out the rest of it: the
        // request due 10 ms later waits ~190 ms, 100 ms later ~100 ms.
        for (i, &latency) in ms.iter().enumerate().take(24).skip(6) {
            let remaining = 200.0 - 10.0 * (i as f64 - 5.0);
            assert!(
                latency >= remaining - 5.0,
                "request {i}: {latency} ms < {remaining} ms"
            );
        }
        // Requests due after the stall are fast again.
        assert!(ms[40] < 50.0, "request 40 took {} ms", ms[40]);
        // The sender kept to its schedule during the stall.
        assert!(out.late_ns.iter().all(|&n| n < 50_000_000));
    }

    #[test]
    fn stream_interleaves_sources_and_links_partners() {
        let stream = tiny_stream();
        assert_eq!(stream.ids.len(), stream.dataset.total_entities());
        // Round-robin: the first positions walk the sources in order.
        let first: Vec<u32> = stream.ids.iter().take(4).map(|id| id.source).collect();
        assert_eq!(first, [0, 1, 2, 3]);
        for (pos, partners) in stream.partners.iter().enumerate() {
            for &p in partners {
                assert!(stream.partners[p].contains(&pos), "partners are symmetric");
            }
        }
        assert!(stream.partners.iter().any(|p| !p.is_empty()));
        let json: Value = serde_json::from_str(&stream.json[0]).expect("record json");
        assert_eq!(
            json.as_seq().map(<[Value]>::len),
            Some(stream.records[0].arity())
        );
    }
}
