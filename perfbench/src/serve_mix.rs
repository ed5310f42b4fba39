//! `serve-mix`: an in-process `ifsim-serve` daemon on a Unix socket,
//! driven by a closed loop of two client connections (each sends its next
//! request only after the previous answer arrives). The request mix is
//! fixed by the seed: mostly warm cache hits on small `run` requests, a
//! small share of inline uploads of one large trace-replay scenario, and a
//! small share of cold misses on fresh seeds that compute and write to the
//! disk store.

use crate::report::{Report, Timed};
use crate::spans::span;
use crate::stats::{quantile, secs_since, SplitMix64};
use ifsim_core::{registry, BenchConfig};
use ifsim_scenario::{ConfigSection, GeneratorSpec, Scenario, Workload};
use ifsim_serve::{
    ConfigOverrides, RunRequest, RunResponse, ServeAddr, ServeOptions, Server, ServerCore, Status,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop client connections.
pub const CONNECTIONS: usize = 2;

/// The request mix: each connection sends blocks of `BLOCK` requests
/// holding exactly `UPLOADS_PER_BLOCK` uploads and `COLDS_PER_BLOCK` cold
/// misses at seeded positions; the rest are warm hits. Fixed shares make
/// every pass of whole blocks the same amount of work, whatever the seed.
const BLOCK: usize = 200;
const UPLOADS_PER_BLOCK: usize = 3;
const COLDS_PER_BLOCK: usize = 1;

/// Requests in one pass: `wall_s` is the time the daemon takes to answer
/// this many requests of the mix, from each window's throughput.
const PASS_REQUESTS: f64 = 1000.0;

/// The cheap experiment cold misses compute (a fresh seed each time).
const COLD_ID: &str = "fig6a";

/// Kind of a request in the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Small `run` request answered from the warm cache.
    Hit,
    /// Inline upload of the large trace-replay scenario (cached result,
    /// but parsed and compiled on every request).
    Upload,
    /// Cold miss on a fresh seed: compute plus a disk-store write.
    Cold,
}

/// Every generated input of one run, fixed by the workload seed.
pub struct Inputs {
    /// `(request line, expected CSVs)` for the warm set.
    pub warm: Vec<(String, Vec<(String, String)>)>,
    /// The upload request line.
    pub upload_line: String,
    /// The scenario document inside it, as text.
    pub upload_scenario: String,
    /// Expected CSVs of the upload.
    pub upload_csv: Vec<(String, String)>,
    seed: u64,
}

/// The warm set: small quick-config requests; the first is `fig6b` at the
/// golden configuration, the run the batch workloads pin to `golden/`.
fn warm_requests(seed: u64) -> Vec<RunRequest> {
    let mut rng = SplitMix64::new(seed ^ 0x3A4F);
    let mut reqs = vec![quick_request("fig6b", crate::DEFAULT_SEED, Some(1))];
    for id in ["fig6a", "fig6b", "fig6c", "fig7", "table1"] {
        reqs.push(quick_request(id, rng.next_u64() >> 1, None));
    }
    reqs
}

fn quick_request(id: &str, seed: u64, reps: Option<usize>) -> RunRequest {
    RunRequest {
        overrides: ConfigOverrides {
            quick: true,
            seed: Some(seed),
            reps,
            ..ConfigOverrides::default()
        },
        ..RunRequest::new(id)
    }
}

/// The large upload: a seeded MoE all-to-all trace over all eight GCDs,
/// expanded into 2,560 explicit records (about 270 KB of JSON on one
/// line), in a seed-shuffled order — replay is order-independent.
pub fn upload_scenario(seed: u64) -> Scenario {
    let mut rng = SplitMix64::new(seed ^ 0x0B10AD);
    let spec = GeneratorSpec::MoeAllToAll {
        ranks: 8,
        bytes_per_pair: (64 + rng.below(192)) << 10,
        steps: 20,
        compute_bytes: (1 + rng.below(4)) << 20,
    };
    let mut records = ifsim_scenario::generators::expand(&spec);
    for i in (1..records.len()).rev() {
        records.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Scenario {
        name: "perfbench-upload".into(),
        title: "perfbench inline upload".into(),
        description: "Seeded MoE all-to-all trace uploaded inline".into(),
        topology: "frontier".into(),
        config: ConfigSection {
            reps: Some(1),
            warmup: Some(0),
            ..ConfigSection::default()
        },
        calib: Vec::new(),
        faults: Vec::new(),
        workload: Workload::Trace { records },
        sweep: Vec::new(),
    }
}

/// Wire line of a request.
pub fn line(req: &RunRequest) -> String {
    serde_json::to_string(&req.to_json())
}

/// In-process run of the same request: the CSVs a correct server returns.
pub fn expected_csv(req: &RunRequest) -> Vec<(String, String)> {
    let cfg: BenchConfig = req.overrides.resolve().expect("valid overrides");
    let exp = match &req.scenario {
        Some(doc) => Scenario::from_json(doc)
            .and_then(|s| ifsim_scenario::compile(&s))
            .expect("upload scenario compiles"),
        None => registry::by_id(&req.experiment_id).expect("registered"),
    };
    exp.run(&cfg).csv
}

fn cold_request(seed: u64) -> RunRequest {
    quick_request(COLD_ID, seed, Some(1))
}

impl Inputs {
    /// Generate every input for workload seed `seed` and compute the
    /// expected answers in process.
    pub fn generate(seed: u64) -> Inputs {
        let warm = warm_requests(seed)
            .iter()
            .map(|r| (line(r), expected_csv(r)))
            .collect();
        let scenario = upload_scenario(seed);
        let doc = scenario.to_json();
        let upload = RunRequest {
            scenario: Some(doc.clone()),
            ..RunRequest::new("")
        };
        Inputs {
            warm,
            upload_line: line(&upload),
            upload_scenario: serde_json::to_string(&doc),
            upload_csv: expected_csv(&upload),
            seed,
        }
    }

    /// Seed of cold request number `i` of client `client` (`i` carries the
    /// window's round in its upper bits): distinct within a run.
    fn cold_seed(&self, client: usize, i: u64) -> u64 {
        (self.seed << 24) ^ ((client as u64 + 1) << 48) ^ (i + 1)
    }
}

/// A raw NDJSON connection: the benchmark sends prepared lines, so client
/// serialisation of the large upload is not timed.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    buf: String,
}

impl Client {
    /// Connect to `path`.
    pub fn connect(path: &Path) -> std::io::Result<Client> {
        let s = UnixStream::connect(path)?;
        Ok(Client {
            writer: s.try_clone()?,
            reader: BufReader::new(s),
            buf: String::new(),
        })
    }

    /// Send one line and return the response line.
    pub fn send(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.buf.trim_end())
    }
}

/// A bound daemon on its own thread, plus its client connections.
pub struct Daemon {
    /// The shared server core (for in-process probes and cache counters).
    pub core: Arc<ServerCore>,
    /// Connected clients.
    pub clients: Vec<Client>,
    socket: PathBuf,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Bind a fresh daemon under `dir` (socket plus cache directory),
    /// connect the clients and fill the cache with the warm set and the
    /// upload. Returns the daemon and the fill's request failures.
    pub fn start(dir: &Path, inputs: &Inputs) -> std::io::Result<(Daemon, u64)> {
        std::fs::create_dir_all(dir)?;
        let socket = dir.join("serve.sock");
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let opts = ServeOptions {
            workers: nproc.min(CONNECTIONS),
            cache_dir: Some(dir.join("cache")),
            ..ServeOptions::default()
        };
        let server = span("serve.bind", || {
            Server::bind(ServeAddr::Unix(socket.clone()), opts)
        })?;
        let core = server.core();
        let thread = std::thread::spawn(move || server.run());
        let clients = (0..CONNECTIONS)
            .map(|_| Client::connect(&socket))
            .collect::<std::io::Result<Vec<_>>>()?;
        let mut d = Daemon {
            core,
            clients,
            socket,
            thread: Some(thread),
        };
        let mut bad = 0;
        let c = &mut d.clients[0];
        for (l, want) in &inputs.warm {
            bad += u64::from(!matches(c.send(l)?, want));
        }
        bad += u64::from(!matches(c.send(&inputs.upload_line)?, &inputs.upload_csv));
        Ok((d, bad))
    }

    /// Shut the daemon down (graceful drain) and wait for it.
    pub fn stop(mut self) -> std::io::Result<()> {
        let resp = self.clients[0].send(r#"{"op":"shutdown"}"#)?.to_string();
        if !resp.contains("\"draining\":true") {
            return Err(std::io::Error::other(format!(
                "bad shutdown answer: {resp}"
            )));
        }
        self.clients.clear();
        let outcome = self
            .thread
            .take()
            .expect("daemon thread joined once")
            .join()
            .map_err(|_| std::io::Error::other("daemon thread panicked"))?;
        outcome?;
        if self.socket.exists() {
            return Err(std::io::Error::other("socket left behind after drain"));
        }
        Ok(())
    }
}

/// Whether a response line is an ok answer carrying exactly `want`.
fn matches(resp: &str, want: &[(String, String)]) -> bool {
    match parse_response(resp) {
        Some(r) if r.status == Status::Ok => r.csv == want,
        _ => false,
    }
}

fn parse_response(resp: &str) -> Option<RunResponse> {
    serde_json::from_str(resp)
        .ok()
        .and_then(|v| RunResponse::from_json(&v).ok())
}

/// One completed request of the mix.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// What was asked.
    pub kind: Kind,
    /// Send-to-answer latency, seconds.
    pub secs: f64,
}

/// What one closed-loop window produced.
#[derive(Default)]
pub struct Window {
    /// Every completed request.
    pub samples: Vec<Sample>,
    /// Window length, seconds.
    pub secs: f64,
    /// Requests whose answer was wrong or an error.
    pub failed: u64,
    /// `Overloaded` answers retried.
    pub overloaded_retries: u64,
    /// `(seed, CSVs)` of cold answers, checked in process afterwards.
    pub cold: Vec<(u64, Vec<(String, String)>)>,
}

impl Window {
    /// Fold `other` in (its requests, failures and duration).
    pub fn absorb(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.secs += other.secs;
        self.failed += other.failed;
        self.overloaded_retries += other.overloaded_retries;
        self.cold.extend(other.cold);
    }

    /// Latencies of one kind (or all), seconds.
    pub fn latencies(&self, kind: Option<Kind>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| kind.is_none_or(|k| s.kind == k))
            .map(|s| s.secs)
            .collect()
    }
}

/// Per-client request state: its mix generator, the current block and
/// the cold-seed counter.
struct Mix {
    rng: SplitMix64,
    client: usize,
    cold_next: u64,
    block: Vec<Kind>,
    pos: usize,
}

impl Mix {
    fn new(seed: u64, client: usize, round: u64) -> Mix {
        Mix {
            rng: SplitMix64::new(seed ^ ((client as u64) << 32) ^ (round << 40) ^ 0x5E7E),
            client,
            cold_next: round << 32,
            block: Vec::new(),
            pos: 0,
        }
    }

    fn next(&mut self, inputs: &Inputs) -> (Kind, usize, u64) {
        if self.pos == self.block.len() {
            self.block = std::iter::repeat_n(Kind::Upload, UPLOADS_PER_BLOCK)
                .chain(std::iter::repeat_n(Kind::Cold, COLDS_PER_BLOCK))
                .chain(std::iter::repeat(Kind::Hit))
                .take(BLOCK)
                .collect();
            for i in (1..BLOCK).rev() {
                self.block.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
            self.pos = 0;
        }
        let kind = self.block[self.pos];
        self.pos += 1;
        match kind {
            Kind::Upload => (Kind::Upload, 0, 0),
            Kind::Cold => {
                self.cold_next += 1;
                (Kind::Cold, 0, inputs.cold_seed(self.client, self.cold_next))
            }
            Kind::Hit => (
                Kind::Hit,
                self.rng.below(inputs.warm.len() as u64) as usize,
                0,
            ),
        }
    }
}

/// Drive the mix over every connection until `seconds` pass, or until
/// each connection has sent `per_client` requests when that is given.
/// `round` separates the cold seeds of successive windows in one run.
pub fn window(
    d: &mut Daemon,
    inputs: &Inputs,
    seconds: f64,
    per_client: Option<usize>,
    round: u64,
) -> Window {
    let t0 = Instant::now();
    let parts: Vec<Window> = std::thread::scope(|s| {
        let handles: Vec<_> = d
            .clients
            .iter_mut()
            .enumerate()
            .map(|(ci, c)| {
                s.spawn(move || {
                    let mut w = Window::default();
                    let mut mix = Mix::new(inputs.seed, ci, round);
                    while per_client.map_or(secs_since(t0) < seconds, |n| w.samples.len() < n) {
                        let (kind, warm_idx, cold_seed) = mix.next(inputs);
                        let cold_line;
                        let l: &str = match kind {
                            Kind::Hit => &inputs.warm[warm_idx].0,
                            Kind::Upload => &inputs.upload_line,
                            Kind::Cold => {
                                cold_line = line(&cold_request(cold_seed));
                                &cold_line
                            }
                        };
                        // Latency runs from the first send: an `Overloaded`
                        // answer is retried at once, and the wait counts.
                        let t = Instant::now();
                        let resp = loop {
                            let resp = span("serve.request", || c.send(l).map(str::to_string));
                            let resp = resp.ok().and_then(|r| parse_response(&r));
                            if resp
                                .as_ref()
                                .is_some_and(|r| r.status == Status::Overloaded)
                            {
                                w.overloaded_retries += 1;
                                continue;
                            }
                            break resp;
                        };
                        w.samples.push(Sample {
                            kind,
                            secs: secs_since(t),
                        });
                        // Hits and uploads must come from the cache, cold
                        // requests must miss it: the mix is what it claims.
                        let ok = match (kind, resp) {
                            (_, None) => false,
                            (_, Some(r)) if r.status != Status::Ok => false,
                            (Kind::Hit, Some(r)) => r.cached && r.csv == inputs.warm[warm_idx].1,
                            (Kind::Upload, Some(r)) => r.cached && r.csv == inputs.upload_csv,
                            (Kind::Cold, Some(r)) => {
                                let fresh = !r.cached;
                                w.cold.push((cold_seed, r.csv));
                                fresh
                            }
                        };
                        w.failed += u64::from(!ok);
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Window::default();
    for p in parts {
        all.absorb(p);
    }
    all.secs = secs_since(t0);
    all
}

/// Check every cold answer against an in-process run of the same
/// request; returns the number that differ.
pub fn verify_cold(w: &Window) -> u64 {
    w.cold
        .iter()
        .filter(|(seed, csv)| expected_csv(&cold_request(*seed)) != *csv)
        .count() as u64
}

/// The run's scratch directory: inside the working directory, unique to
/// this process, removed at exit.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(format!(".perfbench/tmp-{}", std::process::id()))
}

/// Time one set-up — bind a fresh daemon on an empty cache, connect,
/// fill the cache — and return the daemon with the seconds it took.
fn timed_start(dir: &Path, inputs: &Inputs, rep: &mut Report) -> std::io::Result<(Daemon, f64)> {
    let t0 = Instant::now();
    let (d, bad) = Daemon::start(dir, inputs)?;
    let secs = secs_since(t0);
    rep.ops(inputs.warm.len() as u64 + 1, bad);
    Ok((d, secs))
}

/// Note what the measured windows held, by kind of request.
fn note_mix(w: &Window, rep: &mut Report) {
    let uploads = w.latencies(Some(Kind::Upload));
    let counts: BTreeMap<Kind, usize> = w.samples.iter().fold(BTreeMap::new(), |mut m, s| {
        *m.entry(s.kind).or_default() += 1;
        m
    });
    rep.note(format!(
        "serve-mix: {} requests in {:.3} s over {CONNECTIONS} connections (closed loop); \
         by kind {counts:?}; upload p99 {:.3} ms as measured over {} uploads \
         (recorded per layer as serve.upload_p99_ms)",
        w.samples.len(),
        w.secs,
        quantile(&uploads, 0.99) * 1e3,
        uploads.len(),
    ));
}

/// Length of one measured window; the drift probe runs between windows.
/// Windows end on time, not on a request count, so neither connection
/// idles while the other finishes its share.
const WINDOW_SECS: f64 = 1.0;

/// Unmeasured warm-up: a fresh daemon's first seconds run slower.
const WARMUP_SECS: f64 = 2.0;

/// Windows per extra set-up reading: a second daemon is started, timed
/// and stopped between windows, so `setup_s` spans the run's drift.
const WINDOWS_PER_SETUP: u64 = 2;

/// Peak RSS so far, noting how many measured requests preceded it.
fn read_rss(total: &Window, rep: &mut Report) -> std::io::Result<f64> {
    let rss = crate::stats::peak_rss_mb()
        .ok_or_else(|| std::io::Error::other("peak RSS unavailable (/proc/self/status)"))?;
    rep.note(format!(
        "peak_rss_mb: read after {} measured requests",
        total.samples.len()
    ));
    Ok(rss)
}

/// Measured requests after which `peak_rss_mb` is read. The daemon's
/// memory grows with the requests it has answered, so the reading is
/// taken after a fixed number of them, not at the end of a run whose
/// length in requests follows the host's speed.
const RSS_AT_REQUESTS: usize = 25_000;

/// The timed run: set-up, a warm-up window, then one-second windows
/// until `seconds` have been measured, the drift probe before each and a
/// set-up reading after every second one. Returns the peak RSS in MiB,
/// read once `RSS_AT_REQUESTS` requests have been measured (at the end,
/// on a host too slow to reach them).
pub fn run(seed: u64, seconds: f64, rep: &mut Report) -> std::io::Result<f64> {
    let inputs = Inputs::generate(seed);
    let dir = scratch_dir();
    let result = (|| {
        // The first set-up runs before any probe reading, on a cold
        // process; only the readings between windows count.
        let (mut d, _) = timed_start(&dir.join("serve"), &inputs, rep)?;
        let warm = window(&mut d, &inputs, WARMUP_SECS, None, 0);
        rep.ops(warm.samples.len() as u64, warm.failed + verify_cold(&warm));
        let mut total = Window::default();
        let mut timed = Timed::default();
        let mut rss = None;
        let mut round = 0;
        while total.secs < seconds {
            timed.probe();
            round += 1;
            let w = window(&mut d, &inputs, WINDOW_SECS, None, round);
            let per_pass = w.secs * PASS_REQUESTS / w.samples.len() as f64;
            timed.pass(per_pass, w.secs, w.latencies(None));
            total.absorb(w);
            if rss.is_none() && total.samples.len() >= RSS_AT_REQUESTS {
                rss = Some(read_rss(&total, rep)?);
            }
            if round % WINDOWS_PER_SETUP == 0 {
                let extra = dir.join(format!("setup-{round}"));
                let (other, secs) = timed_start(&extra, &inputs, rep)?;
                timed.setup(secs);
                other.stop()?;
                std::fs::remove_dir_all(&extra)?;
            }
        }
        rep.ops(total.samples.len() as u64, total.failed);
        rep.ops(total.cold.len() as u64, verify_cold(&total));
        rep.end_to_end(&timed);
        note_mix(&total, rep);
        let rss = match rss {
            Some(r) => r,
            None => read_rss(&total, rep)?,
        };
        d.stop()?;
        Ok(rss)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}
