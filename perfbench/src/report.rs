//! The run's result: operation counts, metrics, and the output format
//! (a human table, then one JSON object as the last stdout line).

use crate::stats::{median, quantile, Summary};
use serde_json::{Map, Value};

/// The drift probe's time on the host the bounds were set on (a 2-core
/// x86-64 VM), in milliseconds. Timing metrics are scaled to this host
/// speed; only ratios of them are ever compared, so the constant sets the
/// scale, not the verdict.
pub const REFERENCE_HOST_MS: f64 = 6.0;

/// Host times taken across a run, each kept as measured and as scaled to
/// the reference host by the drift-probe reading taken just before it.
/// The host's speed changes within seconds, so each reading is scaled by
/// the probe nearest to it rather than by a run-wide factor.
#[derive(Debug, Default)]
pub struct HostTimes {
    /// Seconds as measured.
    pub raw: Vec<f64>,
    /// Seconds scaled to the reference host.
    pub scaled: Vec<f64>,
}

impl HostTimes {
    fn push(&mut self, secs: f64, probe_ms: f64) {
        self.raw.push(secs);
        self.scaled.push(secs * REFERENCE_HOST_MS / probe_ms);
    }
}

/// What a timed run measured, for [`Report::end_to_end`]. The drift probe
/// runs before every pass.
#[derive(Debug, Default)]
pub struct Timed {
    /// Drift-probe readings, milliseconds.
    pub probes: Vec<f64>,
    /// Seconds per pass.
    pub passes: HostTimes,
    /// Seconds the requests of each pass ran over.
    pub busy: HostTimes,
    /// Seconds per request.
    pub requests: HostTimes,
    /// Seconds per set-up reading.
    pub setup: HostTimes,
}

impl Timed {
    /// Run the drift probe; call before each pass.
    pub fn probe(&mut self) {
        self.probes.push(crate::stats::host_ref_ms());
    }

    /// Record a pass of `secs` whose requests took `requests` seconds
    /// each and ran over `busy` seconds (`secs` itself in the batch
    /// workloads).
    pub fn pass(&mut self, secs: f64, busy: f64, requests: impl IntoIterator<Item = f64>) {
        let probe = self.last_probe();
        self.passes.push(secs, probe);
        self.busy.push(busy, probe);
        for r in requests {
            self.requests.push(r, probe);
        }
    }

    /// Record a set-up reading taken after the last pass.
    pub fn setup(&mut self, secs: f64) {
        let probe = self.last_probe();
        self.setup.push(secs, probe);
    }

    fn last_probe(&self) -> f64 {
        *self
            .probes
            .last()
            .expect("the probe runs before every pass")
    }
}

/// Mean of a sample. `wall_s` is a mean, not a median: within a run the
/// host switches between a fast and a slow state whose scaled pass times
/// differ, and the median of such a two-humped sample jumps with the share
/// of passes in each state, where the mean moves in proportion to it.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Six decimals, or six significant digits for values below 0.001.
fn num(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.5e}")
    } else {
        format!("{v:.6}")
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (experiment runs, requests, output checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Count `n` attempted operations of which `bad` failed.
    pub fn ops(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Record one metric value as given.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record the end-to-end metrics every workload reports, each scaled
    /// to the reference host: `wall_s`, the mean seconds per pass (a fixed
    /// amount of work); `req_per_s`, requests completed per second of
    /// measured time; `p50_ms` and `p99_ms` over single requests; and
    /// `setup_s`, the median set-up reading. A request is one experiment
    /// run in the batch workloads and one round trip to the daemon in
    /// `serve-mix`. The table keeps the figures as measured beside them.
    pub fn end_to_end(&mut self, t: &Timed) {
        let probe = Summary::of(&t.probes);
        self.note(format!(
            "bench.host_ref_ms: median {:.4} ms, q1 {:.4}, q3 {:.4}, n {}; each reading below \
             is scaled by {REFERENCE_HOST_MS} ms over the probe reading taken just before it",
            probe.median, probe.q1, probe.q3, probe.n
        ));
        let passes = t.passes.scaled.len();
        self.metric("wall_s", mean(&t.passes.scaled), "s");
        self.note(format!(
            "wall_s: as measured mean {} s over {passes} passes",
            num(mean(&t.passes.raw))
        ));
        self.note_raw("wall_s", Summary::of(&t.passes.raw), 1.0, "s");
        let n = t.requests.raw.len() as f64;
        self.metric("req_per_s", n / t.busy.scaled.iter().sum::<f64>(), "1/s");
        self.note(format!(
            "req_per_s: as measured {} 1/s",
            num(n / t.busy.raw.iter().sum::<f64>())
        ));
        self.metric("p50_ms", median(&t.requests.scaled) * 1e3, "ms");
        self.note_raw("p50_ms", Summary::of(&t.requests.raw), 1e3, "ms");
        self.metric("p99_ms", quantile(&t.requests.scaled, 0.99) * 1e3, "ms");
        self.note(format!(
            "p99_ms: as measured {} ms; {n} requests over {passes} passes, {} beyond p99",
            num(quantile(&t.requests.raw, 0.99) * 1e3),
            t.requests.raw.len() / 100
        ));
        self.metric("setup_s", median(&t.setup.scaled), "s");
        self.note_raw("setup_s", Summary::of(&t.setup.raw), 1.0, "s");
    }

    fn note_raw(&mut self, name: &str, s: Summary, scale: f64, unit: &str) {
        self.note(format!(
            "{name}: as measured median {} {unit}, q1 {}, q3 {}, n {}",
            num(s.median * scale),
            num(s.q1 * scale),
            num(s.q3 * scale),
            s.n
        ));
    }

    /// A free-form line for the human table.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The human table: every metric by name with its unit, then notes.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("{name:<44} {:>16} {unit}\n", num(*value)));
        }
        for n in &self.notes {
            out.push_str(&format!("  {n}\n"));
        }
        out.push_str(&format!(
            "operations: {} attempted, {} failed\n",
            self.attempted, self.failed
        ));
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let mut metrics = Map::new();
        for (name, value, unit) in &self.metrics {
            let mut m = Map::new();
            m.insert("value", Value::from(*value));
            m.insert("unit", Value::from(*unit));
            metrics.insert(name.clone(), Value::Object(m));
        }
        let mut root = Map::new();
        root.insert("correct", Value::from(self.failed == 0));
        root.insert("attempted", Value::from(self.attempted));
        root.insert("failed", Value::from(self.failed));
        root.insert("metrics", Value::Object(metrics));
        serde_json::to_string(&Value::Object(root))
    }
}
