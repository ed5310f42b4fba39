//! `collectives-tiers`: the collective-heavy experiments and two golden
//! scenarios, each run at the three telemetry levels a user can pick —
//! plain (`run`), metrics (`run_instrumented`, what `--csv` pays) and dag
//! (`run_instrumented_dag` plus `critpath::report`). Buffers are phantom,
//! so the memory layer does almost nothing here.

use crate::report::{Report, Timed};
use crate::spans::span;
use crate::stats::{secs_since, PerCall, Summary};
use ifsim_core::telemetry::{critpath, CollectedTelemetry};
use ifsim_core::{registry, BenchConfig, Experiment};
use std::time::Instant;

/// Registry experiments in the set.
pub const REGISTRY_IDS: [&str; 5] = ["fig6b", "fig11", "fig12", "ext-coll-sweep", "ext-a2a"];

/// Golden scenario files compiled at set-up (relative to the repository
/// root).
pub const SCENARIO_FILES: [&str; 2] = [
    "golden/scenarios/collectives.json",
    "golden/scenarios/moe-alltoall.json",
];

/// Top-K binding intervals requested from the critical-path report.
pub const CRITPATH_TOP_K: usize = 5;

/// A telemetry level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// `Experiment::run`.
    Plain,
    /// `Experiment::run_instrumented`.
    Metrics,
    /// `Experiment::run_instrumented_dag` plus `critpath::report`.
    Dag,
}

impl Level {
    /// All levels, in the order a pass runs them.
    pub const ALL: [Level; 3] = [Level::Plain, Level::Metrics, Level::Dag];

    /// The level's name in the run's table.
    pub fn name(self) -> &'static str {
        match self {
            Level::Plain => "plain",
            Level::Metrics => "metrics",
            Level::Dag => "dag",
        }
    }
}

/// Read, parse and compile one scenario file.
pub fn compile_file(path: &str) -> Experiment {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let s = span("scenario.parse", || {
        ifsim_scenario::Scenario::from_str(&text)
    })
    .unwrap_or_else(|e| panic!("parse {path}: {e}"));
    span("scenario.compile", || ifsim_scenario::compile(&s))
        .unwrap_or_else(|e| panic!("compile {path}: {e}"))
}

/// The experiment set: the registry entries, then the compiled scenarios.
pub fn experiments() -> Vec<Experiment> {
    let mut exps: Vec<Experiment> = REGISTRY_IDS
        .iter()
        .map(|id| registry::by_id(id).expect("collective experiment is registered"))
        .collect();
    exps.extend(SCENARIO_FILES.iter().map(|p| compile_file(p)));
    exps
}

/// What one experiment run at one level produced.
pub struct LevelRun {
    /// Host seconds.
    pub secs: f64,
    /// The CSV artifacts (must not depend on the level).
    pub csv: Vec<(String, String)>,
    /// Whether every paper check passed.
    pub passed: bool,
    /// Telemetry collected (metrics and dag levels).
    pub telemetry: Option<CollectedTelemetry>,
}

/// Run `exp` at `level`.
pub fn run_level(exp: &Experiment, cfg: &BenchConfig, level: Level) -> LevelRun {
    let t0 = Instant::now();
    let (result, telemetry) = match level {
        Level::Plain => (span("core.run", || exp.run(cfg)), None),
        Level::Metrics => {
            let (r, t) = span("telemetry.run_instrumented", || exp.run_instrumented(cfg));
            (r, Some(t))
        }
        Level::Dag => {
            let (r, t) = span("telemetry.run_instrumented_dag", || {
                exp.run_instrumented_dag(cfg)
            });
            let report = span("telemetry.critpath_report", || {
                critpath::report(t.dags(), CRITPATH_TOP_K)
            });
            std::hint::black_box(report);
            (r, Some(t))
        }
    };
    LevelRun {
        secs: secs_since(t0),
        passed: result.all_passed(),
        csv: result.csv,
        telemetry,
    }
}

/// The workload's state across passes.
pub struct Tiers {
    exps: Vec<Experiment>,
    cfg: BenchConfig,
    first_csv: Option<Vec<Vec<(String, String)>>>,
}

/// One pass: per-level seconds and the number of failed checks.
pub struct Pass {
    /// Seconds spent at each level, in [`Level::ALL`] order.
    pub level_secs: [f64; 3],
    /// Seconds of each experiment run (one experiment at one level).
    pub run_secs: Vec<f64>,
    /// Experiment runs in the pass.
    pub runs: u64,
    /// Runs with a failed paper check or a CSV that differs across
    /// levels or from the first pass.
    pub failed: u64,
}

impl Tiers {
    /// Build the set for workload seed `seed`.
    pub fn setup(seed: u64) -> Tiers {
        Tiers {
            exps: experiments(),
            cfg: crate::bench_config(seed),
            first_csv: None,
        }
    }

    /// The experiment set.
    pub fn experiments(&self) -> &[Experiment] {
        &self.exps
    }

    /// The configuration.
    pub fn config(&self) -> &BenchConfig {
        &self.cfg
    }

    /// Run every experiment at every level. Levels interleave per
    /// experiment so host-speed drift within a pass reaches each level
    /// alike.
    pub fn pass(&mut self) -> Pass {
        let mut level_secs = [0.0; 3];
        let mut run_secs = Vec::with_capacity(self.exps.len() * Level::ALL.len());
        let mut failed = 0;
        let mut plain_csvs = Vec::with_capacity(self.exps.len());
        for exp in &self.exps {
            let mut plain: Option<Vec<(String, String)>> = None;
            let mut bad = false;
            for (i, level) in Level::ALL.into_iter().enumerate() {
                let r = run_level(exp, &self.cfg, level);
                level_secs[i] += r.secs;
                run_secs.push(r.secs);
                bad |= !r.passed;
                match &plain {
                    None => plain = Some(r.csv),
                    Some(p) if *p != r.csv => {
                        eprintln!("collectives-tiers: {} CSV differs at {level:?}", exp.id);
                        bad = true;
                    }
                    Some(_) => {}
                }
            }
            failed += u64::from(bad);
            plain_csvs.push(plain.expect("three levels ran"));
        }
        match &self.first_csv {
            None => self.first_csv = Some(plain_csvs),
            Some(first) => {
                for ((exp, a), b) in self.exps.iter().zip(first).zip(&plain_csvs) {
                    if a != b {
                        eprintln!("collectives-tiers: {} CSV changed between passes", exp.id);
                        failed += 1;
                    }
                }
            }
        }
        Pass {
            level_secs,
            run_secs,
            runs: (self.exps.len() * Level::ALL.len()) as u64,
            failed,
        }
    }
}

/// The timed run: golden check, one warm-up pass, then passes until
/// `seconds` have elapsed, each followed by a set-up reading (`setup_s`
/// is their median) and preceded by the drift probe.
pub fn run(seed: u64, seconds: f64, rep: &mut Report) {
    let mut setup_step = || {
        std::hint::black_box(Tiers::setup(seed));
    };
    let mut setup = PerCall::calibrate(&mut setup_step);
    let mut tiers = Tiers::setup(seed);
    let (compared, bad) = crate::check_goldens();
    rep.ops(compared, bad);

    let warm = tiers.pass();
    rep.ops(warm.runs, warm.failed);
    let mut levels: [Vec<f64>; 3] = Default::default();
    let mut timed = Timed::default();
    let t0 = Instant::now();
    while timed.passes.raw.len() < 3 || secs_since(t0) < seconds {
        timed.probe();
        let p = tiers.pass();
        rep.ops(p.runs, p.failed);
        for (v, s) in levels.iter_mut().zip(p.level_secs) {
            v.push(s);
        }
        let secs = p.level_secs.iter().sum();
        timed.pass(secs, secs, p.run_secs);
        timed.setup(setup.read(&mut setup_step));
    }
    rep.end_to_end(&timed);
    for (level, v) in Level::ALL.into_iter().zip(&levels) {
        let s = Summary::of(v);
        rep.note(format!(
            "{} level: as measured median {:.6} s per pass, q1 {:.6}, q3 {:.6}",
            level.name(),
            s.median,
            s.q1,
            s.q3
        ));
    }
}
