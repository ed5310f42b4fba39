//! `registry-plain`: every registry experiment, serially, telemetry off,
//! at the default configuration — what a `repro` user pays.

use crate::report::{Report, Timed};
use crate::spans::span;
use crate::stats::{secs_since, PerCall};
use ifsim_core::{registry, BenchConfig, Experiment};
use std::time::Instant;

/// Paper checks the full registry runs at the default configuration.
pub const EXPECTED_CHECKS: usize = 76;

/// The workload's inputs: the experiment set and its configuration.
pub struct Registry {
    exps: Vec<Experiment>,
    cfg: BenchConfig,
    /// CSVs of the first pass; every later pass must reproduce them.
    first_csv: Option<Vec<Vec<(String, String)>>>,
}

/// One pass: wall time, per-experiment times, and its verification.
pub struct Pass {
    /// Wall time of the pass, seconds.
    pub secs: f64,
    /// `(id, seconds)` per experiment, registry order.
    pub per_exp: Vec<(&'static str, f64)>,
    /// Paper checks passed / total over the pass.
    pub checks: (usize, usize),
    /// Experiments whose checks failed or whose CSV changed between passes.
    pub failed: u64,
}

impl Registry {
    /// Build the experiment set for workload seed `seed`.
    pub fn setup(seed: u64) -> Registry {
        Registry {
            exps: span("core.registry_all", registry::all),
            cfg: crate::bench_config(seed),
            first_csv: None,
        }
    }

    /// Run every experiment once, timing each.
    pub fn pass(&mut self) -> Pass {
        let t0 = Instant::now();
        let mut per_exp = Vec::with_capacity(self.exps.len());
        let mut results = Vec::with_capacity(self.exps.len());
        for exp in &self.exps {
            let t = Instant::now();
            let r = span(&format!("core.run.{}", exp.id), || exp.run(&self.cfg));
            per_exp.push((exp.id, secs_since(t)));
            results.push(r);
        }
        let secs = secs_since(t0);
        let mut checks = (0, 0);
        let mut failed = 0;
        let csvs: Vec<Vec<(String, String)>> = results
            .into_iter()
            .map(|r| {
                checks.0 += r.checks.iter().filter(|c| c.passed).count();
                checks.1 += r.checks.len();
                if !r.all_passed() {
                    eprintln!("registry-plain: {} failed a paper check", r.id);
                    failed += 1;
                }
                r.csv
            })
            .collect();
        match &self.first_csv {
            None => self.first_csv = Some(csvs),
            Some(first) => {
                for ((exp, a), b) in self.exps.iter().zip(first).zip(&csvs) {
                    if a != b {
                        eprintln!("registry-plain: {} CSV changed between passes", exp.id);
                        failed += 1;
                    }
                }
            }
        }
        Pass {
            secs,
            per_exp,
            checks,
            failed,
        }
    }
}

/// The timed run: golden check, one warm-up pass, then passes until
/// `seconds` have elapsed, each followed by a set-up reading (`setup_s`
/// is their median) and preceded by the drift probe.
pub fn run(seed: u64, seconds: f64, rep: &mut Report) {
    let mut setup_step = || {
        std::hint::black_box(Registry::setup(seed));
    };
    let mut setup = PerCall::calibrate(&mut setup_step);
    let mut reg = Registry::setup(seed);
    let (compared, bad) = crate::check_goldens();
    rep.ops(compared, bad);

    let verify = |p: &Pass, rep: &mut Report| {
        rep.ops(p.per_exp.len() as u64, p.failed);
        if p.checks != (EXPECTED_CHECKS, EXPECTED_CHECKS) {
            eprintln!(
                "registry-plain: {}/{} paper checks passed, expected {EXPECTED_CHECKS}/{EXPECTED_CHECKS}",
                p.checks.0, p.checks.1
            );
            rep.ops(0, 1);
        }
    };
    let warm = reg.pass();
    verify(&warm, rep);
    let mut timed = Timed::default();
    let t0 = Instant::now();
    while timed.passes.raw.len() < 3 || secs_since(t0) < seconds {
        timed.probe();
        let p = reg.pass();
        verify(&p, rep);
        timed.pass(p.secs, p.secs, p.per_exp.iter().map(|&(_, s)| s));
        timed.setup(setup.read(&mut setup_step));
    }
    rep.end_to_end(&timed);
}
