//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints every metric by name with its
//! unit, then one JSON result line; exits non-zero on any wrong output.
//! `--trace 0` measures the workload's end-to-end metrics; `--trace 1`
//! measures the tracing overhead on the same workload and then records
//! the per-layer ledger, writing its spans to
//! `.perfbench/spans-<workload>-seed<n>.json`.

use ifsim_perfbench::report::Report;
use ifsim_perfbench::stats::{median, peak_rss_mb, schedstat, secs_since, Summary};
use ifsim_perfbench::{collectives_tiers, ledger, registry_plain, serve_mix, spans};
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["registry-plain", "collectives-tiers", "serve-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The timed run of one workload. Returns the peak-RSS reading the
/// workload took itself, if it took one.
fn end_to_end(a: &Args, rep: &mut Report) -> std::io::Result<Option<f64>> {
    Ok(match a.workload.as_str() {
        "registry-plain" => {
            registry_plain::run(a.seed, a.seconds, rep);
            None
        }
        "collectives-tiers" => {
            collectives_tiers::run(a.seed, a.seconds, rep);
            None
        }
        _ => Some(serve_mix::run(a.seed, a.seconds, rep)?),
    })
}

/// Tracing overhead: the workload's passes (serve-mix: one-second
/// windows, timed per request) run in pairs, spans off then on, for
/// `seconds`; the overhead is the median of the pairs' on/off ratios,
/// minus one, so host drift slower than a pair cancels out.
fn trace_overhead(a: &Args, rep: &mut Report) -> std::io::Result<f64> {
    let alternate = |rep: &mut Report, step: &mut dyn FnMut(&mut Report) -> f64| {
        step(rep); // warm-up
        let mut ratios = Vec::new();
        let t0 = Instant::now();
        while ratios.len() < 2 || secs_since(t0) < a.seconds {
            let off = step(rep);
            spans::enable(true);
            let on = step(rep);
            spans::enable(false);
            ratios.push(on / off);
        }
        let s = Summary::of(&ratios);
        rep.note(format!(
            "trace overhead: on/off pass-time ratio median {:.4}, q1 {:.4}, q3 {:.4}, n {} pairs",
            s.median, s.q1, s.q3, s.n
        ));
        (s.median - 1.0) * 100.0
    };
    Ok(match a.workload.as_str() {
        "registry-plain" => {
            let mut reg = registry_plain::Registry::setup(a.seed);
            alternate(rep, &mut |rep| {
                let p = reg.pass();
                rep.ops(p.per_exp.len() as u64, p.failed);
                p.secs
            })
        }
        "collectives-tiers" => {
            let mut tiers = collectives_tiers::Tiers::setup(a.seed);
            alternate(rep, &mut |rep| {
                let p = tiers.pass();
                rep.ops(p.runs, p.failed);
                p.level_secs.iter().sum()
            })
        }
        _ => {
            let inputs = serve_mix::Inputs::generate(a.seed);
            let (mut d, bad) =
                serve_mix::Daemon::start(&serve_mix::scratch_dir().join("overhead"), &inputs)?;
            rep.ops(inputs.warm.len() as u64 + 1, bad);
            let mut round = 0;
            let overhead = alternate(rep, &mut |rep| {
                round += 1;
                let w = serve_mix::window(&mut d, &inputs, 1.0, None, round);
                rep.ops(
                    w.samples.len() as u64,
                    w.failed + serve_mix::verify_cold(&w),
                );
                w.secs / w.samples.len() as f64
            });
            d.stop()?;
            overhead
        }
    })
}

fn traced(a: &Args, rep: &mut Report) -> std::io::Result<()> {
    let overhead = trace_overhead(a, rep)?;
    spans::enable(true);
    let refs_before = ifsim_perfbench::stats::host_ref_ms();
    ledger::record(a.seed, rep)?;
    let refs = [refs_before, ifsim_perfbench::stats::host_ref_ms()];
    spans::enable(false);
    rep.metric("bench.trace_overhead_pct", overhead, "%");
    rep.metric("bench.host_ref_ms", median(&refs), "ms");
    rep.note(format!("{} spans recorded", spans::count()));
    for (name, ms) in spans::self_ms_by_name() {
        rep.note(format!("self time {name}: {ms:.3} ms"));
    }
    std::fs::create_dir_all(".perfbench")?;
    let path = format!(".perfbench/spans-{}-seed{}.json", a.workload, a.seed);
    spans::write_json(std::path::Path::new(&path))?;
    rep.note(format!("spans written to {path}"));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The benchmark reads the pinned outputs under golden/; without them
    // it cannot check anything, so it refuses to report.
    if !std::path::Path::new("golden/scenarios").is_dir() {
        eprintln!("perfbench: run from the repository root (golden/ not found)");
        return ExitCode::from(2);
    }
    let mut rep = Report::default();
    let (t0, sched0) = (Instant::now(), schedstat());
    let outcome = if args.trace {
        traced(&args, &mut rep).map(|()| None)
    } else {
        end_to_end(&args, &mut rep)
    };
    if let (Some((cpu0, wait0)), Some((cpu1, wait1))) = (sched0, schedstat()) {
        let wall = secs_since(t0);
        rep.note(format!(
            "bench.schedstat: main thread on CPU {:.1}% of {wall:.1} s wall, run-queue wait {:.1}%",
            (cpu1 - cpu0) / wall * 100.0,
            (wait1 - wait0) / wall * 100.0
        ));
    }
    let _ = std::fs::remove_dir_all(serve_mix::scratch_dir());
    let rss = match outcome {
        Ok(rss) => rss,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        let Some(rss) = rss.or_else(peak_rss_mb) else {
            eprintln!("perfbench: peak RSS unavailable (/proc/self/status)");
            return ExitCode::FAILURE;
        };
        rep.metric("peak_rss_mb", rss, "MB");
    }
    print!("{}", rep.table());
    println!("{}", rep.json_line());
    if rep.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
