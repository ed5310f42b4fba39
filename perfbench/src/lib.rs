//! The ifsim wall-clock benchmark: three end-to-end workloads timed from
//! outside the workspace crates, and a traced run that splits the cost
//! across the layers. Every figure is host time; simulated results are
//! only ever checked for identity. See `NOTES.md` beside this crate.

pub mod collectives_tiers;
pub mod ledger;
pub mod registry_plain;
pub mod report;
pub mod serve_mix;
pub mod spans;
pub mod stats;

use ifsim_core::BenchConfig;

/// The simulator's default jitter seed; `--seed 0` runs at it.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// The configuration a workload seed selects: the default
/// configuration, jitter seed offset by the workload seed.
pub fn bench_config(seed: u64) -> BenchConfig {
    BenchConfig {
        seed: DEFAULT_SEED.wrapping_add(seed),
        ..BenchConfig::default()
    }
}

/// The configuration `golden/` is pinned at (`BenchConfig::quick()`,
/// one repetition, default seed).
pub fn golden_config() -> BenchConfig {
    BenchConfig {
        reps: 1,
        ..BenchConfig::quick()
    }
}

/// The figures whose CSVs are pinned byte for byte under `golden/`.
pub const GOLDEN_IDS: [&str; 4] = ["fig6a", "fig6b", "fig6c", "fig7"];

/// Run the pinned figures at the golden configuration and compare each
/// CSV with `golden/<name>` (paths relative to the repository root).
/// Returns `(files compared, mismatches)`; a missing golden file counts
/// as a mismatch.
pub fn check_goldens() -> (u64, u64) {
    let cfg = golden_config();
    let (mut compared, mut bad) = (0, 0);
    for id in GOLDEN_IDS {
        let exp = ifsim_core::registry::by_id(id).expect("pinned figure is registered");
        for (name, contents) in exp.run(&cfg).csv {
            compared += 1;
            match std::fs::read_to_string(format!("golden/{name}")) {
                Ok(golden) if golden == contents => {}
                Ok(_) => {
                    eprintln!("golden mismatch: {name} differs from golden/{name}");
                    bad += 1;
                }
                Err(e) => {
                    eprintln!("golden mismatch: cannot read golden/{name}: {e}");
                    bad += 1;
                }
            }
        }
    }
    (compared, bad)
}
