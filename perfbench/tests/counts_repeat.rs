//! The count metrics of the traced run must repeat exactly for a fixed
//! seed: they are what a later change may cite as a count, so a count
//! that drifts between two runs of the same code would be no evidence.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build runs the full registry slowly).

use ifsim_perfbench::ledger;
use ifsim_perfbench::serve_mix::{Daemon, Inputs};

/// The benchmark reads `golden/` relative to the repository root.
fn at_repo_root() {
    std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .expect("repository root exists");
}

#[test]
fn simulator_counts_repeat_for_a_seed() {
    at_repo_root();
    let a = ledger::counts(3);
    let b = ledger::counts(3);
    assert_eq!(a, b);
    assert!(a.sims_per_pass > 0.0, "{a:?}");
    assert!(a.ops_per_pass > 0.0, "{a:?}");
    assert!(a.recomputes_per_pass > 0.0, "{a:?}");
}

#[test]
fn serve_cache_hit_ratio_repeats_for_a_seed() {
    at_repo_root();
    let inputs = Inputs::generate(3);
    let ratio = |name: &str| {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let (mut d, bad) = Daemon::start(&dir, &inputs).expect("daemon starts");
        assert_eq!(bad, 0, "cache fill answered wrongly");
        let (r, w) = ledger::serve_hit_ratio(&mut d, &inputs, 1);
        assert_eq!(w.failed, 0, "a scripted request answered wrongly");
        d.stop().expect("daemon drains");
        std::fs::remove_dir_all(&dir).expect("scratch dir removed");
        r
    };
    let (a, b) = (ratio("hit-ratio-a"), ratio("hit-ratio-b"));
    assert_eq!(a, b);
    assert!(a > 0.9 && a < 1.0, "mostly hits, some cold misses: {a}");
}
