//! Whole-registry behaviour lock: `golden/manifest.txt` pins a 128-bit FNV
//! digest of every CSV artifact and of the rendered report of every
//! registry experiment and every golden scenario (`golden/scenarios/`), at
//! the default configuration and at `--quick`, plus the `repro` summary
//! line of each registry run. Reports pin the experiments that emit no CSV
//! (`ext-fault-link-down`, `fig1`, ...). A change that shifts any byte
//! fails here naming the configuration, experiment and file that drifted.
//!
//! Regenerate after an intentional model change with
//!
//! ```text
//! cargo test --release --test golden_manifest -- --ignored regenerate
//! ```

use ifsim::experiment::fnv128_hex;
use ifsim::{registry, BenchConfig, Experiment, ExperimentResult};

const MANIFEST: &str = "golden/manifest.txt";

/// The golden scenario files, compiled, in file-name order.
fn golden_scenarios() -> Vec<Experiment> {
    let dir = format!("{}/golden/scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).unwrap();
            let scenario = ifsim_scenario::Scenario::from_str(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            ifsim_scenario::compile(&scenario).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
        })
        .collect()
}

/// One `config experiment file-or-report digest` line per artifact.
fn digest_lines(mode: &str, id: &str, r: &ExperimentResult, lines: &mut Vec<String>) {
    lines.push(format!(
        "{mode} {id} report {}",
        fnv128_hex(r.report().as_bytes())
    ));
    for (name, contents) in &r.csv {
        lines.push(format!(
            "{mode} {id} {name} {}",
            fnv128_hex(contents.as_bytes())
        ));
    }
}

/// The manifest lines of one configuration, prefixed by its name: the
/// registry in order, the summary line `repro` prints for it, then the
/// golden scenarios.
fn manifest_lines(mode: &str, cfg: &BenchConfig) -> Vec<String> {
    let mut lines = Vec::new();
    let (mut total, mut failed, mut n) = (0, 0, 0);
    for exp in registry::all() {
        let r = exp.run(cfg);
        n += 1;
        total += r.checks.len();
        failed += r.checks.iter().filter(|c| !c.passed).count();
        digest_lines(mode, exp.id, &r, &mut lines);
    }
    lines.push(format!(
        "{mode} summary: {n} experiments, {}/{total} checks passed",
        total - failed
    ));
    for exp in golden_scenarios() {
        digest_lines(mode, exp.id, &exp.run(cfg), &mut lines);
    }
    lines
}

fn configs() -> [(&'static str, BenchConfig); 2] {
    [
        ("default", BenchConfig::default()),
        ("quick", BenchConfig::quick()),
    ]
}

fn manifest_path() -> String {
    format!("{}/{MANIFEST}", env!("CARGO_MANIFEST_DIR"))
}

/// Compare one configuration's freshly computed lines with its pinned
/// section, naming every line that drifted or went missing.
fn check_mode(mode: &str) {
    let cfg = configs()
        .into_iter()
        .find(|(m, _)| *m == mode)
        .expect("known mode")
        .1;
    let golden = std::fs::read_to_string(manifest_path())
        .unwrap_or_else(|e| panic!("missing {MANIFEST}: {e}"));
    let prefix = format!("{mode} ");
    let pinned: Vec<&str> = golden.lines().filter(|l| l.starts_with(&prefix)).collect();
    let actual = manifest_lines(mode, &cfg);
    let mut drift = Vec::new();
    for line in &actual {
        if !pinned.contains(&line.as_str()) {
            drift.push(format!("  now:    {line}"));
        }
    }
    for line in &pinned {
        if !actual.iter().any(|a| a == line) {
            drift.push(format!("  pinned: {line}"));
        }
    }
    assert!(
        drift.is_empty() && pinned.len() == actual.len(),
        "{mode}: outputs drifted from {MANIFEST} (lines are `config experiment \
         file-or-report digest`); if the change is intentional, regenerate it (see this \
         file's header):\n{}",
        drift.join("\n")
    );
}

#[test]
fn default_config_outputs_match_manifest() {
    check_mode("default");
}

#[test]
fn quick_config_outputs_match_manifest() {
    check_mode("quick");
}

#[test]
#[ignore = "rewrites golden/manifest.txt"]
fn regenerate() {
    let mut text = String::from(
        "# ifsim golden manifest: config, experiment, CSV artifact or report, 128-bit FNV-1a digest.\n\
         # Regenerate: cargo test --release --test golden_manifest -- --ignored regenerate\n",
    );
    for (mode, cfg) in configs() {
        for line in manifest_lines(mode, &cfg) {
            text.push_str(&line);
            text.push('\n');
        }
    }
    std::fs::write(manifest_path(), text).expect("write manifest");
}
