//! The traced run's per-layer ledger: host time of each layer's public
//! calls, timed from outside, plus the program's own telemetry counters.
//! Every traced run records the whole ledger, whatever its workload, so
//! each per-layer figure is present in every traced result.

use crate::collectives_tiers::{run_level, Level, Tiers, CRITPATH_TOP_K};
use crate::registry_plain::Registry;
use crate::report::Report;
use crate::serve_mix::{self, Daemon, Inputs, Kind};
use crate::spans::span;
use crate::stats::{median, per_call_secs, quantile, time, Summary};
use ifsim_core::coll::{schedule::RankBuffers, Collective, MpiComm, RcclComm};
use ifsim_core::fabric::{FlowNet, FlowSpec, SegmentMap};
use ifsim_core::hip::EnvConfig;
use ifsim_core::memory::{MemSpace, PageTable};
use ifsim_core::microbench::comm_scope::{h2d_bandwidth, H2dInterface};
use ifsim_core::telemetry::{critpath, CollectedTelemetry, EventKind};
use ifsim_core::topology::{GcdId, HealthMap, NodeTopology, NumaId, RoutePolicy, Router};
use ifsim_core::{registry, BenchConfig};
use std::collections::BTreeMap;
use std::hint::black_box;

const GIB: u64 = 1 << 30;

/// Registry passes the per-experiment times are the median of.
const REGISTRY_PASSES: usize = 3;

/// One-second serve-mix windows behind `serve.upload_p99_ms` and
/// `serve.cold_ms`.
const UPLOAD_WINDOWS: u64 = 25;

/// Requests per connection in the fixed serve script whose cache
/// counters must repeat exactly.
pub const SCRIPT_PER_CLIENT: usize = 1000;

/// Counts that must repeat exactly for a fixed seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Counts {
    /// Simulators constructed by one registry pass.
    pub sims_per_pass: f64,
    /// HIP operations completed by one collectives-tiers pass.
    pub ops_per_pass: f64,
    /// Fabric rate recomputes of that pass (all tiers).
    pub recomputes_per_pass: f64,
    /// Of which incremental.
    pub recomputes_incremental_per_pass: f64,
    /// Most concurrent fabric flows in any one simulator of that pass.
    pub peak_flows: f64,
}

fn counter_sum(t: &CollectedTelemetry, name: &str) -> f64 {
    t.metrics()
        .counters()
        .filter(|(k, _)| k.name() == name)
        .map(|(_, v)| v)
        .sum()
}

/// Peak overlap of `fabric_flow` spans within any one simulator lane
/// group (a flow ending at an instant frees its slot before one starting
/// at the same instant takes it).
pub fn peak_flows(t: &CollectedTelemetry) -> f64 {
    let mut edges: BTreeMap<u32, Vec<(f64, i32)>> = BTreeMap::new();
    for ev in t.events() {
        if let (EventKind::Span { dur_ns }, "fabric_flow") = (&ev.kind, ev.cat.as_str()) {
            let e = edges.entry(ev.pid).or_default();
            e.push((ev.ts_ns, 1));
            e.push((ev.ts_ns + dur_ns, -1));
        }
    }
    let mut peak = 0;
    for mut e in edges.into_values() {
        e.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut live = 0;
        for (_, d) in e {
            live += d;
            peak = peak.max(live);
        }
    }
    peak as f64
}

/// Simulators one registry pass constructs, read from the telemetry
/// collector (a sim that records nothing is not counted).
pub fn sims_per_pass(seed: u64) -> f64 {
    let cfg = crate::bench_config(seed);
    let mut sims = 0.0;
    for exp in registry::all() {
        let (_, t) = span("telemetry.run_instrumented", || exp.run_instrumented(&cfg));
        sims += counter_sum(&t, "telemetry_sims_observed");
    }
    sims
}

/// The collectives-tiers counters, from one metrics-level pass.
pub fn collective_counts(tiers: &Tiers) -> Counts {
    let mut c = Counts {
        sims_per_pass: 0.0,
        ops_per_pass: 0.0,
        recomputes_per_pass: 0.0,
        recomputes_incremental_per_pass: 0.0,
        peak_flows: 0.0,
    };
    for exp in tiers.experiments() {
        let t = run_level(exp, tiers.config(), Level::Metrics)
            .telemetry
            .expect("metrics level collects telemetry");
        c.ops_per_pass += counter_sum(&t, "hip_ops_completed");
        c.recomputes_per_pass += counter_sum(&t, "fabric_rate_recomputes");
        c.recomputes_incremental_per_pass += counter_sum(&t, "fabric_rate_recomputes_incremental");
        c.peak_flows = c.peak_flows.max(peak_flows(&t));
    }
    c
}

/// Every count that must repeat for `seed`.
pub fn counts(seed: u64) -> Counts {
    let mut c = collective_counts(&Tiers::setup(seed));
    c.sims_per_pass = sims_per_pass(seed);
    c
}

/// Cache hits over lookups during the fixed serve script
/// (`SCRIPT_PER_CLIENT` requests per connection after set-up).
pub fn serve_hit_ratio(d: &mut Daemon, inputs: &Inputs, round: u64) -> (f64, serve_mix::Window) {
    let cache = d.core.cache();
    let (h0, m0) = (cache.hits(), cache.misses());
    let w = serve_mix::window(d, inputs, 0.0, Some(SCRIPT_PER_CLIENT), round);
    let cache = d.core.cache();
    let (hits, misses) = (cache.hits() - h0, cache.misses() - m0);
    (hits as f64 / (hits + misses) as f64, w)
}

fn ms(s: Summary) -> f64 {
    s.median * 1e3
}

fn us(s: Summary) -> f64 {
    s.median * 1e6
}

fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..n).map(|_| time(&mut f).1).collect();
    median(&v)
}

/// Record the whole ledger into `rep`.
pub fn record(seed: u64, rep: &mut Report) -> std::io::Result<()> {
    let cfg = crate::bench_config(seed);
    registry_layer(seed, rep);
    memory_layer(&cfg, rep);
    topology_hip_layers(&cfg, rep);
    fabric_layer(rep);
    collectives_layer(&cfg, rep);
    telemetry_layer(&Tiers::setup(seed), rep);
    serve_scenario_layers(seed, rep)
}

fn registry_layer(seed: u64, rep: &mut Report) {
    let mut reg = Registry::setup(seed);
    let mut per: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut order = Vec::new();
    for _ in 0..REGISTRY_PASSES {
        let p = span("bench.registry_pass", || reg.pass());
        rep.ops(p.per_exp.len() as u64, p.failed);
        for (id, s) in p.per_exp {
            if !per.contains_key(id) {
                order.push(id);
            }
            per.entry(id).or_default().push(s);
        }
    }
    for id in order {
        rep.metric(&format!("core.exp_ms.{id}"), median(&per[id]) * 1e3, "ms");
    }
    rep.metric("hip.sims_per_pass", sims_per_pass(seed), "count");
}

fn memory_layer(cfg: &BenchConfig, rep: &mut Report) {
    for (name, iface) in [
        ("memory.h2d_managed_1g_ms", H2dInterface::ManagedMigration),
        ("memory.h2d_zerocopy_1g_ms", H2dInterface::ManagedZeroCopy),
        ("memory.h2d_pinned_1g_ms", H2dInterface::MemcpyPinned),
    ] {
        let mut bw = Vec::new();
        let s = median_secs(5, || {
            bw.push(span("memory.h2d_bandwidth", || {
                h2d_bandwidth(cfg, iface, GIB)
            }))
        });
        // Same configuration, same simulated bandwidth on every call.
        rep.ops(
            bw.len() as u64,
            u64::from(bw.iter().any(|&b| b != bw[0] || b <= 0.0)),
        );
        rep.metric(name, s * 1e3, "ms");
    }
    let mut moved = Vec::new();
    let s = median_secs(5, || {
        let mut pt = span("memory.page_table_new", || {
            PageTable::new(GIB, 4096, MemSpace::Ddr(NumaId(0)))
        });
        moved.push(span("memory.migrate_range", || {
            pt.migrate_range(0, GIB, MemSpace::Hbm(GcdId(0)))
        }));
    });
    rep.ops(
        moved.len() as u64,
        moved
            .iter()
            .filter(|&&m| m != (GIB / 4096) as usize)
            .count() as u64,
    );
    rep.metric("memory.page_migrate_1g_ms", s * 1e3, "ms");
}

fn topology_hip_layers(cfg: &BenchConfig, rep: &mut Report) {
    let topo = NodeTopology::frontier();
    let health = HealthMap::healthy(&topo);
    let s = span("topology.router_new", || {
        per_call_secs(7, || {
            black_box(Router::new(&topo));
        })
    });
    rep.metric("topology.router_new_us", us(s), "us");
    let s = span("topology.router_new_with_health", || {
        per_call_secs(7, || {
            black_box(Router::new_with_health(&topo, &health));
        })
    });
    rep.metric("topology.router_new_with_health_us", us(s), "us");
    let s = span("hip.sim_new", || {
        per_call_secs(7, || {
            black_box(cfg.runtime(EnvConfig::default()));
        })
    });
    rep.metric("hip.sim_new_us", us(s), "us");
}

/// 16 flows over distinct GCD pairs: the peak concurrency any shipped
/// workload reaches.
fn sixteen_flows(topo: &NodeTopology) -> Vec<FlowSpec> {
    let router = Router::new(topo);
    let segmap = SegmentMap::new(topo);
    (0..16u8)
        .map(|i| {
            let src = i % 8;
            let dst = (src + 1 + i / 8) % 8;
            let p = router.gcd_route(GcdId(src), GcdId(dst), RoutePolicy::MaxBandwidth);
            FlowSpec::new(
                segmap.path_segments(topo, p, i % 2 == 0),
                1e6 + f64::from(i) * 6.4e4,
                0.87,
            )
        })
        .collect()
}

fn fabric_layer(rep: &mut Report) {
    let topo = NodeTopology::frontier();
    let specs = sixteen_flows(&topo);
    let mut net = FlowNet::new(SegmentMap::new(&topo));
    let mut drained = Vec::new();
    let s = span("fabric.add_drain", || {
        per_call_secs(7, || {
            let t = net.now();
            net.add_flows(t, specs.iter().cloned());
            let mut n = 0;
            while net.complete_next().is_some() {
                n += 1;
            }
            drained.push(n);
        })
    });
    rep.ops(
        drained.len() as u64,
        drained.iter().filter(|&&n| n != specs.len()).count() as u64,
    );
    rep.metric("fabric.add_drain_16_us", us(s), "us");
}

fn collectives_layer(cfg: &BenchConfig, rep: &mut Report) {
    const ELEMS: usize = 16 << 20;
    for (name, mpi) in [
        ("collectives.rccl_allreduce_8r_ms", false),
        ("collectives.mpi_allreduce_8r_ms", true),
    ] {
        let mut durs = Vec::new();
        let s = median_secs(5, || {
            let mut hip = cfg.runtime(EnvConfig::default());
            let (mut send, mut recv) = (Vec::new(), Vec::new());
            for r in 0..8 {
                hip.set_device(r).expect("device exists");
                send.push(hip.malloc(ELEMS as u64 * 4).expect("phantom alloc"));
                recv.push(hip.malloc(ELEMS as u64 * 4).expect("phantom alloc"));
            }
            let bufs = RankBuffers { send, recv };
            let d = span("collectives.allreduce", || {
                if mpi {
                    MpiComm::new(&mut hip, (0..8).collect()).and_then(|c| {
                        c.collective(&mut hip, Collective::AllReduce, &bufs, ELEMS, 0)
                    })
                } else {
                    RcclComm::new(&mut hip, (0..8).collect()).and_then(|c| {
                        c.collective(&mut hip, Collective::AllReduce, &bufs, ELEMS, 0)
                    })
                }
            });
            durs.push(d.map(|d| d.as_ns()).unwrap_or(f64::NAN));
        });
        let bad = durs
            .iter()
            .filter(|&&d| d.is_nan() || d <= 0.0 || d != durs[0])
            .count() as u64;
        rep.ops(durs.len() as u64, bad);
        rep.metric(name, s * 1e3, "ms");
    }
}

fn telemetry_layer(tiers: &Tiers, rep: &mut Report) {
    let c = collective_counts(tiers);
    let plain = span("bench.collectives_plain_pass", || {
        tiers
            .experiments()
            .iter()
            .map(|e| run_level(e, tiers.config(), Level::Plain).secs)
            .sum::<f64>()
    });
    rep.metric("hip.ops_per_pass", c.ops_per_pass, "count");
    rep.metric("hip.host_ns_per_op", plain * 1e9 / c.ops_per_pass, "ns");
    rep.metric("fabric.recomputes_per_pass", c.recomputes_per_pass, "count");
    rep.metric(
        "fabric.recomputes_incremental_per_pass",
        c.recomputes_incremental_per_pass,
        "count",
    );
    rep.metric("fabric.peak_flows", c.peak_flows, "count");

    let cfg = tiers.config();
    for id in ["fig6b", "fig11"] {
        let exp = registry::by_id(id).expect("registered");
        let level = |l: Level| {
            let v: Vec<f64> = (0..3).map(|_| run_level(&exp, cfg, l).secs).collect();
            median(&v)
        };
        let plain = level(Level::Plain);
        rep.metric(
            &format!("telemetry.metrics_over_plain.{id}"),
            level(Level::Metrics) / plain,
            "ratio",
        );
        rep.metric(
            &format!("telemetry.dag_over_plain.{id}"),
            level(Level::Dag) / plain,
            "ratio",
        );
    }
    let fig11 = registry::by_id("fig11").expect("registered");
    let (_, dag) = fig11.run_instrumented_dag(cfg);
    let s = median_secs(3, || {
        black_box(span("telemetry.chrome_trace_string", || {
            dag.chrome_trace_string()
        }));
    });
    rep.metric("telemetry.chrome_render_ms", s * 1e3, "ms");
    let s = median_secs(3, || {
        black_box(span("telemetry.critpath_report", || {
            critpath::report(dag.dags(), CRITPATH_TOP_K)
        }));
    });
    rep.metric("telemetry.critpath_report_ms", s * 1e3, "ms");
    let s = median_secs(3, || {
        black_box(span("telemetry.metrics_json_string", || {
            dag.metrics_json_string()
        }));
    });
    rep.metric("telemetry.metrics_json_ms", s * 1e3, "ms");
}

fn serve_scenario_layers(seed: u64, rep: &mut Report) -> std::io::Result<()> {
    let inputs = Inputs::generate(seed);
    let moe = std::fs::read_to_string("golden/scenarios/moe-alltoall.json")?;
    let s = span("scenario.parse", || {
        per_call_secs(7, || {
            black_box(ifsim_scenario::Scenario::from_str(&moe).expect("golden scenario parses"));
        })
    });
    rep.metric("scenario.parse_us", us(s), "us");
    let parsed = ifsim_scenario::Scenario::from_str(&moe).expect("golden scenario parses");
    let s = span("scenario.compile", || {
        per_call_secs(7, || {
            black_box(ifsim_scenario::compile(&parsed).expect("golden scenario compiles"));
        })
    });
    rep.metric("scenario.compile_us", us(s), "us");
    let s = span("scenario.upload_parse", || {
        per_call_secs(5, || {
            black_box(
                ifsim_scenario::Scenario::from_str(&inputs.upload_scenario).expect("upload parses"),
            );
        })
    });
    rep.metric("scenario.upload_parse_ms", ms(s), "ms");

    let small = &inputs.warm[1].0;
    let s = span("serve.parse_request", || {
        per_call_secs(7, || {
            black_box(ifsim_serve::proto::parse_request(small).expect("small request parses"));
        })
    });
    rep.metric("serve.parse_request_us.small", us(s), "us");
    let s = span("serve.parse_request", || {
        per_call_secs(5, || {
            black_box(
                ifsim_serve::proto::parse_request(&inputs.upload_line).expect("upload parses"),
            );
        })
    });
    rep.metric("serve.parse_request_ms.large", ms(s), "ms");

    let dir = serve_mix::scratch_dir().join("ledger");
    let result = (|| {
        let (mut d, bad) = Daemon::start(&dir, &inputs)?;
        rep.ops(inputs.warm.len() as u64 + 1, bad);
        let core = std::sync::Arc::clone(&d.core);
        let mut hit_ok = true;
        let s = span("serve.handle_line", || {
            per_call_secs(7, || {
                hit_ok &= core.handle_line(small).contains("\"cached\":true");
            })
        });
        rep.ops(1, u64::from(!hit_ok));
        rep.metric("serve.handle_line_hit_us", us(s), "us");
        let (ratio, w) = serve_hit_ratio(&mut d, &inputs, 1);
        rep.ops(
            w.samples.len() as u64,
            w.failed + serve_mix::verify_cold(&w),
        );
        rep.metric("serve.cache_hit_ratio", ratio, "ratio");
        // Timed windows of the mix, long enough that the upload p99 has
        // more than ten samples beyond it.
        let mut mix = serve_mix::Window::default();
        for round in 0..UPLOAD_WINDOWS {
            mix.absorb(serve_mix::window(&mut d, &inputs, 1.0, None, round + 2));
        }
        rep.ops(
            mix.samples.len() as u64,
            mix.failed + serve_mix::verify_cold(&mix),
        );
        let uploads = mix.latencies(Some(Kind::Upload));
        rep.metric("serve.upload_p99_ms", quantile(&uploads, 0.99) * 1e3, "ms");
        rep.note(format!(
            "serve.upload_p99_ms: {} uploads, {} beyond p99",
            uploads.len(),
            uploads.len() / 100
        ));
        rep.metric(
            "serve.cold_ms",
            median(&mix.latencies(Some(Kind::Cold))) * 1e3,
            "ms",
        );
        rep.metric(
            "serve.overloaded_retries",
            (w.overloaded_retries + mix.overloaded_retries) as f64,
            "count",
        );
        d.stop()?;

        let (store, _) = ifsim_serve::DiskStore::open(dir.join("put-probe"), 1 << 30)?;
        let mut i = 0u64;
        let mut put_err = 0;
        let s = per_call_secs(7, || {
            i += 1;
            let run = ifsim_serve::CachedRun {
                digest: format!("{i:032x}"),
                report: "perfbench put probe".into(),
                csv: inputs.warm[0].1.clone(),
                checks_passed: 1,
                checks_total: 1,
                critpath: None,
            };
            put_err += u64::from(span("serve.disk_put", || store.put(&run)).is_err());
        });
        rep.ops(i, put_err);
        rep.metric("serve.disk_put_ms", ms(s), "ms");
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}
