//! Every simulator over an equal, healthy topology holds one shared
//! `Router`; a fault that changes link health gives the faulted simulator
//! a private rebuilt router and leaves every other simulator's routes
//! alone. The faulted run is `ext-fault-link-down`'s first probe (1 GiB
//! GCD0→GCD2 peer copy, link 0-2 down at 5 ms, default bench seed) and is
//! pinned to the clock readings that experiment reports.

use ifsim_des::units::GIB;
use ifsim_des::Time;
use ifsim_hip::{Calibration, EnvConfig, FaultKind, FaultPlan, GcdId, HipSim, NodeTopology};
use ifsim_topology::{Path, PortId, RoutePolicy};

/// `BenchConfig::default()`'s seed, which `ext-fault-link-down` runs at.
const BENCH_SEED: u64 = 0xC0FFEE;

/// The copy's simulated duration on a healthy fabric and with the link
/// down, in ns: the report's "healthy 28.64 ms" and "faulted 33.70 ms".
const HEALTHY_NS: f64 = 28_641_692.407_795_165;
const FAULTED_NS: f64 = 33_698_292.513_499_565;

/// A simulator as the benchmarks build one (timing-only buffers).
fn runtime() -> HipSim {
    let mut hip = HipSim::with_config(
        NodeTopology::frontier(),
        Calibration::default(),
        EnvConfig::default(),
        BENCH_SEED,
    );
    hip.mem_mut().set_phantom_threshold(0);
    hip.enable_all_peer_access().unwrap();
    hip
}

/// Every GCD-pair route under both policies.
fn all_routes(hip: &HipSim) -> Vec<Path> {
    let gcds: Vec<GcdId> = hip.topo().gcds().collect();
    let mut routes = Vec::new();
    for &a in &gcds {
        for &b in gcds.iter().filter(|&&b| b != a) {
            for policy in [RoutePolicy::ShortestHop, RoutePolicy::MaxBandwidth] {
                routes.push(hip.router().gcd_route(a, b, policy).clone());
            }
        }
    }
    routes
}

/// `ext-fault-link-down`'s probe: a 1 GiB GCD0→GCD2 peer copy, returning
/// its simulated duration in ns.
fn copy_0_to_2(hip: &mut HipSim) -> f64 {
    hip.set_device(0).unwrap();
    let src = hip.malloc(GIB).unwrap();
    hip.set_device(2).unwrap();
    let dst = hip.malloc(GIB).unwrap();
    hip.set_device(0).unwrap();
    let t0 = hip.now();
    hip.memcpy_peer(dst, 2, src, 0, GIB).unwrap();
    (hip.now() - t0).as_ns()
}

fn link_0_2_down_at_5ms() -> FaultPlan {
    FaultPlan::new().at(
        Time::from_ns(5e6),
        FaultKind::LinkDown {
            a: GcdId(0),
            b: GcdId(2),
        },
    )
}

#[test]
fn fresh_simulators_share_one_healthy_router() {
    let a = runtime();
    let b = HipSim::new(EnvConfig::default());
    assert!(std::ptr::eq(a.router(), b.router()));
}

#[test]
fn a_link_down_in_one_simulator_leaves_the_others_routes_alone() {
    let bystander = runtime();
    let before = all_routes(&bystander);
    let mut faulted = runtime();
    faulted.set_fault_plan(link_0_2_down_at_5ms()).unwrap();
    assert_eq!(copy_0_to_2(&mut faulted), FAULTED_NS);
    assert_eq!(faulted.fault_stats().retries, 1);
    assert_eq!(faulted.fault_stats().failed_ops, 0);

    // The faulted simulator rebuilt a private router around the dead link.
    assert!(!std::ptr::eq(faulted.router(), bystander.router()));
    let link = faulted
        .topo()
        .link_between(PortId::Gcd(GcdId(0)), PortId::Gcd(GcdId(2)))
        .unwrap();
    let detour = faulted
        .router()
        .gcd_route(GcdId(0), GcdId(2), RoutePolicy::MaxBandwidth);
    assert!(!detour.uses_link(link));
    assert_eq!(
        detour.ports,
        [0, 1, 3, 2].map(|g| PortId::Gcd(GcdId(g))).to_vec()
    );

    // The bystander, and any simulator built afterwards, still hold the
    // shared healthy router with every route unchanged.
    assert_eq!(all_routes(&bystander), before);
    let mut later = runtime();
    assert!(std::ptr::eq(later.router(), bystander.router()));
    assert_eq!(copy_0_to_2(&mut later), HEALTHY_NS);
}
