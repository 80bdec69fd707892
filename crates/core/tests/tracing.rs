//! The bounded event trace: protocol-visible events are recorded when
//! enabled and the tail renders usefully for diagnostics.

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::{body, Body, Dsm};
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};

fn run(trace_cap: Option<usize>) -> shasta_stats::RunStats {
    let topo = Topology::new(8, 4, 4).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 20);
    if let Some(cap) = trace_cap {
        m.enable_trace(cap);
    }
    let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let bodies: Vec<Body> = (0..8u32)
        .map(|p| {
            body(move |mut dsm: Dsm| async move {
                if p == 0 {
                    dsm.store_u64(a, 7).await;
                }
                dsm.barrier(0).await;
                if p == 4 {
                    assert_eq!(dsm.load_u64(a).await, 7);
                }
                dsm.barrier(1).await;
            })
        })
        .collect();
    m.run(bodies)
}

/// Tracing changes nothing observable: identical statistics with and
/// without it (the detail closures must not affect simulation state).
#[test]
fn tracing_is_observation_only() {
    let with = run(Some(1_000));
    let without = run(None);
    assert_eq!(with, without);
}

/// A tiny trace capacity neither panics nor perturbs the run.
#[test]
fn tiny_trace_capacity_is_safe() {
    let tiny = run(Some(2));
    let without = run(None);
    assert_eq!(tiny, without);
}
