//! Programming-error diagnostics: misuse panics loudly rather than
//! corrupting the simulation.

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::{body, Body, Dsm};
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};

fn machine() -> Machine {
    let topo = Topology::new(4, 4, 4).unwrap();
    Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 20)
}

#[test]
#[should_panic(expected = "unallocated shared address")]
fn access_to_unallocated_memory_panics() {
    let mut m = machine();
    m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let bodies: Vec<Body> = (0..4u32)
        .map(|p| {
            body(move |mut dsm: Dsm| async move {
                if p == 0 {
                    // Way past the single allocation.
                    let _ = dsm.load_u64(0x9000).await;
                }
            })
        })
        .collect();
    m.run(bodies);
}

#[test]
#[should_panic(expected = "release of unknown lock")]
fn releasing_an_unheld_lock_panics() {
    let mut m = machine();
    m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let bodies: Vec<Body> = (0..4u32)
        .map(|p| {
            body(move |mut dsm: Dsm| async move {
                if p == 1 {
                    dsm.release(3).await;
                }
            })
        })
        .collect();
    m.run(bodies);
}

#[test]
#[should_panic(expected = "one program per processor")]
fn wrong_body_count_panics() {
    let mut m = machine();
    m.run(vec![body(|_dsm| async {})]);
}

#[test]
#[should_panic(expected = "application panic propagates")]
fn application_panics_propagate_to_the_caller() {
    let mut m = machine();
    m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let bodies: Vec<Body> = (0..4u32)
        .map(|p| {
            body(move |mut dsm: Dsm| async move {
                dsm.compute(10);
                dsm.poll().await;
                if p == 2 {
                    panic!("application panic propagates");
                }
            })
        })
        .collect();
    m.run(bodies);
}
