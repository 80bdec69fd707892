//! A timing [`Transport`] wrapper: forwards every trait method to the
//! simulated Memory Channel and times the four calls the engine makes per
//! message (send, pop, peek, admit) from outside the `shasta-memchan` crate.
//! Forwarding is exact, so a run through the wrapper is bit-identical to one
//! without it.
//!
//! A clock read costs about as much as a peek, so every timed span has the
//! calibrated cost of an empty span subtracted, and peeks — issued once per
//! processor per scheduling step — are timed one call in [`PEEK_STRIDE`]
//! and scaled up. Call counts are exact.

use std::cell::Cell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use shasta_cluster::NetProfile;
use shasta_core::protocol::ProtoMsg;
use shasta_memchan::{Envelope, FaultCounts, FaultPlan, Network, PdesSendRecord, Transport};
use shasta_sim::Time;
use shasta_stats::{MsgClass, MsgStats};

/// Calls and host nanoseconds for one transport method.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallTally {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds spent inside them.
    pub ns: u64,
}

impl CallTally {
    fn add(&mut self, other: CallTally) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// What the wrapper measured over one or more runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemchanTally {
    /// `send` and `send_to_vnode`.
    pub send: CallTally,
    /// `pop_any_earliest`.
    pub pop: CallTally,
    /// `pop_any_earliest` calls that returned a message.
    pub pop_hits: u64,
    /// `peek_any_arrival`.
    pub peek: CallTally,
    /// `admit`.
    pub admit: CallTally,
    /// `admit` calls that absorbed the message (duplicate or held).
    pub admit_absorbed: u64,
}

impl MemchanTally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &MemchanTally) {
        self.send.add(other.send);
        self.pop.add(other.pop);
        self.pop_hits += other.pop_hits;
        self.peek.add(other.peek);
        self.admit.add(other.admit);
        self.admit_absorbed += other.admit_absorbed;
    }

    /// Host seconds inside all four methods.
    pub fn total_s(&self) -> f64 {
        (self.send.ns + self.pop.ns + self.peek.ns + self.admit.ns) as f64 * 1e-9
    }
}

/// The wrapper. Tallies accumulate locally (the engine drives the transport
/// from one thread) and are published to the shared sink when the machine
/// drops its transport.
#[derive(Debug)]
struct TimingTransport {
    inner: Network<ProtoMsg>,
    tally: MemchanTally,
    peek: Cell<CallTally>,
    floor: u64,
    sink: Arc<Mutex<MemchanTally>>,
}

impl TimingTransport {
    /// Wraps `inner`; the tally is added to `sink` on drop.
    fn new(inner: Network<ProtoMsg>, sink: Arc<Mutex<MemchanTally>>) -> Self {
        let (tally, peek, floor) = (MemchanTally::default(), Cell::default(), timer_floor_ns());
        TimingTransport { inner, tally, peek, floor, sink }
    }
}

impl Drop for TimingTransport {
    fn drop(&mut self) {
        self.tally.peek = self.peek.get();
        // A poisoned sink means a run panicked; the panic is reported there.
        if let Ok(mut sink) = self.sink.lock() {
            sink.add(&self.tally);
        }
    }
}

/// One peek in this many is timed. Prime, so that the sampled calls rotate
/// over the processors the engine peeks in turn.
const PEEK_STRIDE: u64 = 17;

/// Median host nanoseconds of an empty timed span on this host.
fn timer_floor_ns() -> u64 {
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let mut spans: Vec<u128> = (0..10_001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos()
            })
            .collect();
        spans.sort_unstable();
        u64::try_from(spans[spans.len() / 2]).unwrap_or(0)
    })
}

fn elapsed_ns(t: Instant, floor: u64) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX).saturating_sub(floor)
}

impl Transport<ProtoMsg> for TimingTransport {
    fn send(
        &mut self,
        src: u32,
        dst: u32,
        msg: ProtoMsg,
        payload_bytes: u64,
        now: Time,
        class_override: Option<MsgClass>,
    ) -> Time {
        let t = Instant::now();
        let at =
            Transport::send(&mut self.inner, src, dst, msg, payload_bytes, now, class_override);
        self.tally.send.add(CallTally { calls: 1, ns: elapsed_ns(t, self.floor) });
        at
    }

    fn send_to_vnode(
        &mut self,
        src: u32,
        dst: u32,
        msg: ProtoMsg,
        payload_bytes: u64,
        now: Time,
    ) -> Time {
        let t = Instant::now();
        let at = Transport::send_to_vnode(&mut self.inner, src, dst, msg, payload_bytes, now);
        self.tally.send.add(CallTally { calls: 1, ns: elapsed_ns(t, self.floor) });
        at
    }

    fn peek_any_arrival(&self, p: u32, include_vnode: bool) -> Option<Time> {
        let mut tally = self.peek.get();
        tally.calls += 1;
        let at = if tally.calls.is_multiple_of(PEEK_STRIDE) {
            let t = Instant::now();
            let at = Transport::peek_any_arrival(&self.inner, p, include_vnode);
            tally.ns += elapsed_ns(t, self.floor) * PEEK_STRIDE;
            at
        } else {
            Transport::peek_any_arrival(&self.inner, p, include_vnode)
        };
        self.peek.set(tally);
        at
    }

    fn pop_any_earliest(&mut self, p: u32, include_vnode: bool) -> Option<Envelope<ProtoMsg>> {
        let t = Instant::now();
        let env = Transport::pop_any_earliest(&mut self.inner, p, include_vnode);
        self.tally.pop.add(CallTally { calls: 1, ns: elapsed_ns(t, self.floor) });
        self.tally.pop_hits += u64::from(env.is_some());
        env
    }

    fn admit(&mut self, env: Envelope<ProtoMsg>, now: Time) -> Option<Envelope<ProtoMsg>> {
        let t = Instant::now();
        let out = Transport::admit(&mut self.inner, env, now);
        self.tally.admit.add(CallTally { calls: 1, ns: elapsed_ns(t, self.floor) });
        self.tally.admit_absorbed += u64::from(out.is_none());
        out
    }

    fn in_flight(&self) -> usize {
        Transport::in_flight(&self.inner)
    }

    fn stats(&self) -> &MsgStats {
        Transport::stats(&self.inner)
    }

    fn fault_active(&self) -> bool {
        Transport::fault_active(&self.inner)
    }

    fn fault_counts(&self) -> FaultCounts {
        Transport::fault_counts(&self.inner)
    }

    fn held_messages(&self) -> usize {
        Transport::held_messages(&self.inner)
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        Transport::set_fault_plan(&mut self.inner, plan)
    }

    fn set_profile(&mut self, profile: NetProfile) {
        Transport::set_profile(&mut self.inner, profile)
    }

    fn set_trace_context(&mut self, ctx: u32) {
        Transport::set_trace_context(&mut self.inner, ctx)
    }

    fn set_metrics(&mut self, registry: &shasta_obs::Registry) {
        Transport::set_metrics(&mut self.inner, registry)
    }

    fn shutdown(&mut self) {
        Transport::shutdown(&mut self.inner)
    }

    fn pdes_lookahead(&self) -> Option<u64> {
        Transport::pdes_lookahead(&self.inner)
    }

    fn pdes_begin_event(&mut self, event_index: u32) {
        Transport::pdes_begin_event(&mut self.inner, event_index)
    }

    fn pdes_take_window(&mut self) -> Vec<(u32, PdesSendRecord<ProtoMsg>)> {
        Transport::pdes_take_window(&mut self.inner)
    }

    fn pdes_apply(&mut self, remap: &[(u64, u64)], injections: Vec<(Envelope<ProtoMsg>, u64)>) {
        Transport::pdes_apply(&mut self.inner, remap, injections)
    }
}

/// Replaces `m`'s transport with a [`TimingTransport`] around a fresh
/// simulated Memory Channel for the same topology and cost model — the
/// backend `Machine::new` installs. Call before `set_metrics`, so registry
/// handles land on the wrapped network.
pub fn install(m: &mut shasta_core::Machine, sink: &Arc<Mutex<MemchanTally>>) {
    let net = Network::new(m.topology().clone(), m.cost_model().clone());
    m.set_transport(Box::new(TimingTransport::new(net, Arc::clone(sink))));
}
