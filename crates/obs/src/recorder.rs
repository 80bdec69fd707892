//! The recorder: per-processor bounded event rings plus the streaming
//! aggregators (Figure 4 slices, Figure 6/7 rederivation, the sharing
//! profiler), and the immutable [`EventLog`] a finished run hands to the
//! exporters.

use crate::event::{Event, EventKind};
use crate::fig4::Fig4Agg;
use crate::profile::{ProfileAgg, SpaceMap};
use crate::rederive::{DowngradeAgg, MissAgg, MsgAgg};

/// Bounded ring of recent events for one processor. When full, the oldest
/// event is overwritten and counted as dropped — the exported timeline is a
/// suffix of the run, but aggregation (fed before eviction) is unaffected.
#[derive(Clone, Debug)]
struct ProcRing {
    cap: usize,
    buf: Vec<Event>,
    /// Index of the oldest retained event once the ring has wrapped.
    start: usize,
    dropped: u64,
}

impl ProcRing {
    fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        ProcRing { cap, buf: Vec::new(), start: 0, dropped: 0 }
    }

    fn push(&mut self, e: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.start] = e;
            // Wrapping increment without the integer division a `% cap`
            // would cost on this per-event path.
            self.start += 1;
            if self.start == self.cap {
                self.start = 0;
            }
            self.dropped += 1;
        }
    }

    /// Retained events, oldest first.
    fn drain_in_order(mut self) -> Vec<Event> {
        self.buf.rotate_left(self.start);
        self.buf
    }
}

/// Records protocol events during a run.
///
/// A disabled recorder (the default) reduces every [`record`](Self::record)
/// call to a single branch; an enabled one appends to the acting
/// processor's ring and streams time slices into the [`Fig4Agg`].
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    rings: Vec<ProcRing>,
    agg: Fig4Agg,
    miss: MissAgg,
    dg: DowngradeAgg,
    msg: Option<MsgAgg>,
    profile: Option<ProfileAgg>,
    /// Events staged in global record order and replayed through the
    /// aggregators in batches (see [`Recorder::flush`]). Global order is
    /// load-bearing: the sharing profiler's transitions depend on the
    /// cross-processor interleaving of events, so staging must not reorder.
    staged: Vec<Event>,
    enabled: bool,
}

/// Staged events are flushed through the aggregators once this many have
/// accumulated (or earlier, at every poll-drain boundary).
const STAGE_CAPACITY: usize = 1024;

impl Recorder {
    /// A recorder that ignores every event (the engine's default).
    pub fn disabled() -> Self {
        Recorder::default()
    }

    /// A recorder for `procs` processors retaining up to `ring_capacity`
    /// events per processor in the exported timeline.
    pub fn enabled(procs: usize, ring_capacity: usize) -> Self {
        Recorder {
            rings: (0..procs).map(|_| ProcRing::new(ring_capacity)).collect(),
            agg: Fig4Agg::new(procs),
            miss: MissAgg::default(),
            dg: DowngradeAgg::default(),
            msg: None,
            profile: None,
            staged: Vec::with_capacity(STAGE_CAPACITY),
            enabled: true,
        }
    }

    /// Whether this recorder keeps events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attaches a shared-space snapshot, enabling the message-class
    /// rederivation and the sharing profiler (both need the allocation table
    /// and processor placement). Call after application setup so every
    /// allocation — and its site label — is known.
    pub fn attach_map(&mut self, map: SpaceMap) {
        self.msg = Some(MsgAgg::new(map.clone()));
        self.profile = Some(ProfileAgg::new(map));
    }

    /// Records `kind` happening on processor `p` at simulated cycle `t`.
    /// No-op (one branch) when the recorder is disabled.
    ///
    /// The hot path is a single bounds-checked push: events stage into a
    /// batch and replay through the aggregators and rings at poll-drain
    /// boundaries (or when the batch fills), amortizing the aggregators'
    /// dispatch over many events while preserving exact record order.
    pub fn record(&mut self, t: u64, p: u32, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let flush_now = matches!(kind, EventKind::PollDrain { .. });
        self.staged.push(Event { t, proc: p, kind });
        if flush_now || self.staged.len() >= STAGE_CAPACITY {
            self.flush();
        }
    }

    /// Replays the staged batch — in global record order — through the
    /// streaming aggregators and the per-processor rings.
    fn flush(&mut self) {
        let staged = std::mem::take(&mut self.staged);
        for e in &staged {
            if let EventKind::Slice { cat, cycles } = e.kind {
                self.agg.observe_slice(e.proc, e.t, cat, cycles);
            }
            self.miss.observe(&e.kind);
            self.dg.observe(&e.kind);
            if let Some(msg) = &mut self.msg {
                msg.observe(e.proc, &e.kind);
            }
            if let Some(profile) = &mut self.profile {
                profile.observe(e.proc, &e.kind);
            }
            self.rings[e.proc as usize].push(*e);
        }
        // Keep the allocation for the next batch.
        self.staged = staged;
        self.staged.clear();
    }

    /// Consumes the recorder into the immutable log handed to exporters.
    pub fn into_log(mut self) -> EventLog {
        self.flush();
        EventLog {
            procs: self
                .rings
                .into_iter()
                .map(|r| {
                    let dropped = r.dropped;
                    ProcEvents { dropped, events: r.drain_in_order() }
                })
                .collect(),
            agg: self.agg,
            miss: self.miss,
            dg: self.dg,
            msg: self.msg,
            profile: self.profile,
        }
    }
}

/// The retained timeline of one processor.
#[derive(Clone, Debug)]
pub struct ProcEvents {
    /// Retained events in record (and therefore time) order.
    pub events: Vec<Event>,
    /// Events evicted from the ring before export (0 = complete timeline).
    pub dropped: u64,
}

/// Everything recorded during one run: per-processor timelines plus the
/// streamed Figure 4 aggregation.
#[derive(Clone, Debug)]
pub struct EventLog {
    procs: Vec<ProcEvents>,
    agg: Fig4Agg,
    miss: MissAgg,
    dg: DowngradeAgg,
    msg: Option<MsgAgg>,
    profile: Option<ProfileAgg>,
}

impl EventLog {
    /// Number of processors in the log.
    pub fn procs(&self) -> usize {
        self.procs.len()
    }

    /// Processor `p`'s retained timeline.
    pub fn proc(&self, p: u32) -> &ProcEvents {
        &self.procs[p as usize]
    }

    /// Total retained events across all processors.
    pub fn len(&self) -> usize {
        self.procs.iter().map(|pe| pe.events.len()).sum()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events evicted from the rings before export.
    pub fn dropped(&self) -> u64 {
        self.procs.iter().map(|pe| pe.dropped).sum()
    }

    /// The Figure 4 aggregation streamed during the run (covers the whole
    /// run regardless of ring eviction).
    pub fn fig4(&self) -> &Fig4Agg {
        &self.agg
    }

    /// The event-derived Figure 6 miss counters (streamed, run-wide).
    pub fn misses(&self) -> &MissAgg {
        &self.miss
    }

    /// The event-derived Figure 8 downgrade counters (streamed, run-wide).
    pub fn downgrades(&self) -> &DowngradeAgg {
        &self.dg
    }

    /// The event-derived Figure 7 message counters, if a [`SpaceMap`] was
    /// attached before the run.
    pub fn msgs(&self) -> Option<&MsgAgg> {
        self.msg.as_ref()
    }

    /// The sharing-pattern profiler, if a [`SpaceMap`] was attached before
    /// the run.
    pub fn profile(&self) -> Option<&ProfileAgg> {
        self.profile.as_ref()
    }

    /// Iterates every retained event, processor by processor.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.procs.iter().flat_map(|pe| pe.events.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shasta_stats::TimeCat;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.record(5, 0, EventKind::PollDrain { handled: 1 });
        let log = r.into_log();
        assert_eq!(log.procs(), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = Recorder::enabled(1, 3);
        for i in 0..5u64 {
            r.record(i, 0, EventKind::PollDrain { handled: i as u32 });
        }
        let log = r.into_log();
        let pe = log.proc(0);
        assert_eq!(pe.dropped, 2);
        let ts: Vec<u64> = pe.events.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![2, 3, 4], "oldest events evicted, order preserved");
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn slices_feed_aggregation_even_after_eviction() {
        let mut r = Recorder::enabled(1, 2);
        for i in 0..10u64 {
            r.record(i * 10, 0, EventKind::Slice { cat: TimeCat::Task, cycles: 10 });
        }
        let log = r.into_log();
        assert_eq!(log.proc(0).events.len(), 2, "timeline is a suffix");
        assert_eq!(log.fig4().breakdown(0).get(TimeCat::Task), 100, "aggregation sees all");
        assert_eq!(log.fig4().span(0), 100);
    }

    #[test]
    fn events_route_to_their_processor() {
        let mut r = Recorder::enabled(2, 8);
        r.record(
            1,
            0,
            EventKind::CheckMiss { id: 1, block: 0x40, addr: 0x48, len: 8, write: false },
        );
        r.record(
            2,
            1,
            EventKind::CheckMiss { id: 2, block: 0x80, addr: 0x80, len: 4, write: true },
        );
        let log = r.into_log();
        assert_eq!(log.proc(0).events.len(), 1);
        assert_eq!(log.proc(1).events.len(), 1);
        assert_eq!(log.proc(1).events[0].proc, 1);
        assert_eq!(log.iter().count(), 2);
    }
}
