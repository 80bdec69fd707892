//! Bounded event tracing for debugging protocol runs.
//!
//! The engine can record the last N protocol-visible events; when an
//! invariant check fails, the trace tail gives the interleaving that led to
//! the failure. Tracing is off by default ([`Trace::disabled`]) and costs a
//! branch per event when off.

use std::collections::VecDeque;
use std::fmt;

use crate::time::Time;

/// One recorded engine event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Simulated time at which the event occurred.
    pub time: Time,
    /// The processor involved.
    pub proc: u32,
    /// Static event kind, e.g. `"read-miss"`, `"downgrade"`.
    pub label: &'static str,
    /// Free-form detail (address, message id, …).
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} P{}] {}: {}", self.time, self.proc, self.label, self.detail)
    }
}

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// # Example
///
/// ```
/// use shasta_sim::{Time, Trace};
///
/// let mut trace = Trace::bounded(2);
/// trace.record(Time::ZERO, 0, "read-miss", || "addr 0x40".to_string());
/// trace.record(Time::ZERO + 10, 1, "reply", || "addr 0x40".to_string());
/// trace.record(Time::ZERO + 20, 0, "resume", || String::new());
/// assert_eq!(trace.events().count(), 2); // oldest evicted
/// ```
#[derive(Clone, Debug, Default)]
pub struct Trace {
    capacity: usize,
    events: VecDeque<TraceEvent>,
}

impl Trace {
    /// A trace that records nothing.
    pub fn disabled() -> Self {
        Trace { capacity: 0, events: VecDeque::new() }
    }

    /// A trace keeping the most recent `capacity` events.
    pub fn bounded(capacity: usize) -> Self {
        Trace { capacity, events: VecDeque::with_capacity(capacity.min(4_096)) }
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records an event; `detail` is only evaluated when tracing is enabled.
    pub fn record(
        &mut self,
        time: Time,
        proc: u32,
        label: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(TraceEvent { time, proc, label, detail: detail() });
    }

    /// Iterator over recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Renders the trace tail for a diagnostic message.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(out, "{e}");
        }
        out
    }

    /// Renders only the last `n` recorded events, noting how many were
    /// elided (used in checker counterexample dumps, where the failing
    /// window matters more than the full history).
    pub fn render_tail(&self, n: usize) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        if !self.is_enabled() {
            return out;
        }
        let skipped = self.events.len().saturating_sub(n);
        if skipped > 0 {
            let _ = writeln!(out, "... {skipped} earlier events elided ...");
        }
        for e in self.events.iter().skip(skipped) {
            let _ = writeln!(out, "{e}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing_and_skips_detail() {
        let mut t = Trace::disabled();
        t.record(Time::ZERO, 0, "x", || panic!("detail must not be evaluated"));
        assert_eq!(t.events().count(), 0);
        assert!(!t.is_enabled());
    }

    #[test]
    fn bounded_trace_evicts_oldest() {
        let mut t = Trace::bounded(3);
        for i in 0..5u64 {
            t.record(Time::from_cycles(i), 0, "e", || i.to_string());
        }
        let kept: Vec<_> = t.events().map(|e| e.detail.clone()).collect();
        assert_eq!(kept, vec!["2", "3", "4"]);
    }

    #[test]
    fn render_is_line_per_event() {
        let mut t = Trace::bounded(8);
        t.record(Time::from_cycles(1), 2, "miss", || "a".into());
        t.record(Time::from_cycles(2), 3, "reply", || "b".into());
        let s = t.render();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("P2"));
        assert!(s.contains("miss"));
    }

    #[test]
    fn render_tail_elides_older_events() {
        let mut t = Trace::bounded(16);
        for i in 0..10u64 {
            t.record(Time::from_cycles(i), 0, "e", || i.to_string());
        }
        let s = t.render_tail(3);
        assert_eq!(s.lines().count(), 4, "elision note plus the 3 kept events");
        assert!(s.starts_with("... 7 earlier events elided ..."));
        assert!(s.contains(": 7\n") && s.contains(": 9\n"), "kept the newest events");
        assert!(!s.contains(": 6\n"), "older events are gone");
    }

    #[test]
    fn render_tail_without_overflow_has_no_elision_note() {
        let mut t = Trace::bounded(16);
        t.record(Time::from_cycles(1), 1, "only", || "x".into());
        let s = t.render_tail(8);
        assert_eq!(s.lines().count(), 1);
        assert!(!s.contains("elided"));
    }

    #[test]
    fn render_tail_of_disabled_trace_is_empty() {
        assert_eq!(Trace::disabled().render_tail(8), "");
    }
}
