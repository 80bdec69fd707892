#![warn(missing_docs)]

//! Experiment harness shared by the per-table/per-figure binaries.
//!
//! See `docs/ARCHITECTURE.md` for where this crate sits in the workspace.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md`'s per-experiment index): it sweeps the applications
//! through the relevant protocol/processor/clustering configurations via
//! [`shasta_apps::run_app`] and prints paper-style rows with
//! [`shasta_stats::Table`].
//!
//! Run them all with `cargo run --release -p shasta-bench --bin all_experiments`.

use shasta_apps::{
    registry, run_app, run_app_observed, run_app_observed_shaped, run_app_shaped, AppSpec, Preset,
    Proto, RunConfig,
};
use shasta_obs::EventLog;
use shasta_stats::{Breakdown, RunStats, TimeCat};

/// Default per-processor event-ring capacity for observed runs: deep enough
/// to keep the interesting tail of a Table 2 kernel while bounding memory.
/// Figure-4 aggregation stays exact even when the ring overflows.
pub const TRACE_RING_CAPACITY: usize = 65_536;

/// The processor/clustering points of the paper's parallel runs: 2- and
/// 4-processor runs use one node; 8 and 16 use two and four nodes (§4.3),
/// and SMP-Shasta uses clustering 2 at 2 processors, 4 elsewhere.
pub const PAPER_POINTS: [(u32, u32); 4] = [(2, 2), (4, 4), (8, 4), (16, 4)];

/// Runs `spec` at one configuration.
pub fn run(
    spec: &AppSpec,
    preset: Preset,
    proto: Proto,
    procs: u32,
    clustering: u32,
    vg: bool,
) -> RunStats {
    let app = (spec.build)(preset, false);
    let mut cfg = RunConfig::new(proto, procs, clustering);
    if vg {
        cfg = cfg.variable_granularity();
    }
    run_app(app.as_ref(), &cfg)
}

/// Runs `spec` at one configuration with event recording enabled, returning
/// the statistics plus the captured event log (ring capacity
/// [`TRACE_RING_CAPACITY`] per processor).
pub fn run_observed(
    spec: &AppSpec,
    preset: Preset,
    proto: Proto,
    procs: u32,
    clustering: u32,
    vg: bool,
) -> (RunStats, EventLog) {
    let app = (spec.build)(preset, false);
    let mut cfg = RunConfig::new(proto, procs, clustering);
    if vg {
        cfg = cfg.variable_granularity();
    }
    run_app_observed(app.as_ref(), &cfg, TRACE_RING_CAPACITY)
}

/// [`run_observed`] with a live metrics registry attached to the machine's
/// transport. The registry is write-only here: the caller gets the same
/// `(stats, log)` pair, which must be identical to a metrics-off run —
/// recording is purely additive (`scripts/ci.sh` byte-diffs Figure 4 both
/// ways to enforce it).
pub fn run_observed_metrics(
    spec: &AppSpec,
    preset: Preset,
    proto: Proto,
    procs: u32,
    clustering: u32,
    vg: bool,
) -> (RunStats, EventLog) {
    let app = (spec.build)(preset, false);
    let mut cfg = RunConfig::new(proto, procs, clustering);
    if vg {
        cfg = cfg.variable_granularity();
    }
    run_app_observed_shaped(app.as_ref(), &cfg, TRACE_RING_CAPACITY, |m| {
        m.set_metrics(&shasta_obs::Registry::enabled());
    })
}

/// Runs `spec` with a live metrics registry but **no** event recording —
/// the standalone cost of the metrics layer, measured by `obs_overhead`.
pub fn run_with_metrics(
    spec: &AppSpec,
    preset: Preset,
    proto: Proto,
    procs: u32,
    clustering: u32,
    vg: bool,
) -> RunStats {
    let app = (spec.build)(preset, false);
    let mut cfg = RunConfig::new(proto, procs, clustering);
    if vg {
        cfg = cfg.variable_granularity();
    }
    run_app_shaped(app.as_ref(), &cfg, |m| {
        m.set_metrics(&shasta_obs::Registry::enabled());
    })
}

/// Sequential baseline cycles for `spec` at `preset`.
pub fn seq_cycles(spec: &AppSpec, preset: Preset) -> u64 {
    run(spec, preset, Proto::Sequential, 1, 1, false).elapsed_cycles
}

/// Formats a cycle count as simulated seconds at 300 MHz.
pub fn secs(cycles: u64) -> String {
    format!("{:.2}s", cycles as f64 / 300e6)
}

/// Formats an overhead percentage relative to `base`.
pub fn overhead(cycles: u64, base: u64) -> String {
    format!("{:.1}%", (cycles as f64 / base as f64 - 1.0) * 100.0)
}

/// Formats a speedup.
pub fn speedup(seq: u64, par: u64) -> String {
    format!("{:.2}", seq as f64 / par as f64)
}

/// Renders one execution-time bar (normalized to `norm` cycles): total
/// percent plus the six category percentages — the textual analogue of one
/// bar in Figures 4 and 5.
pub fn breakdown_bar(label: &str, stats: &RunStats, norm: u64) -> String {
    breakdown_bar_from(label, &stats.total_breakdown(), stats.elapsed_cycles, norm)
}

/// Renders one execution-time bar from an explicit category breakdown and
/// elapsed-cycle count — the shared backend of [`breakdown_bar`] and of the
/// event-derived bars in `fig4_breakdown`.
pub fn breakdown_bar_from(label: &str, total: &Breakdown, elapsed: u64, norm: u64) -> String {
    let scale = elapsed as f64 / norm as f64 * 100.0;
    let mut out = format!("{label:<4} {scale:>6.1}% |");
    for cat in TimeCat::ALL {
        out.push_str(&format!(" {}={:>4.1}%", cat.label(), total.fraction(cat) * scale));
    }
    out
}

/// Parses the common `--trace <path>` CLI flag: when present, the binary
/// exports a Chrome `trace_event` JSON timeline of its first observed run to
/// `<path>` (load it in `chrome://tracing` or Perfetto).
pub fn trace_path_from_args() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--trace")?;
    args.get(i + 1).cloned()
}

/// Writes `log` as Chrome `trace_event` JSON to `path`.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_chrome_trace(path: &str, log: &EventLog) {
    std::fs::write(path, shasta_obs::chrome::to_chrome_json(log))
        .unwrap_or_else(|e| panic!("cannot write trace to {path}: {e}"));
    eprintln!("wrote Chrome trace ({} events) to {path}", log.len());
}

/// Splices the wire fabric's event log into an engine-side Chrome trace:
/// wire events become instant markers on a second trace process (`pid` 1,
/// one row per physical node), and every event carrying a nonzero trace
/// context additionally emits a flow **step** bound to the engine-side flow
/// **start** of the same miss id — so one miss renders as a single causal
/// arrow spanning the simulator and the wire (see `docs/TRANSPORT.md` §6).
///
/// The two processes count time in different units — engine rows in
/// simulated cycles, wire rows in wall-clock microseconds since wire-event
/// recording was enabled — which Chrome/Perfetto display side by side;
/// flows still bind purely by `(cat, name, id)`.
///
/// # Panics
///
/// Panics if `engine_json` is not an exporter-shaped trace document
/// (`...]}` tail), which would mean it did not come from
/// [`shasta_obs::chrome::to_chrome_json`].
pub fn merge_wire_trace(engine_json: &str, events: &[shasta_transport::WireEvent]) -> String {
    use shasta_obs::chrome::{MISS_FLOW_CAT, MISS_FLOW_NAME};
    use std::fmt::Write as _;
    let body = engine_json
        .strip_suffix("]}")
        .unwrap_or_else(|| panic!("engine trace does not end in ']}}'"));
    let mut out = String::with_capacity(engine_json.len() + 160 * events.len() + 256);
    out.push_str(body);
    let _ = write!(
        out,
        ",{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"wire fabric (wall-clock us)\"}}}}"
    );
    let mut nodes: Vec<u32> = events.iter().map(|e| e.src_node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for n in &nodes {
        let _ = write!(
            out,
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{n},\
             \"args\":{{\"name\":\"node {n} tx\"}}}}"
        );
    }
    for e in events {
        let _ = write!(
            out,
            ",{{\"name\":\"{}\",\"cat\":\"wire\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
             \"tid\":{},\"ts\":{},\"args\":{{\"src\":{},\"dst\":{},\"seq\":{},\"trace\":{}}}}}",
            e.kind, e.src_node, e.t_us, e.src_node, e.dst_node, e.seq, e.trace
        );
        if e.trace != 0 {
            let _ = write!(
                out,
                ",{{\"name\":\"{MISS_FLOW_NAME}\",\"cat\":\"{MISS_FLOW_CAT}\",\"ph\":\"t\",\
                 \"id\":{},\"pid\":1,\"tid\":{},\"ts\":{}}}",
                e.trace, e.src_node, e.t_us
            );
        }
    }
    out.push_str("]}");
    out
}

/// Applications selected for a table, in registry order.
pub fn apps_for(table2_only: bool, table3_only: bool) -> Vec<AppSpec> {
    registry()
        .into_iter()
        .filter(|s| (!table2_only || s.in_table2) && (!table3_only || s.in_table3))
        .collect()
}

/// Parses the common `--preset tiny|default|large` CLI flag (the
/// `SHASTA_PRESET` env var is also honoured) so experiments can be
/// smoke-tested quickly; defaults to `default`.
pub fn preset_from_args() -> Preset {
    let mut preset = std::env::var("SHASTA_PRESET").unwrap_or_default();
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--preset") {
        if let Some(v) = args.get(i + 1) {
            preset = v.clone();
        }
    }
    match preset.as_str() {
        "tiny" => Preset::Tiny,
        "large" => Preset::Large,
        _ => Preset::Default,
    }
}

/// Parses the common `-j`/`--jobs` CLI flag (0 = one worker per CPU) and
/// resolves it the same way `shasta-check` does: an absent flag falls back
/// to `SHASTA_CHECK_JOBS`, else serial. Safe for any binary whose printed
/// output is derived purely from simulated counters — the simulation is
/// deterministic, so worker count never changes the bytes printed.
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    shasta_check::resolve_jobs(shasta_check::flag_value(&args, &["-j", "--jobs"]))
}

/// Shared plumbing for the append-only `BENCH_*.json` *trajectory* files:
/// every benchmark invocation appends one run object to the file's `"runs"`
/// array, so host-performance regressions stay visible across commits (and
/// `scripts/perf_gate.sh` can gate CI on the last two entries).
pub mod trajectory {
    use shasta_obs::chrome::{parse, Json};

    /// Seconds since the Unix epoch, for stamping trajectory entries.
    pub fn unix_stamp() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or_default()
    }

    /// Compact re-serialization of a parsed prior run (used when appending
    /// to an existing trajectory; also wraps legacy single-run files).
    pub fn render(v: &Json) -> String {
        match v {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            Json::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            Json::Arr(items) => {
                let inner: Vec<String> = items.iter().map(render).collect();
                format!("[{}]", inner.join(", "))
            }
            Json::Obj(members) => {
                let inner: Vec<String> =
                    members.iter().map(|(k, v)| format!("\"{k}\": {}", render(v))).collect();
                format!("{{{}}}", inner.join(", "))
            }
        }
    }

    /// Prior trajectory entries from `path`: the `"runs"` array if present,
    /// a legacy single-run object (recognized by `legacy_key`) wrapped as
    /// one entry, or empty.
    pub fn prior_runs(path: &str, legacy_key: &str) -> Vec<String> {
        let Ok(text) = std::fs::read_to_string(path) else { return Vec::new() };
        let Ok(doc) = parse(&text) else {
            eprintln!("warning: {path} is not valid JSON; starting a fresh trajectory");
            return Vec::new();
        };
        match doc.get("runs").and_then(Json::as_arr) {
            Some(runs) => runs.iter().map(|r| format!("    {}", render(r))).collect(),
            None if doc.get(legacy_key).is_some() => vec![format!("    {}", render(&doc))],
            None => Vec::new(),
        }
    }

    /// Appends `entry` to the trajectory at `path` (creating it when absent)
    /// and returns this run's 1-based position in the trajectory.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn append(path: &str, legacy_key: &str, entry: String) -> usize {
        let mut runs = prior_runs(path, legacy_key);
        runs.push(entry);
        let json = format!("{{\n  \"runs\": [\n{}\n  ]\n}}\n", runs.join(",\n"));
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        runs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(300_000_000), "1.00s");
        assert_eq!(overhead(121, 100), "21.0%");
        assert_eq!(speedup(100, 20), "5.00");
    }

    #[test]
    fn paper_points_match_section_4_3() {
        assert_eq!(PAPER_POINTS, [(2, 2), (4, 4), (8, 4), (16, 4)]);
    }

    #[test]
    fn app_filters() {
        assert_eq!(apps_for(false, false).len(), 9);
        assert_eq!(apps_for(true, false).len(), 6);
        assert_eq!(apps_for(false, true).len(), 7);
    }

    #[test]
    fn merged_wire_trace_parses_and_carries_flow_steps() {
        // The exporter always leads with a process_name metadata record, so
        // this literal matches the real `to_chrome_json` document shape.
        let engine = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
                      {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
                      \"args\":{\"name\":\"shasta simulated run\"}}]}";
        let events = vec![
            shasta_transport::WireEvent {
                t_us: 10,
                kind: "data_tx",
                src_node: 0,
                dst_node: 1,
                seq: 1,
                trace: 7,
            },
            shasta_transport::WireEvent {
                t_us: 25,
                kind: "ack_rx",
                src_node: 1,
                dst_node: 0,
                seq: 1,
                trace: 0,
            },
        ];
        let merged = merge_wire_trace(engine, &events);
        let doc = shasta_obs::chrome::parse(&merged).expect("merged trace must stay valid JSON");
        let evs = doc.get("traceEvents").and_then(|v| v.as_arr()).expect("traceEvents array");
        let wire: Vec<_> =
            evs.iter().filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("wire")).collect();
        assert_eq!(wire.len(), 2, "one instant per wire event");
        let steps: Vec<_> = evs
            .iter()
            .filter(|e| {
                e.get("cat").and_then(|c| c.as_str()) == Some(shasta_obs::chrome::MISS_FLOW_CAT)
                    && e.get("ph").and_then(|p| p.as_str()) == Some("t")
            })
            .collect();
        assert_eq!(steps.len(), 1, "only the trace!=0 event emits a flow step");
        assert_eq!(steps[0].get("id").and_then(|v| v.as_u64()), Some(7));
    }
}
