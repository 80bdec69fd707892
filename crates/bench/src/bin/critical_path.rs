//! Causal run reports: per-kernel critical-path analysis over the six
//! Table 2 kernels, with zero-tolerance accounting.
//!
//! Each kernel runs once on clustered SMP-Shasta (8 processors, clustering
//! 4 — two physical nodes) with full event recording, the causal DAG is
//! reconstructed from the stream (`shasta_obs::critpath`), and the
//! critical path is printed as a deterministic text report
//! (`# shasta critical-path v1`): compute / protocol / wire / queueing /
//! sync segments that must **tile `[0, elapsed_cycles)` exactly** — the
//! binary aborts on any accounting hole. When the default ring would evict
//! events the run is retried with a deeper ring (the analysis refuses
//! incomplete streams), deterministically.
//!
//! Everything printed derives from simulated counters, so stdout is
//! deterministic. Host wall time goes only to the
//! `BENCH_critical_path.json` trajectory (one run object appended per
//! invocation, like the other `BENCH_*` files).
//!
//! ```text
//! critical_path [--preset tiny|default|large] [--quick] [--out PATH]
//! ```
//!
//! `--quick` is the CI smoke configuration: tiny preset unless `--preset`
//! says otherwise.

use std::time::Instant;

use shasta_apps::{run_app_observed, Preset, Proto, RunConfig};
use shasta_bench::{apps_for, preset_from_args, trajectory};
use shasta_obs::{critpath, CritPath};
use shasta_stats::{critical_path_report, RunStats};

const PROCS: u32 = 8;
const CLUSTERING: u32 = 4;
/// Ring-capacity ladder: start at the shared default, deepen on eviction.
const RINGS: [usize; 3] = [65_536, 262_144, 1 << 20];

struct Row {
    name: &'static str,
    elapsed: u64,
    segments: usize,
    wire_hops: usize,
    fallback_segments: usize,
    fallback_cycles: u64,
    top_cat: &'static str,
    top_cat_pct: f64,
    tiling_exact: bool,
    wall_ms: f64,
}

/// Runs one kernel with recording at the given ring depth.
fn run_once(
    spec: &shasta_apps::AppSpec,
    preset: Preset,
    ring: usize,
) -> (RunStats, shasta_obs::EventLog) {
    let app = (spec.build)(preset, false);
    let cfg = RunConfig::new(Proto::Smp, PROCS, CLUSTERING);
    run_app_observed(app.as_ref(), &cfg, ring)
}

/// Runs and analyzes one kernel, climbing the ring ladder until the
/// complete stream fits. Returns the stats, the verified path, and the
/// wall time of the final (analyzed) run.
fn analyze_kernel(spec: &shasta_apps::AppSpec, preset: Preset) -> (RunStats, CritPath, f64) {
    let mut last_err = String::new();
    for ring in RINGS {
        let t = Instant::now();
        let (stats, log) = run_once(spec, preset, ring);
        let wall = t.elapsed().as_secs_f64() * 1e3;
        if log.dropped() > 0 && ring != RINGS[RINGS.len() - 1] {
            continue;
        }
        match critpath::analyze(&log, stats.elapsed_cycles) {
            Ok(path) => return (stats, path, wall),
            Err(e) => last_err = e,
        }
    }
    panic!("{}: critical-path analysis failed: {last_err}", spec.name);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let quick = args.iter().any(|a| a == "--quick");
    let mut preset = preset_from_args();
    if quick && !args.iter().any(|a| a == "--preset") && std::env::var("SHASTA_PRESET").is_err() {
        preset = Preset::Tiny;
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let out = flag("--out").unwrap_or_else(|| "BENCH_critical_path.json".to_string());

    println!(
        "critical_path: causal run reports, SMP-Shasta {PROCS}p/{CLUSTERING}, {preset:?} inputs\n"
    );
    let mut rows = Vec::new();
    let mut total_wall = 0.0;
    for spec in apps_for(true, false) {
        let (stats, path, wall) = analyze_kernel(&spec, preset);
        total_wall += wall;
        let report = path.report();
        println!("=== {} ===", spec.name);
        println!("{}", critical_path_report(&report));
        let tiling_exact = path.crosscheck().is_ok();
        assert!(tiling_exact, "{}: critical path must tile elapsed exactly", spec.name);
        let (top, top_cycles) = path.top_cat();
        rows.push(Row {
            name: spec.name,
            elapsed: stats.elapsed_cycles,
            segments: path.segments.len(),
            wire_hops: path.wire_hops(),
            fallback_segments: path.fallback_segments(),
            fallback_cycles: path.fallback_cycles(),
            top_cat: top.label(),
            top_cat_pct: top_cycles as f64 / stats.elapsed_cycles.max(1) as f64 * 100.0,
            tiling_exact,
            wall_ms: wall,
        });
    }

    let tiling_pass = rows.iter().all(|r| r.tiling_exact);
    let mut entry = String::from("    {\n");
    entry.push_str(&format!(
        "      \"config\": {{\"preset\": \"{preset:?}\", \"procs\": {PROCS}, \"clustering\": {CLUSTERING}, \"host_cpus\": {host_cpus}, \"unix_time\": {}}},\n",
        trajectory::unix_stamp()
    ));
    entry.push_str("      \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        entry.push_str(&format!(
            "        {{\"name\": \"{}\", \"elapsed_cycles\": {}, \"segments\": {}, \"wire_hops\": {}, \"fallback_segments\": {}, \"fallback_cycles\": {}, \"top_cat\": \"{}\", \"top_cat_pct\": {:.2}, \"tiling_exact\": {}, \"wall_ms\": {:.2}}}{}\n",
            r.name,
            r.elapsed,
            r.segments,
            r.wire_hops,
            r.fallback_segments,
            r.fallback_cycles,
            r.top_cat,
            r.top_cat_pct,
            r.tiling_exact,
            r.wall_ms,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    entry.push_str("      ],\n");
    entry.push_str(&format!(
        "      \"summary\": {{\"tiling_pass\": {tiling_pass}, \"total_wall_ms\": {total_wall:.2}}}\n"
    ));
    entry.push_str("    }");

    let appended = trajectory::append(&out, "kernels", entry);
    println!(
        "tiling exact on {}/{} kernels",
        rows.iter().filter(|r| r.tiling_exact).count(),
        rows.len()
    );
    println!("wrote {out} (trajectory run #{appended})");
    assert!(tiling_pass, "every kernel's critical path must tile elapsed exactly");
}
