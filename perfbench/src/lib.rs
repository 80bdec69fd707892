//! The repository benchmark: host cost of the Shasta reproduction, end to
//! end and layer by layer, on three workloads (see `README.md` in this
//! directory for why each was chosen and what each metric should move).
//!
//! One process drives everything from one thread (the simulator's fibers
//! are its own threads): the serial engine with the deterministic policy,
//! called through the workspace's public entry points.
//! Layers are timed from outside, around the calls into them. Every
//! simulated output is checked against the values in `pinned/`.

pub mod host;
pub mod memchan_timing;
pub mod pins;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use shasta_apps::{registry, run_app_observed_shaped, run_app_shaped, Preset, Proto, RunConfig};
use shasta_check::{
    run_checked_ctx, run_scenario, shrink_ctx, silence_expected_panics, ClusterKind,
    Counterexample, FaultPlan, Kernel, RunCtx, Scenario,
};
use shasta_core::{BugInjection, Machine, Mode};
use shasta_sim::SchedulePolicy;
use shasta_stats::RunStats;

use host::{ProcCpu, ThreadClock};
use memchan_timing::MemchanTally;
use pins::{Counts, Pins};

/// The six Table 2 kernels, in the paper's order.
pub const KERNELS: [&str; 6] = ["Barnes", "FMM", "LU", "LU-Contig", "Volrend", "Water-Nsq"];
/// Processors of the paper's headline machine.
pub const PROCS: u32 = 16;
/// SMP-Shasta clustering of the headline machine (four 4-processor nodes).
pub const CLUSTERING: u32 = 4;
/// Event-ring capacity per processor for `recorded`.
pub const RING: usize = 65_536;
/// Checker seeds per sweep window.
pub const SWEEP_SEEDS: u64 = 170;
/// The clean sweep's window starts at `seed % SEED_WINDOWS`; `pinned/`
/// holds counts for every seed such a window can reach.
pub const SEED_WINDOWS: u64 = 1024;
/// The injected protocol bugs the oracles must catch.
pub const BUGS: [BugInjection; 2] =
    [BugInjection::SkipDowngradeWait, BugInjection::DropPrivDowngrade];
/// Zero-round checker runs per scenario when timing `sweep`'s set-up.
const SETUP_REPS: usize = 5;

/// One set of inputs the benchmark runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The six kernels at the Default preset under SMP-Shasta 16p/4 and
    /// Base-Shasta 16p, recording off.
    Kernels,
    /// 1,700 oracle-checked schedules, then both injected bugs caught and
    /// shrunk.
    Sweep,
    /// The six kernels under SMP-Shasta 16p/4 with event recording, a live
    /// metrics registry, and Figure 4 and critical-path analysis.
    Recorded,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Kernels, Workload::Sweep, Workload::Recorded];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernels => "kernels",
            Workload::Sweep => "sweep",
            Workload::Recorded => "recorded",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A metric's name and unit.
pub type Metric = (&'static str, &'static str);

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: [Metric; 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("run_p50_ms", "ms"),
    ("run_p99_ms", "ms"),
];

/// Per-layer metrics, reported by the traced run. The prefix names the
/// crate (layer) the value measures.
pub const PER_LAYER: [Metric; 36] = [
    ("apps.build_s", "s"),
    ("core.setup_s", "s"),
    ("sim.engine_wall_s", "s"),
    ("sim.engine_oncpu_s", "s"),
    ("sim.engine_offcpu_s", "s"),
    ("sim.engine_runq_s", "s"),
    ("sim.engine_vol_switches", "count"),
    ("sim.fiber_cpu_s", "s"),
    ("sim.sys_cpu_s", "s"),
    ("memchan.send.calls", "count"),
    ("memchan.send.s", "s"),
    ("memchan.pop.calls", "count"),
    ("memchan.pop.s", "s"),
    ("memchan.peek.calls", "count"),
    ("memchan.peek.s", "s"),
    ("memchan.admit.calls", "count"),
    ("memchan.admit.s", "s"),
    ("memchan.pop.hit_ratio", "ratio"),
    ("memchan.admit.absorbed", "count"),
    ("core.engine_self_s", "s"),
    ("core.sim_cycles", "cycles"),
    ("core.checks", "count"),
    ("core.misses", "count"),
    ("core.messages", "count"),
    ("core.downgrades", "count"),
    ("check.runs", "count"),
    ("check.oracle_s", "s"),
    ("obs.events", "count"),
    ("obs.dropped", "count"),
    ("obs.record_s", "s"),
    ("obs.ns_per_event", "ns"),
    ("obs.critpath_s", "s"),
    ("obs.crosscheck_s", "s"),
    ("perfbench.traced_wall_s", "s"),
    ("perfbench.untraced_wall_s", "s"),
    ("perfbench.traced_passes", "count"),
];

/// Host time of one layer-instrumented run, as seen by the calling thread
/// (the engine, in serial mode).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineTiming {
    /// Wall time from the end of the shape hook to the entry point's return.
    pub run_s: f64,
    /// The calling thread's on-CPU time over the same span.
    pub oncpu_s: f64,
    /// The part of the off-CPU time it was runnable but not running.
    pub runq_s: f64,
    /// Its voluntary context switches.
    pub vol_switches: u64,
    /// Process CPU time over the span (all threads).
    pub proc_cpu: ProcCpu,
    /// Transport calls made during the run.
    pub memchan: MemchanTally,
}

impl EngineTiming {
    /// Wall time the engine thread spent off a CPU: blocked in a fiber
    /// handoff, or runnable and waiting.
    pub fn offcpu_s(&self) -> f64 {
        self.run_s - self.oncpu_s
    }
}

/// The per-layer values of one traced pass (sums over its items).
#[derive(Clone, Debug, Default)]
struct Layers {
    build_s: f64,
    setup_s: f64,
    engine: EngineTiming,
    counts: Counts,
    check_runs: u64,
    check_oracle_s: f64,
    obs_events: u64,
    obs_dropped: u64,
    obs_record_s: f64,
    obs_critpath_s: f64,
    obs_crosscheck_s: f64,
}

impl Layers {
    fn add_engine(&mut self, e: &EngineTiming) {
        let t = &mut self.engine;
        t.run_s += e.run_s;
        t.oncpu_s += e.oncpu_s;
        t.runq_s += e.runq_s;
        t.vol_switches += e.vol_switches;
        t.proc_cpu.user_s += e.proc_cpu.user_s;
        t.proc_cpu.sys_s += e.proc_cpu.sys_s;
        t.memchan.add(&e.memchan);
    }

    /// Every per-layer value this pass measured, by [`PER_LAYER`] name.
    fn values(&self) -> Vec<(&'static str, f64)> {
        let e = &self.engine;
        let m = &e.memchan;
        let s = |ns: u64| ns as f64 * 1e-9;
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        vec![
            ("apps.build_s", self.build_s),
            ("core.setup_s", self.setup_s),
            ("sim.engine_wall_s", e.run_s),
            ("sim.engine_oncpu_s", e.oncpu_s),
            ("sim.engine_offcpu_s", e.offcpu_s()),
            ("sim.engine_runq_s", e.runq_s),
            ("sim.engine_vol_switches", e.vol_switches as f64),
            ("sim.fiber_cpu_s", e.proc_cpu.total_s() - e.oncpu_s),
            ("sim.sys_cpu_s", e.proc_cpu.sys_s),
            ("memchan.send.calls", m.send.calls as f64),
            ("memchan.send.s", s(m.send.ns)),
            ("memchan.pop.calls", m.pop.calls as f64),
            ("memchan.pop.s", s(m.pop.ns)),
            ("memchan.peek.calls", m.peek.calls as f64),
            ("memchan.peek.s", s(m.peek.ns)),
            ("memchan.admit.calls", m.admit.calls as f64),
            ("memchan.admit.s", s(m.admit.ns)),
            ("memchan.pop.hit_ratio", ratio(m.pop_hits as f64, m.pop.calls as f64)),
            ("memchan.admit.absorbed", m.admit_absorbed as f64),
            ("core.engine_self_s", e.oncpu_s - m.total_s()),
            ("core.sim_cycles", self.counts.cycles as f64),
            ("core.checks", self.counts.checks as f64),
            ("core.misses", self.counts.misses as f64),
            ("core.messages", self.counts.messages as f64),
            ("core.downgrades", self.counts.downgrades as f64),
            ("check.runs", self.check_runs as f64),
            ("check.oracle_s", self.check_oracle_s),
            ("obs.events", self.obs_events as f64),
            ("obs.dropped", self.obs_dropped as f64),
            ("obs.record_s", self.obs_record_s),
            ("obs.ns_per_event", ratio(self.obs_record_s * 1e9, self.obs_events as f64)),
            ("obs.critpath_s", self.obs_critpath_s),
            ("obs.crosscheck_s", self.obs_crosscheck_s),
        ]
    }
}

/// One pass over a workload's fixed work.
#[derive(Clone, Debug, Default)]
struct Pass {
    /// Wall time of the fixed work.
    wall_s: f64,
    /// Set-up time (see `README.md`: per item for kernel workloads, a
    /// zero-round checked run per scenario for `sweep`).
    setup_s: f64,
    /// Process CPU time of the fixed work.
    cpu_s: f64,
    /// Latency of each run in the pass, in milliseconds, in the same order
    /// every pass (NaN for a run that panicked): checked schedules for
    /// `sweep`, kernel entry-point calls otherwise.
    run_ms: Vec<f64>,
    /// Items attempted.
    attempted: u64,
    /// One message per failed item.
    failures: Vec<String>,
    /// Per-layer values, for a traced pass.
    layers: Option<Layers>,
    /// Engine timing of every kernel run (clocks read only when traced).
    items: Vec<(String, EngineTiming)>,
}

/// The pinned checker scenarios: the five small machines the checker sweeps
/// by default, written out here so that later changes to the checker's own
/// defaults do not change the benchmark's work.
fn scenarios() -> [Scenario; 5] {
    let s = |name, procs, per_node, clustering, mode, kernel, iters| Scenario {
        name,
        procs,
        per_node,
        clustering,
        mode,
        kernel,
        iters,
        cluster: ClusterKind::Uniform,
        fault: FaultPlan::none(),
    };
    [
        s("smp-2x2-false-sharing", 4, 2, 2, Mode::Smp, Kernel::FalseSharing, 6),
        s("smp-2x2-tight-increment", 4, 2, 2, Mode::Smp, Kernel::TightIncrement, 24),
        s("smp-4x2-rotating-owner", 8, 4, 4, Mode::Smp, Kernel::RotatingOwner, 4),
        s("smp-2x2-lock-counter", 4, 2, 2, Mode::Smp, Kernel::LockCounter, 8),
        s("base-4-false-sharing", 4, 2, 1, Mode::Base, Kernel::FalseSharing, 6),
    ]
}

/// The two seeded schedule policies swept per seed.
fn policies(seed: u64) -> [SchedulePolicy; 2] {
    [SchedulePolicy::SeededRandom { seed }, SchedulePolicy::Chains { seed, change_interval: 7 }]
}

/// The clean sweep's seeds for a workload seed.
fn sweep_window(seed: u64) -> std::ops::Range<u64> {
    let start = seed % SEED_WINDOWS;
    start..start + SWEEP_SEEDS
}

/// Every `(scenario, policy)` pair of a seed range, seed-major: the
/// checker's canonical sweep order.
pub fn sweep_runs(seeds: std::ops::Range<u64>) -> Vec<(u64, Scenario, SchedulePolicy)> {
    seeds
        .flat_map(|seed| {
            scenarios().into_iter().flat_map(move |s| policies(seed).map(|p| (seed, s, p)))
        })
        .collect()
}

/// Re-runs `shrink_ctx` makes on a fault-free counterexample: one per
/// halving of the round count that still failed, plus the passing probe
/// that stopped it (absent when the rounds reached 1).
fn shrink_reruns(original_iters: u32, shrunk_iters: u32) -> u64 {
    let mut iters = original_iters;
    let mut reruns = 0;
    while iters > shrunk_iters {
        iters /= 2;
        reruns += 1;
    }
    reruns + u64::from(shrunk_iters > 1)
}

/// The protocol's name in pin files.
pub fn proto_name(proto: Proto) -> &'static str {
    match proto {
        Proto::Smp => "Smp",
        Proto::Base => "Base",
        _ => "other",
    }
}

/// The kernel runs of one pass of a kernel workload.
pub fn kernel_items(workload: Workload) -> Vec<(&'static str, Proto)> {
    match workload {
        Workload::Kernels => {
            KERNELS.iter().flat_map(|&k| [(k, Proto::Smp), (k, Proto::Base)]).collect()
        }
        Workload::Recorded => KERNELS.iter().map(|&k| (k, Proto::Smp)).collect(),
        Workload::Sweep => Vec::new(),
    }
}

/// The outcome of one kernel run.
pub struct KernelRun {
    /// The simulated statistics.
    pub stats: RunStats,
    /// The event log (recorded runs only).
    pub log: Option<shasta_obs::EventLog>,
    /// Time of `spec.build`.
    pub build_s: f64,
    /// Time from the entry-point call until its shape hook ran.
    pub setup_s: f64,
    /// Wall time of the entry-point call, set-up included.
    pub call_s: f64,
    /// Engine timing of the run (clocks read only when `traced`).
    pub engine: EngineTiming,
}

/// Builds and runs one kernel at the Default preset on the headline
/// machine, through `run_app_shaped` or (when `recorded`) through
/// `run_app_observed_shaped` with a live metrics registry. When `traced`,
/// the shape hook installs the timing transport and the engine thread's
/// clocks are read around the run.
///
/// # Panics
///
/// Panics if `kernel` is not in the registry, or on a simulator panic.
pub fn run_kernel(kernel: &str, proto: Proto, recorded: bool, traced: bool) -> KernelRun {
    let spec = registry().into_iter().find(|s| s.name == kernel).expect("pinned kernel exists");
    let t_build = Instant::now();
    let app = (spec.build)(Preset::Default, false);
    let build_s = t_build.elapsed().as_secs_f64();
    let cfg = RunConfig::new(proto, PROCS, CLUSTERING);
    let sink = Arc::new(Mutex::new(MemchanTally::default()));
    let mut hook: Option<(Instant, Instant, ThreadClock, ProcCpu)> = None;
    let shape = |m: &mut Machine| {
        let entered = Instant::now();
        if traced {
            memchan_timing::install(m, &sink);
        }
        if recorded {
            m.set_metrics(&shasta_obs::Registry::enabled());
        }
        // Wall clock first at the start and last at the end, so the thread
        // clocks' span lies inside the wall span.
        let run_start = Instant::now();
        let (clock, cpu) =
            if traced { (ThreadClock::now(), ProcCpu::now()) } else { Default::default() };
        hook = Some((entered, run_start, clock, cpu));
    };
    let t_call = Instant::now();
    let (stats, log) = if recorded {
        let (stats, log) = run_app_observed_shaped(app.as_ref(), &cfg, RING, shape);
        (stats, Some(log))
    } else {
        (run_app_shaped(app.as_ref(), &cfg, shape), None)
    };
    let (clock1, cpu1) =
        if traced { (ThreadClock::now(), ProcCpu::now()) } else { Default::default() };
    let t_end = Instant::now();
    let (entered, run_start, clock0, cpu0) = hook.expect("the entry point runs its shape hook");
    let clock = clock1.since(clock0);
    let memchan = *sink.lock().expect("no run panicked while publishing its tally");
    KernelRun {
        stats,
        log,
        build_s,
        setup_s: (entered - t_call).as_secs_f64(),
        call_s: (t_end - t_call).as_secs_f64(),
        engine: EngineTiming {
            run_s: (t_end - run_start).as_secs_f64(),
            oncpu_s: clock.oncpu_ns as f64 * 1e-9,
            runq_s: clock.runq_ns as f64 * 1e-9,
            vol_switches: clock.vol_switches,
            proc_cpu: cpu1.since(cpu0),
            memchan,
        },
    }
}

/// Runs `f`, turning a panic into `Err` with its message.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(format!("panic: {msg}"))
    })
}

/// Checks a run's counts against its pin.
fn check_counts(what: &str, got: Counts, want: Option<&Counts>) -> Result<(), String> {
    match want {
        Some(w) if *w == got => Ok(()),
        Some(w) => Err(format!("{what}: counts {got:?} differ from pinned {w:?}")),
        None => Err(format!("{what}: no pinned counts")),
    }
}

/// Runs one pass of `workload`. Work and checks are fixed; `traced` adds
/// the layer clocks, the timing transport and the twin runs the layer
/// metrics subtract.
fn run_pass(workload: Workload, seed: u64, traced: bool, pins: &Pins) -> Pass {
    match workload {
        Workload::Sweep => sweep_pass(seed, traced, pins),
        _ => kernel_pass(workload, traced, pins),
    }
}

fn kernel_pass(workload: Workload, traced: bool, pins: &Pins) -> Pass {
    let recorded = workload == Workload::Recorded;
    let mut pass = Pass::default();
    let mut layers = Layers::default();
    let cpu0 = ProcCpu::now();
    let t0 = Instant::now();
    for (kernel, proto) in kernel_items(workload) {
        let what = format!("{kernel} {}", proto_name(proto));
        pass.attempted += 1;
        pass.run_ms.push(f64::NAN);
        let outcome = guarded(|| {
            let run = run_kernel(kernel, proto, recorded, traced);
            let counts = Counts::of(&run.stats);
            pass.setup_s += run.build_s + run.setup_s;
            *pass.run_ms.last_mut().expect("pushed above") = run.call_s * 1e3;
            pass.items.push((what.clone(), run.engine));
            layers.build_s += run.build_s;
            layers.setup_s += run.setup_s;
            layers.add_engine(&run.engine);
            layers.counts.add(counts);
            let pin = pins.kernels.get(&(kernel.into(), proto_name(proto).into()));
            check_counts(&what, counts, pin)?;
            match &run.log {
                Some(log) => analyze_recorded(&what, kernel, &run, log, pins, &mut layers),
                None => Ok(()),
            }
        });
        if let Err(e) = outcome {
            pass.failures.push(e);
        }
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.cpu_s = ProcCpu::now().since(cpu0).total_s();
    if traced {
        if recorded {
            // Recording cost: each recorded call against an unrecorded twin
            // of the same kernel, both through the timing transport.
            for (kernel, proto) in kernel_items(workload) {
                if let Ok(twin) = guarded(|| Ok(run_kernel(kernel, proto, false, true))) {
                    layers.obs_record_s -= twin.call_s;
                }
            }
        }
        pass.layers = Some(layers);
    }
    pass
}

/// The `recorded` checks: no ring drops, the pinned event count, the
/// Figure 4 crosscheck, and a critical path that tiles the run exactly.
fn analyze_recorded(
    what: &str,
    kernel: &str,
    run: &KernelRun,
    log: &shasta_obs::EventLog,
    pins: &Pins,
    layers: &mut Layers,
) -> Result<(), String> {
    layers.obs_events += log.len() as u64;
    layers.obs_dropped += log.dropped();
    layers.obs_record_s += run.call_s;
    if log.dropped() != 0 {
        return Err(format!("{what}: {} events dropped from the rings", log.dropped()));
    }
    let t = Instant::now();
    log.fig4().crosscheck(&run.stats).map_err(|e| format!("{what}: Figure 4 crosscheck: {e}"))?;
    layers.obs_crosscheck_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let path = shasta_obs::critpath::analyze(log, run.stats.elapsed_cycles)
        .map_err(|e| format!("{what}: critical path: {e}"))?;
    layers.obs_critpath_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    path.crosscheck().map_err(|e| format!("{what}: critical-path tiling: {e}"))?;
    layers.obs_crosscheck_s += t.elapsed().as_secs_f64();
    let got =
        pins::RecordedPin { events: log.len() as u64, path_segments: path.segments.len() as u64 };
    match pins.recorded.get(kernel) {
        Some(want) if *want == got => Ok(()),
        want => Err(format!("{what}: recorded {got:?} differs from pinned {want:?}")),
    }
}

/// Median wall of zero-round checked runs, summed over the scenarios: the
/// per-run set-up the checker pays (machine, oracle shadow, fibers), which
/// it does not expose separately.
fn sweep_setup_s(ctx: &mut RunCtx, seed: u64) -> Result<f64, String> {
    let mut total = 0.0;
    for s in scenarios() {
        let empty = Scenario { iters: 0, ..s };
        let mut walls = Vec::with_capacity(SETUP_REPS);
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            run_checked_ctx(&empty, policies(seed)[0], BugInjection::None, ctx)
                .map_err(|cx| format!("zero-round {}: {}", s.name, cx.message))?;
            walls.push(t.elapsed().as_secs_f64());
        }
        total += median(&mut walls);
    }
    Ok(total)
}

/// Sweeps `bug` over the first pinned window in canonical order until a
/// run fails, then shrinks it. Returns `(runs until caught, shrink re-runs,
/// shrunk counterexample)`.
pub fn catch_bug(bug: BugInjection, ctx: &mut RunCtx) -> Option<(u64, u64, Counterexample)> {
    for (i, (_, s, policy)) in sweep_runs(0..SWEEP_SEEDS).into_iter().enumerate() {
        if let Err(cx) = run_checked_ctx(&s, policy, bug, ctx) {
            let shrunk = shrink_ctx(&cx, ctx);
            let reruns = shrink_reruns(s.iters, shrunk.scenario.iters);
            return Some((i as u64 + 1, reruns, shrunk));
        }
    }
    None
}

fn sweep_pass(seed: u64, traced: bool, pins: &Pins) -> Pass {
    silence_expected_panics();
    let mut pass = Pass::default();
    let mut layers = Layers::default();
    let mut ctx = RunCtx::default();
    match sweep_setup_s(&mut ctx, seed) {
        Ok(s) => pass.setup_s = s,
        Err(e) => pass.failures.push(e),
    }
    let window = sweep_window(seed);
    let runs = sweep_runs(window.clone());
    let cpu0 = ProcCpu::now();
    let t0 = Instant::now();
    let clock0 = if traced { ThreadClock::now() } else { ThreadClock::default() };
    // Per seed: summed counts, or `None` once one of its runs failed.
    let mut per_seed = vec![Some(Counts::default()); window.clone().count()];
    for &(run_seed, s, policy) in &runs {
        pass.attempted += 1;
        let t = Instant::now();
        let res = run_checked_ctx(&s, policy, BugInjection::None, &mut ctx);
        pass.run_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let slot = &mut per_seed[(run_seed - window.start) as usize];
        match res {
            Ok(stats) => {
                if let Some(c) = slot {
                    c.add(Counts::of(&stats));
                }
            }
            Err(cx) => {
                pass.failures.push(format!("correct protocol failed:\n{cx}"));
                *slot = None;
            }
        }
    }
    for (seed, got) in window.clone().zip(&per_seed) {
        let Some(got) = got else { continue };
        if let Err(e) =
            check_counts(&format!("sweep seed {seed}"), *got, pins.sweep_seeds.get(&seed))
        {
            pass.failures.push(e);
        }
        layers.counts.add(*got);
    }
    layers.check_runs = runs.len() as u64;
    for bug in BUGS {
        pass.attempted += 1;
        let name = format!("{bug:?}");
        let Some((caught_at, reruns, cx)) = catch_bug(bug, &mut ctx) else {
            pass.failures.push(format!("{name} escaped {} runs", SWEEP_SEEDS * 10));
            continue;
        };
        layers.check_runs += caught_at + reruns;
        let got = pins::BugPin { caught_at, shrink_reruns: reruns, render: cx.to_string() };
        if pins.bugs.get(&name) != Some(&got) {
            pass.failures.push(format!("{name}: caught as\n{}differing from the pin", got.render));
        }
    }
    let clock = if traced { ThreadClock::now().since(clock0) } else { ThreadClock::default() };
    pass.wall_s = t0.elapsed().as_secs_f64();
    let cpu = ProcCpu::now().since(cpu0);
    pass.cpu_s = cpu.total_s();
    if traced {
        layers.setup_s = pass.setup_s;
        layers.add_engine(&EngineTiming {
            run_s: pass.wall_s,
            oncpu_s: clock.oncpu_ns as f64 * 1e-9,
            runq_s: clock.runq_ns as f64 * 1e-9,
            vol_switches: clock.vol_switches,
            proc_cpu: cpu,
            memchan: MemchanTally::default(),
        });
        // Oracle cost: every schedule run checked, then unchecked, so that
        // host drift hits both sides alike.
        for &(_, s, policy) in &runs {
            let t = Instant::now();
            let checked = run_checked_ctx(&s, policy, BugInjection::None, &mut ctx).is_ok();
            let mid = Instant::now();
            let plain = guarded(|| Ok(run_scenario(&s, policy, BugInjection::None, false)));
            if checked && plain.is_ok() {
                layers.check_oracle_s += (mid - t).as_secs_f64() - mid.elapsed().as_secs_f64();
            }
        }
        pass.layers = Some(layers);
    }
    pass
}

/// Median of `v` (0 for an empty slice); sorts `v`.
fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentile `q` (0..=1) of `v`, interpolated linearly between ranks (0
/// for an empty slice).
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let h = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(s.len() - 1);
    s[lo] + (h - lo as f64) * (s[hi] - s[lo])
}

/// The result of one benchmark invocation.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Items attempted over every pass.
    pub attempted: u64,
    /// Failure messages over every pass.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Engine timing of every kernel run of the traced passes.
    pub traced_items: Vec<(String, EngineTiming)>,
}

/// Runs `workload` for an untimed warm-up pass, then for at least one
/// measured pass and as many more as fit in `seconds`. Untraced, reports
/// [`END_TO_END`]: medians over passes, and run-latency percentiles over
/// each run's median across passes. Traced, it alternates untraced and
/// traced passes and reports [`PER_LAYER`] as medians over the traced
/// passes.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    let pins = Pins::compiled();
    let start = Instant::now();
    // The first pass pays one-time costs (heap growth, first thread stacks)
    // that later passes and most runs of the program do not; it is checked
    // but not timed.
    let warmup = run_pass(workload, seed, false, &pins);
    eprintln!("perfbench: {} warm-up pass: wall {:.4} s", workload.name(), warmup.wall_s);
    let loop_start = Instant::now();
    let mut plain = Vec::new();
    let mut instrumented = Vec::new();
    loop {
        let p = run_pass(workload, seed, false, &pins);
        eprintln!(
            "perfbench: {} pass {}: wall {:.4} s",
            workload.name(),
            plain.len() + 1,
            p.wall_s
        );
        plain.push(p);
        if traced {
            let p = run_pass(workload, seed, true, &pins);
            eprintln!("perfbench: {} traced pass: wall {:.4} s", workload.name(), p.wall_s);
            instrumented.push(p);
        }
        // Stop before an iteration that would overrun the budget, so a run
        // lasts about `seconds` whatever the host's speed.
        let per_iteration = loop_start.elapsed().as_secs_f64() / plain.len() as f64;
        if start.elapsed().as_secs_f64() + per_iteration > seconds {
            break;
        }
    }
    let mut report = Report::default();
    for p in std::iter::once(&warmup).chain(&plain).chain(&instrumented) {
        report.attempted += p.attempted;
        report.failures.extend(p.failures.iter().cloned());
    }
    report.traced_items = instrumented.iter().flat_map(|p| p.items.iter().cloned()).collect();
    let med = |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| {
        median(&mut passes.iter().map(f).collect::<Vec<_>>())
    };
    if !traced {
        // Each run's latency is its median over passes; the percentiles are
        // taken over the runs.
        let runs = plain.iter().map(|p| p.run_ms.len()).max().unwrap_or(0);
        let run_ms: Vec<f64> = (0..runs)
            .filter_map(|i| {
                let mut v: Vec<f64> = plain
                    .iter()
                    .filter_map(|p| p.run_ms.get(i))
                    .copied()
                    .filter(|x| x.is_finite())
                    .collect();
                (!v.is_empty()).then(|| median(&mut v))
            })
            .collect();
        let values = [
            med(&plain, &|p| p.wall_s),
            med(&plain, &|p| p.setup_s),
            med(&plain, &|p| p.cpu_s),
            host::peak_rss_mb(),
            percentile(&run_ms, 0.50),
            percentile(&run_ms, 0.99),
        ];
        report.metrics = END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect();
        return report;
    }
    let per_pass: Vec<Vec<(&'static str, f64)>> = instrumented
        .iter()
        .map(|p| {
            let mut v = p.layers.as_ref().map(Layers::values).unwrap_or_default();
            v.push(("perfbench.traced_wall_s", p.wall_s));
            v
        })
        .collect();
    let traced_median = |name: &str| {
        let mut v: Vec<f64> = per_pass
            .iter()
            .filter_map(|pass| pass.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
            .collect();
        median(&mut v)
    };
    report.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "perfbench.untraced_wall_s" => med(&plain, &|p| p.wall_s),
                "perfbench.traced_passes" => instrumented.len() as f64,
                _ => traced_median(name),
            };
            (name, value, unit)
        })
        .collect();
    report
}

/// Renders the result line: one JSON object.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted.max(1),
        report.failures.len(),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_reruns_follow_the_halving() {
        // 24 -> 12 (fails) -> 6 (fails) -> 3 (passes): three re-runs.
        assert_eq!(shrink_reruns(24, 6), 3);
        // 6 -> 3 (fails) -> 1 (fails): stops at one round, no passing probe.
        assert_eq!(shrink_reruns(6, 1), 2);
        // 6 -> 3 (passes): one re-run.
        assert_eq!(shrink_reruns(6, 6), 1);
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.5);
        assert!((percentile(&v, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn inputs_are_pinned() {
        assert_eq!(sweep_runs(sweep_window(0)).len(), 1700);
        assert_eq!(sweep_window(SEED_WINDOWS + 5), 5..5 + SWEEP_SEEDS);
        assert_eq!(kernel_items(Workload::Kernels).len(), 12);
        assert_eq!(kernel_items(Workload::Recorded).len(), 6);
        let pins = Pins::compiled();
        assert_eq!(pins.kernels.len(), 12);
        assert_eq!(pins.recorded.len(), 6);
        assert_eq!(pins.bugs.len(), 2);
        let last_seed = SEED_WINDOWS - 1 + SWEEP_SEEDS - 1;
        assert!((0..=last_seed).all(|s| pins.sweep_seeds.contains_key(&s)));
    }
}
