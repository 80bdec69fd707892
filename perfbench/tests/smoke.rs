//! Smoke tests of the benchmark itself. Each workload pass takes seconds in
//! a release build; run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::{Arc, Mutex};

use shasta_apps::{registry, run_app_shaped, Preset, Proto, RunConfig};
use shasta_perfbench::memchan_timing::{self, MemchanTally};
use shasta_perfbench::{run, Workload, END_TO_END, KERNELS, PER_LAYER};

fn names(report: &shasta_perfbench::Report) -> Vec<&'static str> {
    report.metrics.iter().map(|m| m.0).collect()
}

fn assert_clean(what: &str, report: &shasta_perfbench::Report) {
    assert!(report.attempted > 0, "{what}: nothing attempted");
    assert!(report.failures.is_empty(), "{what}: {:#?}", report.failures);
    for (name, value, _) in &report.metrics {
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
}

/// One short run per workload and mode: every named metric is emitted,
/// every correctness check passes, and the per-item layer times are
/// consistent with the item's wall time.
#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for w in Workload::ALL {
        let plain = run(w, 0, 0.0, false);
        assert_clean(w.name(), &plain);
        assert_eq!(names(&plain), END_TO_END.map(|m| m.0), "{}", w.name());
        for (name, value, _) in &plain.metrics {
            assert!(*value > 0.0, "{}: end-to-end {name} must never be 0", w.name());
        }

        let traced = run(w, 0, 0.0, true);
        assert_clean(w.name(), &traced);
        assert_eq!(names(&traced), PER_LAYER.map(|m| m.0), "{}", w.name());
        let value = |name: &str| traced.metrics.iter().find(|m| m.0 == name).expect(name).1;
        // The traced pass reproduced the pinned counters (else it failed
        // above), so the work counts are those of real simulated work.
        assert!(value("core.sim_cycles") > 0.0 && value("core.messages") > 0.0);
        let oncpu = value("sim.engine_oncpu_s");
        let wall = value("sim.engine_wall_s");
        assert!((oncpu + value("sim.engine_offcpu_s") - wall).abs() < 1e-9);
        match w {
            Workload::Sweep => {
                let pins = shasta_perfbench::pins::Pins::compiled();
                let bug_runs: u64 = pins.bugs.values().map(|b| b.caught_at + b.shrink_reruns).sum();
                assert_eq!(value("check.runs") as u64, 1700 + bug_runs);
                assert!(traced.traced_items.is_empty());
            }
            Workload::Kernels | Workload::Recorded => {
                let items = if w == Workload::Kernels { 12 } else { 6 };
                assert_eq!(traced.traced_items.len(), items, "{}", w.name());
                assert!(value("memchan.send.calls") > 0.0);
                assert_eq!(value("memchan.send.calls"), value("core.messages"));
                for (item, e) in &traced.traced_items {
                    // The thread clocks are read inside the wall span.
                    assert!(e.oncpu_s > 0.0 && e.oncpu_s <= e.run_s, "{item}: {e:?}");
                    assert!(e.runq_s <= e.offcpu_s(), "{item}: {e:?}");
                    assert!(e.memchan.total_s() <= e.oncpu_s, "{item}: {e:?}");
                }
            }
        }
        let recorded = w == Workload::Recorded;
        assert_eq!(value("obs.events") > 0.0, recorded, "{}", w.name());
        assert_eq!(value("obs.critpath_s") > 0.0, recorded, "{}", w.name());
        assert_eq!(value("obs.dropped"), 0.0);
    }
}

/// The timing transport forwards exactly: a Tiny-preset kernel gives the
/// same `RunStats` with and without it, under Base and under SMP.
#[test]
fn timing_transport_leaves_the_simulation_unchanged() {
    for kernel in KERNELS {
        let spec = registry().into_iter().find(|s| s.name == kernel).expect("pinned kernel");
        let app = (spec.build)(Preset::Tiny, false);
        for proto in [Proto::Base, Proto::Smp] {
            let cfg = RunConfig::new(proto, 8, 4);
            let plain = run_app_shaped(app.as_ref(), &cfg, |_| {});
            let sink = Arc::new(Mutex::new(MemchanTally::default()));
            let timed = run_app_shaped(app.as_ref(), &cfg, |m| memchan_timing::install(m, &sink));
            assert_eq!(plain, timed, "{kernel} {proto:?}");
            let tally = *sink.lock().expect("tally");
            assert_eq!(tally.send.calls, timed.messages.total(), "{kernel} {proto:?}");
            assert_eq!(tally.pop.calls, tally.admit.calls, "{kernel} {proto:?}");
            assert!(tally.peek.calls >= tally.pop.calls, "{kernel} {proto:?}");
        }
    }
}

/// `BENCHMARK.json` declares exactly the metrics the benchmark emits.
#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let declared: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .filter(|n| Workload::parse(n).is_none())
        .collect();
    let emitted: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
    assert_eq!(declared, emitted);
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry}");
    }
}
