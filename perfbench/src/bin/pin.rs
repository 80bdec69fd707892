//! Regenerates the pinned correctness values under `pinned/`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin pin
//! ```
//!
//! Run it only when a change is meant to alter simulated output, and say so
//! in that change: the benchmark compares every run against these files.
//! It refuses to pin a failing run (an oracle violation, an escaped bug, a
//! failed crosscheck or ring drops).

use std::fmt::Write as _;
use std::path::Path;

use shasta_check::{run_checked_ctx, silence_expected_panics, RunCtx};
use shasta_core::BugInjection;
use shasta_perfbench::pins::{self, Counts};
use shasta_perfbench::{
    catch_bug, kernel_items, proto_name, run_kernel, sweep_runs, Workload, BUGS, SEED_WINDOWS,
    SWEEP_SEEDS,
};

fn write(dir: &Path, name: &str, text: &str) {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    eprintln!("pin: wrote {}", path.display());
}

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("pinned");
    silence_expected_panics();

    let mut kernels =
        String::from("# kernel\tproto\telapsed_cycles\tmisses\tmessages\tdowngrades\tchecks\n");
    let mut smp = std::collections::BTreeMap::new();
    for (kernel, proto) in kernel_items(Workload::Kernels) {
        let counts = Counts::of(&run_kernel(kernel, proto, false, false).stats);
        writeln!(kernels, "{kernel}\t{}\t{}", proto_name(proto), counts.tsv()).expect("string");
        smp.insert((kernel, proto_name(proto)), counts);
    }

    let mut recorded = String::from("# kernel\tevents\tpath_segments\n");
    for (kernel, proto) in kernel_items(Workload::Recorded) {
        let run = run_kernel(kernel, proto, true, false);
        let log = run.log.as_ref().expect("recorded run has a log");
        assert_eq!(Some(&Counts::of(&run.stats)), smp.get(&(kernel, "Smp")), "{kernel}");
        assert_eq!(log.dropped(), 0, "{kernel}: ring drops");
        log.fig4().crosscheck(&run.stats).expect("Figure 4 crosscheck");
        let path = shasta_obs::critpath::analyze(log, run.stats.elapsed_cycles).expect("path");
        path.crosscheck().expect("critical path tiles the run");
        writeln!(recorded, "{kernel}\t{}\t{}", log.len(), path.segments.len()).expect("string");
    }

    let mut ctx = RunCtx::default();
    let mut sweep = String::from(
        "# seed\telapsed_cycles\tmisses\tmessages\tdowngrades\tchecks (summed over the seed's runs)\n",
    );
    for seed in 0..SEED_WINDOWS + SWEEP_SEEDS - 1 {
        let mut sum = Counts::default();
        for (_, s, policy) in sweep_runs(seed..seed + 1) {
            match run_checked_ctx(&s, policy, BugInjection::None, &mut ctx) {
                Ok(stats) => sum.add(Counts::of(&stats)),
                Err(cx) => panic!("the correct protocol fails; refusing to pin:\n{cx}"),
            }
        }
        writeln!(sweep, "{seed}\t{}", sum.tsv()).expect("string");
    }

    let mut bugs = String::from("# bug\tcaught_at_run\tshrink_reruns\n");
    for bug in BUGS {
        let (caught_at, reruns, cx) =
            catch_bug(bug, &mut ctx).unwrap_or_else(|| panic!("{bug:?} escaped the sweep"));
        writeln!(bugs, "{bug:?}\t{caught_at}\t{reruns}").expect("string");
        write(&dir, &pins::bug_render_file(&format!("{bug:?}")), &cx.to_string());
    }

    write(&dir, pins::KERNELS_FILE, &kernels);
    write(&dir, pins::RECORDED_FILE, &recorded);
    write(&dir, pins::SWEEP_FILE, &sweep);
    write(&dir, pins::BUGS_FILE, &bugs);
}
