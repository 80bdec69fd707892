//! Sharing-pattern profiler demo and granularity-advisor closed loop;
//! writes `BENCH_sharing_advisor.json`.
//!
//! Three steps:
//!
//! 1. Profile a Table 2 kernel (LU) under Base-Shasta and print the
//!    per-allocation-site advisor table — the profiler's classification of
//!    each `malloc` site plus its block-size recommendation and evidence.
//!    The kernel is then re-run with its Table 2 variable-granularity hints
//!    and the simulated-cycle delta reported next to the advice.
//! 2. Run a synthetic false-sharing workload (each processor repeatedly
//!    writes its own 64 B slice of shared 512 B blocks), confirm the
//!    profiler classifies the blocks false-shared and the advisor
//!    recommends a smaller granularity.
//! 3. Re-run the synthetic workload with the advisor's recommended hint and
//!    report the simulated-cycle reduction. The binary aborts if the
//!    profiler misses the false sharing or the recommended hint does not
//!    reduce simulated cycles — this is the closed-loop acceptance check.
//!
//! ```text
//! sharing_profile [--preset tiny|default|large] [--out PATH]
//! ```

use shasta_apps::{registry, run_app_observed, Body, DsmApp, PlanOpts, Proto, RunConfig};
use shasta_bench::{preset_from_args, run, run_observed, TRACE_RING_CAPACITY};
use shasta_core::protocol::SetupCtx;
use shasta_core::space::{BlockHint, HomeHint};
use shasta_obs::{Recommendation, SharingPattern, SiteReport};
use shasta_stats::{advisor_table, AdvisorRow};

const PROCS: u32 = 8;
/// Shared regions in the synthetic workload.
const REGIONS: u64 = 16;
/// Bytes each processor owns within one region.
const SLICE: u64 = 64;
/// Write rounds (barrier-separated so ownership keeps alternating).
const ROUNDS: u32 = 6;

/// The synthetic false-sharing workload: one allocation of
/// `REGIONS × PROCS × SLICE` bytes; processor `p` only ever touches bytes
/// `[p·SLICE, (p+1)·SLICE)` of each region, yet with a region-sized
/// coherence block every store bounces ownership across nodes. With a
/// `SLICE`-sized block each processor's slice is private and the traffic
/// vanishes — granularity, not data, causes the sharing.
struct FalseShareSynth {
    hint: BlockHint,
}

impl DsmApp for FalseShareSynth {
    fn name(&self) -> &'static str {
        "FalseShareSynth"
    }

    fn heap_bytes(&self) -> u64 {
        1 << 20
    }

    fn plan(&self, s: &mut SetupCtx<'_>, opts: &PlanOpts) -> Vec<Body> {
        let region = PROCS as u64 * SLICE;
        let base =
            s.malloc_labeled(REGIONS * region, self.hint, HomeHint::Explicit(0), "synth.regions");
        (0..opts.procs)
            .map(|p| {
                shasta_core::api::body(move |mut dsm| async move {
                    for round in 0..ROUNDS {
                        for r in 0..REGIONS {
                            let slice = base + r * region + p as u64 * SLICE;
                            for slot in (0..SLICE).step_by(8) {
                                dsm.store_u64(slice + slot, (round as u64) << 32 | r).await;
                            }
                        }
                        dsm.barrier(round).await;
                    }
                })
            })
            .collect()
    }
}

fn run_synth(hint: BlockHint) -> (u64, Vec<SiteReport>) {
    let app = FalseShareSynth { hint };
    let cfg = RunConfig::new(Proto::Base, PROCS, 1);
    let (stats, log) = run_app_observed(&app, &cfg, TRACE_RING_CAPACITY);
    let reports = log.profile().expect("observed runs attach the space map").advise();
    (stats.elapsed_cycles, reports)
}

fn rows_of(reports: &[SiteReport]) -> Vec<AdvisorRow> {
    reports
        .iter()
        .map(|r| AdvisorRow {
            label: r.label.to_string(),
            block_bytes: r.block_bytes,
            blocks_touched: r.blocks_touched,
            pattern: r.dominant().label().to_string(),
            read_misses: r.read_misses,
            write_misses: r.write_misses,
            downgrades: r.downgrades,
            downgrade_fanout: r.downgrade_fanout(),
            bytes_per_useful: r.bytes_per_useful_byte(),
            recommendation: r.recommendation.describe(),
        })
        .collect()
}

fn sites_json(reports: &[SiteReport]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"label\": \"{}\", \"block_bytes\": {}, \"blocks_touched\": {}, \"pattern\": \"{}\", \"read_misses\": {}, \"write_misses\": {}, \"downgrades\": {}, \"downgrade_fanout\": {:.2}, \"bytes_per_useful\": {:.2}, \"recommendation\": \"{}\", \"evidence\": \"{}\"}}{}\n",
            r.label,
            r.block_bytes,
            r.blocks_touched,
            r.dominant().label(),
            r.read_misses,
            r.write_misses,
            r.downgrades,
            r.downgrade_fanout(),
            r.bytes_per_useful_byte(),
            r.recommendation.describe(),
            r.evidence,
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    out.push_str("    ]");
    out
}

fn delta_pct(base: u64, new: u64) -> f64 {
    (new as f64 / base as f64 - 1.0) * 100.0
}

fn main() {
    let preset = preset_from_args();
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sharing_advisor.json".to_string());

    // --- 1. Profile a Table 2 kernel and re-run with its hints. ------------
    let spec = registry().into_iter().find(|s| s.name == "LU").expect("LU in registry");
    println!("profiling {} (Base-Shasta, {PROCS} processors, {preset:?} inputs)\n", spec.name);
    let (kernel_base, log) = run_observed(&spec, preset, Proto::Base, PROCS, 1, false);
    let kernel_reports = log.profile().expect("observed runs attach the space map").advise();
    println!("{}", advisor_table(&rows_of(&kernel_reports)));
    let kernel_vg = run(&spec, preset, Proto::Base, PROCS, 1, true);
    println!(
        "{} with Table 2 granularity hints: {} -> {} simulated cycles ({:+.1}%)\n",
        spec.name,
        kernel_base.elapsed_cycles,
        kernel_vg.elapsed_cycles,
        delta_pct(kernel_base.elapsed_cycles, kernel_vg.elapsed_cycles),
    );

    // --- 2. Synthetic false sharing: profile at a region-sized block. ------
    let region_bytes = PROCS as u64 * SLICE;
    let (synth_base, reports) = run_synth(BlockHint::Bytes(region_bytes));
    println!("synthetic false-sharing workload ({region_bytes} B blocks):\n");
    println!("{}", advisor_table(&rows_of(&reports)));
    let synth = reports
        .iter()
        .find(|r| r.label == "synth.regions")
        .expect("synthetic site in advisor report");
    let fs_blocks = synth.pattern_blocks[SharingPattern::ALL
        .iter()
        .position(|&p| p == SharingPattern::FalseShared)
        .expect("pattern in ALL")];
    assert!(fs_blocks > 0, "profiler failed to classify any synthetic block as false-shared");
    let rec = match synth.recommendation {
        Recommendation::Shrink(n) => n,
        other => panic!("advisor should recommend a smaller granularity, got {other:?}"),
    };
    assert!(rec < region_bytes, "recommendation must shrink the block");
    println!("evidence: {}\n", synth.evidence);

    // --- 3. Closed loop: re-run with the recommended hint. -----------------
    let (synth_hint, _) = run_synth(BlockHint::Bytes(rec));
    println!(
        "re-run with advisor hint ({rec} B blocks): {synth_base} -> {synth_hint} simulated cycles ({:+.1}%)",
        delta_pct(synth_base, synth_hint),
    );
    assert!(
        synth_hint < synth_base,
        "advisor hint must reduce simulated cycles ({synth_base} -> {synth_hint})"
    );

    let json = format!(
        "{{\n  \"config\": {{\"preset\": \"{preset:?}\", \"proto\": \"Base\", \"procs\": {PROCS}}},\n  \"kernel\": {{\n    \"name\": \"{}\",\n    \"cycles_base\": {},\n    \"cycles_table2_hints\": {},\n    \"cycle_delta_pct\": {:.2},\n    \"sites\": {}\n  }},\n  \"synthetic\": {{\n    \"block_bytes\": {region_bytes},\n    \"blocks_false_shared\": {fs_blocks},\n    \"recommended_bytes\": {rec},\n    \"cycles_base\": {synth_base},\n    \"cycles_with_hint\": {synth_hint},\n    \"cycle_delta_pct\": {:.2},\n    \"sites\": {}\n  }}\n}}\n",
        spec.name,
        kernel_base.elapsed_cycles,
        kernel_vg.elapsed_cycles,
        delta_pct(kernel_base.elapsed_cycles, kernel_vg.elapsed_cycles),
        sites_json(&kernel_reports),
        delta_pct(synth_base, synth_hint),
        sites_json(&reports),
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
}
