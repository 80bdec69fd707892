//! The correctness values every benchmark run is checked against, generated
//! by the `pin` binary and compiled in from `pinned/`. They are simulated
//! outputs, so they repeat exactly on any host; a mismatch means the program
//! under test changed what it computes.

use std::collections::BTreeMap;

use shasta_stats::RunStats;

/// The deterministic work counts of one or more simulated runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated elapsed cycles (summed over runs).
    pub cycles: u64,
    /// Software misses.
    pub misses: u64,
    /// Protocol messages.
    pub messages: u64,
    /// Downgrades.
    pub downgrades: u64,
    /// Inline miss checks executed.
    pub checks: u64,
}

impl Counts {
    /// The counts of one run.
    pub fn of(stats: &RunStats) -> Counts {
        Counts {
            cycles: stats.elapsed_cycles,
            misses: stats.misses.total(),
            messages: stats.messages.total(),
            downgrades: stats.downgrades.total(),
            checks: stats.checks.checks,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Counts) {
        self.cycles += other.cycles;
        self.misses += other.misses;
        self.messages += other.messages;
        self.downgrades += other.downgrades;
        self.checks += other.checks;
    }

    /// Tab-separated, in file column order.
    pub fn tsv(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}",
            self.cycles, self.misses, self.messages, self.downgrades, self.checks
        )
    }

    fn parse(cols: &[&str]) -> Option<Counts> {
        let n = |i: usize| cols.get(i)?.parse::<u64>().ok();
        Some(Counts {
            cycles: n(0)?,
            misses: n(1)?,
            messages: n(2)?,
            downgrades: n(3)?,
            checks: n(4)?,
        })
    }
}

/// What one recorded kernel run must reproduce besides its counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecordedPin {
    /// Events retained by the recording rings.
    pub events: u64,
    /// Segments of the critical path.
    pub path_segments: u64,
}

/// How one injected bug is caught by the pinned sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BugPin {
    /// 1-based sweep position of the first failing run.
    pub caught_at: u64,
    /// Re-runs the shrinker made.
    pub shrink_reruns: u64,
    /// The shrunk counterexample's render, byte for byte.
    pub render: String,
}

/// Every pinned value.
#[derive(Clone, Debug, Default)]
pub struct Pins {
    /// `(kernel, "Smp" | "Base")` → counts.
    pub kernels: BTreeMap<(String, String), Counts>,
    /// Kernel → recorded-run values.
    pub recorded: BTreeMap<String, RecordedPin>,
    /// Checker seed → counts summed over the seed's ten clean runs.
    pub sweep_seeds: BTreeMap<u64, Counts>,
    /// Bug name → how it is caught.
    pub bugs: BTreeMap<String, BugPin>,
}

/// File names under `pinned/`.
pub const KERNELS_FILE: &str = "kernels.tsv";
/// See [`KERNELS_FILE`].
pub const RECORDED_FILE: &str = "recorded.tsv";
/// See [`KERNELS_FILE`].
pub const SWEEP_FILE: &str = "sweep_seeds.tsv";
/// See [`KERNELS_FILE`].
pub const BUGS_FILE: &str = "bugs.tsv";

/// The render file of one bug.
pub fn bug_render_file(bug: &str) -> String {
    format!("bug-{bug}.txt")
}

/// Data rows of a tab-separated file: `#` lines are comments.
fn rows(text: &str) -> impl Iterator<Item = Vec<&str>> {
    text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).map(|l| l.split('\t').collect())
}

impl Pins {
    /// The values compiled into this binary.
    pub fn compiled() -> Pins {
        let mut pins = Pins::default();
        for r in rows(include_str!("../pinned/kernels.tsv")) {
            if let (Some(k), Some(p), Some(c)) =
                (r.first(), r.get(1), r.get(2..).and_then(Counts::parse))
            {
                pins.kernels.insert((k.to_string(), p.to_string()), c);
            }
        }
        for r in rows(include_str!("../pinned/recorded.tsv")) {
            let n = |i: usize| r.get(i).and_then(|v| v.parse::<u64>().ok());
            if let (Some(k), Some(events), Some(path_segments)) = (r.first(), n(1), n(2)) {
                pins.recorded.insert(k.to_string(), RecordedPin { events, path_segments });
            }
        }
        for r in rows(include_str!("../pinned/sweep_seeds.tsv")) {
            let seed = r.first().and_then(|v| v.parse::<u64>().ok());
            if let (Some(seed), Some(c)) = (seed, r.get(1..).and_then(Counts::parse)) {
                pins.sweep_seeds.insert(seed, c);
            }
        }
        let renders = [
            ("SkipDowngradeWait", include_str!("../pinned/bug-SkipDowngradeWait.txt")),
            ("DropPrivDowngrade", include_str!("../pinned/bug-DropPrivDowngrade.txt")),
        ];
        for r in rows(include_str!("../pinned/bugs.tsv")) {
            let n = |i: usize| r.get(i).and_then(|v| v.parse::<u64>().ok());
            let render = renders.iter().find(|(b, _)| Some(b) == r.first()).map(|(_, t)| *t);
            if let (Some(b), Some(caught_at), Some(shrink_reruns), Some(render)) =
                (r.first(), n(1), n(2), render)
            {
                let pin = BugPin { caught_at, shrink_reruns, render: render.to_string() };
                pins.bugs.insert(b.to_string(), pin);
            }
        }
        pins
    }
}
