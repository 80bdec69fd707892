//! Runs one benchmark workload and prints the result.
//!
//! ```text
//! perfbench --workload kernels|sweep|recorded --seed N --seconds S --trace 0|1
//! ```
//!
//! Standard output ends with one JSON line: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). The line before it is the host fingerprint.
//! Progress and failure details go to standard error. Exit code 0 means a
//! result was printed (check `correct`); 2 means bad arguments.

use shasta_perfbench::{host, result_json, run, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload kernels|sweep|recorded --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("--seed takes an integer")),
            "--seconds" => {
                seconds = value.parse().unwrap_or_else(|_| usage("--seconds takes an integer"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if workload != Workload::Sweep {
        eprintln!(
            "perfbench: {} inputs come from the Default preset; --seed does not apply",
            workload.name()
        );
    }
    let report = run(workload, seed, seconds as f64, trace);
    for f in report.failures.iter().take(10) {
        eprintln!("perfbench: FAILED: {f}");
    }
    println!("{{\"host\": {}}}", host::fingerprint());
    println!("{}", result_json(&report));
}
