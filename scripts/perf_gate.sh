#!/usr/bin/env bash
# Performance regression gate over the tracked BENCH_*.json trajectories.
# Compares the LAST trajectory entry against the one before it:
#
#   BENCH_obs_overhead.json  fail if max_recording_overhead_pct rose by
#                            more than 10 percentage points (and likewise
#                            max_metrics_overhead_pct once both entries
#                            carry it). The limit is calibrated to the
#                            measured same-code drift of the ratio on this
#                            single-CPU host: the identical commit measured
#                            23.0% and 29.7% on different days (the
#                            recorded rep suffers scheduler noise the
#                            unrecorded baseline rep escapes, so the ratio
#                            is far noisier than either wall). The hard
#                            correctness criterion remains
#                            simulated_cycles_identical, asserted by the
#                            binary itself; this gate only catches gross
#                            hot-path regressions
#   BENCH_host_perf.json     fail if total_wall_ms (serial sweep + unrecorded
#                            app walls — the single-thread hot path) rose by
#                            more than 15%. Once both compared entries were
#                            recorded on a multi-core host (config.host_cpus
#                            > 1), the bound tightens to 10%: multi-core
#                            walls are steadier (no single-CPU scheduler
#                            noise), so a smaller rise is already signal
#   BENCH_fault_sweep.json   fail if the last run's criterion booleans
#                            (tolerated/hetero/loss/identity) are not all
#                            true — gated from the FIRST entry on — or if
#                            total_wall_ms rose by more than 25% (the fault
#                            fabric's admit guard lives on the delivery hot
#                            path)
#   BENCH_transport.json     fail if the last run's criterion booleans
#                            (differential_pass, retransmit_pass, and
#                            metrics_pass where present) are not all true —
#                            gated from the FIRST entry on — or if
#                            total_wall_ms rose by more than 50%
#                            (real-socket walls are noisier than simulated
#                            ones)
#   BENCH_topology_breakdown.json
#                            fail if the last run's criterion booleans
#                            (crosscheck_pass, metrics_identity) are not
#                            both true — gated from the FIRST entry on —
#                            or if total_wall_ms rose by more than 25%
#   BENCH_critical_path.json fail if the last run's critical paths do not
#                            all tile elapsed_cycles exactly
#                            (summary.tiling_pass) — gated from the FIRST
#                            entry on — or, when the last two entries
#                            share a preset, if total_wall_ms rose by more
#                            than 25%
#
# A file with fewer than two entries (or no file at all) is informational
# only for the wall-time comparisons: the trajectory has nothing to compare
# against yet. Read-only; uses only the Python standard library.
#
# Usage: scripts/perf_gate.sh          (from anywhere; cd's to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

python3 <<'PY'
import json
import os
import sys

# Calibrated to measured same-code drift (see header): identical code
# measured 23.0% vs 29.7% recording overhead on different days of this
# 1-CPU host.
OBS_MAX_DELTA_POINTS = 10.0
HOST_MAX_RATIO = 1.15
HOST_MAX_RATIO_MULTICORE = 1.10
FAULT_MAX_RATIO = 1.25
TRANSPORT_MAX_RATIO = 1.50
TOPOLOGY_MAX_RATIO = 1.25
CRITPATH_MAX_RATIO = 1.25

failures = []


def all_runs_of(path):
    """Every entry of a trajectory (or None if the file is absent) — for
    gates that apply from the first entry on."""
    if not os.path.exists(path):
        print(f"{path}: absent; nothing to gate")
        return None
    with open(path) as fh:
        doc = json.load(fh)
    runs = doc.get("runs")
    if runs is None:  # legacy single-run file
        runs = [doc]
    return runs


def runs_of(path):
    if not os.path.exists(path):
        print(f"{path}: absent; nothing to gate")
        return None
    with open(path) as fh:
        doc = json.load(fh)
    runs = doc.get("runs")
    if runs is None:  # legacy single-run file
        runs = [doc]
    if len(runs) < 2:
        print(f"{path}: {len(runs)} entry(ies); need 2 to gate — skipping")
        return None
    return runs


runs = runs_of("BENCH_obs_overhead.json")
if runs is not None:
    prev = runs[-2]["summary"]["max_recording_overhead_pct"]
    last = runs[-1]["summary"]["max_recording_overhead_pct"]
    delta = last - prev
    verdict = "OK" if delta <= OBS_MAX_DELTA_POINTS else "FAIL"
    print(
        f"BENCH_obs_overhead.json: max recording overhead "
        f"{prev:.2f}% -> {last:.2f}% ({delta:+.2f} points, "
        f"limit +{OBS_MAX_DELTA_POINTS}) {verdict}"
    )
    if verdict == "FAIL":
        failures.append("recording overhead regressed")
    prev_m = runs[-2]["summary"].get("max_metrics_overhead_pct")
    last_m = runs[-1]["summary"].get("max_metrics_overhead_pct")
    if prev_m is not None and last_m is not None:
        delta = last_m - prev_m
        verdict = "OK" if delta <= OBS_MAX_DELTA_POINTS else "FAIL"
        print(
            f"BENCH_obs_overhead.json: max metrics overhead "
            f"{prev_m:.2f}% -> {last_m:.2f}% ({delta:+.2f} points, "
            f"limit +{OBS_MAX_DELTA_POINTS}) {verdict}"
        )
        if verdict == "FAIL":
            failures.append("metrics overhead regressed")
    else:
        print(
            "BENCH_obs_overhead.json: max_metrics_overhead_pct needs two "
            "entries carrying it — skipping"
        )

runs = runs_of("BENCH_host_perf.json")
if runs is not None:
    prev = runs[-2]["summary"]["total_wall_ms"]
    last = runs[-1]["summary"]["total_wall_ms"]
    # Entries predating host_cpus stamping count as single-core: the bound
    # only tightens once the trajectory proves a steadier multi-core regime.
    multicore = all(r["config"].get("host_cpus", 1) > 1 for r in runs[-2:])
    limit = HOST_MAX_RATIO_MULTICORE if multicore else HOST_MAX_RATIO
    ratio = last / prev if prev > 0 else float("inf")
    verdict = "OK" if ratio <= limit else "FAIL"
    print(
        f"BENCH_host_perf.json: total_wall_ms {prev:.1f} -> {last:.1f} "
        f"({ratio:.3f}x, limit {limit}x"
        f"{' [multi-core]' if multicore else ''}) {verdict}"
    )
    if verdict == "FAIL":
        failures.append("host wall-clock regressed")

runs = all_runs_of("BENCH_fault_sweep.json")
if runs:
    summ = runs[-1]["summary"]
    bools = ["tolerated_pass", "hetero_pass", "loss_pass", "identity_pass"]
    bad = [k for k in bools if summ.get(k) is not True]
    verdict = "OK" if not bad else "FAIL"
    print(
        "BENCH_fault_sweep.json: "
        + " ".join(f"{k}={summ.get(k)}" for k in bools)
        + f" {verdict}"
    )
    if bad:
        failures.append("fault-sweep criteria failed: " + ", ".join(bad))
    if len(runs) >= 2:
        prev = runs[-2]["summary"]["total_wall_ms"]
        last = summ["total_wall_ms"]
        ratio = last / prev if prev > 0 else float("inf")
        verdict = "OK" if ratio <= FAULT_MAX_RATIO else "FAIL"
        print(
            f"BENCH_fault_sweep.json: total_wall_ms {prev:.1f} -> {last:.1f} "
            f"({ratio:.3f}x, limit {FAULT_MAX_RATIO}x) {verdict}"
        )
        if verdict == "FAIL":
            failures.append("fault-sweep wall-clock regressed")
    else:
        print("BENCH_fault_sweep.json: 1 entry; wall-time gate needs 2 — skipping")

runs = all_runs_of("BENCH_transport.json")
if runs:
    summ = runs[-1]["summary"]
    bools = ["differential_pass", "retransmit_pass"]
    if "metrics_pass" in summ:  # entries predating the wire metrics lack it
        bools.append("metrics_pass")
    bad = [k for k in bools if summ.get(k) is not True]
    verdict = "OK" if not bad else "FAIL"
    print(
        "BENCH_transport.json: "
        + " ".join(f"{k}={summ.get(k)}" for k in bools)
        + f" {verdict}"
    )
    if bad:
        failures.append("transport criteria failed: " + ", ".join(bad))
    if len(runs) >= 2:
        prev = runs[-2]["summary"]["total_wall_ms"]
        last = summ["total_wall_ms"]
        ratio = last / prev if prev > 0 else float("inf")
        verdict = "OK" if ratio <= TRANSPORT_MAX_RATIO else "FAIL"
        print(
            f"BENCH_transport.json: total_wall_ms {prev:.1f} -> {last:.1f} "
            f"({ratio:.3f}x, limit {TRANSPORT_MAX_RATIO}x) {verdict}"
        )
        if verdict == "FAIL":
            failures.append("transport wall-clock regressed")
    else:
        print("BENCH_transport.json: 1 entry; wall-time gate needs 2 — skipping")

runs = all_runs_of("BENCH_topology_breakdown.json")
if runs:
    summ = runs[-1]["summary"]
    bools = ["crosscheck_pass", "metrics_identity"]
    bad = [k for k in bools if summ.get(k) is not True]
    verdict = "OK" if not bad else "FAIL"
    print(
        "BENCH_topology_breakdown.json: "
        + " ".join(f"{k}={summ.get(k)}" for k in bools)
        + f" {verdict}"
    )
    if bad:
        failures.append("topology-breakdown criteria failed: " + ", ".join(bad))
    if len(runs) >= 2:
        prev = runs[-2]["summary"]["total_wall_ms"]
        last = summ["total_wall_ms"]
        ratio = last / prev if prev > 0 else float("inf")
        verdict = "OK" if ratio <= TOPOLOGY_MAX_RATIO else "FAIL"
        print(
            f"BENCH_topology_breakdown.json: total_wall_ms {prev:.1f} -> {last:.1f} "
            f"({ratio:.3f}x, limit {TOPOLOGY_MAX_RATIO}x) {verdict}"
        )
        if verdict == "FAIL":
            failures.append("topology-breakdown wall-clock regressed")
    else:
        print("BENCH_topology_breakdown.json: 1 entry; wall-time gate needs 2 — skipping")

runs = all_runs_of("BENCH_critical_path.json")
if runs:
    summ = runs[-1]["summary"]
    tiling = summ.get("tiling_pass")
    verdict = "OK" if tiling is True else "FAIL"
    print(f"BENCH_critical_path.json: tiling_pass={tiling} {verdict}")
    if tiling is not True:
        failures.append("critical paths no longer tile elapsed_cycles")
    if len(runs) >= 2:
        keys = ("preset",)
        cfgs = [{k: r["config"].get(k) for k in keys} for r in runs[-2:]]
        if cfgs[0] == cfgs[1]:
            prev = runs[-2]["summary"]["total_wall_ms"]
            last = summ["total_wall_ms"]
            ratio = last / prev if prev > 0 else float("inf")
            verdict = "OK" if ratio <= CRITPATH_MAX_RATIO else "FAIL"
            print(
                f"BENCH_critical_path.json: total_wall_ms {prev:.1f} -> {last:.1f} "
                f"({ratio:.3f}x, limit {CRITPATH_MAX_RATIO}x) {verdict}"
            )
            if verdict == "FAIL":
                failures.append("critical-path wall-clock regressed")
        else:
            print(
                "BENCH_critical_path.json: last two entries differ in "
                "config; wall-time gate skipped"
            )
    else:
        print("BENCH_critical_path.json: 1 entry; wall-time gate needs 2 — skipping")

if failures:
    print("perf gate FAILED: " + "; ".join(failures))
    sys.exit(1)
print("perf gate OK")
PY
