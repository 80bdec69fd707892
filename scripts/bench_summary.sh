#!/usr/bin/env bash
# Tabulates every BENCH_*.json artifact at the repo root into one terminal
# summary: the obs-overhead trajectory (one line per recorded run), the
# sharing-advisor closed loop, the advisor-sweep trajectory (auto vs hand
# Table 2 hints), the transport trajectory (with per-pair ACK-RTT metrics),
# the per-topology breakdown trajectory, the critical-path trajectory
# (per-kernel path length + top-segment share + tiling), and a generic
# scalar dump for any future artifact.
# Read-only; uses only the Python standard library.
#
# Usage: scripts/bench_summary.sh          (from anywhere; cd's to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

shopt -s nullglob
files=(BENCH_*.json)
if [ ${#files[@]} -eq 0 ]; then
  echo "no BENCH_*.json artifacts at the repo root; run the bench binaries first"
  echo "(obs_overhead, sharing_profile, ...)"
  exit 0
fi

python3 - "${files[@]}" <<'PY'
import json
import sys


def rule(title):
    print(f"\n== {title} " + "=" * max(0, 66 - len(title)))


def obs_overhead(doc):
    runs = doc.get("runs")
    if runs is None:  # legacy single-run file
        runs = [doc]
    print(f"{len(runs)} recorded run(s); per run: max recording overhead / cycle check")
    for i, run in enumerate(runs, 1):
        cfg = run.get("config", {})
        summ = run.get("summary", {})
        ident = summ.get("simulated_cycles_identical")
        print(
            f"  run #{i}: preset={cfg.get('preset', '?')} procs={cfg.get('procs', '?')} "
            f"reps={cfg.get('reps', '?')} "
            f"max_overhead={summ.get('max_recording_overhead_pct', '?')}% "
            f"cycles_identical={ident}"
        )
    last = runs[-1].get("apps", [])
    if last:
        print("  latest run, per app:")
        w = max(len(a.get("name", "?")) for a in last)
        for a in last:
            metrics = ""
            if "metrics_overhead_pct" in a:
                metrics = (
                    f"  metrics {a.get('wall_ms_metrics', 0):7.2f} ms "
                    f"({a.get('metrics_overhead_pct', 0):+6.2f}%)"
                )
            print(
                f"    {a.get('name', '?'):<{w}}  {a.get('proto', '?'):<7} "
                f"wall {a.get('wall_ms_off', 0):7.2f} -> {a.get('wall_ms_on', 0):7.2f} ms "
                f"({a.get('recording_overhead_pct', 0):+6.2f}%)  "
                f"{a.get('events', 0):>9} events{metrics}"
            )


def host_perf(doc):
    runs = doc.get("runs")
    if runs is None:  # tolerate a hand-made single-run file
        runs = [doc]
    print(f"{len(runs)} recorded run(s); per run: sweep speedup / gate metric")
    for i, run in enumerate(runs, 1):
        cfg = run.get("config", {})
        sw = run.get("sweep", {})
        summ = run.get("summary", {})
        print(
            f"  run #{i}: preset={cfg.get('preset', '?')} seeds={cfg.get('seeds', '?')} "
            f"jobs={cfg.get('jobs', '?')} reps={cfg.get('reps', '?')} "
            f"sweep {sw.get('wall_ms_serial', 0):.1f} -> {sw.get('wall_ms_parallel', 0):.1f} ms "
            f"({summ.get('sweep_speedup', '?')}x, identical={sw.get('reports_identical')}) "
            f"total_wall_ms={summ.get('total_wall_ms', '?')}"
        )
    last = runs[-1].get("recording", [])
    if last:
        print("  latest run, recording cost:")
        w = max(len(r.get("name", "?")) for r in last)
        for r in last:
            print(
                f"    {r.get('name', '?'):<{w}}  "
                f"wall {r.get('wall_ms_off', 0):7.2f} -> {r.get('wall_ms_on', 0):7.2f} ms "
                f"({r.get('overhead_pct', 0):+6.2f}%)"
            )


def fault_sweep(doc):
    runs = doc.get("runs")
    if runs is None:  # tolerate a hand-made single-run file
        runs = [doc]
    print(f"{len(runs)} recorded sweep(s); per run: criterion booleans / gate metric")
    for i, run in enumerate(runs, 1):
        cfg = run.get("config", {})
        summ = run.get("summary", {})
        print(
            f"  run #{i}: seeds={cfg.get('seeds', '?')} "
            f"loss_seeds={cfg.get('loss_seeds', '?')} jobs={cfg.get('jobs', '?')} "
            f"tolerated={summ.get('tolerated_pass', '?')} "
            f"hetero={summ.get('hetero_pass', '?')} loss={summ.get('loss_pass', '?')} "
            f"identity={summ.get('identity_pass', '?')} "
            f"total_wall_ms={summ.get('total_wall_ms', '?')}"
        )
    last = runs[-1]
    rows = last.get("tolerated", []) + last.get("heterogeneous", [])
    if rows:
        print("  latest sweep, per section:")
        w = max(len(r.get("kind", r.get("shape", "?"))) for r in rows)
        for r in rows:
            label = r.get("kind", r.get("shape", "?"))
            print(
                f"    {label:<{w}}  {r.get('runs', 0):>4} runs  "
                f"{r.get('failures', 0)} failures  {r.get('wall_ms', 0):7.1f} ms"
            )
    loss = last.get("loss", {})
    if loss:
        print(
            f"  loss: caught={loss.get('caught', '?')} "
            f"replay_identical={loss.get('replay_identical', '?')} "
            f"shrink_keeps_loss={loss.get('shrink_keeps_loss', '?')} "
            f"shrunk_fails={loss.get('shrunk_fails', '?')} "
            f"shrunk_iters={loss.get('shrunk_iters', '?')}"
        )


def site_lines(sites):
    for s in sites:
        print(
            f"    {s.get('label', '?'):<14} {s.get('block_bytes', 0):>5} B x "
            f"{s.get('blocks_touched', 0):>4} blocks  {s.get('pattern', '?'):<13} "
            f"rd/wr miss {s.get('read_misses', 0)}/{s.get('write_misses', 0)}  "
            f"-> {s.get('recommendation', '?')}"
        )


def sharing_advisor(doc):
    cfg = doc.get("config", {})
    print(f"preset={cfg.get('preset', '?')} proto={cfg.get('proto', '?')} procs={cfg.get('procs', '?')}")
    k = doc.get("kernel", {})
    print(
        f"  kernel {k.get('name', '?')}: {k.get('cycles_base', '?')} cycles; "
        f"Table 2 hints -> {k.get('cycles_table2_hints', '?')} "
        f"({k.get('cycle_delta_pct', 0):+.2f}%)"
    )
    site_lines(k.get("sites", []))
    s = doc.get("synthetic", {})
    print(
        f"  synthetic: {s.get('blocks_false_shared', '?')} false-shared "
        f"{s.get('block_bytes', '?')} B blocks; advisor hint {s.get('recommended_bytes', '?')} B "
        f"-> {s.get('cycles_base', '?')} -> {s.get('cycles_with_hint', '?')} cycles "
        f"({s.get('cycle_delta_pct', 0):+.2f}%)"
    )
    site_lines(s.get("sites", []))


def advisor_sweep(doc):
    runs = doc.get("runs")
    if runs is None:  # tolerate a hand-made single-run file
        runs = [doc]
    print(f"{len(runs)} recorded sweep(s); per run: auto vs hand Table 2 hints")
    for i, run in enumerate(runs, 1):
        print(
            f"  run #{i}: eval={run.get('eval_preset', '?')} "
            f"profile={run.get('profile_preset', '?')} procs={run.get('procs', '?')} "
            f"quick={run.get('quick', '?')} hand_improves={run.get('hand_improves', '?')} "
            f"auto_matches={run.get('auto_matches_hand_improvement', '?')} "
            f"auto_within_5pct={run.get('auto_within_5pct_of_hand', '?')}"
        )
    last = runs[-1].get("kernels", [])
    if last:
        print("  latest sweep, per kernel (cycles):")
        w = max(len(k.get("name", "?")) for k in last)
        for k in last:
            print(
                f"    {k.get('name', '?'):<{w}}  unhinted {k.get('cycles_unhinted', 0):>12} "
                f"auto {k.get('cycles_auto', 0):>12} ({k.get('auto_delta_pct', 0):+6.1f}%) "
                f"hand {k.get('cycles_hand', 0):>12} ({k.get('hand_delta_pct', 0):+6.1f}%) "
                f"auto-vs-hand {k.get('auto_vs_hand_pct', 0):+6.1f}%"
            )


def transport(doc):
    runs = doc.get("runs")
    if runs is None:  # tolerate a hand-made single-run file
        runs = [doc]
    print(f"{len(runs)} recorded run(s); per run: differential / retransmit criteria")
    for i, run in enumerate(runs, 1):
        cfg = run.get("config", {})
        summ = run.get("summary", {})
        print(
            f"  run #{i}: quick={cfg.get('quick', '?')} "
            f"differential_pass={summ.get('differential_pass', '?')} "
            f"retransmit_pass={summ.get('retransmit_pass', '?')} "
            f"metrics_pass={summ.get('metrics_pass', '?')} "
            f"total_wall_ms={summ.get('total_wall_ms', '?')}"
        )
    last = runs[-1]
    for h in last.get("handshake", []):
        print(f"  handshake {h.get('backend', '?'):<4} {h.get('connect_ms', 0):7.3f} ms")
    for r in last.get("round_trip", []):
        print(f"  round-trip {r.get('backend', '?'):<4} {r.get('rtt_us', 0):7.2f} us")
    rows = last.get("differential", [])
    if rows:
        print("  latest run, per kernel/backend:")
        w = max(len(r.get("app", "?")) for r in rows)
        for r in rows:
            print(
                f"    {r.get('app', '?'):<{w}}  {r.get('backend', '?'):<4} "
                f"counters {'equal' if r.get('pass') else 'DIVERGED'}  "
                f"{r.get('wall_ms', 0):7.1f} ms"
            )
            for p in r.get("ack_rtt_pairs", []):
                print(
                    f"      ack-rtt {p.get('pair', '?'):<8} n={p.get('count', 0):>6}  "
                    f"p50 {p.get('p50_ns', 0):>8} ns  p95 {p.get('p95_ns', 0):>8} ns  "
                    f"p99 {p.get('p99_ns', 0):>8} ns"
                )
    rt = last.get("retransmit", {})
    if rt:
        print(
            f"  retransmit: drops={rt.get('induced_drops', '?')} "
            f"retransmits={rt.get('retransmits', '?')} holds={rt.get('holds', '?')} "
            f"resequenced={rt.get('resequenced', '?')} "
            f"first_tx_dropped_metric={rt.get('first_tx_dropped_metric', '?')} "
            f"metrics_match_drops={rt.get('metrics_match_drops', '?')} "
            f"pass={rt.get('pass', '?')}"
        )


def topology_breakdown(doc):
    runs = doc.get("runs")
    if runs is None:  # tolerate a hand-made single-run file
        runs = [doc]
    print(f"{len(runs)} recorded sweep(s); per run: accounting / identity criteria")
    for i, run in enumerate(runs, 1):
        cfg = run.get("config", {})
        summ = run.get("summary", {})
        print(
            f"  run #{i}: quick={cfg.get('quick', '?')} preset={cfg.get('preset', '?')} "
            f"procs={cfg.get('procs', '?')} "
            f"crosscheck_pass={summ.get('crosscheck_pass', '?')} "
            f"metrics_identity={summ.get('metrics_identity', '?')} "
            f"total_wall_ms={summ.get('total_wall_ms', '?')}"
        )
    cells = runs[-1].get("cells", [])
    if cells:
        print("  latest sweep, per (topology, kernel) cell:")
        wk = max(len(c.get("kind", "?")) for c in cells)
        wa = max(len(c.get("app", "?")) for c in cells)
        for c in cells:
            comps = c.get("components", {})
            busy = sum(v for v in comps.values() if isinstance(v, (int, float)))
            print(
                f"    {c.get('kind', '?'):<{wk}}  {c.get('app', '?'):<{wa}}  "
                f"elapsed {c.get('elapsed_cycles', 0):>12}  busy {busy:>12}  "
                f"idle {c.get('idle_cycles', 0):>10}  "
                f"link-occ {c.get('link_occupancy_cycles', 0):>10}  "
                f"{'exact' if c.get('crosscheck_pass') else 'DIVERGED'}/"
                f"{'identical' if c.get('metrics_identity') else 'PERTURBED'}"
            )


def critical_path(doc):
    runs = doc.get("runs")
    if runs is None:  # tolerate a hand-made single-run file
        runs = [doc]
    print(f"{len(runs)} recorded run(s); per run: tiling criterion / gate metric")
    for i, run in enumerate(runs, 1):
        cfg = run.get("config", {})
        summ = run.get("summary", {})
        print(
            f"  run #{i}: preset={cfg.get('preset', '?')} "
            f"procs={cfg.get('procs', '?')} "
            f"host_cpus={cfg.get('host_cpus', '?')} "
            f"tiling_pass={summ.get('tiling_pass', '?')} "
            f"total_wall_ms={summ.get('total_wall_ms', '?')}"
        )
    last = runs[-1].get("kernels", [])
    if last:
        print("  latest run, per kernel:")
        w = max(len(k.get("name", "?")) for k in last)
        for k in last:
            print(
                f"    {k.get('name', '?'):<{w}}  "
                f"{k.get('segments', 0):>5} segments  "
                f"{k.get('wire_hops', 0):>4} wire hops  "
                f"top {k.get('top_cat', '?'):<8} {k.get('top_cat_pct', 0):5.1f}%  "
                f"fallback {k.get('fallback_segments', 0):>3}  "
                f"{'tiles' if k.get('tiling_exact') else 'BROKEN'}"
            )


def generic(doc):
    def scalars(prefix, obj):
        for key, val in obj.items():
            if isinstance(val, dict):
                scalars(f"{prefix}{key}.", val)
            elif isinstance(val, (int, float, str, bool)):
                print(f"  {prefix}{key} = {val}")
            elif isinstance(val, list):
                print(f"  {prefix}{key} = [{len(val)} entries]")

    scalars("", doc)


for path in sys.argv[1:]:
    rule(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"  unreadable: {err}")
        continue
    if path == "BENCH_obs_overhead.json":
        obs_overhead(doc)
    elif path == "BENCH_host_perf.json":
        host_perf(doc)
    elif path == "BENCH_sharing_advisor.json":
        sharing_advisor(doc)
    elif path == "BENCH_advisor_sweep.json":
        advisor_sweep(doc)
    elif path == "BENCH_fault_sweep.json":
        fault_sweep(doc)
    elif path == "BENCH_transport.json":
        transport(doc)
    elif path == "BENCH_topology_breakdown.json":
        topology_breakdown(doc)
    elif path == "BENCH_critical_path.json":
        critical_path(doc)
    else:
        generic(doc)
print()
PY
