#!/usr/bin/env python3
"""Benchmark of the geopump CLI: end-to-end cost and correctness, per-layer spans.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S

`all` runs every workload, untraced and then traced, and exits nonzero if any
check failed.

Workloads are listed in bench/workloads.json. Each operation is one
in-process call of `geopump.cli.main(argv)` on a frozen config from
bench/configs (shifted by the seed, see checks.py), run closed-loop by one
client in a child interpreter (loop.py) for S seconds. A round runs each of
the workload's operations once; a timing is the round's total divided by its
operation count, so it is in seconds per operation, and each figure is the
median over rounds.

--trace 0 prints the end-to-end metrics: wall_s, cpu_s, setup_s (median of
fresh interpreters importing geopump.cli and resolving the configs) and
peak_rss_mb. --trace 1 alternates untraced and traced rounds and prints the
per-layer metrics (spans.py). Every output is checked, outside the timed
region, against the frozen reference tables (bench/reference) or across
routes; error_rate and max_abs_dev are printed, and a failed check makes the
result incorrect and the exit code 1. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Working files, the
spans and a full report go to .bench_work/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

import spans
from checks import cross_route, max_abs_dev, shifted_config

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 7
TIME_LIMIT_S = 170.0  # a run must end within 180 s
CHECK_RESERVE_S = 15.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "propagator.calls": "count", "propagator.points_per_call": "count",
    "propagator.busy_s": "s", "propagator.point_steps": "count",
    "propagator.point_cycles": "count", "propagator.updates_per_s": "1/s",
    "propagator.overlap": "ratio",
    "cyclemap.series_calls": "count", "cyclemap.series_busy_s": "s",
    "cyclemap.point_cycles": "count", "cyclemap.updates_per_s": "1/s",
    "cyclemap.closed_calls": "count", "cyclemap.closed_busy_s": "s",
    "bandmodel.gap_stats_calls": "count", "bandmodel.gap_stats_busy_s": "s",
    "ensemble.busy_s": "s", "thermo.busy_s": "s",
    "cli.resolve_s": "s", "cli.run_self_s": "s", "cli.emit_s": "s", "cli.io_s": "s",
    "trace.overhead_s": "s",
}
COMPUTED = {"propagator.points_per_call", "propagator.point_steps",
            "propagator.point_cycles", "propagator.updates_per_s",
            "cyclemap.point_cycles", "cyclemap.updates_per_s"}
# Complex arrays alive across one kernel call's loop: u00..u11, q00..q11,
# s00, s11 in p_g_numeric_grid; u00..u11, v0, v1 in p_series_mean_grid.
GRID_KERNEL_COMPLEX_ARRAYS = 10
SERIES_KERNEL_COMPLEX_ARRAYS = 6


def _stats(values):
    """(median, q1, q3, n) of a sample."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def _read(path):
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def _cache_bytes(level):
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if _read(index / "level").strip() == str(level) and \
                _read(index / "type").strip() in ("Unified", "Data"):
            size = _read(index / "size").strip()
            mult = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
            digits = size.rstrip("KM")
            return int(digits) * mult if digits.isdigit() else None
    return None


def machine_facts():
    import numpy

    model = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor() or "unknown")
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "l2_bytes": _cache_bytes(2), "l3_bytes": _cache_bytes(3),
            "python": platform.python_version(), "numpy": numpy.__version__}


def build_ops(spec, seed, work):
    ops = []
    for stem in spec["ops"]:
        frozen = json.loads((BENCH / "configs" / f"{stem}.json").read_text(encoding="utf-8"))
        cfg = shifted_config(stem, frozen, seed)
        cfg_path = work / f"{stem}.json"
        cfg_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        out = work / f"{stem}.csv"
        ops.append({
            "name": stem, "config": cfg, "frozen": cfg == frozen,
            "config_path": str(cfg_path), "out": str(out),
            "first": str(work / f"{stem}.first.csv"),
            "argv": [cfg["experiment"], "--config", str(cfg_path), "--out", str(out),
                     "--workers", str(spec["workers"])],
        })
    return ops


def measure_setup(ops, deadline):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
             *[op["config_path"] for op in ops]],
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
        times.append(float(proc.stdout.strip()))
    return times


def validate(ops, seed):
    """Check each operation's first output.

    Returns {name: (ok, deviation from the reference or None, largest
    cross-route deviation, failure notes)}.
    """
    verdicts = {}
    for op in ops:
        first = pathlib.Path(op["first"])
        if not first.exists():
            verdicts[op["name"]] = (False, math.inf, math.inf, ["no output was written"])
            continue
        data = first.read_bytes()
        notes, dev, worst = [], None, None
        try:
            if op["frozen"]:
                ref = (BENCH / "reference" / f"{op['name']}.csv").read_bytes()
                dev = max_abs_dev(data, ref)
                if data != ref:
                    notes.append(f"output differs from the frozen reference "
                                 f"(max abs dev {dev:.3g})")
            failures, worst = cross_route(
                op["config"], data, random.Random(f"geopump-bench-check:{seed}:{op['name']}"))
            notes += failures
        except (KeyError, IndexError, ValueError) as exc:  # malformed table
            dev = math.inf if op["frozen"] else None
            notes.append(f"output could not be checked: {exc!r}")
        verdicts[op["name"]] = (not notes, dev, worst, notes)
    return verdicts


def per_op(rounds, key):
    return [sum(r[key]) / len(r[key]) for r in rounds]


def layer_figures(result, ops, workers):
    by_op = {}
    for s in result["spans"]:
        by_op.setdefault(s[5], []).append(s)
    samples = {}
    for rnd in (r for r in result["rounds"] if r["traced"]):
        round_spans = [s for o in rnd["ops"] for s in by_op.get(o, [])]
        for name, value in spans.layer_metrics(round_spans, len(ops), workers).items():
            samples.setdefault(name, []).append(value)
    traced = per_op([r for r in result["rounds"] if r["traced"]], "wall")
    untraced = per_op([r for r in result["rounds"] if not r["traced"]], "wall")
    samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(untraced)]
    return samples, traced, spans.absent_layers(result["missing"])


def fmt(name, unit, values, note=""):
    med, q1, q3, n = _stats(values)
    return (f"  {name:<28} {med!r:>24} {unit:<6} n={n:<3} q1={q1:.6g} q3={q3:.6g}"
            f"{'  ' + note if note else ''}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of bench/workloads.json, or 'all' to run every "
                             "workload untraced and then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    if args.workload != "all" and args.workload not in workloads:
        print(f"bench: unknown workload '{args.workload}'; choose from "
              f"{', '.join(workloads)} or all", file=sys.stderr)
        return 2
    if not (SRC / "geopump" / "cli.py").is_file():
        print(f"bench: no geopump sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import geopump

    if pathlib.Path(geopump.__file__).resolve().parent != SRC / "geopump":
        print(f"bench: imported geopump from {geopump.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        return run_workload(args.workload, workloads[args.workload], args.seed,
                            args.seconds, args.trace)
    return max(run_workload(name, spec, args.seed, args.seconds, trace)
               for name, spec in workloads.items() for trace in (0, 1))


def run_workload(workload, spec, seed, seconds, trace) -> int:
    """Run one workload, print its report and result line; 0 if every check passed."""
    deadline = time.monotonic() + TIME_LIMIT_S
    workers = spec["workers"]
    work = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = build_ops(spec, seed, work)

    try:
        setup = measure_setup(ops, deadline)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    plan = {"src": str(SRC), "ops": ops, "seconds": seconds, "trace": trace,
            "result": str(work / "result.json")}
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    log = work / "loop.log"
    with open(log, "wb") as fh:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "loop.py"), str(work / "plan.json")],
                stdout=fh, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - time.monotonic() - CHECK_RESERVE_S))
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
    if rc != 0:
        print(f"bench: workload process failed ({rc}); last lines of {log}:\n"
              + "\n".join(_read(log).splitlines()[-20:]), file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))

    verdicts = validate(ops, seed)
    names = [op["name"] for op in ops]
    attempted = failed = 0
    for rnd in result["rounds"]:
        for name, ok in zip(names, rnd["ok"]):
            attempted += 1
            failed += not (ok and verdicts[name][0])
    devs = [v[1] for v in verdicts.values() if v[1] is not None]
    correct = failed == 0

    untraced = [r for r in result["rounds"] if not r["traced"]]
    e2e = {"wall_s": per_op(untraced, "wall"), "cpu_s": per_op(untraced, "cpu"),
           "setup_s": setup, "peak_rss_mb": [result["peak_rss_mb"]]}
    facts = {**machine_facts(), "workers": workers}

    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"ops/round {len(ops)}  rounds {len(result['rounds'])} "
          f"({len(untraced)} untraced)  workers {workers}")
    print("machine: " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    print("end to end (per operation; median over rounds, setup over fresh interpreters):")
    for name, unit in END_TO_END_UNITS.items():
        print(fmt(name, unit, e2e[name]))
    print(f"  {'error_rate':<28} {failed / attempted!r:>24} ratio  "
          f"n={attempted} ({failed} failed)")
    if devs:
        print(f"  {'max_abs_dev':<28} {max(devs)!r:>24} abs    "
              f"n={len(devs)} frozen-input outputs vs reference")
    else:
        print(f"  {'max_abs_dev':<28} {'n/a':>24} abs    every input shifted by the seed; "
              "cross-route checks decide")
    for name, (ok, _dev, worst, notes) in verdicts.items():
        route = "no cross-route check" if worst is None else \
            f"largest cross-route deviation {worst:.3g}"
        print(f"  check {name}: {'pass' if ok else 'FAIL'} ({route})"
              + "".join(f"\n    {n}" for n in notes[:10]))

    report = {"workload": workload, "seed": seed, "trace": trace,
              "machine": facts, "end_to_end": {k: _stats(v) for k, v in e2e.items()},
              "attempted": attempted, "failed": failed,
              "checks": {k: v[3] for k, v in verdicts.items()}}
    if trace:
        layers, traced_wall, absent = layer_figures(result, ops, workers)
        print(f"per layer (traced rounds, per operation; absent layers: "
              f"{', '.join(absent) or 'none'}; missing functions: "
              f"{', '.join(result['missing']) or 'none'}):")
        for name, unit in PER_LAYER_UNITS.items():
            layer = name.split(".")[0]
            note = "absent" if layer in absent else ("computed" if name in COMPUTED else "")
            print(fmt(name, unit, layers[name], note))
        wall = statistics.median(traced_wall)
        busy = (statistics.median(layers["propagator.busy_s"])
                + statistics.median(layers["cyclemap.series_busy_s"]))
        print(f"  traced wall_s {wall!r} s; kernel busy share "
              f"{busy / wall:.4f} (propagator + cyclemap series)")
        grid_pts = spans.largest_call(result["spans"], "propagator.grid")
        series_pts = spans.largest_call(result["spans"], "cyclemap.series")
        working_set = {"propagator.grid": grid_pts * GRID_KERNEL_COMPLEX_ARRAYS * 16,
                       "cyclemap.series": series_pts * SERIES_KERNEL_COMPLEX_ARRAYS * 16}
        print(f"  computed working set of the largest kernel call: propagator grid "
              f"{grid_pts} points x {GRID_KERNEL_COMPLEX_ARRAYS} complex arrays x 16 B = "
              f"{working_set['propagator.grid']} B, cyclemap series "
              f"{series_pts} x {SERIES_KERNEL_COMPLEX_ARRAYS} x 16 B = "
              f"{working_set['cyclemap.series']} B "
              f"(L2 {facts['l2_bytes']} B, L3 {facts['l3_bytes']} B)")
        report.update(per_layer={k: _stats(v) for k, v in layers.items()}, absent=absent,
                      missing=result["missing"], working_set_bytes=working_set)
        metrics = {name: {"value": statistics.median(layers[name]), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": statistics.median(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    (work / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
