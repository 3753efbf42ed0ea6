"""Closed-loop worker: runs one workload's CLI operations for a fixed time.

Usage: python3 bench/loop.py PLAN.json

Runs in its own interpreter so that its peak RSS and CPU time belong to the
workload alone. One client, one operation at a time: each round calls
`geopump.cli.main(argv)` once per operation of the workload, in order, and
the next round starts only when the previous one has finished. Each call is
timed from argv until the output file is written. Outside the timed region
every output is compared byte for byte with the first output of the same
operation, which `run.py` validates. With tracing on, rounds alternate
untraced and traced so one run gives both the per-layer spans and the tracing
overhead. Results, and the spans, are written when the run ends.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys
import time
import traceback


def main() -> int:
    plan = json.loads(pathlib.Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    import spans
    from geopump import bandmodel, cli, cyclemap, ensemble, propagator, thermo

    modules = {"cli": cli, "propagator": propagator, "cyclemap": cyclemap,
               "bandmodel": bandmodel, "ensemble": ensemble, "thermo": thermo}
    tracer = spans.Tracer() if plan["trace"] else None
    missing = []
    firsts = {}
    rounds = []
    op_id = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        restore = None
        if traced:
            restore, missing = tracer.install(modules)
        rnd = {"traced": traced, "wall": [], "cpu": [], "ok": [], "ops": []}
        for op in plan["ops"]:
            if traced:
                tracer.op = op_id
            out = pathlib.Path(op["out"])
            out.unlink(missing_ok=True)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                rc = cli.main(op["argv"])
            except Exception:  # a traceback is a failed operation, as exit 1
                traceback.print_exc()
                rc = 1
            t1 = time.perf_counter()
            c1 = time.process_time()
            data = out.read_bytes() if rc == 0 and out.exists() else None
            if data is not None and op["name"] not in firsts:
                firsts[op["name"]] = data
                pathlib.Path(op["first"]).write_bytes(data)
            rnd["wall"].append(t1 - t0)
            rnd["cpu"].append(c1 - c0)
            rnd["ok"].append(data is not None and data == firsts.get(op["name"]))
            rnd["ops"].append(op_id)
            op_id += 1
        if restore is not None:
            restore()
        rounds.append(rnd)
        enough_kinds = tracer is None or len(rounds) >= 2
        if time.perf_counter() - start >= plan["seconds"] and enough_kinds:
            break

    result = {
        "rounds": rounds,
        "missing": missing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer is not None else [],
    }
    pathlib.Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
