#!/usr/bin/env python3
"""Run every committed example config and collect the CSVs under out/.

Usage: python scripts/reproduce_all.py [outdir]
       python scripts/reproduce_all.py --check
       python scripts/reproduce_all.py --help
Runs each configs/*.json in name order, writing <config stem>.csv. The two
momentum sweeps and verify-cyclemap take a few seconds each.

--check writes to a temporary directory instead and compares each CSV with
out/ byte for byte. For every config whose output differs it prints the
config and the largest cell difference, and it exits 1.
"""

import argparse
import csv
import json
import math
import pathlib
import sys
import tempfile
import time

from geopump import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_all(outdir: pathlib.Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    for cfg_path in sorted((ROOT / "configs").glob("*.json")):
        out_path = outdir / (cfg_path.stem + ".csv")
        experiment = json.loads(cfg_path.read_text(encoding="utf-8"))["experiment"]
        t0 = time.perf_counter()
        rc = cli.main([experiment, "--config", str(cfg_path), "--out", str(out_path)])
        dt = time.perf_counter() - t0
        if rc != 0:
            print(f"FAILED ({rc}): {experiment}", file=sys.stderr)
            return rc
        print(f"{experiment:20s} {dt:7.2f} s -> {out_path}", file=sys.stderr)
    return 0


def largest_cell_difference(a: pathlib.Path, b: pathlib.Path) -> str:
    """The largest |difference| over the numeric cells of two CSV tables."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        return (f"header or row count differs ({len(rows_a) - 1} vs "
                f"{len(rows_b) - 1} rows)")
    cells = [(abs(float(x) - float(y)), i, column)
             for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]))
             for column, x, y in zip(rows_a[0], ra, rb)]
    worst, i, column = max(cells, key=lambda c: math.inf if math.isnan(c[0]) else c[0],
                           default=(0.0, None, None))
    if worst == 0.0:
        return "cells equal, bytes differ"
    return f"largest cell difference {worst:.3e} in row {i}, column {column!r}"


def check() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        rc = run_all(tmp)
        if rc != 0:
            return rc
        differing = 0
        for cfg_path in sorted((ROOT / "configs").glob("*.json")):
            new, ref = tmp / (cfg_path.stem + ".csv"), ROOT / "out" / (cfg_path.stem + ".csv")
            if new.read_bytes() != ref.read_bytes():
                differing += 1
                print(f"DIFFERS: {cfg_path.relative_to(ROOT)}: "
                      f"{largest_cell_difference(new, ref)}")
    print(f"{differing} of {len(list((ROOT / 'configs').glob('*.json')))} outputs "
          f"differ from out/")
    return 1 if differing else 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="reproduce_all.py", description="Run every configs/*.json into outdir.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("outdir", nargs="?", type=pathlib.Path, default=ROOT / "out",
                      help="where the CSVs go (default: out/)")
    mode.add_argument("--check", action="store_true",
                      help="compare a fresh run with out/ byte for byte instead")
    args = parser.parse_args(argv)
    return check() if args.check else run_all(args.outdir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
