#!/usr/bin/env python3
"""Run every committed example config and collect the CSVs under out/.

Usage: python scripts/reproduce_all.py [outdir]
Runs each configs/*.json in name order, writing <config stem>.csv. The two
momentum sweeps and verify-cyclemap take a few seconds each.
"""

import json
import pathlib
import sys
import time

from geopump import cli


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    outdir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else root / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    for cfg_path in sorted((root / "configs").glob("*.json")):
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


if __name__ == "__main__":
    sys.exit(main())
