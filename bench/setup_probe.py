"""Set-up cost a user pays on every CLI call, timed inside a fresh interpreter.

Usage: python3 bench/setup_probe.py SRC_DIR CONFIG.json...

Prints the seconds from before `import geopump.cli` until `resolve_config`
has resolved every given config. Interpreter start-up itself is not counted.
"""

import time

_t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
from geopump import cli  # noqa: E402

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    cli.resolve_config(doc["experiment"], doc)
print(repr(time.perf_counter() - _t0))
