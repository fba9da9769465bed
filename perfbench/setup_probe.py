"""Time one fresh process's set-up: imports plus config load and build.

    python3 setup_probe.py <repo root> <config file> <overrides as JSON> <seed>

Prints the elapsed seconds, then two reference timings taken after it (see
host_speed.py; a first, discarded call warms the reference up).  The clock starts before numpy, scipy and coopguide are
imported, as in a fresh ``coopguide run``.
"""

import sys
import time

start = time.perf_counter()
root, config_file, overrides, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
sys.path.insert(0, f"{root}/src")

import json  # noqa: E402

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401

import coopguide  # noqa: E402

values = coopguide.load_config_file(config_file)
values.update(json.loads(overrides))
coopguide.build_config(values, seed=seed)
elapsed = time.perf_counter() - start

from host_speed import timed_reference  # noqa: E402

timed_reference()
print(elapsed, timed_reference(), timed_reference())
