"""A fresh process's set-up for one profiled run of the suite: import
the profiler and build (compile) every Table-1 program cold.

Run by ``profile_suite`` with the sources on ``PYTHONPATH``; prints one
JSON object: ``import_s``, ``build_ms`` per program and ``total_s``.
"""

import json
import sys
import time

started = time.perf_counter()
from repro.core import Scalene  # noqa: E402,F401  (the import being timed)
from repro.workloads import pyperf_suite  # noqa: E402

imported = time.perf_counter()
scale = float(sys.argv[1])
build_ms = {}
for name, workload in pyperf_suite().items():
    t0 = time.perf_counter()
    workload.make_process(scale)
    build_ms[name] = (time.perf_counter() - t0) * 1000.0
print(json.dumps({
    "import_s": imported - started,
    "build_ms": build_ms,
    "total_s": time.perf_counter() - started,
}))
