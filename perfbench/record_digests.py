"""Record the digests the benchmark checks outputs against.

    python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``: the SHA-256 of every ``profile_suite``
profile's JSON text, and the store content id of every service job input
either serve workload submits. Profiles are deterministic, so these only
change when a change to the program changes what it reports; re-record
then, and say so in the change.
"""

import hashlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from common import canonical_sha256  # noqa: E402
from profile_suite import MODE, SCALE  # noqa: E402
from serve import BURST_PROGRAMS, BURST_SCALES, PACED_SCALE, digest_key  # noqa: E402


def main() -> None:
    from repro.core import Scalene
    from repro.core.profile_data import ProfileData
    from repro.serve.jobs import execute_job
    from repro.serve.loadgen import DEFAULT_WORKLOADS
    from repro.workloads import pyperf_suite

    suite = {}
    for name, workload in pyperf_suite().items():
        text = Scalene.run(workload.make_process(SCALE), mode=MODE).to_json()
        suite[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    payloads = [{"workload": w, "mode": "cpu", "scale": PACED_SCALE} for w in DEFAULT_WORKLOADS]
    payloads += [{"workload": w, "mode": "full", "scale": s}
                 for w in BURST_PROGRAMS for s in BURST_SCALES]
    serve = {}
    for payload in payloads:
        profile = ProfileData.from_json(execute_job(payload))
        serve[digest_key(payload)] = canonical_sha256(
            {"store_format": 1, "profile": profile.to_dict()}
        )
    burst = [serve[digest_key({"workload": w, "mode": "full", "scale": s})]
             for w in BURST_PROGRAMS for s in BURST_SCALES]
    if len(set(burst)) != len(burst):
        raise SystemExit("burst inputs must give distinct profiles")
    record = {"profile_suite": suite, "serve": serve}
    (BENCH_DIR / "digests.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                             encoding="utf-8")


if __name__ == "__main__":
    main()
