"""Write digests.json: the SHA-256 of every seeded host the benchmark builds
at the default seed.

Usage (from the root of a checkout): python3 bench/pin_digests.py

Run it only when a change is meant to alter seeded outputs, and say so in
the change; otherwise a changed digest is a failed op.
"""

import json
import shutil

from run import ROOT, WORKLOADS, make_workload, measure, reference_check, use_source_tree

use_source_tree()
from workloads import DEFAULT_SEED, DIGESTS_FILE, Pins  # noqa: E402


def main() -> None:
    pins = Pins({}, record=True)
    workdir = ROOT / ".bench_work" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            wl = make_workload(name, DEFAULT_SEED, workdir, pins)
            m = measure(wl.ops, passes=1)
            reference_check(wl.ops, [m])
            if m.failures:
                raise SystemExit(f"{name}: {len(m.failures)} failed ops, nothing pinned: {m.failures[:3]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS_FILE.write_text(json.dumps(dict(sorted(pins.table.items())), indent=1) + "\n")
    print(f"pinned {len(pins.table)} digests in {DIGESTS_FILE.name}")


if __name__ == "__main__":
    main()
