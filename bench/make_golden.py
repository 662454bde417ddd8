"""Regenerate ``bench/golden/seed0.json``: the exact seed-0 outputs.

    python bench/make_golden.py

Runs one seed-0 pass of every workload, full size and ``--quick`` size,
checks the invariants, and writes the outputs.  Every benchmark pass with
seed 0 must reproduce them exactly, so regenerate only for a change that is
meant to alter simulated results, and say so in that change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from worker import GOLDEN, workloads


def main() -> int:
    if any(os.environ.get(k) != v for k, v in workloads.PASS_ENV.items()):
        # numpy reads the thread settings at import: restart under them
        env = dict(os.environ, **workloads.PASS_ENV)
        return subprocess.run([sys.executable, __file__], env=env).returncode
    table = {}
    for quick in (False, True):
        part = table["quick" if quick else "full"] = {}
        for name in workloads.WORKLOADS:
            inputs = workloads.make_inputs(name, 0, quick)
            outputs = json.loads(json.dumps(workloads.run_pass(inputs)))
            errors = workloads.check(inputs, outputs, None,
                                     workloads.reference(inputs))
            if errors:
                print(f"{name}: {errors}", file=sys.stderr)
                return 1
            part[name] = outputs
            print(f"{'quick' if quick else 'full'} {name}: ok")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
