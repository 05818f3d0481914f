"""Record perfbench/goldens.json from the current sources.

    python3 perfbench/record_goldens.py

Runs every workload's golden case (fixed seed, reduced size) and stores
each trace without its wall-time column. Only re-record when a change is
meant to alter traces, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    run._prepare_imports()
    import checks
    import workloads

    tmp = run.ROOT / ".perfbench_tmp" / "goldens"
    goldens = {}
    try:
        for name, spec in workloads.GOLDEN_SPECS.items():
            wl = workloads.Workload(spec, workloads.GOLDEN_SEED, tmp / name)
            traces = {}
            for outcome in wl.run_pass():
                if outcome.errors:
                    print("\n".join(outcome.errors), file=sys.stderr)
                    return 1
                traces.update({k: checks.golden_rows(v) for k, v in outcome.traces.items()})
            goldens[name] = traces
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = Path(__file__).parent / "goldens.json"
    path.write_text(json.dumps(goldens, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
