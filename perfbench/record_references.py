"""Record the reference outputs and the oracle failure ledger.

Runs every pool member of every workload once and writes
``perfbench/references.json``:

* ``outputs``: per solve key, the sha256 of each output file.  Outputs of
  ``exact-many-points``, ``sampled`` and ``sip-pipeline`` must match these
  byte for byte.
* ``ledger``: per failing ``oracle-lattice`` solve key (instance, measure),
  the failure kind.  ``oracle-lattice`` is checked against the brute-force
  oracle, never against recorded output; the ledger lists the failures the
  recording commit had, so a later fix can show which ones it removed.

Run from the root of a checkout (takes several minutes):

    python3 perfbench/record_references.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from run import run_solve  # noqa: E402

REFS = HERE / "references.json"


def record(name: str, outputs: dict, ledger: dict) -> None:
    work = ROOT / ".perfbench_run" / "record" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.build(name, None, work, None)
    wl.write_inputs()
    sink = io.StringIO()
    for solve in wl.solves:
        if name == "oracle-lattice":
            _, failure = run_solve(solve, sink)
            if failure:
                ledger[solve.key] = failure
            continue
        with contextlib.redirect_stdout(sink):
            rc = solve.call()
        if rc != 0:
            raise SystemExit(f"{solve.key}: exit {rc}; references need passing solves")
        outputs[solve.key] = workloads.hash_outputs(solve.outputs)
    shutil.rmtree(work, ignore_errors=True)
    print(f"{name}: {len(wl.solves)} solves recorded", file=sys.stderr)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = p.parse_args()
    refs = json.loads(REFS.read_text()) if REFS.exists() else {"outputs": {}, "ledger": {}}
    for name in args.workload or workloads.WORKLOADS:
        prefix = name + "/"
        for table in refs.values():
            for key in [k for k in table if k.startswith(prefix)]:
                del table[key]
        record(name, refs["outputs"], refs["ledger"])
    for table in ("outputs", "ledger"):
        refs[table] = dict(sorted(refs[table].items()))
    REFS.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
