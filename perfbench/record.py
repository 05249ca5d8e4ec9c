"""Rewrite expected.json from the current program's outputs.

Run from the root of a checkout, at a commit whose outputs are known to
be right::

    python3 perfbench/record.py

Only ops without an oracle are recorded.  Values are stored divided by
the op's scale, so one recording serves every workload seed.
"""

from __future__ import annotations

import json
import sys

import run
import workloads
import oracle


def main() -> int:
    expected = {}
    work = run.ROOT / ".bench_work" / "record"
    try:
        for name in workloads.BUILDERS:
            workload = workloads.build(name, work / name, seed=0)
            run.build_inputs(workload, work / name)
            for op in workload.ops + workload.probe:
                if op.expect is not None or op.key in expected:
                    continue
                rc, out, _ = run.run_cli(op.argv)
                report = json.loads(out)
                entry = {"rc": str(rc)}
                for field, codec in op.fields.items():
                    entry[field] = oracle.normalize(codec, report.get(field),
                                                    op.scale)
                expected[op.key] = entry
                print(op.key, entry, file=sys.stderr)
    finally:
        run.shutil.rmtree(work, ignore_errors=True)
    with open(workloads.EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
