"""Regenerate reference.json, the recorded output of every job any seed can
draw, from the package in this checkout's src/.

    python3 perfbench/make_reference.py

The table records the behaviour the checks compare against, failures
included.  Regenerate it only when a change is meant to alter an output, and
say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
from checks import digest
from workloads import reference_jobs


def main() -> int:
    workdir = run.ROOT / ".perfbench_work" / "reference"
    try:
        cli = run.import_dynamo()
        paths = run.write_inputs(workdir)
        table = {}
        for job in reference_jobs():
            o = run.run_job(cli, run.resolve(job, paths))
            if o.rc == 0:
                table[job.key] = {"rc": 0, "result": digest(job.command, o.out)}
            else:
                if not job.known_defect:
                    print(f"unexpected failure: {job.key}: {o.err.strip()}", file=sys.stderr)
                    return 1
                table[job.key] = {"rc": o.rc, "error": o.err.strip()}
        out = run.HERE / "reference.json"
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                 for k, v in sorted(table.items())]
        out.write_text('{"jobs": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
        print(f"wrote {len(table)} reference entries to {out}")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
