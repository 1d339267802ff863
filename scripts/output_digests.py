#!/usr/bin/env python3
"""Print one digest line per instance of the benchmark's timed pools.

Runs every instance of the four timed pools of ``perfbench/workloads.py``
(the same configs the benchmark times) through ``halfspace_bloch.cli.main``
in one process and prints

    workload index exit sha256

per instance, where the hash covers the instance's stdout, stderr and
output file.  Two checkouts give the same lines exactly when every command
exits with the same code and writes the same bytes, so comparing a change
with its parent is one ``diff``:

    python3 scripts/output_digests.py --src ../parent/src --seed 1 > parent.txt
    python3 scripts/output_digests.py --src src --seed 1 > change.txt
    diff parent.txt change.txt

The package is imported from ``--src``; the pools always come from the
``perfbench/`` beside this script, so both sides run the same configs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding halfspace_bloch")
    parser.add_argument("--seed", type=int, default=1, help="workload seed, as perfbench/run.py --seed")
    args = parser.parse_args()

    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import workloads
    from halfspace_bloch import cli

    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        for workload in workloads.WORKLOADS:
            pool = workloads.generate(workload, args.seed, workloads.timed_rounds(workload))
            for index, instance in enumerate(pool):
                config.write_text(json.dumps(instance.config), encoding="utf-8")
                out.unlink(missing_ok=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                argv = [instance.command, "--config", str(config), "--out", str(out)]
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
                digest = hashlib.sha256()
                for part in (stdout.getvalue(), stderr.getvalue()):
                    digest.update(part.encode("utf-8") + b"\0")
                digest.update(out.read_bytes() if out.exists() else b"<no output file>")
                print(workload, index, code, digest.hexdigest())


if __name__ == "__main__":
    main()
