#!/usr/bin/env python3
"""Print one digest line per instance of the benchmark's timed pools.

Runs every instance of the four timed pools of ``perfbench/workloads.py``
(the same configs the benchmark times) through ``halfspace_bloch.cli.main``
in one process and prints

    workload index exit sha256

per instance, where the hash covers the instance's stdout, stderr and
output file.  Ten tagged variants follow, so that outputs the timed pools do
not write are checked as well:

    fermi-json index exit sha256         every fermi instance with --format json
    fermi-rho0 index exit sha256         every fermi instance with params.rho = 0,
                                         where every minimizer sits at the
                                         covering radius, the edge of the
                                         candidate ball
    coeffs-evaluate_at index exit sha256 every coeffs instance with the
                                         params.evaluate_at of EVALUATE_AT
    coeffs-closed-form index exit sha256 every coeffs instance with
                                         params.method closed-form and
                                         params.depth equal to its order,
                                         planes deeper than the pools reach
    coeffs-series-unconverged index exit sha256
                                         every coeffs instance with
                                         params.method series, params.order
                                         16 and params.tail_tol 0: each runs
                                         every order, past where the pools
                                         stop, and exits 4 with the full
                                         report
    multiplicity-deep index exit sha256  every 2-D multiplicity instance with
                                         params.member moved onto plane 0 of
                                         the lam = 9 and the lam = 16 group
                                         ([0, 3s] and [0, 4s], transposed for
                                         k = 2) and without params.cutoff:
                                         second-plane systems 3 and 4 planes
                                         deep, at the default radii
    oracle-csv index exit sha256         every oracle instance with
                                         params.cutoff 6 and --format csv:
                                         the whole matrix, so every stored
                                         coupling, where the timed reports
                                         read only the interior cone's rows
    oracle-t0 index exit sha256          every oracle instance with t = 0 and
                                         params.gamma (1, 0, ...): at t = 0
                                         the lattice's symmetry puts other
                                         points at lam, and many instances
                                         exit 3 on a closed-form resonance
                                         (87 of 203 on seed 1)
    fermi-generic index exit sha256      every fermi instance on GENERIC
    oracle-generic index exit sha256     every oracle instance on GENERIC

GENERIC has irrational, non-orthogonal generators.  The pools' identity,
skewed, hexagonal and scaled bases round many products exactly, so on them
alone a changed summation order in |g + t|^2 could go unseen.

Two checkouts give the same lines exactly when every command exits with the
same code and writes the same bytes, so comparing a change with its parent
is one ``diff``:

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
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the point of the coeffs-evaluate_at lines, cut to each instance's dimension
EVALUATE_AT = (0.25, -0.5, 0.75)

#: the 2-D basis of the fermi-generic and oracle-generic lines
GENERIC = [[1.0, 0.0], [1.0 / math.pi, 2.0 / math.sqrt(math.pi)]]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding halfspace_bloch")
    parser.add_argument("--seed", type=int, default=1, help="workload seed, as perfbench/run.py --seed")
    args = parser.parse_args()

    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import workloads
    from halfspace_bloch import cli

    with tempfile.TemporaryDirectory() as tmp:
        config_path, out = Path(tmp) / "config.json", Path(tmp) / "out"

        def digest(command: str, config: dict, *options: str) -> tuple[int, str]:
            config_path.write_text(json.dumps(config), encoding="utf-8")
            out.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            argv = [command, "--config", str(config_path), "--out", str(out), *options]
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            sha = hashlib.sha256()
            for part in (stdout.getvalue(), stderr.getvalue()):
                sha.update(part.encode("utf-8") + b"\0")
            sha.update(out.read_bytes() if out.exists() else b"<no output file>")
            return code, sha.hexdigest()

        pools = {
            workload: workloads.generate(workload, args.seed, workloads.timed_rounds(workload))
            for workload in workloads.WORKLOADS
        }
        for workload, pool in pools.items():
            for index, instance in enumerate(pool):
                print(workload, index, *digest(instance.command, instance.config))
        for index, instance in enumerate(pools["fermi"]):
            print("fermi-json", index, *digest(instance.command, instance.config, "--format", "json"))
        for index, instance in enumerate(pools["fermi"]):
            config = {**instance.config, "params": {**instance.config["params"], "rho": 0.0}}
            print("fermi-rho0", index, *digest(instance.command, config))
        for index, instance in enumerate(pools["coeffs"]):
            config = instance.config
            point = list(EVALUATE_AT[: config["dimension"]])
            config = {**config, "params": {**config["params"], "evaluate_at": point}}
            print("coeffs-evaluate_at", index, *digest(instance.command, config))
        for index, instance in enumerate(pools["coeffs"]):
            params = instance.config["params"]
            params = {**params, "method": "closed-form", "depth": params["order"]}
            print("coeffs-closed-form", index, *digest(instance.command, {**instance.config, "params": params}))
        for index, instance in enumerate(pools["coeffs"]):
            params = {**instance.config["params"], "method": "series", "order": 16, "tail_tol": 0.0}
            print("coeffs-series-unconverged", index, *digest(instance.command, {**instance.config, "params": params}))
        for index, instance in enumerate(pools["multiplicity"]):
            params = dict(instance.config["params"])
            if params["mode"] != "2d-second-plane":
                continue
            del params["cutoff"]
            k, s = params["k"], params["member"][2 - params["k"]]
            for m in (3, 4):
                params["member"] = [0, m * s] if k == 1 else [m * s, 0]
                print("multiplicity-deep", index, *digest(instance.command, {**instance.config, "params": params}))
        for index, instance in enumerate(pools["oracle"]):
            params = {**instance.config["params"], "cutoff": 6.0}
            config = {**instance.config, "params": params}
            print("oracle-csv", index, *digest(instance.command, config, "--format", "csv"))
        for index, instance in enumerate(pools["oracle"]):
            d = instance.config["dimension"]
            params = {**instance.config["params"], "gamma": [1] + [0] * (d - 1)}
            config = {**instance.config, "t": [0.0] * d, "params": params}
            print("oracle-t0", index, *digest(instance.command, config))
        for workload in ("fermi", "oracle"):
            for index, instance in enumerate(pools[workload]):
                config = {**instance.config, "generators": GENERIC}
                print(f"{workload}-generic", index, *digest(instance.command, config))


if __name__ == "__main__":
    main()
