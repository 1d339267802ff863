#!/usr/bin/env python3
"""Run the tier-1 suite against one-line mutants of the package and print the survivors.

Copies ``src/`` and ``tests/`` to a temporary directory, checks that the
unchanged copy passes, then applies each mutant of ``MUTANTS`` to the copy
on its own and runs

    PYTHONPATH=src python -m pytest -q -x --continue-on-collection-errors

there.  A mutant is killed when the run fails (its first failing test is
printed) and survives when it passes.  The list holds every named
tolerance moved by a factor of 100 each way, two faults in the shared
coefficient kernel, two in the closed-form plan's walk and one in its
evaluation's kept mask, one in the interior cone, one in each propagation
of the rank probes' core, the rank threshold without its floor 1 + |lam|,
the Jordan probe's ker A^2 ranked on A^2 against its own largest singular
value instead of by deflation,
the operator's couplings searched in support order instead of by
column, its dense row table filled with the lex-ordered rows instead of
the plane-major ones, its one-index key packed with the axes reversed
and its batch lookup with an exclusive upper bound, the second-plane
solve's leading members sought one plane below the top plane, the
Fermi sampler's minimizer ball without its rounding
margin and without its half diameter, and the lattice grid filled with
its axes in reverse order (rows out of lex order, or a broadcast error
where the axes differ in length).
Nothing is written in the repository.

    python3 scripts/mutants.py
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "halfspace_bloch"

#: (name, file in the package, the line as it stands, the mutated line)
MUTANTS = (
    ("DENOM_TOL_SCALE*100", "spectrum.py", "DENOM_TOL_SCALE = 1e-12", "DENOM_TOL_SCALE = 1e-10"),
    ("DENOM_TOL_SCALE/100", "spectrum.py", "DENOM_TOL_SCALE = 1e-12", "DENOM_TOL_SCALE = 1e-14"),
    ("DIAG_EQ_SCALE*100", "galerkin.py", "DIAG_EQ_SCALE = 1e-9", "DIAG_EQ_SCALE = 1e-7"),
    ("DIAG_EQ_SCALE/100", "galerkin.py", "DIAG_EQ_SCALE = 1e-9", "DIAG_EQ_SCALE = 1e-11"),
    ("RANK_TOL_SCALE*100", "galerkin.py", "RANK_TOL_SCALE = 1e-9", "RANK_TOL_SCALE = 1e-7"),
    ("RANK_TOL_SCALE/100", "galerkin.py", "RANK_TOL_SCALE = 1e-9", "RANK_TOL_SCALE = 1e-11"),
    ("CRITERION_TOL*100", "rootfn.py", "CRITERION_TOL = 1e-10", "CRITERION_TOL = 1e-8"),
    ("CRITERION_TOL/100", "rootfn.py", "CRITERION_TOL = 1e-10", "CRITERION_TOL = 1e-12"),
    (
        "product-sign",
        "coeffset.py",
        "    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re",
        "    return a_re * b_re + a_im * b_im, a_re * b_im + a_im * b_re",
    ),
    (
        "plan-walk-one-plane-fewer",
        "coeffset.py",
        "    for p in range(1, depth + 1):",
        "    for p in range(1, depth):",
    ),
    (
        "plan-predecessors-one-block-on",
        "coeffset.py",
        "        starts[source] - (counts.cumsum() - counts)",
        "        starts[source] - counts.cumsum()",
    ),
    (
        "kept-needs-both-parts",
        "bloch.py",
        "    kept = (num_re != 0) | (num_im != 0)",
        "    kept = (num_re != 0) & (num_im != 0)",
    ),
    (
        "cone-drops-predecessors",
        "galerkin.py",
        "        blocked[plan.targets[lo:hi][blocked[plan.predecessors[lo:hi]]]] = True",
        "        pass",
    ),
    (
        "core-drops-forward-pass",
        "galerkin.py",
        "        reached[rows[reached[cols]]] = True",
        "        pass",
    ),
    (
        "core-drops-backward-pass",
        "galerkin.py",
        "        reaches[cols[reaches[rows]]] = True",
        "        pass",
    ),
    (
        "rank-floor-dropped",
        "galerkin.py",
        "    threshold = RANK_TOL_SCALE * max(svals.max(initial=0.0), 1.0 + abs(lam))",
        "    threshold = RANK_TOL_SCALE * svals.max(initial=0.0)",
    ),
    (
        "chains-ranked-on-the-square",
        "galerkin.py",
        "        dims.append(int((np.linalg.svd(deflated, compute_uv=False) <= threshold).sum()))",
        "        dims.append(_kernel_dims(a @ a, lam, 1)[0][0])",
    ),
    (
        "couplings-in-support-order",
        "galerkin.py",
        "    by_col = np.lexsort((*steps.T[::-1], sig * steps[:, k - 1]))",
        "    by_col = np.arange(len(steps))",
    ),
    (
        "row-table-filled-from-order",
        "galerkin.py",
        "    lookup = coeffset.RowTable(lo, spans, keys, np.arange(size))",
        "    lookup = coeffset.RowTable(lo, spans, keys, order)",
    ),
    (
        "row-key-axes-reversed",
        "coeffset.py",
        "        for x, m, s in zip(index, self.lo.tolist(), self.spans.tolist()):",
        "        for x, m, s in zip(index[::-1], self.lo.tolist(), self.spans.tolist()):",
    ),
    (
        "row-find-upper-bound-exclusive",
        "coeffset.py",
        "        inside = ((members >= self.lo) & (members <= self.hi)).all(axis=1).nonzero()[0]",
        "        inside = ((members >= self.lo) & (members < self.hi)).all(axis=1).nonzero()[0]",
    ),
    (
        "leading-plane-one-too-low",
        "rootfn.py",
        "    first, end = plan.bounds[depth:depth + 2]",
        "    first, end = plan.bounds[depth - 1:depth + 1]",
    ),
    (
        "minimizer-ball-without-margin",
        "isoenergetic.py",
        "    eps = 64 * basis.dimension * basis.cancellation * _UNIT_ROUNDOFF * scale",
        "    eps = 0.0",
    ),
    (
        "minimizer-ball-without-half-diameter",
        "isoenergetic.py",
        "    candidates = basis.enumerate_ball(-t0, rho + diameter / 2 + spread + eps)",
        "    candidates = basis.enumerate_ball(-t0, rho + spread + eps)",
    ),
    (
        "grid-axes-reversed",
        "lattice.py",
        "        out[..., j] = axis.reshape(-1, *[1] * (d - 1 - j))",
        "        out[..., j] = axis.reshape(-1, *[1] * j)",
    ),
    (
        "distinct-keeps-repeats",
        "coeffset.py",
        "    np.not_equal(keys[1:], keys[:-1], out=first[1:])",
        "    np.greater_equal(keys[1:], keys[:-1], out=first[1:])",
    ),
)

#: per run; a mutant that makes the suite hang counts as killed
TIMEOUT_S = 900


def run_suite(work: Path) -> tuple[bool, str]:
    """(passed, first failing test or the reason) of one tier-1 run in ``work``."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "--continue-on-collection-errors",
    ]
    try:
        done = subprocess.run(
            command, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT_S} s"
    if done.returncode == 0:
        return True, done.stdout.strip().splitlines()[-1]
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return False, failed[0] if failed else f"exit {done.returncode}"


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(
                ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__")
            )
        passed, detail = run_suite(work)
        print(f"unmutated: {detail}", flush=True)
        if not passed:
            print("the unmutated copy fails; no mutant is meaningful", file=sys.stderr)
            return 1
        for name, file, line, mutated in MUTANTS:
            path = work / PACKAGE / file
            source = path.read_text(encoding="utf-8")
            if source.count(line) != 1:
                raise SystemExit(f"{name}: {file} does not hold the line {line.strip()!r} once")
            path.write_text(source.replace(line, mutated), encoding="utf-8")
            try:
                passed, detail = run_suite(work)
            finally:
                path.write_text(source, encoding="utf-8")
            print(f"{name}: {'SURVIVED' if passed else 'killed by ' + detail}", flush=True)
            if passed:
                survivors.append(name)
    print(f"survivors ({len(survivors)} of {len(MUTANTS)}): {', '.join(survivors) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
