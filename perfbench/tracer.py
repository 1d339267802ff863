"""Layer spans and counters around the program's public functions.

The tracer patches module attributes of ``halfspace_bloch`` for the length
of a traced pass and restores them afterwards; the program's source is not
touched.  A span records (name, start, end, parent, instance) and is kept
in memory; self times are computed from the stored spans at the end, as the
span's duration minus the durations of its direct children.
``spectrum.eigenvalue``, called tens of thousands of times per instance, and
``bloch.apply_A``, whose time belongs to ``bloch_series``, only get a call
counter; ``eigenvalue`` is counted at every module that imported it.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.instance = -1
        self._stack: list[int] = []

    def span(self, name: str, fn, measure=None):
        """Wrap ``fn`` so each call records a span; ``measure`` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.instance)
            if measure is not None:
                measure(self.counts, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def aggregate(self) -> tuple[dict, dict]:
        """(self seconds by span name, calls by span name)."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[idx]
            calls[name] += 1
        return dict(self_s), dict(calls)


# -- what gets wrapped ----------------------------------------------------------------


def _add(key, value):
    def measure(counts, args, kwargs, result):
        counts[key] += value(args, kwargs, result)

    return measure


def _combine(*measures):
    def measure(counts, args, kwargs, result):
        for m in measures:
            m(counts, args, kwargs, result)

    return measure


def _svd_n3(svds: int):
    """Sum of n^3 over the ``svds`` SVDs of one rank probe (computed from sizes)."""

    def value(args, kwargs, result):
        subset = kwargs.get("subset", args[3] if len(args) > 3 else None)
        n = args[0].size if subset is None else len(subset)
        return svds * float(n) ** 3

    return value


def _sample_grid(args, kwargs, result):
    return result.resolution ** args[0].dimension


def _patches():
    """(owner, attribute, span name or None for a counter, measure) rows."""
    from halfspace_bloch import (
        bloch,
        cli,
        galerkin,
        isoenergetic,
        lattice,
        rootfn,
        spectrum,
    )

    coeffs_out = _add("bloch.coeffs_out", lambda a, k, r: len(r.coeffs))
    rows = [
        (lattice.LatticeBasis, "enumerate_ball", "lattice.enumerate_ball",
         _add("lattice.enumerate_ball.points", lambda a, k, r: len(r))),
        (spectrum, "degeneracy_group", "spectrum.degeneracy_group", None),
        (bloch, "bloch_series", "bloch.bloch_series", coeffs_out),
        (bloch, "closed_form_coeffs", "bloch.closed_form_coeffs", coeffs_out),
        (bloch, "max_discrepancy", "bloch.max_discrepancy", None),
        (bloch, "apply_A", None, "bloch.apply_A.calls"),
        (galerkin, "build", "galerkin.build", _combine(
            _add("galerkin.matrix_n", lambda a, k, r: r.size),
            _add("galerkin.matrix_bytes", lambda a, k, r: 16 * r.size**2),
        )),
        (galerkin, "triangularity_witness", "galerkin.triangularity_witness", None),
        (galerkin, "eigenvector_backsolve", "galerkin.eigenvector_backsolve", None),
        (galerkin, "interior_cone", "galerkin.interior_cone", None),
        (galerkin, "geometric_multiplicity", "galerkin.rank_probe",
         _add("galerkin.rank_probe.n3", _svd_n3(1))),
        (galerkin, "jordan_chain_excess", "galerkin.rank_probe",
         _add("galerkin.rank_probe.n3", _svd_n3(2))),
        (rootfn, "second_plane_solve", "rootfn.second_plane_solve", None),
        (rootfn, "oned_double_criterion", "rootfn.oned_double_criterion", None),
        (isoenergetic, "sample_surface", "isoenergetic.sample_surface", _combine(
            _add("isoenergetic.grid_points", _sample_grid),
            _add("isoenergetic.retained", lambda a, k, r: len(r.points)),
        )),
        (cli, "parse_basis", "cli.parse", None),
        (cli, "parse_potential", "cli.parse",
         _add("potential.support_size", lambda a, k, r: len(r.q))),
        (cli, "parse_t", "cli.parse", None),
        (cli, "main", "cli", None),
    ]
    eigenvalue = spectrum.eigenvalue
    package = [m for n, m in sorted(sys.modules.items()) if n.startswith("halfspace_bloch.")]
    for module in package:
        if getattr(module, "eigenvalue", None) is eigenvalue:
            rows.append((module, "eigenvalue", None, "spectrum.eigenvalue.calls"))
    return rows


def install(tracer: Tracer):
    """Patch the program's layer functions; returns a callable that undoes it.

    A function the program no longer has is skipped, so its metrics read 0.
    """
    saved = []
    for owner, attr, name, extra in _patches():
        original = owner.__dict__.get(attr)
        if original is None:
            continue
        if name is None:
            wrapped = tracer.counter(extra, original)
        else:
            wrapped = tracer.span(name, original, extra)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
