"""Spans around the benchmark's calls into covlind, and the call table.

The benchmark never calls covlind directly: it goes through an api object
whose attributes are covlind's public callables.  Without a tracer they
are the callables themselves, so a measured pass pays nothing.  With a
tracer each one is wrapped in a span named ``<module>.<qualname>``
(``covlind.`` dropped), e.g. ``gkls.build_dissipator``.

Spans are kept in memory as [name, start, end, parent index] and summed
when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls nest strictly on the single
benchmark thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
from time import perf_counter
from types import SimpleNamespace

# every covlind callable a workload calls, by module and attribute path;
# the api attribute is the last path component
CALLS = {
    "config": ["load_config", "ExperimentConfig.jc_params",
               "ExperimentConfig.initial_matrix"],
    "cli": ["main", "write_csv", "write_json", "_pauli_series", "_echo_params"],
    "operators": ["DensityMatrix.from_matrix", "Superoperator", "uhlmann_fidelity",
                  "matrix_exp"],
    "eigenoperators": ["DrivenGenerator", "static_eigenoperators",
                       "monodromy_eigenoperators", "verify_eigenoperator",
                       "deviation_up_to_phase"],
    "gkls": ["Channel", "DissipatorSpec", "build_dissipator", "liouvillian",
             "detailed_balance_rates", "fixed_point", "instantaneous_attractor",
             "check_time_translation", "choi_matrix"],
    "bath": ["BathSpec", "jc_kinetic_coefficients"],
    "jaynes_cummings": ["JCParams.with_rabi", "jc_autonomous_trajectory",
                        "jc_semiclassical_hamiltonian", "jc_semiclassical_propagator",
                        "jc_eigenoperators", "fit_gaussian_envelope"],
    "propagate": ["TimeGrid", "evolve_static", "evolve_timedep"],
}


class Tracer:
    """In-memory span recorder for the single benchmark thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def table(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        children = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                children[parent] += t1 - t0
        out = {}
        for (name, t0, t1, _), covered in zip(self.spans, children):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - covered
        return out

    def total_within(self, name, ancestor) -> float:
        """Summed duration of ``name`` spans that run inside an ``ancestor`` span."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += span[2] - span[1]
        return total


def make_api(tracer: Tracer | None = None) -> SimpleNamespace:
    """covlind's callables, span-wrapped when a tracer is given.

    ``api.wrap(name, fn)`` and ``api.span(name)`` trace the benchmark's own
    callbacks and workload parts; both cost nothing without a tracer.
    """
    api = SimpleNamespace(traced=tracer is not None)
    for module, paths in CALLS.items():
        mod = importlib.import_module(f"covlind.{module}")
        for path in paths:
            obj = mod
            for part in path.split("."):
                obj = getattr(obj, part)
            attr = path.rsplit(".", 1)[-1].lstrip("_")
            if hasattr(api, attr):
                raise ValueError(f"api name {attr!r} is used twice")
            setattr(api, attr, tracer.wrap(f"{module}.{path}", obj) if tracer else obj)
    if tracer is None:
        api.wrap = lambda name, fn: fn
        api.span = lambda name: contextlib.nullcontext()
    else:
        api.wrap = tracer.wrap
        api.span = tracer.span
    return api
