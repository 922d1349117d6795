"""Spans around the program's layers, recorded from outside the program.

The tracer wraps public functions by replacing module attributes, in the
defining module and in every ``circlepatterns`` module that imported the
same object with ``from ... import``.  A span records its name, start, end,
parent span and the command it belongs to; spans stay in memory until the
benchmark writes them out.  A function that calls itself (``jsonio.dumps``)
is recorded at its outermost call only.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    command: int = -1
    count: int = 0           # work done, for the layers that report one

    @property
    def seconds(self):
        return self.end - self.start


def _elements(args, kwargs, result):
    return int(np.size(args[0]))


# (metric prefix, module, attribute, count of work done or None)
LAYERS = (
    ("surface.load", "circlepatterns.surface", "surface_from_json_dict", None),
    ("surface.medial", "circlepatterns.surface", "medial", None),
    ("surface.from_walks", "circlepatterns.surface", "surface_from_walks", None),
    ("feasibility.find_cas", "circlepatterns.feasibility", "find_coherent_angle_system", None),
    ("feasibility.network", "circlepatterns.feasibility", "build_flow_network", None),
    ("feasibility.flow", "circlepatterns.feasibility", "solve_feasible_flow", None),
    ("solver.minimize", "circlepatterns.solver", "minimize",
     lambda a, k, r: int(r.iterations)),
    ("functional.value", "circlepatterns.functional", "value", None),
    ("functional.gradient", "circlepatterns.functional", "gradient", None),
    ("functional.hessian", "circlepatterns.functional", "hessian", None),
    ("functional.cas_from_rho", "circlepatterns.functional", "cas_from_rho", None),
    ("specfun.clausen", "circlepatterns.specfun", "clausen", _elements),
    ("specfun.im_li2_dx", "circlepatterns.specfun", "im_li2_dx", _elements),
    ("layout.layout", "circlepatterns.layout", "layout", lambda a, k, r: len(r.kites)),
    ("layout.export_svg", "circlepatterns.layout", "export_svg", None),
    ("layout.export_json", "circlepatterns.layout", "export_json", None),
    ("jsonio.dumps", "circlepatterns.jsonio", "dumps", lambda a, k, r: len(r)),
    ("spherical.check_conditions", "circlepatterns.spherical", "check_sphere_conditions", None),
    ("spherical.reduce_to_plane", "circlepatterns.spherical", "reduce_to_plane", None),
    ("spherical.solve_sphere", "circlepatterns.spherical", "solve_sphere", None),
)

# The Newton solve calls spsolve; the other entry points are wrapped too so
# that a solver switched to a factorisation is still measured.  Each span is
# named after the geometry of the innermost solver.minimize call.
LINSOLVE_ENTRY_POINTS = ("spsolve", "splu", "factorized", "cg", "minres")


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _open: list = field(default_factory=list)       # indices into spans
    _active: set = field(default_factory=set)       # names with an open span
    _geometry: list = field(default_factory=list)   # of open minimize calls
    _patched: list = field(default_factory=list)
    command: int = -1
    enabled: bool = False

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, command=self.command))
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    def _call(self, name, fn, count, args, kwargs):
        if not self.enabled or name in self._active:
            return fn(*args, **kwargs)
        self._active.add(name)
        span = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(span)
            self._active.discard(name)
        if count is not None:
            span.count = count(args, kwargs, result)
        return result

    # -- installing ----------------------------------------------------------

    def _replace(self, original, wrapper, owners):
        for mod in owners:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every layer function; undo with :meth:`uninstall`."""
        import scipy.sparse.linalg as spla
        program = [m for n, m in sorted(sys.modules.items())
                   if n == "circlepatterns" or n.startswith("circlepatterns.")]
        for name, module, attr, count in LAYERS:
            original = getattr(sys.modules[module], attr)
            self._replace(original, self._wrapper(name, original, count), program)
        for attr in LINSOLVE_ENTRY_POINTS:
            original = getattr(spla, attr, None)
            if original is not None:
                self._replace(original, self._linsolve_wrapper(original), [spla])
        minimize = sys.modules["circlepatterns.solver"].minimize
        self._replace(minimize, self._minimize_wrapper(minimize), program)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrapper(self, name, fn, count):
        def traced(*args, **kwargs):
            return self._call(name, fn, count, args, kwargs)
        return traced

    def _minimize_wrapper(self, wrapped):
        def traced(spec, *args, **kwargs):
            self._geometry.append(spec.geometry)
            try:
                return wrapped(spec, *args, **kwargs)
            finally:
                self._geometry.pop()
        return traced

    def _linsolve_wrapper(self, fn):
        def traced(*args, **kwargs):
            geometry = self._geometry[-1] if self._geometry else "other"
            return self._call(f"solver.linsolve.{geometry}", fn, None, args, kwargs)
        return traced
