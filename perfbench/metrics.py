"""Metric names, units and predictions, and their computation from passes.

``END_TO_END`` is what ``--trace 0`` prints and ``PER_LAYER`` what
``--trace 1`` prints; ``BENCHMARK.json`` lists the same names.  Each
per-layer entry names the end-to-end metric and workloads it should move,
written down before any optimisation is measured.
"""

from __future__ import annotations

import statistics

# name -> (unit, better)
END_TO_END = {
    "pass_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
}

_FLOW = "pass_s on torus_random, torus_infeasible and sphere_pack; not layout"
_NEWTON = "pass_s on torus_uniform and torus_random; not torus_infeasible"
_LAYOUT = "pass_s on torus_uniform, a little on sphere_pack; not torus_infeasible"
_SPHERE = "pass_s on sphere_pack only"

# name -> (unit, better, what it should move)
PER_LAYER = {
    "feasibility.find_cas.calls": ("count", "lower", _FLOW),
    "feasibility.find_cas.s": ("s", "lower", _FLOW),
    "feasibility.flow.calls": ("count", "lower", _FLOW),
    "feasibility.flow.s": ("s", "lower", _FLOW),
    "feasibility.network.s": ("s", "lower", _FLOW),
    "feasibility.flows_per_verdict": ("ratio", "lower", _FLOW),
    "solver.minimize.s": ("s", "lower", _NEWTON),
    "solver.newton_iters": ("count", "lower", _NEWTON),
    "solver.linsolve.euclidean.calls": ("count", "lower",
                                        "pass_s on torus_uniform and torus_random"),
    "solver.linsolve.euclidean.s": ("s", "lower", "pass_s on torus_uniform and torus_random"),
    "solver.linsolve.hyperbolic.calls": ("count", "lower", "pass_s on torus_random"),
    "solver.linsolve.hyperbolic.s": ("s", "lower", "pass_s on torus_random"),
    "solver.linesearch.value_calls": ("count", "lower", _NEWTON),
    "functional.value.calls": ("count", "lower", _NEWTON),
    "functional.value.s": ("s", "lower", _NEWTON),
    "functional.gradient.calls": ("count", "lower", _NEWTON),
    "functional.gradient.s": ("s", "lower", _NEWTON),
    "functional.hessian.calls": ("count", "lower", _NEWTON),
    "functional.hessian.s": ("s", "lower", _NEWTON),
    "functional.cas_from_rho.calls": ("count", "lower", _NEWTON),
    "functional.cas_from_rho.s": ("s", "lower", _NEWTON),
    "specfun.clausen.elements": ("count", "lower", _NEWTON),
    "specfun.clausen.s": ("s", "lower", _NEWTON),
    "specfun.im_li2_dx.elements": ("count", "lower", _NEWTON),
    "specfun.im_li2_dx.s": ("s", "lower", _NEWTON),
    "layout.layout.s": ("s", "lower", _LAYOUT),
    "layout.kites": ("count", "higher", _LAYOUT),
    "layout.export_svg.s": ("s", "lower", _LAYOUT),
    "layout.export_json.s": ("s", "lower", _LAYOUT),
    "jsonio.dumps.s": ("s", "lower", _LAYOUT),
    "jsonio.dumps.bytes": ("bytes", "lower", _LAYOUT),
    "surface.load.s": ("s", "lower", "pass_s on every workload, most on sphere_pack"),
    "surface.medial.s": ("s", "lower", "pass_s on sphere_pack"),
    "surface.from_walks.calls": ("count", "lower",
                                 "pass_s on every workload, most on sphere_pack"),
    "spherical.check_conditions.calls": ("count", "lower", _SPHERE),
    "spherical.check_conditions.s": ("s", "lower", _SPHERE),
    "spherical.reduce_to_plane.calls": ("count", "lower", _SPHERE),
    "spherical.reduce_to_plane.s": ("s", "lower", _SPHERE),
    "spherical.solve_sphere.calls": ("count", "lower", _SPHERE),
    "spherical.solve_sphere.s": ("s", "lower", _SPHERE),
    "cli.self_s": ("s", "lower", "pass_s on every workload"),
    "cli.check.s": ("s", "lower", "pass_s on torus_infeasible"),
    "cli.solve.s": ("s", "lower", "pass_s on torus_uniform and torus_random"),
    "cli.layout.s": ("s", "lower", "pass_s on torus_uniform"),
    "cli.pack.s": ("s", "lower", "pass_s on sphere_pack"),
    "exact_cert_ratio": ("ratio", "higher", "ok_ratio stays 1; moves no timing"),
    "trace.overhead_s": ("s", "lower", "nothing: traced minus untraced pass_s"),
}

_COUNTED = {"solver.minimize": "solver.newton_iters", "layout.layout": "layout.kites",
            "jsonio.dumps": "jsonio.dumps.bytes",
            "specfun.clausen": "specfun.clausen.elements",
            "specfun.im_li2_dx": "specfun.im_li2_dx.elements"}


def layer_totals(spans, lo, hi) -> dict:
    """Per-layer metrics of the spans ``spans[lo:hi]`` of one traced pass.
    Spans without a parent are the CLI commands themselves."""
    out = {}
    children = {}
    minimize = set()
    for i in range(lo, hi):
        span = spans[i]
        if span.parent < 0:
            continue
        children[span.parent] = children.get(span.parent, 0.0) + span.seconds
        for key, value in ((f"{span.name}.calls", 1), (f"{span.name}.s", span.seconds)):
            out[key] = out.get(key, 0) + value
        if span.name in _COUNTED:
            out[_COUNTED[span.name]] = out.get(_COUNTED[span.name], 0) + span.count
        if span.name == "solver.minimize":
            minimize.add(i)
    verdicts = out.get("feasibility.find_cas.calls", 0)
    out["feasibility.flows_per_verdict"] = \
        out.get("feasibility.flow.calls", 0) / verdicts if verdicts else 0.0
    # minimize evaluates S once before its first step and once at the end;
    # every other value call is a line-search trial
    in_minimize = sum(1 for i in range(lo, hi)
                      if spans[i].name == "functional.value" and spans[i].parent in minimize)
    out["solver.linesearch.value_calls"] = max(0, in_minimize - 2 * len(minimize))
    out["cli.self_s"] = sum(spans[i].seconds - children.get(i, 0.0)
                            for i in range(lo, hi) if spans[i].parent < 0)
    return out


def median(values):
    return statistics.median(values) if values else 0.0
