"""Command-line interface.

Subcommands: check, solve, layout, sphere, pack, specfun.  All input is
JSON; reports are emitted with fixed float formatting so repeated runs
are byte-identical.  Exit codes: 0 ok (``--help`` included), 1 input or
usage error, 2 infeasible, 3 non-convergence, 4 not developable.

The argument parser is built at the first ``main`` call, not at import,
and kept for the rest of the process.  That saves its build (about 1 ms)
only where one process calls ``main(argv)`` more than once: the
benchmark harness ``perfbench/run.py``, the test suite, or a Python
program driving the CLI.  The console script calls ``main`` once per
process and builds the parser once either way.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import logging
import os
import re
import sys

import numpy as np

from . import jsonio, solver, specfun
from .feasibility import find_coherent_angle_system
from .functional import EUCLIDEAN, HYPERBOLIC, PatternSpec, face_residuals, radii_from_rho
from .layout import NotDevelopableError, export_json, export_svg, layout
from .spherical import (SphereConditionError, SphereNoConvergenceError, SphericalProblem,
                        solve_sphere, spherical_layout_to_dict)
from .surface import (SurfaceError, euler_characteristic, is_integer, medial,
                      surface_from_json_dict)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NOT_DEVELOPABLE = 4


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error, exit 1, like any other.

    An argument that reads as a negative float, exponents, -inf and -nan
    included, is a value, not an option flag.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        raise InputError(message)


def _load_json(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: the top level must be a JSON object")
    return data


def _floats(path, data, key):
    """The flat list of numbers under ``key`` as a float array."""
    if key not in data:
        raise InputError(f"{path}: missing '{key}'")
    values = data[key]
    # JSON numbers load as int or float; a bool is an int to numpy
    if not (isinstance(values, list) and set(map(type, values)) <= {int, float}):
        raise InputError(f"{path}: '{key}' must be a list of numbers")
    try:
        return np.asarray(values, dtype=float)
    except OverflowError as exc:
        raise InputError(f"{path}: '{key}' must be a list of numbers") from exc


def _load_mesh(path, data):
    if "mesh" not in data:
        raise InputError(f"{path}: missing 'mesh'")
    try:
        return surface_from_json_dict(data["mesh"])
    except SurfaceError as exc:
        raise InputError(f"{path}: invalid mesh: {exc}") from exc


def _load_problem(path):
    data = _load_json(path)
    surface = _load_mesh(path, data)
    geometry = data.get("geometry", EUCLIDEAN)
    if geometry not in (EUCLIDEAN, HYPERBOLIC):
        raise InputError(f"{path}: unknown geometry {geometry!r}")
    theta_star = _floats(path, data, "theta_star")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise InputError(f"{path}: 'options' must be an object")
    if "phi" in data and data["phi"] is not None:
        phi = _floats(path, data, "phi")
    else:
        if surface.n_boundary_faces:
            raise InputError(f"{path}: 'phi' is required when the mesh has "
                             f"boundary faces")
        phi = np.full(surface.n_faces, 2.0 * np.pi)
    try:
        spec = PatternSpec(surface, geometry, theta_star, phi)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return spec, options


def _print(doc):
    sys.stdout.write(jsonio.dumps(doc, indent=2) + "\n")


# the options that name output files, checked before any work runs
_OUTPUTS = ("output", "svg", "json_out", "planar_svg", "planar_json")


def _check_output(path):
    """Refuse an output path that is a directory or whose directory does
    not exist, with the error that writing it would raise."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    else:
        return
    raise InputError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def _write(path, text):
    """Write an output file; one that cannot be written is an input error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _certificate_dict(cert):
    if cert.feasible:
        phi = cert.half_angles
        return {"feasible": True,
                "cas": {"min_phi": float(phi.min()), "max_phi": float(phi.max()), "phi": phi}}
    return {"feasible": False, "kind": cert.kind, "message": cert.message,
            "violating_faces": list(cert.violating_faces),
            "violating_edges": list(cert.violating_edges),
            "phi_sum": cert.phi_sum, "theta_sum": cert.theta_sum}


def cmd_check(args):
    """Print the existence certificate: a violating face set, or a coherent
    angle system.  The angle system is one system that validates at 1e-8,
    not a canonical one: the flow stops at the first it can repair into."""
    spec, _ = _load_problem(args.problem)
    cert = find_coherent_angle_system(spec)
    _print(_certificate_dict(cert))
    return EXIT_OK if cert.feasible else EXIT_INFEASIBLE


# "options" key of a problem file, also the solve flag -> SolveOptions field
_OPTIONS = {"tol": "grad_tol", "max_iter": "max_iter"}


def _solve_options(args, path, options):
    """The flags and, for every flag not given, the file's "options"; a bad
    key or value from the file names the file."""
    given = {name: getattr(args, key) for key, name in _OPTIONS.items()
             if getattr(args, key) is not None}
    solver.SolveOptions(**given)    # a bad flag is reported without the path
    unknown = sorted(set(options) - set(_OPTIONS))
    if unknown:
        raise InputError(f"{path}: unknown option {unknown[0]!r}; "
                         f"the options are {', '.join(_OPTIONS)}")
    from_file = {name: options[key] for key, name in _OPTIONS.items()
                 if key in options and name not in given}
    try:
        return solver.SolveOptions(**from_file, **given)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _solve_report(spec, result):
    report = {
        "geometry": spec.geometry,
        "method": solver.NEWTON,
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "grad_norm": float(result.grad_norm),
        "functional_value": float(result.functional_value),
        "rho": result.rho,
        "radii": radii_from_rho(spec.geometry, result.rho)
        if (spec.geometry == EUCLIDEAN or np.all(result.rho < 0)) else None,
        "phi_half_angles": result.half_angles,
        "face_residuals": np.abs(face_residuals(spec, result.half_angles)),
        "cas_valid": bool(result.cas_report.is_valid(1e-8)),
    }
    if result.message:
        report["message"] = result.message
    return report


def cmd_solve(args):
    spec, options = _load_problem(args.problem)
    if args.geometry:
        spec = PatternSpec(spec.surface, args.geometry, spec.theta_star, spec.phi)
    opts = _solve_options(args, args.problem, options)
    cert = find_coherent_angle_system(spec)
    if not cert.feasible:
        _print(_certificate_dict(cert))
        return EXIT_INFEASIBLE
    result = solver.minimize(spec, opts)
    text = jsonio.dumps(_solve_report(spec, result), indent=2) + "\n"
    if args.output:
        _write(args.output, text)
    if args.report or not args.output:
        sys.stdout.write(text)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_layout(args):
    spec, _ = _load_problem(args.problem)
    rho = _floats(args.report, _load_json(args.report), "rho")
    n_edges = spec.surface.n_edges
    if not 0 <= args.root_edge < n_edges:
        raise InputError(f"--root-edge {args.root_edge} is not in [0, {n_edges})")
    try:
        result = layout(spec, rho, root_edge=args.root_edge)
    except NotDevelopableError:
        raise
    except ValueError as exc:    # rho is at fault
        raise InputError(f"{args.report}: {exc}") from exc
    if args.svg:
        _write(args.svg, export_svg(result, include_kites=args.kites))
    if args.json_out:
        _write(args.json_out, export_json(result, include_kites=args.kites))
    if not (args.svg or args.json_out):
        sys.stdout.write(export_json(result, include_kites=args.kites))
    return EXIT_OK


def cmd_sphere(args):
    data = _load_json(args.problem)
    theta = _floats(args.problem, data, "theta")
    v_infinity = data.get("v_infinity", 0)
    if not is_integer(v_infinity):
        raise InputError(f"{args.problem}: 'v_infinity' must be an integer")
    surface = _load_mesh(args.problem, data)
    try:
        problem = SphericalProblem(surface, theta, v_infinity)
    except ValueError as exc:
        raise InputError(f"{args.problem}: {exc}") from exc
    lay = solve_sphere(problem)
    if args.planar_svg:
        _write(args.planar_svg, export_svg(lay.planar))
    if args.planar_json:
        _write(args.planar_json, export_json(lay.planar))
    _print(spherical_layout_to_dict(problem, lay))
    return EXIT_OK


def _numbered(key, n, template, *columns):
    """The list of n rows {key: i, **template}, i = 0 .. n-1, whose
    template slots the columns fill, one row each."""
    return jsonio.Rows([{key: jsonio.INT, **template}] * n,
                       np.column_stack([np.arange(n), *columns]))


def _spherical_pack_report(lay, n_f, n_v):
    """The caps of a packed sphere, the vertex caps (medial faces n_f + v)
    first."""
    faces = lay.planar.faces
    row = np.empty(n_f + n_v, dtype=np.intp)
    row[faces] = np.arange(len(faces))
    cap = {"axis": [jsonio.FLOAT] * 3, "angular_radius": jsonio.FLOAT}
    vertex, face = row[n_f:], row[:n_f]
    return {"kind": "spherical",
            "vertex_circles": _numbered("vertex", n_v, cap, lay.axes[vertex],
                                        lay.angular_radii[vertex]),
            "face_circles": _numbered("face", n_f, cap, lay.axes[face],
                                      lay.angular_radii[face])}


def cmd_pack(args):
    path = args.problem
    surface = _load_mesh(path, _load_json(path))
    if not surface.is_closed:
        raise InputError(f"{path}: packing requires a closed triangulated surface")
    f = np.flatnonzero(np.diff(surface.walk_offsets) != 3)
    if len(f):
        raise InputError(f"{path}: face {f[0]} is not a triangle")
    v = np.flatnonzero(np.diff(surface.fan_offsets) < 3)
    if len(v):
        raise InputError(f"{path}: vertex {v[0]} has degree < 3; the medial "
                         f"decomposition degenerates")
    med = medial(surface)
    chi, genus = euler_characteristic(surface)
    n_f, n_v = surface.n_faces, surface.n_vertices
    theta_star = np.full(med.n_edges, 0.5 * np.pi)
    if genus == 0:
        problem = SphericalProblem(med, np.pi - theta_star, 0)
        _print(_spherical_pack_report(solve_sphere(problem), n_f, n_v))
        return EXIT_OK
    geometry = EUCLIDEAN if genus == 1 else HYPERBOLIC
    spec = PatternSpec(med, geometry, theta_star, np.full(med.n_faces, 2.0 * np.pi))
    result = solver.minimize(spec)
    cert = find_coherent_angle_system(spec, result.half_angles)
    if not cert.feasible:
        _print(_certificate_dict(cert))
        return EXIT_INFEASIBLE
    if not result.converged:
        _print(_solve_report(spec, result))
        return EXIT_NO_CONVERGENCE
    radii = radii_from_rho(geometry, result.rho)
    circle = {"radius": jsonio.FLOAT}
    _print({"kind": geometry,
            "vertex_circles": _numbered("vertex", n_v, circle, radii[n_f:]),
            "face_circles": _numbered("face", n_f, circle, radii[:n_f]),
            "grad_norm": result.grad_norm})
    return EXIT_OK


def cmd_specfun(args):
    if args.function == "clausen":
        value = specfun.clausen(args.x)
    else:
        if args.theta is None:
            raise InputError("imli2 needs both x and theta")
        value = specfun.im_li2(args.x, args.theta)
    sys.stdout.write("%.15g\n" % value)
    return EXIT_OK


@functools.cache
def _build_parser():
    """The parser of every subcommand, built at the first call and shared
    by later ``main`` calls in the same process.  Sharing is safe:
    ``parse_args`` returns a fresh namespace each call and
    ``_Parser.error`` raises without keeping state.  The ``cmd_*``
    functions are bound at that first call."""
    parser = _Parser(
        prog="circlepatterns",
        description="construct circle patterns with prescribed intersection "
                    "and cone angles")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="existence check with certificate: a violating "
                                         "face set, or one valid angle system")
    pc.add_argument("problem")
    pc.set_defaults(func=cmd_check)

    ps = sub.add_parser("solve", help="minimize the pattern functional")
    ps.add_argument("problem")
    ps.add_argument("--geometry", choices=[EUCLIDEAN, HYPERBOLIC])
    ps.add_argument("--tol", type=float, default=None)
    ps.add_argument("--max-iter", type=int, default=None)
    ps.add_argument("--report", action="store_true",
                    help="print the JSON report to stdout")
    ps.add_argument("-o", "--output", help="write the JSON report to a file")
    ps.set_defaults(func=cmd_solve)

    pl = sub.add_parser("layout", help="develop a solved pattern")
    pl.add_argument("problem")
    pl.add_argument("report", help="solve report with the rho values")
    pl.add_argument("--svg")
    pl.add_argument("--json", dest="json_out")
    pl.add_argument("--kites", action="store_true")
    pl.add_argument("--root-edge", type=int, default=0)
    pl.set_defaults(func=cmd_layout)

    pp = sub.add_parser("sphere", help="spherical pattern via stereographic "
                                       "projection")
    pp.add_argument("problem")
    pp.add_argument("--planar-svg")
    pp.add_argument("--planar-json")
    pp.set_defaults(func=cmd_sphere)

    pk = sub.add_parser("pack", help="circle packing of a triangulation via "
                                     "the medial decomposition")
    pk.add_argument("problem")
    pk.set_defaults(func=cmd_pack)

    pf = sub.add_parser("specfun", help="evaluate the special functions")
    pf.add_argument("function", choices=["clausen", "imli2"])
    pf.add_argument("x", type=float)
    pf.add_argument("theta", type=float, nargs="?")
    pf.set_defaults(func=cmd_specfun)
    return parser


_LOG_LEVELS = ("CRITICAL", "FATAL", "ERROR", "WARN", "WARNING", "INFO", "DEBUG", "NOTSET")


def _log_level():
    """The level named by CIRCLEPATTERNS_LOG, in any case; WARNING if unset."""
    name = os.environ.get("CIRCLEPATTERNS_LOG", "WARNING")
    if name.upper() not in _LOG_LEVELS:
        raise InputError(f"CIRCLEPATTERNS_LOG must name a logging level "
                         f"({', '.join(_LOG_LEVELS)}), got {name!r}")
    return name.upper()


def main(argv=None):
    try:
        # checked here, not by basicConfig, which ignores the level once
        # the root logger has a handler
        logging.basicConfig(level=_log_level())
        args = _build_parser().parse_args(argv)
        for path in filter(None, (getattr(args, key, None) for key in _OUTPUTS)):
            _check_output(path)
        return args.func(args)
    except SphereConditionError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SphereNoConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except NotDevelopableError as exc:
        print(f"not developable: {exc}", file=sys.stderr)
        return EXIT_NOT_DEVELOPABLE
    except ValueError as exc:    # InputError and SurfaceError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
