"""Benchmark of the circlepatterns CLI: one workload per invocation.

    python3 perfbench/run.py --workload torus_uniform --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory and nowhere else.  The inputs are made
from the seed and written as CLI JSON, then every command runs in this
process through ``circlepatterns.cli.main(argv)`` with stdout captured.
Passes repeat until ``--seconds`` have gone by.  The first pass's outputs
go through the independent checks in ``checks.py``; every later pass must
reproduce them byte for byte.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (both counting commands) and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics of ``metrics.END_TO_END``; ``--trace 1`` alternates
untraced and traced passes and reports ``metrics.PER_LAYER``.  Machine
facts, per-pass samples and (when traced) every span are written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

import checks
import metrics
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3
MIN_PASSES = 3
REFERENCE_RUNS = 2       # of calibrate.reference() before every pass and set-up sample


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, one set-up sample: for the self-test")
    p.add_argument("--setup-only", metavar="DIR",
                   help="import the CLI, write the inputs to DIR and exit")
    return p.parse_args(argv)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "circlepatterns", "cli.py")):
        raise SystemExit(f"error: no program source at {SRC}")
    sys.path.insert(0, SRC)
    import circlepatterns.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: circlepatterns imported from {cli.__file__}, not {SRC}")
    return cli


def machine_facts():
    import numpy
    import scipy
    model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _time_setup(args, workdir):
    """Seconds from a fresh interpreter to the CLI imported and the inputs
    written, as a child process sees it."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only", workdir]
    if args.tiny:
        argv.append("--tiny")
    t0 = time.perf_counter()
    done = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=150)
    seconds = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"error: input set-up failed:\n{done.stderr}")
    return seconds


def _fingerprint(workdir, files, stdout):
    digest = hashlib.sha256(stdout.encode())
    for name in files:
        with open(os.path.join(workdir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class Runner:
    """Runs passes over one workload's commands and keeps their results."""

    def __init__(self, cli, commands, workdir, tracer):
        self.cli = cli
        self.commands = commands
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.exact = []            # per infeasible input: certificate verified
        self.expected = {}         # command index -> fingerprint of pass 1
        self.untraced = []         # per pass: [seconds per command]
        self.reference = []        # seconds of each calibrate.reference() run
        self.traced = []           # per pass: (seconds per command, span range)

    def _command(self, i, cmd, traced):
        out, err = io.StringIO(), io.StringIO()
        span = None
        if traced:
            self.tracer.command = self.attempted
            span = self.tracer.begin(f"cli.{cmd.kind}")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main([cmd.kind, *cmd.argv])
        except Exception:  # a crash is a failed command, reported below
            code = traceback.format_exc()
        seconds = time.perf_counter() - t0
        if span is not None:
            self.tracer.end(span)
        return seconds, code, out.getvalue(), err.getvalue()

    def _verify(self, i, cmd, code, stdout, stderr):
        if code != cmd.expect_exit:
            return f"exit {code!r}, expected {cmd.expect_exit}; stderr: {stderr.strip()}"
        try:
            fingerprint = _fingerprint(self.workdir, cmd.files, stdout)
        except OSError as exc:
            return f"missing output: {exc}"
        if i not in self.expected:
            verdict = checks.CHECKS[cmd.check](self.workdir, cmd.files, stdout)
            if not verdict.ok:
                return verdict.message
            if verdict.exact_certificate is not None:
                self.exact.append(verdict.exact_certificate)
            self.expected[i] = fingerprint
        elif fingerprint != self.expected[i]:
            return "outputs differ from the first pass"
        return None

    def run_pass(self, traced):
        import calibrate
        self.reference += [calibrate.reference() for _ in range(REFERENCE_RUNS)]
        self.tracer.enabled = traced
        first = len(self.tracer.spans)
        times = []
        for i, cmd in enumerate(self.commands):
            seconds, code, stdout, stderr = self._command(i, cmd, traced)
            self.tracer.enabled = False
            problem = self._verify(i, cmd, code, stdout, stderr)
            self.tracer.enabled = traced
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                print(f"FAILED {cmd.kind} {' '.join(cmd.argv)}: {problem}", file=sys.stderr)
            times.append(seconds)
        self.tracer.enabled = False
        if traced:
            self.traced.append((times, first, len(self.tracer.spans)))
        else:
            self.untraced.append(times)


def _end_to_end(runner, setup):
    return {
        "pass_s": metrics.median([sum(t) for t in runner.untraced]),
        "setup_s": metrics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }


def _per_layer(runner):
    spans = runner.tracer.spans
    per_pass = [metrics.layer_totals(spans, lo, hi) for _, lo, hi in runner.traced]
    out = {name: metrics.median([p.get(name, 0) for p in per_pass])
           for name in metrics.PER_LAYER}
    for kind in ("check", "solve", "layout", "pack"):
        out[f"cli.{kind}.s"] = metrics.median(
            [sum(t for t, c in zip(times, runner.commands) if c.kind == kind)
             for times in runner.untraced])
    out["exact_cert_ratio"] = sum(runner.exact) / len(runner.exact) if runner.exact else 0.0
    out["trace.overhead_s"] = (metrics.median([sum(t) for t, _, _ in runner.traced])
                               - metrics.median([sum(t) for t in runner.untraced]))
    return out


def _report(args, runner, setup, raw, values, speed, facts, units):
    passes = [sum(t) for t in runner.untraced]
    print(f"machine: {json.dumps(facts)}")
    print(f"workload {args.workload} seed {args.seed}: {len(runner.untraced)} untraced and "
          f"{len(runner.traced)} traced passes of {len(runner.commands)} commands")
    print(f"pass_s samples: {[round(p, 4) for p in passes]}")
    print(f"setup_s samples: {[round(s, 4) for s in setup]}")
    print(f"reference computation: median {metrics.median(runner.reference):.4g} s over "
          f"{len(runner.reference)} runs; times below are scaled by {speed:.4g}")
    for name, value in values.items():
        print(f"  {name:36s} {value:.6g} {units[name]}  (measured {raw[name]:.6g})")
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench_out",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "machine": facts, "metrics": values, "measured": raw, "speed": speed,
              "setup_s": setup,
              "untraced_passes": runner.untraced, "reference_s": runner.reference,
              "traced_passes": [t for t, _, _ in runner.traced],
              "commands": [[c.kind, *c.argv] for c in runner.commands]}
    if args.trace:
        record["spans"] = [vars(s) for s in runner.tracer.spans]
        record["predictions"] = {k: v[2] for k, v in metrics.PER_LAYER.items()}
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(f"results written to {os.path.relpath(path, ROOT)}")


def main(argv=None):
    args = _parse(argv)
    if args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.NAMES)}")
    cli = _import_program()
    if args.setup_only:
        workloads.write(workloads.build(args.workload, args.seed, args.tiny), args.setup_only)
        return 0

    import calibrate        # builds its reference data, so not in set-up processes
    from tracing import Tracer
    workdir = os.path.join(ROOT, ".perfbench_out",
                           f"work-{args.workload}-{args.seed}-{os.getpid()}")
    tracer = Tracer()
    runner = Runner(cli, workloads.commands(args.workload, args.seed, args.tiny), workdir,
                    tracer)
    cwd = os.getcwd()
    try:
        setup = []
        for _ in range(1 if args.tiny else SETUP_SAMPLES):
            runner.reference += [calibrate.reference() for _ in range(REFERENCE_RUNS)]
            setup.append(_time_setup(args, workdir))
        os.chdir(workdir)
        if args.trace:
            tracer.install()
        start = time.perf_counter()
        # with tracing on, untraced and traced passes alternate so that both
        # see the same machine conditions
        while (len(runner.untraced) + len(runner.traced) < MIN_PASSES
               or time.perf_counter() - start < args.seconds
               or (args.trace and not runner.traced)):
            traced = bool(args.trace) and len(runner.traced) < len(runner.untraced)
            runner.run_pass(traced)
    finally:
        tracer.uninstall()
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        raw, units = _per_layer(runner), {k: v[0] for k, v in metrics.PER_LAYER.items()}
    else:
        raw, units = _end_to_end(runner, setup), {k: v[0] for k, v in metrics.END_TO_END.items()}
    # every time is reported at the reference machine speed (see calibrate.py)
    speed = calibrate.REFERENCE_S / metrics.median(runner.reference)
    values = {name: value * speed if units[name] == "s" else value
              for name, value in raw.items()}
    _report(args, runner, setup, raw, values, speed, machine_facts(), units)
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
