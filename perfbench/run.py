"""covlind benchmark: run one workload, measured or traced.

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 15 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it give the machine, every pass and every
metric by name and unit.

The harness is one process on one thread.  setup_s starts fresh
interpreters one at a time and waits for each; the fig2 runner's own
4-worker thread pool is part of the program under test.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer, make_api
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_PROBES = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# per-layer metrics that are the calls and self time of one traced call
LAYER_CALLS = (
    "config.load_config", "cli.write_csv",
    "jaynes_cummings.jc_autonomous_trajectory", "jaynes_cummings.jc_semiclassical_propagator",
    "operators.DensityMatrix.from_matrix", "operators.uhlmann_fidelity",
    "gkls.build_dissipator", "gkls.liouvillian", "gkls.instantaneous_attractor",
    "gkls.fixed_point", "gkls.check_time_translation", "gkls.choi_matrix",
    "bath.jc_kinetic_coefficients", "propagate.evolve_timedep", "propagate.evolve_static",
    "eigenoperators.monodromy_eigenoperators", "eigenoperators.verify_eigenoperator",
    "eigenoperators.static_eigenoperators",
)
MODULES = ("config", "cli", "operators", "gkls", "eigenoperators", "propagate",
           "jaynes_cummings", "bath", "bench")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure passes until this much wall time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_covlind():
    """Import covlind from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import covlind

    if Path(covlind.__file__).resolve().parent != src / "covlind":
        raise ImportError(f"covlind was imported from {covlind.__file__}, not {src}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}",
            "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
            "commit": git_commit(),
            "note": "cli.run_fig2 runs its alphas on a ThreadPoolExecutor of up to "
                    "4 workers; the benchmark harness itself uses one thread"}


def setup_seconds(args) -> float:
    """Median wall time of fresh interpreters that import and set up only."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120, check=False)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode(errors='replace')}")
    return statistics.median(times)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def run_pass(self, workload, api, ctx):
        """Time one solve, then check it untimed; returns (seconds, outputs)."""
        t0 = perf_counter()
        try:
            raw = workload.solve(api, ctx)
        except Exception:  # a raising pass fails every operation in it
            seconds = perf_counter() - t0
            self.attempted += len(workload.ops)
            self.failed += len(workload.ops)
            self.notes.append(traceback.format_exc(limit=3))
            return seconds, None
        seconds = perf_counter() - t0
        self.attempted += len(workload.ops)
        try:
            out = workload.outputs(ctx, raw)
            bad = workload.check(ctx, out)
        except Exception:
            self.failed += len(workload.ops)
            self.notes.append(traceback.format_exc(limit=3))
            return seconds, None
        for op in workload.ops:
            if bad.get(op):
                self.failed += 1
                self.notes.append(f"{op}: failed {bad[op]}")
        return seconds, out


def toothless_checks(workload, ctx, out) -> list:
    """Perturbations of good outputs that their check did not reject."""
    missed = []
    for op, name, bad_out in workload.perturbations(ctx, out):
        if name not in workload.check(ctx, bad_out).get(op, []):
            missed.append(f"{op}:{name}")
    return missed


def layer_metrics(workload, ctx, out, tracer, traced_s, plain_s) -> dict:
    table = tracer.table()
    values = {}
    for name in LAYER_CALLS:
        calls, _, self_s = table.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    for module in MODULES:
        values[f"{module}.self_s"] = sum(row[2] for name, row in table.items()
                                         if name.split(".", 1)[0] == module)
    values["propagate.generator_calls"] = table.get("bench.generator", (0,))[0]
    values["eigenoperators.hamiltonian_calls"] = table.get("bench.hamiltonian", (0,))[0]
    values["trace.spans"] = len(tracer.spans)
    values["trace.overhead_s"] = traced_s - plain_s
    if out is not None:  # None when every pass raised or failed its parse
        values.update(workload.layer_metrics(ctx, out, tracer))
    return values


def declared(kind) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    plain = make_api()
    traced = make_api(tracer) if tracer else None
    setup_s = None if args.trace else setup_seconds(args)
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        ctx = workload.setup(traced or plain, args.seed, tmp)
        tally = Tally()
        # an unmeasured first pass fills lazy imports and caches
        first_s, out = tally.run_pass(workload, plain, ctx)
        print(f"warm-up pass: {first_s:.4f} s")
        times, traced_s, traced_out = [], None, None
        start = perf_counter()
        while not times or perf_counter() - start < args.seconds:
            seconds, pass_out = tally.run_pass(workload, plain, ctx)
            times.append(seconds)
            out = pass_out if pass_out is not None else out
            print(f"pass {len(times)}: {seconds:.4f} s")
            if tracer and traced_s is None:
                with tracer.span("bench.pass"):
                    traced_s, traced_out = tally.run_pass(workload, traced, ctx)
                print(f"traced pass: {traced_s:.4f} s")
        missed = toothless_checks(workload, ctx, out) if out is not None else ["no good pass"]
        for note in tally.notes:
            print(f"failure: {note}")
        if missed:
            print(f"checks that accepted a perturbed output: {missed}")
        solve_s = statistics.median(times)
        if tracer:
            values = layer_metrics(workload, ctx, traced_out or out, tracer, traced_s, solve_s)
            kind = "per_layer"
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {"setup_s": setup_s, "solve_s": solve_s, "peak_rss_mb": peak}
            kind = "end_to_end"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    names = declared(kind)
    undeclared = set(values) - {name for name, _ in names}
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    metrics = {}
    for name, unit in names:
        # a layer this workload never calls reads 0
        value = values.get(name, 0) if tracer else values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} = {value!r} {unit}")
    print(f"failed_frac = {tally.failed}/{tally.attempted}")
    return {"correct": tally.failed == 0 and not missed, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_covlind()
    except ImportError as exc:
        print(f"perfbench: cannot import covlind: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        SCRATCH.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
        try:
            WORKLOADS[args.workload].setup(make_api(), args.seed, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return 0
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(machine(), sort_keys=True))
    try:
        result = run(args)
    except (OSError, RuntimeError, KeyError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
