"""Benchmark of the hdgwg studies: a single-process closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload converge-k0 --seed 1 --seconds 28 --trace 0

The process imports hdgwg from ``src/`` and calls ``hdgwg.cli.main`` for one
study invocation after another, each writing to a fresh output directory,
as the console script would.  One pass runs every invocation of the
workload once, in an order drawn from ``--seed``.  Passes repeat while the
next one is predicted to end within ``--seconds``; at least one always runs.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (see tracing.py).  Every pass's outputs are checked against
the reference values in reference.json (see workloads.py).  The last line
of standard output is one JSON object; the full record, with the
environment, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_PROBES = 7

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny levels, for the benchmark's own tests")
    return p.parse_args(argv)


def _cap_blas_threads():
    """Cap the BLAS thread count at the CPUs this process may use.

    Must run before numpy is imported.  Returns (nproc, threads).
    """
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in BLAS_THREAD_VARS:
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            threads = min(threads, int(os.environ[var]))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return nproc, threads


def _measure_setup():
    """Median time from process start to hdgwg ready for its first study.

    Each probe is a fresh interpreter importing ``hdgwg.cli`` (and with it
    numpy and scipy), which is what every ``hdgwg`` invocation pays.
    """
    code = ("import sys, time; sys.path.insert(0, {!r}); import hdgwg.cli; "
            "print(repr(time.monotonic()))".format(SRC))
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             check=True, capture_output=True, text=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]) - start)
    return statistics.median(samples), samples


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hdgwg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _openblas_threads():
    """Thread count the OpenBLAS that numpy loaded reports, or None."""
    import numpy

    libs = os.path.dirname(numpy.__file__) + ".libs"
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


def _environment(args, nproc, threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc, "blas_threads_requested": threads,
        "blas_threads_in_effect": _openblas_threads(),
        "blas": "{} {}".format(blas.get("name"), blas.get("version")),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": _commit(),
        "source_sha256": _source_digest(), "machine": platform.machine(),
        "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "load_processes": 1,
    }


def _quiet_main(cli, argv):
    """``cli.main(argv)`` with its stdout captured; returns (code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Runner:
    """Runs passes of one workload and checks their outputs."""

    def __init__(self, cli, invocations, reference, seed, workdir):
        self.cli = cli
        self.invocations = invocations
        self.reference = reference
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.attempted = 0
        self.failures = []
        self.passes = 0

    def run_pass(self, call=None):
        """One timed pass; returns its wall time in seconds.

        ``call(fn, *args)``, if given, makes each ``fn(*args)`` study call
        (the tracer uses it to open the ``cli`` span).
        """
        order = list(self.invocations)
        self.rng.shuffle(order)
        outdirs = []
        for i in range(len(order)):
            outdirs.append(os.path.join(self.workdir, "p{}-{}".format(
                self.passes, i)))
            os.makedirs(outdirs[-1])
        results = []
        start = time.perf_counter()
        for argv, outdir in zip(order, outdirs):
            full = argv + ["--outdir", outdir]
            try:
                if call is None:
                    results.append(_quiet_main(self.cli, full))
                else:
                    results.append(call(_quiet_main, self.cli, full))
            except Exception as exc:  # a crashing study is a failed operation
                results.append((None, "{}: {}".format(type(exc).__name__, exc)))
        wall = time.perf_counter() - start
        for argv, outdir, (code, text) in zip(order, outdirs, results):
            self._check(argv, outdir, code, text)
            shutil.rmtree(outdir)
        self.passes += 1
        return wall

    def _check(self, argv, outdir, code, text):
        self.attempted += 1
        if code != 0:
            errors = ["exit code {}: {}".format(code, text.strip()[-200:])]
        else:
            try:
                table = workloads.read_csv(
                    os.path.join(outdir, workloads.OUTPUT_CSV[argv[0]]))
            except (OSError, ValueError, IndexError) as exc:
                errors = ["unreadable output: {}".format(exc)]
            else:
                errors = workloads.check_outputs(argv, table, self.reference)
        if errors:
            self.failures.append({"argv": argv, "pass": self.passes,
                                  "errors": errors[:5]})


def _preflight(cli, seed, workdir):
    """``hdgwg check`` once, untimed; a failure ends the benchmark run."""
    code, text = _quiet_main(cli, ["check", "--seed", str(seed),
                                   "--outdir", workdir])
    if code != 0:
        sys.stderr.write(text)
        raise SystemExit("preflight 'hdgwg check' failed with code {}".format(
            code))


def _measure(runner, seconds, trace, tracer, modules):
    """Run passes for ``seconds``; returns metrics and the per-pass record."""
    import tracing

    start = time.perf_counter()
    walls, traced_walls, layer_runs = [], [], []
    peak_rss_mb = None

    def fits(pass_costs):
        return time.perf_counter() - start + sum(pass_costs) <= seconds

    while True:
        walls.append(runner.run_pass())
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            with tracer.installed(modules):
                wall = runner.run_pass(
                    lambda fn, *a: tracer.call(tracing.CLI, fn, *a))
            traced_walls.append(wall)
            layer_runs.append(tracer.layer_metrics(tracer.pass_id, wall))
            if not fits([max(walls), max(traced_walls)]):
                break
        elif not fits([max(walls)]):
            break

    record = {"walls": walls, "traced_walls": traced_walls}
    if not trace:
        return {"wall_s": statistics.median(walls),
                "peak_rss_mb": peak_rss_mb}, record
    metrics = tracing.median_metrics(layer_runs)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(walls))
    record["per_pass"] = layer_runs
    return metrics, record


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hdgwg", "cli.py")):
        sys.stderr.write("perfbench: no hdgwg sources at {}; run from the "
                         "root of an hdgwg checkout\n".format(SRC))
        return 2
    nproc, threads = _cap_blas_threads()
    compileall.compile_dir(SRC, quiet=1)
    sys.path.insert(0, SRC)

    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    if args.workload not in table:
        sys.stderr.write("perfbench: unknown workload {!r}; choose from {}\n"
                         .format(args.workload, ", ".join(table)))
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)

    setup_s, setup_samples = _measure_setup()

    # numpy loads here, after the BLAS thread cap
    import hdgwg.basis
    import hdgwg.cli
    import hdgwg.experiments
    import tracing

    modules = {"cli": hdgwg.cli, "experiments": hdgwg.experiments,
               "basis": hdgwg.basis}
    os.makedirs(RESULTS, exist_ok=True)
    stem = "{}{}-seed{}-trace{}".format(
        args.workload, "-smoke" if args.smoke else "", args.seed, args.trace)
    workdir = tempfile.mkdtemp(prefix=stem + "-", dir=RESULTS)
    tracer = tracing.Tracer()
    try:
        _preflight(hdgwg.cli, args.seed, workdir)
        runner = Runner(hdgwg.cli, table[args.workload], reference, args.seed,
                        workdir)
        metrics, record = _measure(runner, args.seconds, args.trace, tracer,
                                   modules)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        units = tracing.PER_LAYER_UNITS
        tracer.write_spans(os.path.join(RESULTS, stem + "-spans.jsonl.gz"))
    else:
        metrics["setup_s"] = setup_s
        units = END_TO_END_UNITS
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    full = dict(result, environment=_environment(args, nproc, threads),
                failed_frac=failed / runner.attempted,
                failures=runner.failures, setup_samples=setup_samples,
                passes=record)
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump(full, fh, indent=1)

    for failure in runner.failures:
        print("FAILED {}: {}".format(" ".join(failure["argv"]),
                                     "; ".join(failure["errors"])))
    print("{} seed {}: {} passes, {} invocations".format(
        args.workload, args.seed, runner.passes, runner.attempted))
    for name, entry in result["metrics"].items():
        print("  {:<34s} {:>14.6g} {}".format(name, entry["value"],
                                              entry["unit"]))
    print("  {:<34s} {:>14.6g} {}".format("failed_frac", full["failed_frac"],
                                          "ratio"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
