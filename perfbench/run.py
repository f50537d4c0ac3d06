"""xsdof benchmark: verified CLI ops per second on one named workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload acceptance-mix --seed 1 --seconds 35 --trace 0

The process is one closed-loop client: every op calls ``xsdof.cli.main(argv)``
in-process with stdout captured, waits for it, checks the output exactly
(see ``workloads.py``) and only then issues the next op.  Ops run in whole
cycles of the workload until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with times
scaled to a reference machine speed (see ``reference.py``).  ``--trace 1``
runs every op twice, untraced and traced in alternating order, and reports
the per-layer metrics, the tracing overhead and a per-configuration stage
breakdown; the spans go to ``perfbench/out/``.

Stdout ends with two JSON lines: the full record (machine facts, extra
metrics, notes) and then the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import ROOT as ROOT_SPAN
from tracer import Tracer, layer_metrics, stage_breakdown
from workloads import WORKLOADS, check, op_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: BLAS threads, fixed before numpy loads.  One thread keeps runs comparable
#: on a small shared machine; it is recorded with every result.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh interpreters that time ``import xsdof.cli``, spread over the run.
#: Each pays what a CLI user pays; this process does not, as the benchmark's
#: own imports have already loaded part of the standard library.
SETUP_SAMPLES = 12

#: Times the import, then the reference kernel (median of three) in the same
#: fresh interpreter.
IMPORT_TIMER = (
    "import statistics, sys, time; t = time.perf_counter(); import xsdof.cli; "
    "t = time.perf_counter() - t; sys.path.insert(0, {here!r}); import reference; "
    "print(t, statistics.median(reference.kernel_seconds() for _ in range(3)))"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def call(main, argv):
    """One op: ``main(argv)`` with stdout captured; returns (code, stdout, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as e:
        code = e.code
    except Exception as e:  # an op that crashes is a failed op, not a crashed run
        code = f"{type(e).__name__}: {e}"
    return code, buf.getvalue(), time.perf_counter() - t0


def fresh_import_seconds() -> tuple[float, float]:
    """(import seconds, reference kernel seconds) from a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_TIMER.format(here=str(HERE))],
                         capture_output=True, text=True, check=True, timeout=60)
    seconds, kernel = map(float, out.stdout.split())
    return seconds, kernel


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def _blas_facts() -> dict:
    import ctypes

    import numpy as np

    facts = {"env": {k: os.environ.get(k) for k in BLAS_ENV}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["name"], facts["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        facts["name"] = facts["version"] = None
    lib = None
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "blas" in os.path.basename(path).lower() and ".so" in path:
                lib = path
                break
    facts["library"] = os.path.basename(lib) if lib else None
    facts["threads"] = None
    if lib:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads",
                       "MKL_Get_Max_Threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = fn()
                break
    return facts


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                         text=True, env=env, timeout=30)
    return out.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "xsdof").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine_facts() -> dict:
    import platform

    import numpy as np

    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_facts(),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Loop:
    """The closed loop: whole cycles of checked ops until the time is up."""

    def __init__(self, main, cycle, seed: int):
        self.main, self.cycle = main, cycle
        self.seeds = op_seeds(seed)
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def op(self, op, main=None):
        """Run and check one op with a fresh seed; returns (passed, seconds)."""
        seed = next(self.seeds)
        return self.again(op, seed, main)

    def again(self, op, seed, main=None):
        """Run and check ``op`` at ``seed``, through ``main`` if given."""
        argv = op.argv(seed)
        code, out, seconds = call(main or self.main, argv)
        problems = check(op, seed, code, out)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{' '.join(argv)}: {'; '.join(problems)}")
        return not problems, seconds

    def warm_up(self):
        """One untimed cycle: lazy set-up inside numpy and the CLI finishes here.

        Its ops are checked like the rest and count in ``attempted`` and
        ``failed``, so a wrong output fails the run wherever it occurs.
        """
        for op in self.cycle:
            self.op(op)


def timed_run(loop: Loop, seconds: float):
    """End-to-end metrics with tracing off, in seconds at the reference speed.

    The reference kernel runs before every op and once after the last; an
    op's time is scaled by ``REFERENCE_S`` over the mean of the kernel times
    on either side of it.  Between cycles, whenever another
    ``1/SETUP_SAMPLES`` of the run has passed, a fresh interpreter times the
    import.  Neither the kernel nor the import is inside an op's time.
    """
    from reference import REFERENCE_S, kernel_seconds

    imports = [fresh_import_seconds()]
    loop.warm_up()
    ops = []  # (config label, passed, op seconds, kernel seconds just before)
    start = time.perf_counter()
    while True:
        for op in loop.cycle:
            kernel = kernel_seconds()
            ok, dt = loop.op(op)
            ops.append((op.label, ok, dt, kernel))
        elapsed = time.perf_counter() - start
        if len(imports) < SETUP_SAMPLES and elapsed >= len(imports) * seconds / SETUP_SAMPLES:
            imports.append(fresh_import_seconds())
        if elapsed >= seconds:
            break
    wall = time.perf_counter() - start
    imports += [fresh_import_seconds() for _ in range(SETUP_SAMPLES - len(imports))]
    kernels = [k for *_, k in ops] + [kernel_seconds()]
    scale = [2 * REFERENCE_S / (a + b) for a, b in zip(kernels, kernels[1:])]
    passed = sum(ok for _, ok, _, _ in ops)
    norm = sorted(1e3 * dt * f for (_, _, dt, _), f in zip(ops, scale))
    setup = [t * REFERENCE_S / k for t, k in imports]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": 1e3 * passed / sum(norm), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(norm), "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    by_config, kernel_after = {}, {}
    for (label, _, dt, _), f, k in zip(ops, scale, kernels[1:]):
        by_config.setdefault(label, []).append(1e3 * dt * f)
        kernel_after.setdefault(label, []).append(1e3 * k)
    raw = sorted(1e3 * dt for _, _, dt, _ in ops)
    extra = {
        "failed_frac": {"value": loop.failed / loop.attempted, "unit": "ratio"},
        # at least ten samples beyond the 90th percentile
        "op_p90_ms": {"value": statistics.quantiles(norm, n=10)[8], "unit": "ms"}
        if len(norm) >= 100 else f"omitted: {len(norm)} ops < 100",
        "ops": len(ops),
        "machine_slowdown": statistics.median(kernels) / REFERENCE_S,
        "raw": {
            "setup_s": statistics.median(t for t, _ in imports),
            "ops_per_s": 1e3 * passed / sum(raw),
            "op_p50_ms": statistics.median(raw),
            "wall_ops_per_s": len(ops) / wall,
        },
        "p50_ms_by_config": {k: statistics.median(v) for k, v in by_config.items()},
        # The kernel right after each configuration's op, raw.  Flat across
        # configurations means an op leaves nothing behind (cache, heap) that
        # moves the kernel and so the scale of the next op.
        "kernel_ms_after_config": {k: statistics.median(v) for k, v in kernel_after.items()},
        "setup_samples_s": imports,
    }
    return metrics, extra


def traced_run(loop: Loop, cli, seconds: float):
    """Per-layer metrics: every op runs untraced and traced, order alternating."""
    tracer = Tracer()
    traced_main = tracer.spanned(ROOT_SPAN, cli.main)
    loop.warm_up()
    ops, untraced_s, traced_s, k = [], 0.0, 0.0, 0
    start, cpu0 = time.perf_counter(), cpu_seconds()
    while time.perf_counter() - start < seconds:
        for op in loop.cycle:
            seed = next(loop.seeds)
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.begin_op()
                    _, dt = loop.again(op, seed, traced_main)
                    ops.append(tracer.end_op(op.label, dt))
                    traced_s += dt
                else:
                    _, dt = loop.again(op, seed)
                    untraced_s += dt
            k += 1
    cpu_util = (cpu_seconds() - cpu0) / (time.perf_counter() - start)
    metrics, notes = layer_metrics(ops, untraced_s, traced_s, cpu_util)
    return metrics, notes, stage_breakdown(ops), tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xsdof" / "cli.py").is_file():
        print(f"perfbench: no xsdof sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    cli = importlib.import_module("xsdof.cli")
    in_process = time.perf_counter() - t0

    loop = Loop(cli.main, WORKLOADS[args.workload], args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "import_in_process_s": in_process,
    }
    if args.trace:
        metrics, notes, breakdown, tracer = traced_run(loop, cli, args.seconds)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans)
        record.update(notes=notes, breakdown=breakdown, spans=str(spans.relative_to(ROOT)))
    else:
        metrics, extra = timed_run(loop, args.seconds)
        record["extra"] = extra
    record.update(attempted=loop.attempted, failed=loop.failed, problems=loop.problems,
                  metrics=metrics, run_wall_s=time.perf_counter() - t0)
    for line in loop.problems:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
