"""Print the exact outputs of a fixed set of CLI calls, to diff two checkouts.

Runs ``xsdof.cli.main`` in-process on:

- every ``simulate`` configuration of the benchmark's three workloads
  (``perfbench/workloads.py``), plus A(3,4), D(3,5) and E(3,5), at seeds 1
  to 3; then each workload configuration at seed 1 once with ``--format
  csv`` and once with ``--no-oracle``;
- the model refusal of ``simulate --scheme A --model asym-fb`` (exit 3);
- ``region`` for every model key at (2,3), (4,4) and (1,3), and ``table
  --N 4 --M-max 8``, each in JSON and in CSV;
- ``verify --suite all --trials 2`` at seeds 1 to 3.

For each call it prints the arguments, the exit code, the sha256 of the
raw stdout, the stdout with every decode error masked (the
``relative_error`` values of JSON, the ``decode_err_*`` columns of CSV:
the decode error is round-off, the one output that is not exact), and the
stderr, if any.

The ``xsdof`` it imports is the one on ``PYTHONPATH``, so one copy of the
script reads any checkout.  From the root of a checkout::

    PYTHONPATH=src python tests/exact_outputs.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/exact_outputs.py > old.txt
    diff old.txt new.txt

Equal ``sha256`` lines mean byte-identical stdout; a difference only in
them means only decode round-off moved.  BLAS runs on one thread unless
``OPENBLAS_NUM_THREADS`` says otherwise.  pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import os
import re
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, Config, VerifySuite  # noqa: E402

from xsdof import cli  # noqa: E402

SEEDS = (1, 2, 3)

#: Configurations beyond the workloads' where the final-phase selection
#: keeps fewer rows than a slot has (2m - n < n).
EXTRA = (Config("A", 3, 4), Config("D", 3, 5), Config("E", 3, 5))

#: Antenna pairs of the ``region`` calls: mid regime, m = n, and 2m <= n.
REGION_CONFIGS = ((2, 3), (4, 4), (1, 3))

MASK = re.compile(r'("relative_error":\s*)[^,}]+')

#: A data row of ``simulate --format csv``: its third and fourth cells are
#: the decode errors.
CSV_ROW = re.compile(r"^(\d+,\d+,)[^,]*,[^,]*,", re.MULTILINE)


def calls():
    """Every argv: simulate configurations first, each once, in workload
    order, then their CSV and no-oracle runs, the refusal, the region and
    table calls, and the verify suites."""
    workload = list(dict.fromkeys(
        op for ops in WORKLOADS.values() for op in ops if isinstance(op, Config)))
    unique = list(dict.fromkeys(workload + list(EXTRA)))
    out = [cfg.argv(seed) for cfg in unique for seed in SEEDS]
    out += [cfg.argv(SEEDS[0]) + extra for cfg in workload
            for extra in (["--format", "csv"], ["--no-oracle"])]
    out.append(["simulate", "--scheme", "A", "--M", "2", "--N", "3", "--model", "asym-fb"])
    for fmt in ("json", "csv"):
        out += [["region", "--M", str(m), "--N", str(n), "--model", model, "--format", fmt]
                for model in cli.MODEL_KEYS + ("dof",) for m, n in REGION_CONFIGS]
        out.append(["table", "--N", "4", "--M-max", "8", "--format", fmt])
    return out + [VerifySuite().argv(seed) for seed in SEEDS]


def run(argv):
    """``(exit code, stdout, stderr)`` of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def main():
    for argv in calls():
        code, stdout, stderr = run(argv)
        print("$ " + " ".join(argv))
        print(f"exit {code}")
        print("sha256 " + hashlib.sha256(stdout.encode()).hexdigest())
        masked = CSV_ROW.sub(r"\1*,*,", MASK.sub(r"\1*", stdout))
        print(masked, end="" if masked.endswith("\n") else "\n")
        if stderr:
            print("stderr " + stderr, end="" if stderr.endswith("\n") else "\n")


if __name__ == "__main__":
    main()
