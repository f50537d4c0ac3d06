"""Print the exact outputs of a fixed set of CLI calls, to diff two checkouts.

Runs ``xsdof.cli.main`` in-process on every ``simulate`` configuration of
the benchmark's three workloads (``perfbench/workloads.py``), plus A(3,4),
D(3,5) and E(3,5), at seeds 1 to 3, and on ``verify --suite all --trials
2`` at seeds 1 to 3.  For each call it prints the arguments, the exit code,
the sha256 of the raw stdout, and the stdout with every
``relative_error`` value masked: the decode error is round-off, the one
output that is not exact.

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

MASK = re.compile(r'("relative_error":\s*)[^,}]+')


def calls():
    """Every argv, simulate configurations first, each once, in workload order."""
    configs = [op for ops in WORKLOADS.values() for op in ops if isinstance(op, Config)]
    unique = list(dict.fromkeys(configs + list(EXTRA)))
    out = [cfg.argv(seed) for cfg in unique for seed in SEEDS]
    return out + [VerifySuite().argv(seed) for seed in SEEDS]


def run(argv):
    """``(exit code, stdout)`` of one in-process call."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, buf.getvalue()


def main():
    for argv in calls():
        code, stdout = run(argv)
        print("$ " + " ".join(argv))
        print(f"exit {code}")
        print("sha256 " + hashlib.sha256(stdout.encode()).hexdigest())
        print(MASK.sub(r"\1*", stdout), end="" if stdout.endswith("\n") else "\n")


if __name__ == "__main__":
    main()
