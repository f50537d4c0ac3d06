"""Workload definitions and the exact output checker.

A workload is a cycle of CLI calls (``argv`` lists).  The benchmark repeats
the cycle with a fresh per-op seed drawn from the workload seed, so the same
workload seed always yields the same calls.  Every call's exit code and
stdout are checked exactly; a call that fails any check counts as failed.

The expected values below do not come from the program: DoF targets are the
closed-form per-receiver rates of the schemes (A/D: n(2m-n)/2m, B: n/2,
C: m^2(2m-n)/(4m^2-3mn+n^2), E: 2mn/(2m+n)), and the scheme-C leak
defects are pinned to what the code produced when the benchmark was
defined, so a change that alters them shows as a failed op.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

#: Trials per configuration of the ranks suite in ``verify-suite``.
VERIFY_TRIALS = 2

#: Leak defect per receiver of scheme C, keyed by (m, n, tx1_only).  These are
#: the rank shortfalls the feedback-only construction exposes; they are
#: seed-independent.
C_LEAK_DEFECT = {(2, 3, False): 2, (2, 3, True): 2, (4, 5, False): 12}


@dataclass(frozen=True)
class Config:
    """One ``simulate`` configuration of a workload cycle."""

    scheme: str
    m: int
    n: int
    tx1_only: bool = False

    @property
    def label(self) -> str:
        return f"{self.scheme}({self.m},{self.n})" + ("tx1" if self.tx1_only else "")

    def argv(self, seed: int) -> list[str]:
        out = ["simulate", "--scheme", self.scheme, "--M", str(self.m), "--N", str(self.n),
               "--trials", "1", "--seed", str(seed)]
        return out + ["--tx1-only"] if self.tx1_only else out


@dataclass(frozen=True)
class VerifySuite:
    """One ``verify --suite all --trials VERIFY_TRIALS`` call."""

    @property
    def label(self) -> str:
        return "verify-all"

    def argv(self, seed: int) -> list[str]:
        return ["verify", "--suite", "all", "--seed", str(seed), "--trials", str(VERIFY_TRIALS)]


A23, B44, C23, C23T, D23, E23 = (
    Config("A", 2, 3), Config("B", 4, 4), Config("C", 2, 3),
    Config("C", 2, 3, True), Config("D", 2, 3), Config("E", 2, 3),
)

#: Each workload is one cycle of ops, repeated whole.  In ``acceptance-mix``
#: A(2,3) appears twice and D(2,3) three times, so that sorted by latency
#: (B < E < C ~ C-tx1 < D < A) the median falls inside D's band (44%-78%) and
#: the 90th percentile inside A's (78%-100%), not on a boundary between two
#: configurations.  ``ladder`` has five configurations once each, sorted by
#: latency E(4,4) < A(4,4) ~ C(4,5) < A(5,5) < A(6,6); whole cycles put the
#: median in the middle of the third one's band (40%-60%), inside the
#: A(4,4)/C(4,5) pair (20%-60%) and a tenth of the ops away from A(5,5).
WORKLOADS = {
    "acceptance-mix": (A23, D23, B44, C23, D23, C23T, A23, E23, D23),
    "ladder": (Config("A", 4, 4), Config("E", 4, 4), Config("A", 5, 5),
               Config("C", 4, 5), Config("A", 6, 6)),
    "verify-suite": (VerifySuite(),),
}


def op_seeds(workload_seed: int):
    """Endless stream of per-op CLI seeds derived from the workload seed."""
    rng = random.Random(workload_seed)
    while True:
        yield rng.randrange(2**31)


def expected_dof(scheme: str, m: int, n: int) -> Fraction:
    """Closed-form per-receiver DoF of a scheme (mid regime, m <= n for A/C/D/E)."""
    if scheme in ("A", "D"):
        return Fraction(n * (2 * m - n), 2 * m)
    if scheme == "B":
        return Fraction(n, 2)
    if scheme == "C":
        return Fraction(m * m * (2 * m - n), 4 * m * m - 3 * m * n + n * n)
    if scheme == "E":
        return Fraction(2 * m * n, 2 * m + n)
    raise ValueError(f"unknown scheme {scheme!r}")


def _frac(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def check_simulate(cfg: Config, seed: int, code, stdout: str) -> list[str]:
    """Every problem with one ``simulate --trials 1`` call; empty means correct."""
    if code != 0:
        return [f"exit code {code}"]
    lines = stdout.splitlines()
    if len(lines) != 2:
        return [f"expected 2 output lines, got {len(lines)}"]
    try:
        rec, summary = json.loads(lines[0]), json.loads(lines[1])["summary"]
        return _simulate_problems(cfg, seed, rec, summary)
    except (ValueError, KeyError, TypeError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"]


def _simulate_problems(cfg: Config, seed: int, rec: dict, summary: dict) -> list[str]:
    problems = []

    def want(cond, what):
        if not cond:
            problems.append(what)

    want(rec["scheme"] == cfg.scheme and rec["config"] == {"m": cfg.m, "n": cfg.n},
         "scheme or config differs from the request")
    want(rec["seed"] == seed, "seed differs from the request")
    want(rec["decode"]["rx1"]["ok"] is True and rec["decode"]["rx2"]["ok"] is True,
         "a receiver failed to decode")
    want(summary["decode_success_rate"] == 1.0, "decode success rate below 1")

    sec = rec["secrecy"]
    target = sec["rate_target"]
    want(sec["rate_rank_rx1"] == target and sec["rate_rank_rx2"] == target,
         "rate rank differs from the rate target")
    plan = rec["plan"]
    want(target == plan["symbols_per_receiver"], "rate target differs from the symbol budget")

    dof = expected_dof(cfg.scheme, cfg.m, cfg.n)
    want(Fraction(plan["symbols_per_receiver"], sum(plan["phase_lengths"])) == dof,
         "plan target differs from the closed-form DoF")
    emp = rec["empirical_dof"]
    want(emp is not None and _frac(emp["rx1"]) == dof and _frac(emp["rx2"]) == dof,
         "empirical DoF differs from the plan target")
    want(summary["empirical_dof"] == emp, "summary DoF differs from the trial's")

    oracle = rec["subspace_oracle"]
    for rx in ("rx1", "rx2"):
        want(oracle[rx] is (sec[f"leak_defect_{rx}"] == 0),
             f"rank report and subspace oracle disagree on {rx}")
    defects = (sec["leak_defect_rx1"], sec["leak_defect_rx2"])
    if cfg.scheme in ("A", "B", "D"):
        want(defects == (0, 0), "nonzero leak defect")
    elif cfg.scheme == "E":
        want(min(defects) > 0, "negative control E shows no leak defect")
    else:
        pinned = C_LEAK_DEFECT[(cfg.m, cfg.n, cfg.tx1_only)]
        want(defects == (pinned, pinned), f"scheme C leak defect {defects} != {pinned}")
    want(summary["max_leak_defect"] == max(defects), "summary leak defect differs")
    want(summary["invariants_ok"] is True and summary["problems"] == [],
         "runtime invariants failed")
    return problems


_RANK_MATRIX = (("A", 2, 3), ("A", 3, 4), ("B", 1, 1), ("B", 4, 4),
                ("C", 2, 3), ("D", 2, 3), ("E", 2, 3))


def expected_verify_lines(trials: int) -> list[str]:
    """The exact stdout of a passing ``verify --suite all --trials <trials>``."""
    lines = []
    for scheme, m, n in _RANK_MATRIX:
        cfg = f"{scheme}({m},{n})"
        lines.append(f"PASS rate ranks {cfg} ({trials} trials)")
        lines.append(f"PASS report/oracle agreement {cfg}")
        if scheme in ("A", "B", "D"):
            lines.append(f"PASS zero leakage {cfg}")
        if scheme == "E":
            lines.append(f"PASS negative control {cfg}")
    for mutation in ("theta1_zero", "phi1_zero", "skip_phase1"):
        lines.append(f"PASS mutant {mutation} caught (20 seeds)")
    lines += [
        "PASS region nesting 1..6 (asym-fb ⊆ asym-fb-dcsit ⊆ dof)",
        "PASS ds branch continuity (boundaries m'=n and m'=2n)",
        "PASS ds_local continuity at m'=n",
        "PASS ds_local saturation at m'=2n (middle branch jump is documented)",
    ]
    return lines


def check_verify(code, stdout: str) -> list[str]:
    """Every problem with one ``verify --suite all`` call; empty means correct."""
    problems = [] if code == 0 else [f"exit code {code}"]
    lines = stdout.splitlines()
    problems += [f"not passing: {line}" for line in lines if not line.startswith("PASS ")]
    if lines != expected_verify_lines(VERIFY_TRIALS):
        problems.append("output differs from the expected suite listing")
    return problems


def check(op, seed: int, code, stdout: str) -> list[str]:
    """Dispatch to the checker for the op's kind."""
    if isinstance(op, VerifySuite):
        return check_verify(code, stdout)
    return check_simulate(op, seed, code, stdout)
