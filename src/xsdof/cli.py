"""Command-line front end: region queries, scheme simulation, verification.

Four subcommands::

    xsdof region   --M 2 --N 3 --model asym-fb-dcsit [--format json|csv]
    xsdof simulate --scheme A --M 2 --N 3 --trials 100 [--seed 7] [...]
    xsdof table    --N 4 --M-max 8 [--format json|csv]
    xsdof verify   --suite all [--seed 3]

Exit codes: 0 success, 2 usage error, 3 regime/domain refusal, 4 invariant
failure.  JSON output is canonical and byte-deterministic for identical
flags and seed: exact values appear as ``{"num": ..., "den": ...}`` objects,
keys are emitted in fixed order, and wall-clock timings are deliberately
kept out of it (they live on the Python-level report objects only).  The
``XSDOF_SEED`` environment variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import matcore, regions, schemes, verify
from .channel import AntennaConfig, FeedbackModel
from .errors import (
    DecodeFailure,
    IllConditioned,
    InvalidInput,
    RegimeError,
    SingularSystem,
)
from .knowledge import Node
from .regions import frac_json
from .schemes import SchemeId

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGIME = 3
EXIT_INVARIANT = 4

MODEL_KEYS = tuple(m.value for m in FeedbackModel)


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


@dataclass
class TrialReport:
    """Outcome of one seeded scheme trial.

    ``wall_time_s`` is informational only and never serialized, so that
    identical flags and seed produce byte-identical output.
    """

    scheme: SchemeId
    m: int
    n: int
    model: FeedbackModel
    seed: int
    attempts: int
    plan: schemes.PhasePlan
    decode_ok_rx1: bool
    decode_ok_rx2: bool
    decode_err_rx1: float | None
    decode_err_rx2: float | None
    secrecy: verify.SecrecyReport
    oracle_rx1: bool | None
    oracle_rx2: bool | None
    dof_rx1: Fraction | None
    dof_rx2: Fraction | None
    wall_time_s: float

    @property
    def decode_ok(self) -> bool:
        return self.decode_ok_rx1 and self.decode_ok_rx2

    def to_jsonable(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "config": {"m": self.m, "n": self.n},
            "model": self.model.value,
            "seed": self.seed,
            "attempts": self.attempts,
            "plan": {
                "phase_lengths": list(self.plan.phase_lengths),
                "symbols_per_receiver": self.plan.symbols_per_receiver,
            },
            "decode": {
                "rx1": {"ok": self.decode_ok_rx1, "relative_error": self.decode_err_rx1},
                "rx2": {"ok": self.decode_ok_rx2, "relative_error": self.decode_err_rx2},
            },
            "secrecy": self.secrecy.to_jsonable(),
            "subspace_oracle": {"rx1": self.oracle_rx1, "rx2": self.oracle_rx2},
            "empirical_dof": None
            if self.dof_rx1 is None
            else {"rx1": frac_json(self.dof_rx1), "rx2": frac_json(self.dof_rx2)},
        }


def run_trial(
    scheme: SchemeId,
    config: AntennaConfig,
    model: FeedbackModel | None = None,
    seed: int = 0,
    mutation: str | None = None,
    tx1_only: bool = False,
    with_oracle: bool = True,
    max_resamples: int = 8,
) -> TrialReport:
    """One seeded trial: run, decode, rank report, subspace oracle, DoF.

    Null-set channel draws (singular or ill-conditioned solve) are resampled
    with a derived seed, as the almost-sure rank statements permit; a decode
    residual above tolerance is reported, never resampled.
    """
    t_start = time.perf_counter()
    if model is None:
        model = schemes.variant(scheme, tx1_only).model
    trial_seed = seed
    for attempt in range(1, max_resamples + 1):
        transcript = schemes.run(
            scheme, config, model, seed=trial_seed, mutation=mutation, tx1_only=tx1_only
        )
        errs: dict[Node, float | None] = {}
        resample = False
        for receiver in (Node.RX1, Node.RX2):
            try:
                errs[receiver] = verify.decode_error(transcript, receiver)
            except (SingularSystem, IllConditioned):
                if mutation is None:
                    resample = True
                    break
                errs[receiver] = None
            except DecodeFailure:
                errs[receiver] = None
        if resample:
            trial_seed = _resample_seed(seed, attempt)
            continue
        break
    else:  # pragma: no cover - would need max_resamples null-set draws in a row
        raise SingularSystem(f"trial for seed {seed} kept drawing singular systems")

    report = verify.secrecy_rank_report(transcript)
    oracle_rx1 = oracle_rx2 = None
    if with_oracle:
        oracle_rx1 = verify.equivocation_subspace_check(transcript, Node.RX1)
        oracle_rx2 = verify.equivocation_subspace_check(transcript, Node.RX2)
    ok1 = errs[Node.RX1] is not None and errs[Node.RX1] <= schemes.DECODE_TOL
    ok2 = errs[Node.RX2] is not None and errs[Node.RX2] <= schemes.DECODE_TOL
    dof1 = dof2 = None
    if ok1 and ok2:
        dof1 = dof2 = transcript.plan.dof_target()
    return TrialReport(
        scheme=scheme,
        m=config.m,
        n=config.n,
        model=model,
        seed=seed,
        attempts=attempt,
        plan=transcript.plan,
        decode_ok_rx1=ok1,
        decode_ok_rx2=ok2,
        decode_err_rx1=errs[Node.RX1],
        decode_err_rx2=errs[Node.RX2],
        secrecy=report,
        oracle_rx1=oracle_rx1,
        oracle_rx2=oracle_rx2,
        dof_rx1=dof1,
        dof_rx2=dof2,
        wall_time_s=time.perf_counter() - t_start,
    )


def _resample_seed(seed: int, attempt: int) -> int:
    """Derived seed for a null-set resample, independent of the original."""
    return int(matcore.substream(seed, "resample", attempt).integers(2**62))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_region(args) -> int:
    if args.model == "dof":
        polygon = regions.dof_region(args.M, args.N)
    else:
        polygon = regions.sdof_region(args.M, args.N, args.model)
    if args.format == "json":
        print(_dumps(polygon.to_jsonable()))
        return EXIT_OK
    print("point,x_exact,y_exact,x,y")
    for name, (x, y) in sorted(polygon.labels.items()):
        print(f"{name},{x},{y},{float(x):.12g},{float(y):.12g}")
    for i, (x, y) in enumerate(polygon.vertices):
        print(f"vertex_{i},{x},{y},{float(x):.12g},{float(y):.12g}")
    return EXIT_OK


def _scheme_invariants_ok(reports: list[TrialReport], leakage: str) -> tuple[bool, list[str]]:
    """The runtime invariants a simulation batch must satisfy under its leakage claim."""
    problems = []
    if not all(r.decode_ok for r in reports):
        problems.append("decode failed on at least one trial")
    target = reports[0].plan.dof_target()
    if any(r.dof_rx1 != target or r.dof_rx2 != target for r in reports if r.decode_ok):
        problems.append("empirical DoF differs from the plan target")
    if leakage == "zero":
        if any(r.secrecy.leak_defect_rx1 or r.secrecy.leak_defect_rx2 for r in reports):
            problems.append("nonzero leakage defect")
        if any(
            r.secrecy.rate_rank_rx1 != r.secrecy.rate_target
            or r.secrecy.rate_rank_rx2 != r.secrecy.rate_target
            for r in reports
        ):
            problems.append("rate rank below target")
        if any(r.oracle_rx1 is False or r.oracle_rx2 is False for r in reports):
            problems.append("subspace oracle rejected a trial")
    if leakage == "positive":
        if any(
            r.secrecy.leak_defect_rx1 == 0 or r.secrecy.leak_defect_rx2 == 0 for r in reports
        ):
            problems.append("negative control: expected positive leakage defect")
    # report/oracle agreement is scheme-agnostic
    for r in reports:
        if r.oracle_rx1 is None:
            continue
        if (r.secrecy.leak_defect_rx2 == 0) != r.oracle_rx2 or (
            r.secrecy.leak_defect_rx1 == 0
        ) != r.oracle_rx1:
            problems.append("rank report and subspace oracle disagree")
            break
    return not problems, problems


def _cmd_simulate(args) -> int:
    scheme = SchemeId(args.scheme)
    config = AntennaConfig(args.M, args.N)
    model = FeedbackModel.from_key(args.model) if args.model else None
    schemes.plan(scheme, config)  # raises RegimeError before any work
    reports = []
    for i in range(args.trials):
        reports.append(
            run_trial(
                scheme,
                config,
                model,
                seed=args.seed + i,
                tx1_only=args.tx1_only,
                with_oracle=not args.no_oracle,
            )
        )
    ok, problems = _scheme_invariants_ok(reports, schemes.variant(scheme, args.tx1_only).leakage)
    summary = {
        "scheme": scheme.value,
        "config": {"m": args.M, "n": args.N},
        "trials": args.trials,
        "decode_success_rate": sum(r.decode_ok for r in reports) / len(reports),
        "max_leak_defect": max(
            max(r.secrecy.leak_defect_rx1, r.secrecy.leak_defect_rx2) for r in reports
        ),
        "empirical_dof": None
        if reports[0].dof_rx1 is None
        else {"rx1": frac_json(reports[0].dof_rx1), "rx2": frac_json(reports[0].dof_rx2)},
        "invariants_ok": ok,
        "problems": problems,
    }
    if scheme is SchemeId.C:
        corner = regions.symmetric_corner(args.M, args.N, regions.ASYM_FB)
        summary["inner_bound_discrepancy"] = {
            "flagged": corner.discrepancy,
            "scheme_point": frac_json(corner.point[0]),
            "intersection_point": frac_json(corner.intersection_point[0]),
        }
    if args.format == "json":
        for r in reports:
            print(_dumps(r.to_jsonable()))
        print(_dumps({"summary": summary}))
    else:
        print("seed,decode_ok,decode_err_rx1,decode_err_rx2,rate_rank_rx1,rate_rank_rx2,"
              "leak_defect_rx1,leak_defect_rx2,dof_exact,dof")
        for r in reports:
            dof = r.dof_rx1
            print(
                f"{r.seed},{int(r.decode_ok)},{r.decode_err_rx1},{r.decode_err_rx2},"
                f"{r.secrecy.rate_rank_rx1},{r.secrecy.rate_rank_rx2},"
                f"{r.secrecy.leak_defect_rx1},{r.secrecy.leak_defect_rx2},"
                f"{dof if dof is not None else ''},"
                f"{float(dof) if dof is not None else ''}"
            )
    return EXIT_OK if ok else EXIT_INVARIANT


def _cmd_table(args) -> int:
    rows = regions.table1(args.N, range(1, args.M_max + 1))
    if args.format == "json":
        print(_dumps({"n": args.N, "rows": [r.to_jsonable() for r in rows]}))
        return EXIT_OK
    print("m,total_sdof_exact,total_sdof,total_dof_fb_dcsit_exact,total_dof_fb_dcsit,"
          "total_dof_no_fb_no_csit_exact,total_dof_no_fb_no_csit")
    for r in rows:
        print(
            f"{r.m},{r.total_sdof},{float(r.total_sdof):.12g},"
            f"{r.total_dof_fb_dcsit},{float(r.total_dof_fb_dcsit):.12g},"
            f"{r.total_dof_no_csit},{float(r.total_dof_no_csit):.12g}"
        )
    return EXIT_OK


def _suite_ranks(seed: int, trials: int) -> list[tuple[str, bool, str]]:
    matrix = [
        (SchemeId.A, 2, 3),
        (SchemeId.A, 3, 4),
        (SchemeId.B, 1, 1),
        (SchemeId.B, 4, 4),
        (SchemeId.C, 2, 3),
        (SchemeId.D, 2, 3),
        (SchemeId.E, 2, 3),
    ]
    checks = []
    for scheme, m, n in matrix:
        reports = [
            run_trial(scheme, AntennaConfig(m, n), seed=seed + i) for i in range(trials)
        ]
        rate_ok = all(
            r.secrecy.rate_rank_rx1 == r.secrecy.rate_target
            and r.secrecy.rate_rank_rx2 == r.secrecy.rate_target
            for r in reports
        )
        checks.append((f"rate ranks {scheme.value}({m},{n})", rate_ok, f"{trials} trials"))
        agree = all(
            ((r.secrecy.leak_defect_rx2 == 0) == r.oracle_rx2)
            and ((r.secrecy.leak_defect_rx1 == 0) == r.oracle_rx1)
            for r in reports
        )
        checks.append((f"report/oracle agreement {scheme.value}({m},{n})", agree, ""))
        leakage = schemes.variant(scheme).leakage
        if leakage == "zero":
            leak_ok = all(
                r.secrecy.leak_defect_rx1 == 0 and r.secrecy.leak_defect_rx2 == 0
                for r in reports
            )
            checks.append((f"zero leakage {scheme.value}({m},{n})", leak_ok, ""))
        if leakage == "positive":
            neg_ok = all(
                r.secrecy.leak_defect_rx1 > 0 and r.secrecy.leak_defect_rx2 > 0
                for r in reports
            )
            checks.append((f"negative control E({m},{n})", neg_ok, ""))
    return checks


def _suite_mutants(seed: int, seeds: int = 20) -> list[tuple[str, bool, str]]:
    config = AntennaConfig(2, 3)
    checks = []
    for mutation in schemes.MUTATIONS:
        caught = all(
            verify.run_mutant(config, seed + i, mutation).caught for i in range(seeds)
        )
        checks.append((f"mutant {mutation} caught", caught, f"{seeds} seeds"))
    return checks


def _suite_nesting() -> list[tuple[str, bool, str]]:
    checks = []
    contained = True
    for m in range(1, 7):
        for n in range(1, 7):
            inner = regions.sdof_region(m, n, regions.ASYM_FB)
            middle = regions.sdof_region(m, n, regions.ASYM_FB_DCSIT)
            outer = regions.dof_region(m, n)
            if not (middle.contains_polygon(inner) and outer.contains_polygon(middle)):
                contained = False
    checks.append(("region nesting 1..6", contained, "asym-fb ⊆ asym-fb-dcsit ⊆ dof"))
    mid = lambda n, mp: Fraction(n * mp * (mp - n), n * n + mp * (mp - n))
    ds_cont = all(
        regions.ds(n, n) == mid(n, n) == 0
        and regions.ds(n, 2 * n) == mid(n, 2 * n) == Fraction(2 * n, 3)
        and regions.ds(n, 2 * n + 1) == Fraction(2 * n, 3)
        for n in range(1, 7)
    )
    checks.append(("ds branch continuity", ds_cont, "boundaries m'=n and m'=2n"))
    dsl_low = all(regions.ds_local(n, n) == 0 for n in range(1, 7))
    checks.append(("ds_local continuity at m'=n", dsl_low, ""))
    # ds_local's middle branch does not meet 2n/3 at m'=2n (known formula jump,
    # 4n/7 vs 2n/3); the saturation branch wins there per its pinned values.
    dsl_pin = all(regions.ds_local(n, 2 * n) == Fraction(2 * n, 3) for n in range(1, 7))
    checks.append(("ds_local saturation at m'=2n", dsl_pin, "middle branch jump is documented"))
    return checks


def _cmd_verify(args) -> int:
    checks = []
    if args.suite in ("ranks", "all"):
        checks += _suite_ranks(args.seed, trials=args.trials)
    if args.suite in ("mutants", "all"):
        checks += _suite_mutants(args.seed)
    if args.suite in ("nesting", "all"):
        checks += _suite_nesting()
    ok = True
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{status} {name}{suffix}")
        ok &= passed
    return EXIT_OK if ok else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xsdof",
        description="Secure degrees-of-freedom toolkit for the two-user MIMO X-channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_seed = int(os.environ.get("XSDOF_SEED", "0"))

    p = sub.add_parser("region", help="evaluate a (secure) DoF region exactly")
    p.add_argument("--M", type=int, required=True, help="transmit antennas per transmitter")
    p.add_argument("--N", type=int, required=True, help="receive antennas per receiver")
    p.add_argument("--model", choices=MODEL_KEYS + ("dof",), default="asym-fb-dcsit")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("simulate", help="run seeded scheme trials with verification")
    p.add_argument("--scheme", choices=[s.value for s in SchemeId], required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--model", choices=MODEL_KEYS, default=None)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--tx1-only", action="store_true", dest="tx1_only",
                   help="scheme C run mode with all reconstructions at transmitter 1")
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the subspace oracle (rank report is always computed)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("table", help="total-(S)DoF comparison table for fixed N")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M-max", type=int, required=True, dest="M_max")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("--suite", choices=("ranks", "mutants", "nesting", "all"), required=True)
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--trials", type=int, default=10, help="trials per configuration (ranks suite)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trials", 1) < 1:
        parser.error("--trials must be >= 1")
    if getattr(args, "M_max", 1) < 1:
        parser.error("--M-max must be >= 1")
    try:
        return args.func(args)
    except InvalidInput as e:
        parser.error(str(e))  # exits 2
    except RegimeError as e:
        print(f"regime refusal: {e}", file=sys.stderr)
        return EXIT_REGIME


if __name__ == "__main__":
    sys.exit(main())
