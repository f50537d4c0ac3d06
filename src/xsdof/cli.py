"""Command-line front end: region queries, scheme simulation, verification.

Four subcommands::

    xsdof region   --M 2 --N 3 --model asym-fb-dcsit [--format json|csv]
    xsdof simulate --scheme A --M 2 --N 3 --trials 100 [--seed 7] [...]
    xsdof table    --N 4 --M-max 8 [--format json|csv]
    xsdof verify   --suite all [--seed 3]

Exit codes: 0 success, 1 stdout closed early (``__main__.entry``), 2 usage
error, 3 regime/domain refusal, a scheme/model mismatch or a configuration
whose estimated peak memory exceeds :data:`MEMORY_BUDGET`, 4 invariant
failure.  JSON output is canonical and byte-deterministic for identical
flags and seed: exact values appear as ``{"num": ..., "den": ...}`` objects,
keys are emitted in fixed order, and wall-clock timings are deliberately
kept out of it (they live on the Python-level report objects only).  The
``XSDOF_SEED`` environment variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

from . import regions, schemes, verify
from .channel import AntennaConfig, FeedbackModel
from .errors import InvalidInput, RegimeError, UnauthorizedAccess
from .regions import frac_json
from .schemes import SchemeId
from .verify import run_trial

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGIME = 3
EXIT_INVARIANT = 4

MODEL_KEYS = tuple(m.value for m in FeedbackModel)

#: Estimated peak bytes above which ``simulate`` refuses a configuration
#: (``schemes.peak_bytes``): half of an 8 GB desk machine.
MEMORY_BUDGET = 4 * 2**30


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _seed(text: str) -> int:
    """A seed from ``--seed`` or ``XSDOF_SEED``: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer (--seed or XSDOF_SEED), got {text!r}"
        )
    return seed


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


def _cmd_simulate(args) -> int:
    scheme = SchemeId(args.scheme)
    config = AntennaConfig(args.M, args.N)
    schemes.plan(schemes.variant(scheme), config)  # refuses a regime before a missing mode
    spec = schemes.variant(scheme, args.tx1_only)
    if args.model:
        spec = replace(spec, model=FeedbackModel(args.model))
    need = schemes.peak_bytes(schemes.plan(spec, config), config)
    if need > MEMORY_BUDGET:
        print(f"resource refusal: {scheme.value}({args.M},{args.N}) needs about "
              f"{need / 2**30:.1f} GiB per trial, over the {MEMORY_BUDGET / 2**30:.0f} GiB budget",
              file=sys.stderr)
        return EXIT_REGIME
    try:
        reports = [
            run_trial(spec, config, seed=args.seed + i, with_oracle=not args.no_oracle)
            for i in range(args.trials)
        ]
    except UnauthorizedAccess as e:
        if not args.model:  # a row's own model grants every read: a fault
            raise
        print(f"model refusal: scheme {scheme.value} cannot run under {spec.model.value}: {e}",
              file=sys.stderr)
        return EXIT_REGIME
    problems = [] if all(r.decode_ok for r in reports) else ["decode failed"]
    problems += [name for name, passed in verify.claim_checks(reports, spec.leakage) if not passed]
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
        "invariants_ok": not problems,
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
    return EXIT_INVARIANT if problems else EXIT_OK


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
        spec = schemes.variant(scheme)
        reports = [run_trial(spec, AntennaConfig(m, n), seed=seed + i) for i in range(trials)]
        for name, passed in verify.claim_checks(reports, spec.leakage):
            detail = f"{trials} trials" if name == "rate ranks" else ""
            checks.append((f"{name} {scheme.value}({m},{n})", passed, detail))
    return checks


def _suite_mutants(seed: int, seeds: int = 20) -> list[tuple[str, bool, str]]:
    config = AntennaConfig(2, 3)
    checks = []
    for mutation in schemes.MUTATIONS:
        caught = all(verify.run_mutant(config, seed + i, mutation) for i in range(seeds))
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


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, tuple[argparse.ArgumentParser, ...]]:
    """The argparse tree, built on the first call and then reused.

    Returns the parser and the ``simulate`` and ``verify`` subparsers,
    whose ``--seed`` default :func:`main` sets from ``XSDOF_SEED`` on every
    call.  Nothing builds it at import, so ``import xsdof.cli`` stays cheap.
    """
    parser = argparse.ArgumentParser(
        prog="xsdof",
        description="Secure degrees-of-freedom toolkit for the two-user MIMO X-channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("region", help="evaluate a (secure) DoF region exactly")
    p.add_argument("--M", type=int, required=True, help="transmit antennas per transmitter")
    p.add_argument("--N", type=int, required=True, help="receive antennas per receiver")
    p.add_argument("--model", choices=MODEL_KEYS + ("dof",), default="asym-fb-dcsit")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_region)

    simulate = p = sub.add_parser("simulate", help="run seeded scheme trials with verification")
    p.add_argument("--scheme", choices=[s.value for s in SchemeId], required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--model", choices=MODEL_KEYS, default=None)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=_seed)
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

    verify_p = p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("--suite", choices=("ranks", "mutants", "nesting", "all"), required=True)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--trials", type=int, default=10, help="trials per configuration (ranks suite)")
    p.set_defaults(func=_cmd_verify)
    return parser, (simulate, verify_p)


def main(argv=None) -> int:
    parser, seeded = build_parser()
    # a string default goes through _seed too, so a bad XSDOF_SEED is a usage error
    default_seed = os.environ.get("XSDOF_SEED", "0")
    for p in seeded:
        p.set_defaults(seed=default_seed)
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
