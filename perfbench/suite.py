"""Result sets of the xsdof benchmark: run them, compare two, tabulate stages.

    python3 perfbench/suite.py run --seeds 1 2 3 --out base.jsonl
    python3 perfbench/suite.py compare base.jsonl new.jsonl
    python3 perfbench/suite.py stages traced.jsonl

``run`` executes ``run.py`` once per seed and workload, each in its own
process for BENCHMARK.json's ``run_seconds``, appends one record per run to
``--out`` and prints every metric's median, quartiles and spread against the
bound in BENCHMARK.json.  With
``--trace 1`` it collects traced records instead, which ``stages`` turns
into the per-(scheme, m, n) stage table.  ``compare`` applies the rule of
the benchmark's README to two result sets of the same workloads.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Reported in each record but not gated: failed_frac reads 0 on a correct
#: build and op_p90_ms exists only on workloads with 100 ops or more.
EXTRAS = ("failed_frac", "op_p90_ms")


@functools.cache
def spec() -> dict:
    """BENCHMARK.json at the repository root."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def workload_names() -> list[str]:
    return [w["name"] for w in spec()["workloads"]]


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def load(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def entry(record: dict, metric: str):
    """A metric's ``{"value", "unit"}``, the reason it was omitted, or None."""
    return record["metrics"].get(metric, record.get("extra", {}).get(metric))


def series(records, workload: str, metric: str) -> dict[int, float]:
    """Seed -> value of one metric on one workload (extras included)."""
    return {r["seed"]: entry(r, metric)["value"] for r in records
            if r["workload"] == workload and isinstance(entry(r, metric), dict)}


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def run_one(workload: str, seed: int, trace: int) -> dict:
    cmd = spec()["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec()["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    record["correct"] = result["correct"]
    return record


def print_table(records):
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    workloads = sorted({r["workload"] for r in records}, key=workload_names().index)
    print(f"{'workload':16} {'metric':12} {'unit':5} {'runs':>4} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for w in workloads:
        rows = [r for r in records if r["workload"] == w]
        for name in [*bounds, *EXTRAS]:
            values = list(series(rows, w, name).values())
            if not values:
                print(f"{w:16} {name:12} {'':5} {0:>4} {entry(rows[0], name)}")
                continue
            q1, med, q3 = quartiles(values)
            unit = next(entry(r, name)["unit"] for r in rows if isinstance(entry(r, name), dict))
            bound = bounds.get(name, float("nan"))
            sp = (q3 - q1) / med if med else 0.0
            print(f"{w:16} {name:12} {unit:5} {len(values):>4} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {sp:>7.3f} {bound:>6.2f}")


def cmd_run(args) -> int:
    records = []
    for seed in args.seeds:
        for workload in workload_names():
            record = run_one(workload, seed, args.trace)
            records.append(record)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(record) + "\n")
            print(f"# {workload} seed {seed}: correct={record['correct']} "
                  f"attempted={record['attempted']} failed={record['failed']}", file=sys.stderr)
    if not args.trace:
        print_table(records)
    return 0 if all(r["correct"] for r in records) else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound: float | None):
    """Compare two sides of one workload x metric; returns (wins, pairs, verdict).

    Runs pair by seed.  A gain needs the new side to win nine tenths of the
    pairs, ties counting for neither, and the medians to differ by more than
    the base side's inter-quartile distance.  A regression is a median worse
    by more than the bound.  Where either side spreads wider than the bound
    the result is unresolved, unless every new run beats every base run.
    """
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(base) & set(new))
    wins = sum(sign * (new[s] - base[s]) > 0 for s in seeds)
    bq1, bmed, bq3 = quartiles(list(base.values()))
    _, nmed, _ = quartiles(list(new.values()))
    worse_by = sign * (bmed - nmed) / abs(bmed) if bmed else 0.0
    if seeds and wins >= 0.9 * len(seeds) and abs(nmed - bmed) > bq3 - bq1 and worse_by < 0:
        return wins, len(seeds), "gain"
    if bound is None:
        return wins, len(seeds), "info"
    if worse_by > bound:
        return wins, len(seeds), f"regression ({worse_by:+.1%} > {bound:.0%})"
    if max(spread(list(base.values())), spread(list(new.values()))) > bound:
        if min(sign * v for v in new.values()) > max(sign * v for v in base.values()):
            return wins, len(seeds), "better in every run"
        return wins, len(seeds), "unresolved (spread wider than bound)"
    return wins, len(seeds), "within bound"


def cmd_compare(args) -> int:
    base, new = load(args.base), load(args.new)
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec()["end_to_end"]]
    metrics += [("op_p90_ms", "lower", None), ("failed_frac", "lower", None)]
    print(f"{'workload':16} {'metric':12} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'wins':>6}  verdict")
    regressions = 0
    for w in workload_names():
        for name, better, bound in metrics:
            b, n = series(base, w, name), series(new, w, name)
            if not b or not n:
                continue
            wins, pairs, v = verdict(b, n, better, bound)
            regressions += v.startswith("regression")
            fmt = lambda s: "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(list(s.values())))
            print(f"{w:16} {name:12} {fmt(b):>34} {fmt(n):>34} {wins:>3}/{pairs:<2}  {v}")
    return 1 if regressions else 0


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def cmd_stages(args) -> int:
    """Markdown stage table from traced records: medians across runs."""
    rows: dict[str, list[dict]] = {}
    for r in load(args.records):
        for label, stage in r.get("breakdown", {}).items():
            rows.setdefault(label, []).append(stage)
    print("| config | traced ops | op | encode | decode (both rx) | rank report "
          "| oracle (both rx) | SVD calls | largest SVD (cells) |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    med = lambda stages, key: statistics.median(s[key] for s in stages)
    for label, stages in rows.items():
        ms = lambda key: f"{1e3 * med(stages, key):.1f} ms"
        print(f"| {label} | {sum(s['ops'] for s in stages)} | {ms('op_s')} | {ms('encode_s')} "
              f"| {ms('decode_s')} | {ms('rank_report_s')} | {ms('oracle_s')} "
              f"| {med(stages, 'svd_calls'):g} | {max(s['svd_max_cells'] for s in stages)} |")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run the benchmark over seeds and workloads")
    r.add_argument("--seeds", nargs="+", type=int, default=[1])
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", help="append one JSON record per run to this file")
    r.set_defaults(func=cmd_run)
    c = sub.add_parser("compare", help="compare two result sets")
    c.add_argument("base")
    c.add_argument("new")
    c.set_defaults(func=cmd_compare)
    s = sub.add_parser("stages", help="stage table from traced records")
    s.add_argument("records")
    s.set_defaults(func=cmd_stages)
    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
