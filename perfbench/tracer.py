"""Spans around the calls into each xsdof layer, recorded from outside it.

The tracer wraps the public functions of ``matcore``, ``channel``,
``knowledge``, ``schemes``, ``verify``, ``regions`` and ``cli`` for the
duration of one traced op and restores them afterwards.  Several modules
bind their callees with ``from ... import``, so a wrapper is installed under
every name, in every ``xsdof`` module, that refers to the original function:
the name where the caller looks it up.

A span holds its name, start, end, parent span and op id.  Spans stay in
flat arrays in memory and are written once, at the end of the run.  A
span's self time is its duration minus the time its children cover; within
one op the self times add up to the root span's duration.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from array import array
from time import perf_counter

#: Functions timed as spans, by module.
SPANNED = {
    "matcore": ("rank", "singular_values", "solve_square", "solve_full_column_rank",
                "block_diag", "random_matrix", "random_vector", "substream"),
    "channel": ("generate_states", "lift_phase", "lift_rows"),
    "knowledge": ("recover_peer_inputs", "rebuild_receiver_output"),
    "schemes": ("run", "draw_precoders", "decode", "linear_response"),
    "verify": ("secrecy_rank_report", "equivocation_subspace_check", "decode_error",
               "run_mutant"),
    "regions": ("ds", "ds_local", "sdof_region", "dof_region", "symmetric_corner",
                "dof_symmetric_corner", "total_sdof", "total_dof_fb_dcsit",
                "total_dof_no_csit", "table1"),
    "cli": ("run_trial",),
}

#: Functions called too often for a span; only their calls are counted.
COUNTED = {"matcore": ("as_matrix",), "channel": ("apply_channel",)}

#: Span families: a family's time is the summed duration of its outermost
#: spans (a span nested in another of the same family is not counted twice),
#: and its call count is the number of those outermost spans.
FAMILIES = {
    "matcore.rank": ("matcore.rank",),
    "matcore.solve": ("matcore.solve_square", "matcore.solve_full_column_rank"),
    "matcore.block_diag": ("matcore.block_diag",),
    "matcore.random": ("matcore.random_matrix", "matcore.random_vector", "matcore.substream"),
    "channel.generate_states": ("channel.generate_states",),
    "channel.lift": ("channel.lift_phase", "channel.lift_rows"),
    "knowledge.advance_slot": ("knowledge.advance_slot",),
    "knowledge.reconstruct": ("knowledge.recover_peer_inputs",
                              "knowledge.rebuild_receiver_output"),
    "schemes.run": ("schemes.run",),
    "schemes.draw_precoders": ("schemes.draw_precoders",),
    "schemes.decode": ("schemes.decode",),
    "schemes.linear_response": ("schemes.linear_response",),
    "verify.rank_report": ("verify.secrecy_rank_report",),
    "verify.oracle": ("verify.equivocation_subspace_check",),
    "verify.decode_error": ("verify.decode_error",),
    "verify.run_mutant": ("verify.run_mutant",),
    "regions": tuple(f"regions.{f}" for f in SPANNED["regions"]),
    "cli.run_trial": ("cli.run_trial",),
}

FAMILY_OF = {name: fam for fam, members in FAMILIES.items() for name in members}

ROOT = "cli.main"


def svd_flop(rows: int, cols: int, vectors: bool) -> float:
    """Computed flop count of one complex SVD (Golub & Van Loan, Table 8.6.1).

    Real counts for a tall ``p x q`` matrix: singular values only
    ``4pq^2 - 4q^3/3``; with thin ``U`` and ``V`` ``14pq^2 + 8q^3``.  Complex
    arithmetic costs about four real flops per flop.
    """
    p, q = max(rows, cols), min(rows, cols)
    real = 14 * p * q * q + 8 * q**3 if vectors else 4 * p * q * q - 4 * q**3 / 3
    return 4.0 * real


class Tracer:
    """Installs the wrappers for one op at a time and keeps every span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.op = -1
        self._first = 0
        self.counts = {f"{layer}.{a}": 0 for layer, attrs in COUNTED.items() for a in attrs}
        self._reset_op_state()
        self._patches = self._build_patches()

    # -- wrapping ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _svd_hook(self, vectors: bool):
        def before(args):
            shape = getattr(args[0], "shape", None)
            if shape is None or len(shape) != 2 or 0 in shape:
                return
            self.svd_calls += 1
            self.svd_flop += svd_flop(shape[0], shape[1], vectors)
            self.svd_max_cells = max(self.svd_max_cells, shape[0] * shape[1])

        return before

    def _keep_log(self, transcript):
        self.logs.append(transcript.knowledge.log)

    def _count_attempts(self, report):
        self.trials += 1
        self.attempts += report.attempts

    def _build_patches(self):
        """(namespace, attribute, original, wrapper) for every name to patch."""
        from xsdof import knowledge

        mods = {name: sys.modules[f"xsdof.{name}"] for name in SPANNED}
        hooks = {
            "matcore.singular_values": {"before": self._svd_hook(False)},
            "matcore.solve_square": {"before": self._svd_hook(True)},
            "matcore.solve_full_column_rank": {"before": self._svd_hook(True)},
            "schemes.run": {"after": self._keep_log},
            "cli.run_trial": {"after": self._count_attempts},
        }
        wrappers = {}
        for layer, attrs in SPANNED.items():
            for attr in attrs:
                fn = getattr(mods[layer], attr)
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = (fn, self.spanned(name, fn, **hooks.get(name, {})))
        for layer, attrs in COUNTED.items():
            for attr in attrs:
                fn = getattr(mods[layer], attr)
                wrappers[id(fn)] = (fn, self._counted(f"{layer}.{attr}", fn))

        patches = []
        for modname, module in list(sys.modules.items()):
            if modname != "xsdof" and not modname.startswith("xsdof."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((module, attr, value, hit[1]))
        kb = knowledge.KnowledgeBase
        advance = kb.advance_slot
        patches.append((kb, "advance_slot", advance,
                        self.spanned("knowledge.advance_slot", advance)))
        return patches

    def install(self):
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original, _ in self._patches:
            setattr(target, attr, original)

    # -- ops --------------------------------------------------------------

    def _reset_op_state(self):
        for key in self.counts:  # zeroed in place: the counting wrappers hold it
            self.counts[key] = 0
        self.svd_calls = 0
        self.svd_flop = 0.0
        self.svd_max_cells = 0
        self.logs: list = []
        self.trials = 0
        self.attempts = 0

    def begin_op(self):
        """Start a traced op: new op id, fresh counters, wrappers installed."""
        self.op += 1
        self._first = len(self.span_start)
        self._reset_op_state()
        self.install()

    def end_op(self, label: str, wall: float) -> dict:
        """Remove the wrappers and summarise the op's spans and counters.

        ``wall`` is the op's time measured around the root call; what it
        exceeds the self-time sum by is the op's unattributed remainder.
        """
        self.uninstall()
        lo, hi = self._first, len(self.span_start)
        names = [self.names[i] for i in self.span_name[lo:hi]]
        parents = [p - lo if p >= 0 else -1 for p in self.span_parent[lo:hi]]
        dur = [e - s for s, e in zip(self.span_start[lo:hi], self.span_end[lo:hi])]
        child = [0.0] * len(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        self_time = [d - c for d, c in zip(dur, child)]

        fam_s = dict.fromkeys(FAMILIES, 0.0)
        fam_calls = dict.fromkeys(FAMILIES, 0)
        for i, name in enumerate(names):
            fam = FAMILY_OF.get(name)
            if fam is None:
                continue
            p = parents[i]
            while p >= 0 and FAMILY_OF.get(names[p]) != fam:
                p = parents[p]
            if p < 0:
                fam_s[fam] += dur[i]
                fam_calls[fam] += 1

        granted = sum(rec.granted for log in self.logs for rec in log)
        total_reads = sum(len(log) for log in self.logs)
        return {
            "label": label,
            "wall": wall,
            "self_sum": sum(self_time),
            "root_self": sum(t for t, n in zip(self_time, names) if n == ROOT),
            "run_self": sum(t for t, n in zip(self_time, names) if n == "schemes.run"),
            "fam_s": fam_s,
            "fam_calls": fam_calls,
            "counts": dict(self.counts),
            "svd_calls": self.svd_calls,
            "svd_flop": self.svd_flop,
            "svd_max_cells": self.svd_max_cells,
            "reads_granted": granted,
            "reads_denied": total_reads - granted,
            "trials": self.trials,
            "attempts": self.attempts,
        }

    def dump(self, path):
        """Write every span, columnar, with times relative to the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        doc = {
            "names": self.names,
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "op": list(self.span_op),
            "start_s": [round(t - t0, 7) for t in self.span_start],
            "end_s": [round(t - t0, 7) for t in self.span_end],
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ops: list[dict], untraced_s: float, traced_s: float, cpu_util: float):
    """The per-layer metrics of a traced run, per op unless stated.

    Returns ``(metrics, notes)``; ``notes`` says why a metric reads zero
    where the workload never reaches that layer.
    """
    k = len(ops)
    fs = lambda fam: sum(o["fam_s"][fam] for o in ops) / k
    fc = lambda fam: sum(o["fam_calls"][fam] for o in ops) / k
    tot = lambda key: sum(o[key] for o in ops)
    wall = tot("wall")
    granted, denied = tot("reads_granted"), tot("reads_denied")
    m = {
        "matcore.svd_calls": (tot("svd_calls") / k, "count"),
        "matcore.svd_gflop": (tot("svd_flop") / k / 1e9, "GFLOP"),
        "matcore.svd_max_cells": (max(o["svd_max_cells"] for o in ops), "cells"),
        "matcore.rank_s": (fs("matcore.rank"), "s"),
        "matcore.solve_s": (fs("matcore.solve"), "s"),
        "matcore.as_matrix_calls": (sum(o["counts"]["matcore.as_matrix"] for o in ops) / k,
                                    "count"),
        "matcore.block_diag_calls": (fc("matcore.block_diag"), "count"),
        "matcore.block_diag_s": (fs("matcore.block_diag"), "s"),
        "matcore.random_s": (fs("matcore.random"), "s"),
        "channel.generate_states_s": (fs("channel.generate_states"), "s"),
        "channel.lift_calls": (fc("channel.lift"), "count"),
        "channel.lift_s": (fs("channel.lift"), "s"),
        "channel.apply_channel_calls": (
            sum(o["counts"]["channel.apply_channel"] for o in ops) / k, "count"),
        "knowledge.advance_slot_s": (fs("knowledge.advance_slot"), "s"),
        "knowledge.reconstruct_s": (fs("knowledge.reconstruct"), "s"),
        "knowledge.reads_granted": (granted / k, "count"),
        "knowledge.reads_denied": (denied / k, "count"),
        "knowledge.read_grant_ratio": (_ratio(granted, granted + denied), "ratio"),
        "schemes.run_self_s": (tot("run_self") / k, "s"),
        "schemes.draw_precoders_s": (fs("schemes.draw_precoders"), "s"),
        "schemes.decode_s": (fs("schemes.decode"), "s"),
        "schemes.linear_response_calls": (fc("schemes.linear_response"), "count"),
        "schemes.linear_response_s": (fs("schemes.linear_response"), "s"),
        "verify.rank_report_s": (fs("verify.rank_report"), "s"),
        "verify.oracle_s": (fs("verify.oracle"), "s"),
        "verify.oracle_share": (_ratio(fs("verify.oracle") * k, wall), "ratio"),
        "verify.decode_error_s": (fs("verify.decode_error"), "s"),
        "verify.run_mutant_s": (fs("verify.run_mutant"), "s"),
        "regions.calls": (fc("regions"), "count"),
        "regions.s": (fs("regions"), "s"),
        "cli.run_trial_s": (fs("cli.run_trial"), "s"),
        "cli.self_s": (tot("root_self") / k, "s"),
        "cli.attempts_per_trial": (_ratio(tot("attempts"), tot("trials")), "ratio"),
        "process.cpu_util": (cpu_util, "ratio"),
        "trace.overhead_frac": (_ratio(traced_s - untraced_s, untraced_s), "ratio"),
        "trace.remainder_frac": (_ratio(wall - tot("self_sum"), wall), "ratio"),
    }
    notes = {}
    for fam, metric in (("verify.run_mutant", "verify.run_mutant_s"),
                        ("regions", "regions.calls"),
                        ("schemes.linear_response", "schemes.linear_response_calls")):
        if not any(o["fam_calls"][fam] for o in ops):
            notes[metric] = "not reached: no op of this workload calls it"
    if not tot("trials"):
        notes["cli.attempts_per_trial"] = "not reached: no op of this workload runs a trial"
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
    return metrics, notes


def stage_breakdown(ops: list[dict]) -> dict:
    """Median stage times per op configuration: the baseline stage table."""
    by_label: dict[str, list[dict]] = {}
    for o in ops:
        by_label.setdefault(o["label"], []).append(o)
    med = lambda rows, f: statistics.median(f(o) for o in rows)
    out = {}
    for label, rows in by_label.items():
        out[label] = {
            "ops": len(rows),
            "op_s": med(rows, lambda o: o["wall"]),
            "encode_s": med(rows, lambda o: o["fam_s"]["schemes.run"]),
            "decode_s": med(rows, lambda o: o["fam_s"]["schemes.decode"]),
            "rank_report_s": med(rows, lambda o: o["fam_s"]["verify.rank_report"]),
            "oracle_s": med(rows, lambda o: o["fam_s"]["verify.oracle"]),
            "svd_calls": med(rows, lambda o: o["svd_calls"]),
            "svd_max_cells": max(o["svd_max_cells"] for o in rows),
        }
    return out
