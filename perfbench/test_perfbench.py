"""Tests of the benchmark's own code: the output checker, the loop's failure
count, the scaling to the reference speed, the tracer and the compare rule.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from xsdof import cli, knowledge, matcore, schemes, verify  # noqa: E402

import run  # noqa: E402
import suite  # noqa: E402
from tracer import ROOT, Tracer, layer_metrics, svd_flop  # noqa: E402
from workloads import (  # noqa: E402
    A23,
    C23,
    C23T,
    E23,
    VERIFY_TRIALS,
    VerifySuite,
    check,
    expected_verify_lines,
)


def simulate(cfg, seed):
    code, out, _ = run.call(cli.main, cfg.argv(seed))
    return code, out


def with_field(stdout: str, **secrecy) -> str:
    """The simulate output with fields of the trial's secrecy report replaced."""
    rec, summary = stdout.splitlines()
    rec = json.loads(rec)
    rec["secrecy"].update(secrecy)
    return json.dumps(rec) + "\n" + summary + "\n"


@pytest.mark.parametrize("cfg", [A23, C23, E23], ids=lambda c: c.label)
def test_real_simulate_output_passes(cfg):
    code, out = simulate(cfg, 11)
    assert check(cfg, 11, code, out) == []


def test_flipped_leak_defect_is_a_failure():
    code, out = simulate(A23, 5)
    problems = check(A23, 5, code, with_field(out, leak_defect_rx1=1))
    assert "nonzero leak defect" in problems
    assert any("disagree" in p for p in problems)


def test_changed_scheme_c_defect_is_a_failure():
    code, out = simulate(C23, 5)
    assert check(C23, 5, code, with_field(out, leak_defect_rx1=3, leak_defect_rx2=3))


def test_wrong_seed_exit_code_and_garbage_are_failures():
    code, out = simulate(A23, 5)
    assert check(A23, 6, code, out)
    assert check(A23, 5, 4, out) == ["exit code 4"]
    assert check(A23, 5, 0, "{not json\n{}\n")


def test_fail_line_is_a_failure():
    suite_op = VerifySuite()
    good = "\n".join(expected_verify_lines(VERIFY_TRIALS)) + "\n"
    assert check(suite_op, 1, 0, good) == []
    bad = good.replace("PASS zero leakage D(2,3)", "FAIL zero leakage D(2,3)")
    problems = check(suite_op, 1, 0, bad)
    assert "not passing: FAIL zero leakage D(2,3)" in problems


def test_loop_counts_corrupted_output_as_failed():
    """A corrupted op lands in ``failed`` and so in failed_frac."""
    loop = run.Loop(cli.main, (A23,), seed=3)
    ok, _ = loop.op(A23)
    assert ok and loop.failed == 0

    def flipping_main(argv):
        code, out, _ = run.call(cli.main, argv)
        print(with_field(out, leak_defect_rx2=2), end="")
        return code

    ok, _ = loop.op(A23, flipping_main)
    assert not ok
    assert (loop.attempted, loop.failed) == (2, 1)
    assert "nonzero leak defect" in loop.problems[0]


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    """A machine running at half the reference speed halves every time."""
    import reference

    slow = 2 * reference.REFERENCE_S
    monkeypatch.setattr(reference, "kernel_seconds", lambda: slow)
    monkeypatch.setattr(run, "fresh_import_seconds", lambda: (0.3, slow))
    metrics, extra = run.timed_run(run.Loop(cli.main, (A23, E23), seed=1), seconds=0.1)
    assert metrics["setup_s"]["value"] == pytest.approx(0.15)
    assert metrics["op_p50_ms"]["value"] == pytest.approx(extra["raw"]["op_p50_ms"] / 2)
    assert metrics["ops_per_s"]["value"] == pytest.approx(2 * extra["raw"]["ops_per_s"])
    assert extra["machine_slowdown"] == pytest.approx(2)
    assert extra["failed_frac"]["value"] == 0


def test_tracer_self_times_add_up_and_patches_are_removed():
    originals = (matcore.rank, knowledge.solve_full_column_rank, schemes.generate_states,
                 verify.lift_rows, knowledge.KnowledgeBase.advance_slot)
    tracer = Tracer()
    root_main = tracer.spanned(ROOT, cli.main)
    tracer.begin_op()
    assert knowledge.solve_full_column_rank is not originals[1]  # patched where looked up
    assert schemes.generate_states is not originals[2]
    code, out, wall = run.call(root_main, C23T.argv(4))
    summary = tracer.end_op(C23T.label, wall)
    assert check(C23T, 4, code, out) == []
    assert originals == (matcore.rank, knowledge.solve_full_column_rank,
                         schemes.generate_states, verify.lift_rows,
                         knowledge.KnowledgeBase.advance_slot)

    root = [i for i, n in enumerate(tracer.span_name) if tracer.names[n] == ROOT]
    assert len(root) == 1
    root_dur = tracer.span_end[root[0]] - tracer.span_start[root[0]]
    assert summary["self_sum"] == pytest.approx(root_dur, rel=1e-9)
    assert 0 < wall - summary["self_sum"] < 0.05 * wall
    assert summary["svd_calls"] > 0 and summary["reads_granted"] > 0
    assert summary["counts"]["matcore.as_matrix"] > 0
    assert summary["fam_calls"]["knowledge.reconstruct"] > 0  # from-imported in schemes
    assert summary["fam_calls"]["regions"] == 1  # scheme C asks for its corner

    metrics, notes = layer_metrics([summary], untraced_s=wall, traced_s=wall, cpu_util=1.0)
    assert set(metrics) == {m["name"] for m in suite.spec()["per_layer"]}
    assert "verify.run_mutant_s" in notes


def test_svd_flop_counts_tall_and_wide_alike():
    assert svd_flop(10, 4, False) == svd_flop(4, 10, False) == 4 * (4 * 10 * 16 - 4 * 64 / 3)
    assert svd_flop(6, 6, True) == 4 * (14 * 216 + 8 * 216)


def test_compare_rule():
    base = {s: 10.0 + 0.1 * s for s in range(10)}
    faster = {s: v * 0.8 for s, v in base.items()}
    assert suite.verdict(base, faster, "lower", 0.1)[2] == "gain"
    slower = {s: v * 1.2 for s, v in base.items()}
    assert suite.verdict(base, slower, "lower", 0.1)[2].startswith("regression")
    assert suite.verdict(base, slower, "higher", 0.1)[2] == "gain"
    same = dict(base)
    assert suite.verdict(base, same, "lower", 0.1)[2] == "within bound"
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert suite.verdict(noisy, noisy, "lower", 0.1)[2].startswith("unresolved")
