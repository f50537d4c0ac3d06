"""CLI contract tests: flags, exit codes, output determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_verify import _deficient_first_draws
from xsdof import cli, schemes, verify
from xsdof.channel import AntennaConfig
from xsdof.errors import UnauthorizedAccess
from xsdof.schemes import SchemeId, variant


def subprocess_env(**extra):
    """The environment for a ``python -m xsdof`` subprocess: this package's
    source first on ``PYTHONPATH``, then ``extra``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def decode_wrong_symbols(monkeypatch):
    """Make ``schemes.decode`` solve as before, at its full rate rank, and
    return wrong symbols."""
    real = schemes.decode

    def wrong(transcript, receiver):
        decoded = real(transcript, receiver)
        return dataclasses.replace(decoded, symbols=decoded.symbols + 1)

    monkeypatch.setattr(schemes, "decode", wrong)


class TestRegionCommand:
    def test_sdof_corners_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "region", "--M", "2", "--N", "3", "--model", "asym-fb-dcsit"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["labels"]["symmetric"] == {
            "x": {"num": 3, "den": 4},
            "y": {"num": 3, "den": 4},
        }
        assert doc["labels"]["axis_rx1"]["x"] == {"num": 12, "den": 13}

    def test_dof_region(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--M", "2", "--N", "3", "--model", "dof")
        assert code == 0
        doc = json.loads(out)
        assert doc["labels"]["symmetric"]["x"] == {"num": 12, "den": 7}

    def test_degenerate_region_is_origin(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--M", "1", "--N", "3", "--model", "sym-fb")
        assert code == 0
        doc = json.loads(out)
        assert doc["vertices"] == [{"x": {"num": 0, "den": 1}, "y": {"num": 0, "den": 1}}]

    def test_csv_carries_exact_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "region", "--M", "2", "--N", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "point,x_exact,y_exact,x,y"
        assert any(line.startswith("symmetric,3/4,3/4,") for line in lines)

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["region", "--M", "2"])  # missing --N
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["region", "--M", "2", "--N", "3", "--model", "bogus"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["region", "--M", "0", "--N", "3"])  # domain misuse
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_scheme_b_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "B", "--M", "1", "--N", "1",
            "--trials", "3", "--seed", "7",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # three trials + summary
        summary = json.loads(lines[-1])["summary"]
        assert summary["decode_success_rate"] == 1.0
        assert summary["max_leak_defect"] == 0
        assert summary["empirical_dof"]["rx1"] == {"num": 1, "den": 2}

    def test_scheme_e_writes_three_phases(self, capsys):
        # the plan's empty noise phase is dropped only when written out
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "E", "--M", "2", "--N", "3", "--seed", "1"
        )
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["plan"]["phase_lengths"] == [3, 3, 1]
        audited = record["secrecy"]["matrices_audited"]
        leaks = [(m["name"], m["rows"], m["cols"]) for m in audited if m["name"].startswith("leak")]
        assert leaks == [("leak_rx2", 9, 0), ("leak_rx1", 9, 0)]

    def test_regime_refusal_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--scheme", "A", "--M", "1", "--N", "3", "--trials", "1"
        )
        assert code == 3
        assert "2m <= n" in err

    def test_a_deficient_draw_is_resampled(self, capsys, monkeypatch):
        # the first channel-state draw is rank deficient: the trial redraws
        # at a derived seed instead of failing the command
        calls = _deficient_first_draws(monkeypatch, "generate_states", 1)
        code, out, _ = run_cli(capsys, "simulate", "--scheme", "A", "--M", "2", "--N", "3")
        assert code == 0 and len(calls) == 2
        assert '"attempts":2' in out.splitlines()[0]

    def test_oversized_configuration_is_refused_before_any_draw(self, capsys, monkeypatch):
        # the guard reads the plan only: nothing of A(14,14) is ever drawn
        def no_draw(*args, **kw):
            raise AssertionError("channel states drawn for a refused configuration")

        monkeypatch.setattr(schemes, "generate_states", no_draw)
        code, out, err = run_cli(capsys, "simulate", "--scheme", "A", "--M", "14", "--N", "14")
        assert code == 3
        assert out == ""
        assert err.startswith("resource refusal: A(14,14) needs about 7.2 GiB per trial")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("k,refused", [(10, False), (12, False), (13, True), (14, True)])
    def test_memory_budget_boundary(self, k, refused):
        # A(k,k)'s noise replay is 256 k^6 bytes; A(10,10) peaked near 0.9 GB
        config = AntennaConfig(k, k)
        need = schemes.peak_bytes(schemes.plan(variant(SchemeId.A), config), config)
        assert need == schemes.PEAK_PER_REPLAY * 256 * k**6
        assert (need > cli.MEMORY_BUDGET) is refused

    @pytest.mark.parametrize("scheme,model", [("A", "asym-fb"), ("D", "asym-fb-dcsit-tx1")])
    def test_model_mismatch_is_a_refusal(self, capsys, scheme, model):
        # neither model lets transmitter 2 rebuild receiver 1's phase-1 output
        code, out, err = run_cli(
            capsys, "simulate", "--scheme", scheme, "--M", "2", "--N", "3", "--model", model
        )
        assert code == 3
        assert out == ""
        assert err == (
            f"model refusal: scheme {scheme} cannot run under {model}: "
            "tx2 may not read delayed-csi[1] at slot 10\n"
        )

    def test_model_override_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "B", "--M", "2", "--N", "2", "--model", "sym-fb"
        )
        assert code == 0
        assert json.loads(out.splitlines()[0])["model"] == "sym-fb"

    def test_denied_read_under_the_default_model_is_a_fault(self, capsys, monkeypatch):
        # a spec row's own model grants every read it makes: no refusal hides a denial
        def denied(*args, **kwargs):
            raise UnauthorizedAccess("tx1 may not read fed-back-output[(1, 1)] at slot 2")

        monkeypatch.setattr(cli, "run_trial", denied)
        with pytest.raises(UnauthorizedAccess):
            cli.main(["simulate", "--scheme", "A", "--M", "2", "--N", "3"])

    def test_byte_identical_for_same_flags_and_seed(self, capsys):
        argv = ["simulate", "--scheme", "A", "--M", "2", "--N", "3",
                "--trials", "2", "--seed", "11"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_scheme_c_emits_discrepancy(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "C", "--M", "2", "--N", "3",
            "--trials", "1", "--seed", "0",
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        flag = summary["inner_bound_discrepancy"]
        assert flag["flagged"] is True
        assert flag["scheme_point"] == {"num": 4, "den": 7}
        assert flag["intersection_point"] == {"num": 16, "den": 31}

    @pytest.mark.parametrize("scheme", ["C", "E"])
    def test_short_rate_rank_fails_every_claim(self, capsys, monkeypatch, scheme):
        real = verify.secrecy_rank_report

        def one_short(transcript, rate_ranks, *args):
            report = real(transcript, rate_ranks, *args)
            return dataclasses.replace(report, rate_ranks=(report.rate_target - 1, rate_ranks[1]))

        monkeypatch.setattr(verify, "secrecy_rank_report", one_short)
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", scheme, "--M", "2", "--N", "3", "--trials", "1"
        )
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert code == 4
        assert summary["invariants_ok"] is False
        assert "rate ranks" in summary["problems"]

    def test_wrong_symbols_are_the_rate_check_alone(self, capsys, monkeypatch):
        # a failed decode is judged by claim_checks' rate check, not by a
        # separate entry
        decode_wrong_symbols(monkeypatch)
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "A", "--M", "2", "--N", "3", "--trials", "1"
        )
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert code == cli.EXIT_INVARIANT
        assert summary["decode_success_rate"] == 0.0
        assert summary["problems"] == ["rate ranks"]

    def test_summary_reads_the_printed_first_record(self, capsys, monkeypatch):
        # each record is written out once; the summary's empirical_dof is the
        # first record's, not a second rendering of it
        real, rendered = verify.TrialReport.to_jsonable, []

        def to_jsonable(report):
            rendered.append(report.seed)
            return real(report)

        monkeypatch.setattr(verify.TrialReport, "to_jsonable", to_jsonable)
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "A", "--M", "2", "--N", "3", "--trials", "2",
            "--seed", "4",
        )
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0 and rendered == [4, 5]
        assert lines[-1]["summary"]["empirical_dof"] == lines[0]["empirical_dof"] is not None

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("XSDOF_SEED", "5")
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "B", "--M", "1", "--N", "1", "--trials", "1"
        )
        assert code == 0
        assert json.loads(out.splitlines()[0])["seed"] == 5

    @pytest.mark.parametrize("argv", [
        ("simulate", "--scheme", "B", "--M", "1", "--N", "1", "--seed", "-1"),
        ("simulate", "--scheme", "B", "--M", "1", "--N", "1", "--seed", "abc"),
        ("verify", "--suite", "ranks", "--seed", "-1"),
        ("verify", "--suite", "nesting", "--seed", "2.5"),
    ])
    def test_bad_seed_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert "error: argument --seed: seed must be a non-negative integer" in (
            capsys.readouterr().err.splitlines()[-1]
        )

    @pytest.mark.parametrize("value", ["-3", "abc", ""])
    @pytest.mark.parametrize("argv", [
        ("simulate", "--scheme", "B", "--M", "1", "--N", "1"),
        ("verify", "--suite", "nesting"),
    ])
    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch, argv, value):
        monkeypatch.setenv("XSDOF_SEED", value)
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert "XSDOF_SEED" in last and repr(value) in last

    def test_seed_flag_overrides_a_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("XSDOF_SEED", "abc")
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "B", "--M", "1", "--N", "1", "--seed", "4"
        )
        assert code == 0
        assert json.loads(out.splitlines()[0])["seed"] == 4

    def test_env_seed_is_read_on_every_call(self, capsys, monkeypatch):
        # one process, one parser: each call takes XSDOF_SEED as it is then
        argv = ("simulate", "--scheme", "B", "--M", "1", "--N", "1")
        monkeypatch.setenv("XSDOF_SEED", "5")
        assert json.loads(run_cli(capsys, *argv)[1].splitlines()[0])["seed"] == 5
        monkeypatch.delenv("XSDOF_SEED")
        assert json.loads(run_cli(capsys, *argv)[1].splitlines()[0])["seed"] == 0
        code, out, _ = run_cli(capsys, "verify", "--suite", "nesting")
        assert code == 0 and "FAIL" not in out
        monkeypatch.setenv("XSDOF_SEED", "abc")
        for args in (argv, ("verify", "--suite", "nesting")):
            with pytest.raises(SystemExit) as exc:
                cli.main(list(args))
            assert exc.value.code == 2
            assert "'abc'" in capsys.readouterr().err.splitlines()[-1]
        assert json.loads(run_cli(capsys, *argv, "--seed", "4")[1].splitlines()[0])["seed"] == 4

    def test_usage_error_leaves_the_next_call_working(self, capsys):
        argv = ("simulate", "--scheme", "B", "--M", "1", "--N", "1", "--seed", "3")
        _, want, _ = run_cli(capsys, *argv)
        for bad in (("simulate", "--scheme", "B", "--M", "1"),
                    argv + ("--trials", "0"),
                    argv + ("--format", "xml")):
            with pytest.raises(SystemExit) as exc:
                cli.main(list(bad))
            assert exc.value.code == 2
            capsys.readouterr()
            assert run_cli(capsys, *argv) == (0, want, "")

    def test_import_builds_no_parser(self):
        # counted in a fresh interpreter: import builds nothing, the first
        # main call builds the tree (parser and four subparsers), later calls reuse it
        probe = (
            "import argparse\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *a, **k):\n"
            "    made.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "from xsdof import cli\n"
            "counts = [len(made)]\n"
            "for _ in range(2):\n"
            "    cli.main(['table', '--N', '2', '--M-max', '1'])\n"
            "    counts.append(len(made))\n"
            "print(counts)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=subprocess_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 5, 5]"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scheme", "B", "--M", "1", "--N", "1",
            "--trials", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("seed,decode_ok")
        assert lines[1].split(",")[-2] == "1/2"  # exact fraction sibling column


class TestTableCommand:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--N", "4", "--M-max", "8")
        assert code == 0
        rows = json.loads(out)["rows"]
        row4 = rows[3]
        assert row4["total_sdof"] == {"num": 4, "den": 1}
        assert row4["total_dof_fb_dcsit"] == {"num": 16, "den": 3}
        assert row4["total_dof_no_fb_no_csit"] == {"num": 4, "den": 1}
        row3 = rows[2]
        assert row3["total_sdof"] == {"num": 8, "den": 3}
        assert row3["total_dof_fb_dcsit"] == {"num": 24, "den": 5}

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--N", "1", "--M-max", "1", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[1] == "1,1,1,4/3,1.33333333333,1,1"

    def test_empty_range_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--N", "4", "--M-max", "0"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_nesting_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "nesting")
        assert code == 0
        assert "PASS region nesting 1..6" in out

    def test_unknown_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "everything"])
        assert exc.value.code == 2

    def test_mutants_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "mutants", "--seed", "3")
        assert code == 0
        assert out.count("PASS mutant") == 3

    def test_wrong_symbols_fail_the_ranks_suite(self, capsys, monkeypatch):
        # every rank is full, yet no receiver decodes: each row's rate check
        # fails, and only it
        decode_wrong_symbols(monkeypatch)
        code, out, _ = run_cli(capsys, "verify", "--suite", "ranks", "--trials", "1")
        assert code == cli.EXIT_INVARIANT
        failed = [line for line in out.splitlines() if not line.startswith("PASS ")]
        assert failed == [f"FAIL rate ranks {row} (1 trials)" for row in (
            "A(2,3)", "A(3,4)", "B(1,1)", "B(4,4)", "C(2,3)", "D(2,3)", "E(2,3)")]

    def test_missed_mutant_names_its_first_silent_seed(self, capsys, monkeypatch):
        calls = []

        def miss(config, seed, mutation):
            calls.append((mutation, seed))
            return mutation != "theta1_zero" or seed < 12

        monkeypatch.setattr(verify, "run_mutant", miss)
        code, out, _ = run_cli(capsys, "verify", "--suite", "mutants", "--seed", "0")
        assert code == cli.EXIT_INVARIANT
        assert out.splitlines() == [
            "FAIL mutant theta1_zero caught (silent at seed 12 of 20)",
            "PASS mutant phi1_zero caught (20 seeds)",
            "PASS mutant skip_phase1 caught (20 seeds)",
        ]
        # the first silent seed ends the mutant's run
        assert [seed for mutation, seed in calls if mutation == "theta1_zero"] == list(range(13))


class TestClosedStdout:
    def test_closed_pipe_ends_quietly(self):
        # a pipe whose read end is closed before the process starts: every
        # write to it fails, as behind `| head` once head has exited
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "xsdof", "region", "--M", "2", "--N", "3"],
                stdout=write_end, stderr=subprocess.PIPE, env=subprocess_env(), timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr


class TestHashSeed:
    @pytest.mark.parametrize("argv", [
        ("simulate", "--scheme", "A", "--M", "2", "--N", "3", "--trials", "2", "--seed", "5"),
        ("verify", "--suite", "ranks", "--trials", "1"),
    ])
    def test_stdout_does_not_depend_on_the_hash_seed(self, argv):
        # string and enum hashes change with PYTHONHASHSEED; no output may follow them
        outs = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run([sys.executable, "-m", "xsdof", *argv], capture_output=True,
                                  env=subprocess_env(PYTHONHASHSEED=hash_seed), timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0]
