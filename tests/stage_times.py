"""Print the median stage times of seeded trials, to compare two checkouts.

For each configuration and seed it runs the stages of ``verify.run_trial``
on one BLAS thread, ``--repeat`` times each on the same seed: the run
(``schemes.run``, the state and precoder draws included), both decodes,
the rank report and the subspace oracle.  Inside the oracle it also times
the replays (``schemes.linear_response``) and the containment decisions
(``verify.columns_contained``), and names the exit that decided each
receiver: ``block`` (the block solve confirmed a containment), ``leak``
(the certificate proved a leak) or ``pair`` (the rank pair compared).
The report and the oracle are called as direct callers call them, so each
takes its own phase-1 null bases (``verify.run_trial`` takes them once for
both).

One line per configuration and seed gives the medians over its repeats in
milliseconds, then one line per configuration the medians over all its
seeds and repeats.  The ``*_mib`` columns are each stage's working set: the
peak of the memory ``tracemalloc`` traced during the stage above what was
traced when it began, in MiB, from one more pass per seed with tracing on
(numpy's arrays included); the timed passes run without it.  The ``xsdof`` it imports is the one on ``PYTHONPATH``,
so one copy of the script reads any checkout.  From the root of a
checkout::

    PYTHONPATH=src python tests/stage_times.py A:6:6 A:8:8 --seeds 7 1 --repeat 5

A configuration is ``SCHEME:M:N``, with ``:tx1`` appended for scheme C's
tx1-only row.  BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` says
otherwise.  pytest does not collect this file.
"""

import argparse
import os
import statistics
import time
import tracemalloc

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from xsdof import matcore, schemes, verify  # noqa: E402
from xsdof.channel import AntennaConfig  # noqa: E402
from xsdof.errors import DecodeFailure, SingularSystem  # noqa: E402
from xsdof.knowledge import Node  # noqa: E402
from xsdof.schemes import SchemeId  # noqa: E402

STAGES = ("run", "decode", "report", "oracle", "replay", "contain", "trial")

#: The stages whose traced peaks are printed.
PEAKS = ("run", "decode", "report", "oracle")


def parse_config(text: str):
    """``SCHEME:M:N[:tx1]`` as ``(label, spec, config)``."""
    scheme, m, n, *mode = text.split(":")
    spec = schemes.variant(SchemeId(scheme), tx1_only=mode == ["tx1"])
    label = f"{scheme}({m},{n})" + ("-tx1" if mode else "")
    return label, spec, AntennaConfig(int(m), int(n))


def timed(fn, *args, **kwargs):
    """``fn``'s result and the seconds it took."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def traced(fn, *args, **kwargs):
    """``fn``'s result and the peak bytes ``tracemalloc`` traced while it
    ran, above those traced when it began."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    out = fn(*args, **kwargs)
    return out, tracemalloc.get_traced_memory()[1] - start


def decode_both(transcript):
    """Each receiver's rate rank, a refused decode giving its exception's."""
    ranks = []
    for receiver in (Node.RX1, Node.RX2):
        try:
            ranks.append(schemes.decode(transcript, receiver).rate_rank)
        except (SingularSystem, DecodeFailure) as exc:
            ranks.append(exc.rate_rank)
    return tuple(ranks)


def instrumented_oracle(transcript):
    """The oracle's verdicts, its replay and decision seconds, and its exit
    per receiver, read through wrappers of the functions it looks up."""
    spent = {"replay": 0.0, "contain": 0.0}
    exits, state = [], {}
    replay, contained = schemes.linear_response, verify.columns_contained
    leak, rank = verify._certified_leak, matcore.rank

    def replay_spy(*args, **kwargs):
        maps, seconds = timed(replay, *args, **kwargs)
        spent["replay"] += seconds
        return maps

    def contained_spy(noise, secret, *args):
        state.update(columns=noise.shape[1], leak=False, pair=False)
        verdict, seconds = timed(contained, noise, secret, *args)
        spent["contain"] += seconds
        exits.append("leak" if state["leak"] else "pair" if state["pair"] else "block")
        return verdict

    def leak_spy(*args):
        proved = leak(*args)
        state["leak"] = state["leak"] or proved
        return proved

    def rank_spy(a, scale=0.0):
        state["pair"] = state["pair"] or np.shape(a)[1] > state["columns"]
        return rank(a, scale)

    spies = ((schemes, "linear_response", replay_spy),
             (verify, "columns_contained", contained_spy),
             (verify, "_certified_leak", leak_spy), (matcore, "rank", rank_spy))
    originals = [(module, name, getattr(module, name)) for module, name, _ in spies]
    for module, name, spy in spies:
        setattr(module, name, spy)
    try:
        verdicts = verify.equivocation_subspace_check(transcript)
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)
    return verdicts, spent, exits


def sample(spec, config, seed):
    """One pass of every stage: ``({stage: seconds}, verdicts, exits)``."""
    transcript, run_s = timed(schemes.run, spec, config, seed=seed)
    ranks, decode_s = timed(decode_both, transcript)
    _, report_s = timed(verify.secrecy_rank_report, transcript, ranks)
    (verdicts, spent, exits), oracle_s = timed(instrumented_oracle, transcript)
    times = {"run": run_s, "decode": decode_s, "report": report_s, "oracle": oracle_s, **spent}
    times["trial"] = run_s + decode_s + report_s + oracle_s
    return times, verdicts, exits


def peaks(spec, config, seed):
    """One pass of the :data:`PEAKS` stages with tracing on: ``{stage:
    bytes}``."""
    tracemalloc.start()
    try:
        transcript, run_b = traced(schemes.run, spec, config, seed=seed)
        ranks, decode_b = traced(decode_both, transcript)
        _, report_b = traced(verify.secrecy_rank_report, transcript, ranks)
        _, oracle_b = traced(verify.equivocation_subspace_check, transcript)
    finally:
        tracemalloc.stop()
    return {"run": run_b, "decode": decode_b, "report": report_b, "oracle": oracle_b}


def row(label, seed, samples, traces, tail=""):
    medians = " ".join(
        f"{1e3 * statistics.median(s[stage] for s in samples):10.2f}" for stage in STAGES)
    mib = " ".join(
        f"{statistics.median(p[stage] for p in traces) / 2**20:10.2f}" for stage in PEAKS)
    return f"{label:<12} {seed:>5} {medians} {mib}  {tail}".rstrip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="+", help="SCHEME:M:N or SCHEME:M:N:tx1")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    print(f"{'config':<12} {'seed':>5} " + " ".join(f"{stage + '_ms':>10}" for stage in STAGES)
          + " " + " ".join(f"{stage + '_mib':>10}" for stage in PEAKS) + "  verdicts exits")
    for text in args.configs:
        label, spec, config = parse_config(text)
        every, every_trace = [], []
        for seed in args.seeds:
            samples, outcome = [], None
            for _ in range(args.repeat):
                times, verdicts, exits = sample(spec, config, seed)
                samples.append(times)
                outcome = outcome or (verdicts, exits)
            traces = [peaks(spec, config, seed)]
            every += samples
            every_trace += traces
            verdicts, exits = outcome
            tail = ",".join("T" if v else "F" for v in verdicts) + " " + ",".join(exits)
            print(row(label, seed, samples, traces, tail), flush=True)
        if len(args.seeds) > 1:
            print(row(label, "all", every, every_trace), flush=True)


if __name__ == "__main__":
    main()
