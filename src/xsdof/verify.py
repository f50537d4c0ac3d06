"""Executable security analysis: rank identities and a subspace oracle.

Two independent formalizations of the zero-leakage claim are provided.

:func:`secrecy_rank_report` assembles the stacked matrices of the scheme's
security analysis from the transcript's lifted channel blocks and precoders:
the *rate* matrix (whose rank counts the equations a legitimate receiver can
use) and the *leakage* matrix (whose full rank certifies that everything the
eavesdropping receiver sees about the other receiver's symbols is already
explained by the injected noise).

:func:`equivocation_subspace_check` never assembles those identities.  It
reads off the eavesdropper's observation of the noise and of the secret
symbols as explicit linear maps (two replays of the run with
identity-matrix symbols) and tests column-space containment directly:
conditioned on its own messages, the secret symbols' columns must lie
inside the noise columns' span, so any secret value is explainable by some
noise realization.  :func:`columns_contained` confirms a clear containment
from one QR of the noise map and the secret columns' residual off its span,
and compares the two ranks in every other case: a leak, a rank-deficient
noise map, or a residual too close to the rank cut to call.

:func:`run_trial` is the one pipeline every verdict reads (run, decode, rank
report, oracle), and :func:`claim_checks` the one place that says what a
scheme's leakage claim demands of its trials.

Leakage is verified structurally, not by Monte Carlo mutual-information
estimation: at the infinite-SNR scale the secrecy claim *is* a rank
identity, and a finite-sample estimator would add noise without evidence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import matcore, schemes
from .channel import AntennaConfig, FeedbackModel, lift_rows
from .errors import DecodeFailure, IllConditioned, InvalidInput, SingularSystem
from .knowledge import Node
from .regions import frac_json
from .schemes import SchemeId, Transcript, carried_map, side_info

#: Null-set draws a trial resamples before it gives up.
MAX_RESAMPLES = 8

#: Guard band of the projected containment test: the fast path calls the
#: secret columns contained only when their residual off the noise span
#: clears the joint rank cut by this factor, and leaves every other case to
#: the rank pair.
CONTAINMENT_GUARD = 1e2


@dataclass(frozen=True)
class SecrecyReport:
    """Rank-identity audit of one transcript.

    ``rate_rank_*`` should reach ``rate_target`` (the per-receiver symbol
    count); ``leak_defect_*`` is the rank the leakage identity fell short
    by, zero meaning no leakage at the degrees-of-freedom scale.  Reports
    for schemes whose security analysis the source constructions do not
    state in closed rank form (C, and E which claims no secrecy at all) are
    flagged ``advisory``.
    """

    scheme: SchemeId
    rate_rank_rx1: int
    rate_rank_rx2: int
    rate_target: int
    leak_defect_rx1: int
    leak_defect_rx2: int
    advisory: bool
    matrices_audited: tuple
    rel_tol: float

    def to_jsonable(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "rate_rank_rx1": self.rate_rank_rx1,
            "rate_rank_rx2": self.rate_rank_rx2,
            "rate_target": self.rate_target,
            "leak_defect_rx1": self.leak_defect_rx1,
            "leak_defect_rx2": self.leak_defect_rx2,
            "advisory": self.advisory,
            "matrices_audited": [
                {"name": name, "rows": r, "cols": c} for name, r, c in self.matrices_audited
            ],
        }


def _phase_lifts(transcript: Transcript):
    """Lifted per-phase row maps ``H_p`` (receiver 1) and ``G_p`` (receiver 2)."""
    m = transcript.config.effective_m
    ranges = transcript.phase_ranges()
    states = transcript.states
    h, g = {}, {}
    for p, slots in enumerate(ranges, start=1):
        if not slots:
            continue
        h[p] = lift_rows(states.rows(1, slots), m)
        g[p] = lift_rows(states.rows(2, slots), m)
    return h, g


def secrecy_rank_report(transcript: Transcript, rel_tol: float = matcore.DEFAULT_REL_TOL) -> SecrecyReport:
    """Compute the rate and leakage rank identities for a transcript.

    The leakage matrix for the eavesdropper on receiver ``j``'s symbols
    stacks that eavesdropper's phase-1 map on the noise with the noise
    mixing it sees during phase ``j+1``; its rank is compared against the
    full ``n*(t1+t2)`` rows.  Rate matrices stack the legitimate receiver's
    fresh-phase map with the retransmitted side-information map.
    """
    transcript.check_complete()
    cfg = transcript.config
    m, n = cfg.effective_m, cfg.n
    r1, r2, r3, r4 = transcript.phase_ranges()
    t1, t2 = len(r1), len(r2)
    sels = transcript.selections
    h, g = _phase_lifts(transcript)
    w2, w4 = m * t2, m * len(r4)

    audited = []

    def noted(name, mat):
        audited.append((name, mat.shape[0], mat.shape[1]))
        return mat

    # --- rate identities -------------------------------------------------
    s2 = side_info(g[2], sels.get("side_info_rx2"))
    s3 = side_info(h[3], sels.get("side_info_rx1"))
    rate1 = noted("rate_rx1", np.vstack([h[2], carried_map(transcript, h[4], "phi1", w4) @ s2]))
    rate2 = noted("rate_rx2", np.vstack([g[3], carried_map(transcript, g[4], "phi2", w4) @ s3]))
    rate_target = 2 * m * t2

    # --- leakage identities ----------------------------------------------
    leak_rows = n * (t1 + t2)
    if t1 == 0:
        # no noise phase: the mixing map has no columns at all
        defect_rx2 = leak_rows
        defect_rx1 = leak_rows
        audited.append(("leak_rx2", leak_rows, 0))
        audited.append(("leak_rx1", leak_rows, 0))
    else:
        mix_rx2 = carried_map(transcript, g[2], "theta1", w2) @ h[1]
        mix_rx1 = carried_map(transcript, h[3], "theta2", w2) @ g[1]
        leak2 = noted("leak_rx2", np.vstack([g[1], mix_rx2]))
        leak1 = noted("leak_rx1", np.vstack([h[1], mix_rx1]))
        defect_rx2 = leak_rows - matcore.rank_value(leak2, rel_tol)
        defect_rx1 = leak_rows - matcore.rank_value(leak1, rel_tol)

    return SecrecyReport(
        scheme=transcript.scheme,
        rate_rank_rx1=matcore.rank_value(rate1, rel_tol),
        rate_rank_rx2=matcore.rank_value(rate2, rel_tol),
        rate_target=rate_target,
        leak_defect_rx1=defect_rx1,
        leak_defect_rx2=defect_rx2,
        advisory=transcript.spec.leakage != "zero",
        matrices_audited=tuple(audited),
        rel_tol=rel_tol,
    )


def _replay_group(transcript: Transcript, group: str) -> tuple[np.ndarray, np.ndarray]:
    """Both receivers' coefficient maps of symbol group ``group``, from one
    replay with that group set to the identity and the others to zero; the
    two maps are the halves of one buffer."""
    sym = transcript.symbols
    dims = {name: len(getattr(sym, name)) for name in ("u", "v1", "v2")}
    groups = {
        name: np.eye(d, dtype=complex) if name == group else np.zeros((d, dims[group]), complex)
        for name, d in dims.items()
    }
    return schemes.linear_response(transcript, **groups)


def observation_map(transcript: Transcript, receiver: Node, group: str) -> np.ndarray:
    """Coefficient map of symbol group ``group`` (``u``, ``v1`` or ``v2``) in
    a receiver's full observation.

    Obtained by replaying the run with that group set to the identity and
    the others to zero, so the result is independent of the rank-identity
    assembly above.  The map is an owned copy: the other receiver's half of
    the replay is freed on return.
    """
    if receiver not in (Node.RX1, Node.RX2):
        raise InvalidInput("observation_map expects a receiver node")
    y1, y2 = _replay_group(transcript, group)
    return (y1 if receiver is Node.RX1 else y2).copy()


def columns_contained(
    noise: np.ndarray, secret: np.ndarray, rel_tol: float = matcore.DEFAULT_REL_TOL
) -> bool:
    """Whether ``rank([noise | secret]) == rank(noise)`` at ``rel_tol``.

    One QR of ``noise`` gives its rank (``R`` has ``noise``'s singular
    values) and, when that rank is full, the residual of ``secret`` off the
    noise span, which confirms a clear containment without the joint SVD
    (see :func:`_clearly_contained`).  Every other case, a leak or a
    rank-deficient ``noise`` included, compares the two ranks.  With no
    noise columns the secret map must vanish.
    """
    k = noise.shape[1]
    if k == 0:
        return matcore.rank_value(secret, rel_tol) == 0
    q, r = matcore.qr(noise)
    base = matcore.rank(r, rel_tol)
    if base.value == k and _clearly_contained(q, r, base.smallest_kept_singular_value, secret, rel_tol):
        return True
    return matcore.rank_value(np.hstack([noise, secret]), rel_tol) == base.value


def _clearly_contained(q, r, weakest: float, secret: np.ndarray, rel_tol: float) -> bool:
    """Whether ``secret`` lies in the span of a full-column-rank ``q @ r``
    (smallest singular value ``weakest``) by a margin no rank cut overturns.

    The joint matrix's rank cut is ``rel_tol`` times its largest singular
    value, which lies between its largest column norm and its Frobenius
    norm.  Its singular values past the noise columns' are at most the
    residual's Frobenius norm, which must clear the smallest possible cut
    by :data:`CONTAINMENT_GUARD`; its k-th is at least ``weakest``, which
    must clear the largest possible cut so that no noise column is lost.
    """
    secret_norms = np.linalg.norm(secret, axis=0)
    scale = float(np.hypot(np.linalg.norm(r), np.linalg.norm(secret_norms)))
    if weakest <= rel_tol * scale:
        return False
    floor = float(max(np.max(np.linalg.norm(r, axis=0)), np.max(secret_norms, initial=0.0)))
    residual = float(np.linalg.norm(secret - q @ (q.conj().T @ secret)))
    return residual * CONTAINMENT_GUARD <= rel_tol * floor


def equivocation_subspace_check(
    transcript: Transcript,
    eavesdropper: Node,
    rel_tol: float = matcore.DEFAULT_REL_TOL,
    noise_maps: dict | None = None,
) -> bool:
    """Column-space containment oracle for zero leakage.

    Conditioned on the eavesdropper's own messages, the other receiver's
    symbols must enter its observation only inside the noise columns' span.
    Replays the noise group and the secret group (``v2`` for receiver 1,
    ``v1`` for receiver 2) and returns :func:`columns_contained` of the
    two maps: True iff ``rank([noise cols | secret cols])`` equals
    ``rank([noise cols])``, confirmed from one QR of the noise map where
    the margins allow.

    One noise replay fills both receivers' noise maps.  ``noise_maps``, a
    dict the caller shares between the two receivers' calls on one
    transcript, carries them over: a call whose map is missing replays the
    noise group and leaves the other receiver's map in it, and each call
    takes its own map out.
    """
    transcript.check_complete()
    if eavesdropper not in (Node.RX1, Node.RX2):
        raise InvalidInput("equivocation_subspace_check expects a receiver node")
    if noise_maps is None:
        noise_maps = {}
    if eavesdropper not in noise_maps:
        noise_maps[Node.RX1], noise_maps[Node.RX2] = _replay_group(transcript, "u")
    a_u = noise_maps.pop(eavesdropper)
    secret = observation_map(transcript, eavesdropper, "v2" if eavesdropper is Node.RX1 else "v1")
    return columns_contained(a_u, secret, rel_tol)


def decode_error(transcript: Transcript, receiver: Node) -> float:
    """Relative error of the decoded symbols against the sent ground truth."""
    decoded = schemes.decode(transcript, receiver)
    sent = transcript.symbols.v1 if receiver is Node.RX1 else transcript.symbols.v2
    return float(np.linalg.norm(decoded - sent) / max(np.linalg.norm(sent), 1e-300))


def replay_matches_recorded(transcript: Transcript, tol: float = 1e-9) -> bool:
    """Cross-check: the closed-form linear replay reproduces the recorded run."""
    y1, y2 = schemes.linear_response(transcript)
    for rx, stack in ((1, y1), (2, y2)):
        recorded = schemes.recorded_output_stack(transcript, rx)
        scale = max(float(np.linalg.norm(recorded)), 1.0)
        if float(np.linalg.norm(stack - recorded)) > tol * scale:
            return False
    return True


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
    secrecy: SecrecyReport
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
    for attempt in range(1, MAX_RESAMPLES + 1):
        transcript = schemes.run(
            scheme, config, model, seed=trial_seed, mutation=mutation, tx1_only=tx1_only
        )
        errs: dict[Node, float | None] = {}
        resample = False
        for receiver in (Node.RX1, Node.RX2):
            try:
                errs[receiver] = decode_error(transcript, receiver)
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
    else:  # pragma: no cover - would need MAX_RESAMPLES null-set draws in a row
        raise SingularSystem(f"trial for seed {seed} kept drawing singular systems")

    report = secrecy_rank_report(transcript)
    oracle_rx1 = oracle_rx2 = None
    if with_oracle:
        noise_maps: dict = {}
        oracle_rx1 = equivocation_subspace_check(transcript, Node.RX1, noise_maps=noise_maps)
        oracle_rx2 = equivocation_subspace_check(transcript, Node.RX2, noise_maps=noise_maps)
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


def claim_checks(reports: list[TrialReport], leakage: str) -> list[tuple[str, bool]]:
    """The named checks a batch of trials must pass under a leakage claim.

    Every claim demands full rate ranks on both receivers and agreement of
    the rank report with the subspace oracle wherever the oracle ran.  A
    ``zero`` claim adds a zero leak defect on both receivers; a
    ``positive`` claim (the negative control) a positive defect on both.
    """
    secrecy = [r.secrecy for r in reports]
    checks = [
        ("rate ranks", all(
            s.rate_rank_rx1 == s.rate_target and s.rate_rank_rx2 == s.rate_target
            for s in secrecy
        )),
        ("report/oracle agreement", all(
            oracle is None or (defect == 0) == oracle
            for r in reports
            for defect, oracle in (
                (r.secrecy.leak_defect_rx1, r.oracle_rx1),
                (r.secrecy.leak_defect_rx2, r.oracle_rx2),
            )
        )),
    ]
    if leakage == "zero":
        checks.append(("zero leakage", all(
            s.leak_defect_rx1 == 0 and s.leak_defect_rx2 == 0 for s in secrecy
        )))
    if leakage == "positive":
        checks.append(("negative control", all(
            s.leak_defect_rx1 > 0 and s.leak_defect_rx2 > 0 for s in secrecy
        )))
    return checks


def run_mutant(config: AntennaConfig, seed: int, mutation: str) -> bool:
    """Run one mutated scheme-A trial; True when the verifier catches it.

    A mutant is caught when the trial fails to decode or fails any check
    of scheme A's zero-leakage claim.
    """
    report = run_trial(SchemeId.A, config, seed=seed, mutation=mutation)
    checks = claim_checks([report], schemes.variant(SchemeId.A).leakage)
    return not report.decode_ok or not all(passed for _, passed in checks)
