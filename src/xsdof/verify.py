"""Executable security analysis: rank identities and a subspace oracle.

Two independent formalizations of the zero-leakage claim are provided.

:func:`secrecy_rank_report` computes the ranks of the stacked matrices of
the scheme's security analysis from the transcript's channel blocks and
precoders: the *rate* matrix (whose rank counts the equations a legitimate
receiver can use) and the *leakage* matrix (whose full rank certifies that
everything the eavesdropping receiver sees about the other receiver's
symbols is already explained by the injected noise).  Each stacks a
block-diagonal lift ``G`` on a map ``M``, and neither is formed:
``rank([G; M]) = rank(G) + rank(M N)`` with ``N`` the per-slot null bases
of ``G`` (Marsaglia and Styan, 1974; :func:`matcore.slot_null_bases`).

:func:`equivocation_subspace_check` never assembles those identities.  It
reads off each receiver's observation of the noise and of the other
receiver's secret symbols as explicit linear maps (replays of the run with
identity-matrix symbols: one of the noise for both receivers, one of each
secret group) and tests column-space containment directly:
conditioned on its own messages, the secret symbols' columns must lie
inside the noise columns' span, so any secret value is explainable by some
noise realization.  The noise phase is eliminated from both maps first,
slot by slot, after exact checks of the phase structure that elimination
rests on (the secret map is zero in the noise phase and in the receiver's
own fresh phase).  :func:`columns_contained` confirms a clear containment
by solving the reduced noise map's square block in the other receiver's
fresh phase (schemes A, B and D), or else from one QR of the reduced noise
map and the secret columns' residual off its span; it compares the two
ranks in every other case: a leak, a rank-deficient noise map, or a
residual too close to the rank cut to call.

Every rank cut on a reduced matrix is floored at the scale of the block
eliminated from it (``scale`` in :func:`matcore.rank`): relative to its own
scale, round-off left by the elimination would count as rank.

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
# lift_rows is no longer called here; the benchmark tracer and its tests
# patch and read it under this module's name
from .channel import AntennaConfig, lift_rows  # noqa: F401
from .errors import DecodeFailure, IllConditioned, InvalidTranscript, SingularSystem
from .knowledge import Node
from .regions import frac_json
from .schemes import SchemeId, SchemeSpec, Transcript, carried_map, side_info

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


def secrecy_rank_report(transcript: Transcript, rel_tol: float = matcore.DEFAULT_REL_TOL) -> SecrecyReport:
    """Compute the rate and leakage rank identities for a transcript.

    The leakage matrix for the eavesdropper on receiver ``j``'s symbols
    stacks that eavesdropper's phase-1 map on the noise with the noise
    mixing it sees during phase ``j+1``; its rank is compared against the
    full ``n*(t1+t2)`` rows.  Rate matrices stack the legitimate receiver's
    fresh-phase map with the retransmitted side-information map.  With an
    empty noise phase the mixing map has no columns, so the defect is all
    ``n*t2`` rows.

    Neither stacked matrix is formed.  Its top part ``G`` is a block-diagonal
    lift, so ``rank([G; M]) = rank(G) + rank(M N)`` with ``N`` the per-slot
    null bases of ``G`` (:func:`matcore.slot_null_bases`), and the rank cut
    on ``M N`` keeps ``G``'s scale.  The maps under a precoder come from the
    phases' slot blocks (:func:`schemes.carried_map`), so no dense lift is
    built either.  ``matrices_audited`` lists the shapes of the stacked
    matrices the identities are about.
    """
    transcript.check_complete()
    cfg = transcript.config
    m, n = cfg.effective_m, cfg.n
    r1, r2, r3, r4 = transcript.phase_ranges()
    t1, t2 = len(r1), len(r2)
    blocks = transcript.states.slot_blocks(m)

    def diagonal(rx, slots):
        """The ``(t, n, 2m)`` slot blocks of receiver ``rx``'s lift over ``slots``."""
        return blocks[rx - 1, np.asarray(slots, int) - 1]

    def nulls(*matrices):
        """Null bases of each ``(rx, slots)`` lift, from one batched SVD."""
        return matcore.slot_null_bases(np.stack([diagonal(*mat) for mat in matrices]), rel_tol)

    audited = []

    def stacked_rank(name, g_null, reduced):
        """``rank([G; M])`` from the null bases of ``G`` and ``M N``."""
        t = len(g_null.ranks)
        audited.append((name, n * t + reduced.shape[0], 2 * m * t))
        return g_null.rank + matcore.rank(reduced, rel_tol, g_null.largest).value

    # --- rate identities -------------------------------------------------
    h2_null, g3_null = nulls((1, r2), (2, r3))
    s2 = side_info(transcript, h2_null.apply_blocks(diagonal(2, r2)))
    s3 = side_info(transcript, g3_null.apply_blocks(diagonal(1, r3)))
    rate1 = stacked_rank("rate_rx1", h2_null, carried_map(transcript, diagonal(1, r4), "phi1") @ s2)
    rate2 = stacked_rank("rate_rx2", g3_null, carried_map(transcript, diagonal(2, r4), "phi2") @ s3)
    rate_target = 2 * m * t2

    # --- leakage identities ----------------------------------------------
    leak_rows = n * (t1 + t2)
    g1_null, h1_null = nulls((2, r1), (1, r1))
    g2, h3 = diagonal(2, r2), diagonal(1, r3)
    reduced_rx2 = carried_map(transcript, g2, "theta1") @ g1_null.apply_blocks(diagonal(1, r1))
    reduced_rx1 = carried_map(transcript, h3, "theta2") @ h1_null.apply_blocks(diagonal(2, r1))
    defect_rx2 = leak_rows - stacked_rank("leak_rx2", g1_null, reduced_rx2)
    defect_rx1 = leak_rows - stacked_rank("leak_rx1", h1_null, reduced_rx1)

    return SecrecyReport(
        scheme=transcript.spec.scheme,
        rate_rank_rx1=rate1,
        rate_rank_rx2=rate2,
        rate_target=rate_target,
        leak_defect_rx1=defect_rx1,
        leak_defect_rx2=defect_rx2,
        advisory=transcript.spec.leakage != "zero",
        matrices_audited=tuple(audited),
    )


def columns_contained(
    noise: np.ndarray,
    secret: np.ndarray,
    rel_tol: float = matcore.DEFAULT_REL_TOL,
    scale: float = 0.0,
    rows: slice | None = None,
) -> bool:
    """Whether ``rank([noise | secret]) == rank(noise)`` at ``rel_tol``.

    ``scale`` floors the scale both rank cuts are relative to (see
    :func:`matcore.rank`).  Two exits confirm a clear containment without
    the joint SVD (see :func:`_clearly_contained`):

    * the block solve: when ``rows`` selects a square row block ``B`` of
      ``noise``, ``z = B^-1 secret[rows]``, with ``1/||B^-1||_F`` as the
      lower bound on ``noise``'s smallest singular value and the residual
      of ``secret - noise z`` over all rows;
    * the projection: one QR of ``noise`` gives its rank (``R`` has
      ``noise``'s singular values) and, when that rank is full, the
      residual of ``secret`` off the noise span.

    Every other case, a leak or a rank-deficient ``noise`` included,
    compares the two ranks; with no noise columns that asks for a secret
    map of rank 0.
    """
    if rows is not None and _solved_contained(noise, secret, rows, rel_tol, scale):
        return True
    q, r = matcore.qr(noise)
    base = matcore.rank(r, rel_tol, scale)
    if base.value == noise.shape[1]:
        residual = float(np.linalg.norm(secret - q @ (q.conj().T @ secret)))
        weakest = base.smallest_kept_singular_value
        if _clearly_contained(np.linalg.norm(r, axis=0), secret, weakest, residual, rel_tol, scale):
            return True
    return matcore.rank(np.hstack([noise, secret]), rel_tol, scale).value == base.value


def _solved_contained(
    noise: np.ndarray, secret: np.ndarray, rows: slice, rel_tol: float, scale: float
) -> bool:
    """The block-solve exit of :func:`columns_contained`.

    The square block ``B = noise[rows]`` is a row block of ``noise``, so
    ``1/||B^-1||_F <= sigma_min(B) <= sigma_k(noise) <= sigma_k([noise |
    secret])`` with ``k`` the noise columns; and ``[noise | secret]`` is
    within ``||secret - noise z||_F`` of the rank-``k`` ``[noise | noise
    z]``, which bounds its every later singular value.  A block that is not
    square, is empty or is exactly singular leaves the decision to the
    projection.
    """
    block = noise[rows]
    if block.shape[0] != block.shape[1] or block.size == 0:
        return False
    try:
        inverse = np.linalg.inv(block)
    except np.linalg.LinAlgError:
        return False
    residual = float(np.linalg.norm(secret - noise @ (inverse @ secret[rows])))
    weakest = 1.0 / float(np.linalg.norm(inverse))
    noise_norms = np.linalg.norm(noise, axis=0)
    return _clearly_contained(noise_norms, secret, weakest, residual, rel_tol, scale)


def _clearly_contained(
    noise_norms: np.ndarray,
    secret: np.ndarray,
    weakest: float,
    residual: float,
    rel_tol: float,
    scale: float,
) -> bool:
    """Whether ``secret`` lies in the span of a full-column-rank ``noise``
    (column norms ``noise_norms``) by a margin no rank cut overturns.

    ``weakest`` is a lower bound on the joint matrix's ``k``-th singular
    value, ``k`` being the noise columns, and ``residual`` an upper bound on
    its singular values past the ``k``-th.  The joint matrix's rank cut is
    ``rel_tol`` times the larger of ``scale`` and its largest singular
    value, which lies between its largest column norm and its Frobenius
    norm.  ``residual`` must clear the smallest possible cut by
    :data:`CONTAINMENT_GUARD`, and ``weakest`` the largest possible cut, so
    that no noise column is lost.
    """
    secret_norms = np.linalg.norm(secret, axis=0)
    upper = max(float(np.hypot(np.linalg.norm(noise_norms), np.linalg.norm(secret_norms))), scale)
    if weakest <= rel_tol * upper:
        return False
    noise_col = float(np.max(noise_norms, initial=0.0))
    lower = max(noise_col, float(np.max(secret_norms, initial=0.0)), scale)
    return residual * CONTAINMENT_GUARD <= rel_tol * lower


def _phase1_blocks(noise: np.ndarray, m: int, n: int, t1: int) -> np.ndarray:
    """The ``(t1, n, 2m)`` diagonal blocks of a noise map's phase-1 rows.

    The noise map's columns are the phase-1 inputs, so its phase-1 rows are
    the receiver's block-diagonal phase-1 lift; a map whose phase-1 rows
    reach outside the diagonal blocks is refused.
    """
    rows = noise[: n * t1]
    slots = np.arange(t1)
    # rows[s * n + a, i * m * t1 + s' * m + b]: slot s, transmitter i + 1, slot s'
    blocks = rows.reshape(t1, n, 2, t1, m)[slots, :, :, slots]
    if np.count_nonzero(rows) != np.count_nonzero(blocks):
        raise InvalidTranscript("the noise map's phase-1 rows are not block diagonal")
    return blocks.reshape(t1, n, 2 * m)


def _secret_past_phase1(
    transcript: Transcript, group: str, rx: int, p1: int, own: slice
) -> np.ndarray:
    """Receiver ``rx + 1``'s map of secret group ``group`` past its first
    ``p1`` rows, the noise phase, as an owned copy (the replay is freed on
    return).  The secret symbols enter after the noise phase and outside
    the receiver's own fresh phase (rows ``own`` of the copy), so a map
    with nonzero rows in either is refused."""
    secret = schemes.linear_response(transcript, group)[rx]
    if np.any(secret[:p1]):
        raise InvalidTranscript("secret symbols reach the receiver during the noise phase")
    secret = secret[p1:].copy()
    if np.any(secret[own]):
        raise InvalidTranscript("secret symbols reach the receiver during its own fresh phase")
    return secret


def equivocation_subspace_check(
    transcript: Transcript, rel_tol: float = matcore.DEFAULT_REL_TOL
) -> tuple[bool, bool]:
    """Column-space containment oracle for zero leakage, at both receivers.

    Each receiver is the eavesdropper on the other's symbols: conditioned on
    its own messages, those symbols must enter its observation only inside
    the noise columns' span.  One replay of the noise group ``u`` gives both
    receivers' noise maps, and one replay each of ``v2`` and ``v1`` the
    secret maps of receivers 1 and 2.  Returns the verdicts ``(rx1, rx2)``:
    True iff ``rank([noise cols | secret cols])`` equals ``rank([noise
    cols])``.

    The noise phase is eliminated slot by slot first.  A secret map's
    phase-1 rows are zero and a noise map's are its receiver's
    block-diagonal phase-1 lift ``G`` (both checked exactly; a replay that
    breaks either raises :class:`InvalidTranscript`).  So ``secret = noise
    @ x`` needs ``G x = 0``, ``x = N z`` with ``N`` the per-slot null bases
    of ``G``, and the secret map's later rows must lie in the span of the
    noise map's later rows times ``N``: that is what
    :func:`columns_contained` decides, with its rank cuts kept at ``G``'s
    scale.  With an empty noise phase ``G`` is empty and the noise maps
    have no columns, so the secret maps must have rank 0.

    A secret map's rows in the receiver's own fresh phase are zero too
    (checked exactly), and the reduced noise map's rows in the other
    receiver's fresh phase are the row block :func:`columns_contained`
    solves when it is square: for schemes A, B and D the block is
    ``(2m-n) t1`` square, and its solve replaces the QR.
    """
    transcript.check_complete()
    m, n = transcript.config.effective_m, transcript.config.n
    t1, t2, t3, _ = (len(slots) for slots in transcript.phase_ranges())
    p1 = n * t1
    noise = schemes.linear_response(transcript, "u")
    blocks = np.stack([_phase1_blocks(half, m, n, t1) for half in noise])
    nulls = matcore.slot_null_bases(blocks, rel_tol)
    reduced = [(null.apply(half[p1:]), null.largest) for null, half in zip(nulls, noise)]
    # the reduced maps are new arrays: the noise replay is freed before the secret ones
    del noise
    # past the noise phase, the rows of receiver 1's and receiver 2's fresh phases
    fresh = (slice(0, n * t2), slice(n * t2, n * (t2 + t3)))
    return tuple(
        columns_contained(
            noise_map,
            _secret_past_phase1(transcript, group, rx, p1, fresh[rx]),
            rel_tol,
            scale,
            fresh[1 - rx],
        )
        for rx, group, (noise_map, scale) in zip((0, 1), ("v2", "v1"), reduced)
    )


def decode_error(transcript: Transcript, receiver: Node) -> float:
    """Relative error of the decoded symbols against the sent ground truth."""
    decoded = schemes.decode(transcript, receiver)
    sent = transcript.symbols.v1 if receiver is Node.RX1 else transcript.symbols.v2
    return float(np.linalg.norm(decoded - sent) / max(np.linalg.norm(sent), 1e-300))


def replay_matches_recorded(transcript: Transcript, tol: float = 1e-9) -> bool:
    """Cross-check: the coefficient maps the oracle reads, times the sent
    symbols and summed over the groups, reproduce the recorded run."""
    replayed = sum(
        np.stack(schemes.linear_response(transcript, group)) @ getattr(transcript.symbols, group)
        for group in ("u", "v1", "v2")
    )
    for idx, stack in enumerate(replayed):
        recorded = np.concatenate([out[idx] for out in transcript.outputs])
        scale = max(float(np.linalg.norm(recorded)), 1.0)
        if float(np.linalg.norm(stack - recorded)) > tol * scale:
            return False
    return True


@dataclass
class TrialReport:
    """Outcome of one seeded trial of spec row ``spec``.

    ``wall_time_s`` is informational only and never serialized, so that
    identical flags and seed produce byte-identical output.
    """

    spec: SchemeSpec
    config: AntennaConfig
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
            "scheme": self.spec.scheme.value,
            "config": {"m": self.config.m, "n": self.config.n},
            "model": self.spec.model.value,
            "seed": self.seed,
            "attempts": self.attempts,
            "plan": self.plan.to_jsonable(),
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
    spec: SchemeSpec,
    config: AntennaConfig,
    seed: int = 0,
    mutation: str | None = None,
    with_oracle: bool = True,
) -> TrialReport:
    """One seeded trial of ``spec``: run, decode, rank report, subspace oracle, DoF.

    Null-set channel draws (singular or ill-conditioned solve) are resampled
    with a derived seed, as the almost-sure rank statements permit; a decode
    residual above tolerance is reported, never resampled.
    """
    t_start = time.perf_counter()
    trial_seed = seed
    for attempt in range(1, MAX_RESAMPLES + 1):
        transcript = schemes.run(spec, config, seed=trial_seed, mutation=mutation)
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
        oracle_rx1, oracle_rx2 = equivocation_subspace_check(transcript)
    ok1 = errs[Node.RX1] is not None and errs[Node.RX1] <= schemes.DECODE_TOL
    ok2 = errs[Node.RX2] is not None and errs[Node.RX2] <= schemes.DECODE_TOL
    dof1 = dof2 = None
    if ok1 and ok2:
        dof1 = dof2 = transcript.plan.dof_target()
    return TrialReport(
        spec=spec,
        config=config,
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
    spec = schemes.variant(SchemeId.A)
    report = run_trial(spec, config, seed=seed, mutation=mutation)
    checks = claim_checks([report], spec.leakage)
    return not report.decode_ok or not all(passed for _, passed in checks)
