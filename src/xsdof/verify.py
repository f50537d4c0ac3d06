"""Executable security analysis: rank identities and a subspace oracle.

Two independent formalizations of the zero-leakage claim are provided.

:func:`secrecy_rank_report` gives the ranks of the stacked matrices of the
scheme's security analysis: the *rate* matrix (whose rank counts the
equations a legitimate receiver can use) and the *leakage* matrix (whose
full rank certifies that everything the eavesdropping receiver sees about
the other receiver's symbols is already explained by the injected noise).
Each stacks a block-diagonal lift ``G`` on a map ``M``, and neither is
formed: ``rank([G; M]) = rank(G) + rank(M N)`` with ``N`` the per-slot
null bases of ``G`` (Marsaglia and Styan, 1974;
:func:`matcore.slot_null_bases`).  A rate matrix is the system
:func:`schemes.decode` solves, and the report reads the rank the decoder
decided; it forms each leakage ``M N`` slot by slot
(:func:`matcore.times_block_diagonal`).

:func:`equivocation_subspace_check` never assembles those identities.  It
forms each receiver's observation of the noise and of the other
receiver's secret symbols as explicit linear maps (replays of the run from
the states and precoders, two per receiver, each forming that receiver's
map alone, one receiver after the other) and tests column-space
containment directly: conditioned on its own messages, the secret
symbols' columns must lie inside the noise columns' span, so any secret
value is explainable by some noise realization.  The noise phase is
eliminated before the noise replay, whose input for each receiver spans
the null space of its own phase-1 lift, after exact checks of the phase
structure that elimination rests on (the secret map is zero in the noise
phase and in the receiver's own fresh phase).  :func:`columns_contained` confirms a
clear containment by solving the reduced noise map's square block in the
other receiver's fresh phase (schemes A, B and D), where the secret map
is block diagonal slot by slot (checked exactly too), so the residual off
the noise span is zero in those rows and is formed from the slot blocks
in the final phase.  It proves a leak (schemes C and E, the leaking
mutants) from the noise map's rank by :func:`matcore.full_rank_certified`,
a lower bound on the joint rank, with no joint SVD.  It compares the two
ranks only where neither decides: a containment the block solve cannot
confirm, or a leak too close to the rank cut to certify.

The report and the oracle use the certificate in opposite directions:
the report only to prove a leakage map full rank (no leak), the oracle
only to prove a leak.  A certificate that passed where it should not
would push their verdicts apart, and :func:`claim_checks` requires them
to agree.

Every rank cut is :data:`matcore.REL_TOL`, read at call time, so every
verdict of a trial is made at the same cut.  A cut on a reduced matrix is
floored at the scale of the block eliminated from it (``scale`` in
:func:`matcore.rank`): relative to its own scale, round-off left by the
elimination would count as rank.

:func:`run_trial` is the one pipeline every verdict reads (run, decode, rank
report, oracle), and :func:`claim_checks` the one place that says what a
scheme's leakage claim demands of its trials.  It takes the per-slot null
bases of both receivers' phase-1 lifts once, one batched SVD, and hands
them to the report and the oracle: the oracle's independence rests on its
replay, not on its own copy of bases that are a function of the states
alone.

Leakage is verified structurally, not by Monte Carlo mutual-information
estimation: at the infinite-SNR scale the secrecy claim *is* a rank
identity, and a finite-sample estimator would add noise without evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import matcore, schemes
# lift_rows is no longer called here; the benchmark tracer and its tests
# patch and read it under this module's name
from .channel import AntennaConfig, lift_rows  # noqa: F401
from .errors import DecodeFailure, InvalidTranscript, SingularSystem
from .knowledge import Node
from .regions import frac_json
from .schemes import SchemeId, SchemeSpec, Transcript, carried_map

#: Null-set draws a trial resamples before it gives up.
MAX_RESAMPLES = 8

#: Guard band of the block-solve containment test: the block solve calls
#: the secret columns contained only when their residual off the noise span
#: clears the joint rank cut by this factor, and leaves every other case to
#: the rank pair.
CONTAINMENT_GUARD = 1e2

#: Relative difference allowed between the replayed and the recorded outputs.
REPLAY_TOL = 1e-9


@dataclass(frozen=True)
class SecrecyReport:
    """Rank-identity audit of one transcript.

    ``rate_ranks`` and ``leak_defects`` are ``(rx1, rx2)`` pairs.  Each
    rate rank should reach ``rate_target`` (the per-receiver symbol count);
    a leak defect is the rank the receiver's leakage identity fell short
    by, zero meaning no leakage at the degrees-of-freedom scale.  Reports
    for schemes whose security analysis the source constructions do not
    state in closed rank form (C, and E which claims no secrecy at all) are
    flagged ``advisory``.
    """

    scheme: SchemeId
    rate_ranks: tuple[int, int]
    rate_target: int
    leak_defects: tuple[int, int]
    advisory: bool
    matrices_audited: tuple

    def to_jsonable(self) -> dict:
        return {
            "scheme": self.scheme.value,
            **_per_receiver(self.rate_ranks, "rate_rank_"),
            "rate_target": self.rate_target,
            **_per_receiver(self.leak_defects, "leak_defect_"),
            "advisory": self.advisory,
            "matrices_audited": [
                {"name": name, "rows": r, "cols": c} for name, r, c in self.matrices_audited
            ],
        }


def _per_receiver(pair, prefix: str = "") -> dict:
    """A ``(rx1, rx2)`` pair as the JSON object of its two entries, keyed
    ``prefix + "rx1"`` and ``prefix + "rx2"``."""
    return {prefix + "rx1": pair[0], prefix + "rx2": pair[1]}


def secrecy_rank_report(
    transcript: Transcript, rate_ranks: tuple[int, int], nulls: tuple | None = None
) -> SecrecyReport:
    """The rate and leakage rank identities of a transcript.

    A rate matrix stacks the legitimate receiver's fresh-phase map on the
    retransmitted side-information map: the system :func:`schemes.decode`
    solves.  ``rate_ranks`` are the ``(rx1, rx2)`` ranks the decoders
    decided (``Decoded.rate_rank``, or the ``rate_rank`` of the exception
    one raised); the report forms no rate matrix.

    The leakage matrix for the eavesdropper on receiver ``j``'s symbols
    stacks that eavesdropper's block-diagonal phase-1 lift ``G`` on the
    noise mixing ``M`` it sees during phase ``j+1``; its rank is compared
    against the full ``n*(t1+t2)`` rows.  With an empty noise phase ``M``
    has no columns, so the defect is all ``n*t2`` rows.  It is not formed:
    ``rank([G; M]) = rank(G) + rank(M N)`` with ``N`` the per-slot null
    bases of ``G``, and ``M N`` is the mixing precoder's map
    (:func:`schemes.carried_map`) times
    the per-slot products of the mixed phase-1 lift's blocks with the bases
    (:func:`matcore.times_block_diagonal`).  :func:`matcore.rank_value`
    decides ``rank(M N)`` at a cut that keeps ``G``'s scale; only a map its
    certificate cannot prove full rank (scheme C's, a mutant's deficient
    one) reaches :func:`matcore.rank`.  ``matrices_audited`` lists the
    shapes of the four stacked matrices.

    ``nulls`` are the :class:`matcore.SlotNullBases` of receiver 2's and
    receiver 1's phase-1 lifts, in that order.  :func:`run_trial`
    passes the ones it hands the oracle too; without them the report takes
    one :func:`matcore.slot_null_bases` of both.  The bases of a batch are
    those of each matrix alone, bit for bit, so both give the same report.
    """
    transcript.check_complete()
    m, n = transcript.config.effective_m, transcript.config.n
    t1, t2, t3, t4 = transcript.plan.phase_lengths
    # the (2, t, n, 2m) slot blocks of both receivers' lifts, by phase
    blocks = transcript.states.slot_blocks()
    phase1, phase2, phase3 = np.split(blocks[:, :t1 + t2 + t3], [t1, t1 + t2], axis=1)
    audited = [("rate_rx1", n * (t2 + t4), 2 * m * t2), ("rate_rx2", n * (t3 + t4), 2 * m * t3)]

    def defect(name, g_null, precoder, left, mixed):
        """``[G; M]``'s rank below ``n*(t1+t2)``, ``M`` being ``precoder``'s
        map into the phase blocks ``left`` times the phase-1 blocks ``mixed``."""
        reduced = matcore.times_block_diagonal(
            carried_map(transcript, left, precoder), mixed @ g_null.basis)
        audited.append((name, n * t1 + len(reduced), 2 * m * t1))
        return n * (t1 + t2) - g_null.rank - matcore.rank_value(reduced, g_null.largest)

    g1_null, h1_null = nulls or matcore.slot_null_bases(phase1[[1, 0]])
    defect_rx2 = defect("leak_rx2", g1_null, "theta1", phase2[1], phase1[0])
    defect_rx1 = defect("leak_rx1", h1_null, "theta2", phase3[0], phase1[1])

    return SecrecyReport(
        scheme=transcript.spec.scheme,
        rate_ranks=rate_ranks,
        rate_target=2 * m * t2,
        leak_defects=(defect_rx1, defect_rx2),
        advisory=transcript.spec.leakage != "zero",
        matrices_audited=tuple(audited),
    )


def columns_contained(
    noise: np.ndarray,
    secret: np.ndarray,
    scale: float = 0.0,
    solved: tuple[slice, np.ndarray] | None = None,
) -> bool:
    """Whether ``rank([noise | secret]) == rank(noise)`` at :data:`matcore.REL_TOL`.

    ``scale`` floors the scale both rank cuts are relative to (see
    :func:`matcore.rank`).  Three exits, cheapest first.  When ``solved =
    (rows, blocks)`` gives a square row block ``B = noise[rows]`` on which
    ``secret`` is block diagonal, with ``(t, r, w)`` slot blocks ``blocks``
    (slot ``s``'s ``r`` rows meet the ``w`` columns from ``s * w``), the
    block solve may confirm a clear containment without an SVD (see
    :func:`_solved_contained`).  Otherwise ``rank(noise)`` is taken, and
    the full-rank certificate may prove a leak from it without the joint
    SVD (see :func:`_certified_leak`).  Only what neither exit decides, a
    containment the block solve could not confirm included, compares the
    two ranks; with no noise columns that asks for a secret map of rank 0.

    A block solve that refuses only in its guard band still proved
    something, and it is reused.  Its lower bound proved ``rank(noise)``
    equal to the noise columns, so that rank is not taken; if its residual
    was also below the smallest joint cut, no singular value past the
    noise rank can clear the joint cut, the leak exit cannot pass and is
    not tried, and the joint SVD decides.
    """
    cleared = _solved_contained(noise, secret, *solved, scale) if solved is not None else 0
    if cleared == 3:
        return True
    base = noise.shape[1] if cleared else matcore.rank(noise, scale).value
    if cleared < 2 and _certified_leak(noise, secret, base, scale):
        return False
    return matcore.rank(np.hstack([noise, secret]), scale).value == base


def _certified_leak(noise: np.ndarray, secret: np.ndarray, r: int, scale: float) -> bool:
    """The leak exit of :func:`columns_contained`: whether
    :func:`matcore.full_rank_certified` proves ``rank(J) > r`` for ``J =
    [noise | secret]``, ``r`` being ``rank(noise, scale)``.  False proves
    nothing.

    The probe is ``[noise V | secret w] = J K``, ``K = diag(V, w)``, with
    ``V`` the top ``r`` eigenvectors of ``noise^H noise`` and ``w`` the unit
    vector with ``c`` equal entries, ``c`` the secret columns.  No singular
    value of ``J K`` exceeds the same one of ``J`` times ``||K||_2``
    (Poincare's separation theorem where ``K`` is orthonormal), so
    ``sigma_{r+1}(J) >= sigma_min(probe) / ||K||_2``.  A pass proves
    ``sigma_min(probe) > sqrt(2) REL_TOL s`` of the computed probe, where
    ``s`` is ``max(||J||_F, scale)``, the bound on the joint cut's scale,
    inflated by ``slack = 32 (k + c) u`` (``k`` the noise columns, ``u``
    the unit round-off) to cover ``||K||_2 <= 1 + slack`` and, over
    ``REL_TOL``, the product's rounding, at most ``slack (sqrt(r) + 1)
    ||J||_F``.  So ``sigma_{r+1}(J)`` clears the joint cut
    (``notes/decisions.md`` §4).

    With ``r`` as many as the rows the joint rank cannot exceed ``r`` and
    nothing is tried; with ``r = 0`` the probe is ``secret w`` alone and no
    eigenvector is computed.
    """
    rows, k = noise.shape
    c = secret.shape[1]
    if r >= rows or c == 0:
        return False
    spanned = noise[:, :0]
    if r:
        _, vectors = np.linalg.eigh(noise.conj().T @ noise)
        spanned = noise @ vectors[:, k - r:]
    probe = np.column_stack([spanned, secret @ np.full(c, c**-0.5)])
    joint = float(np.hypot(np.linalg.norm(noise), np.linalg.norm(secret)))
    slack = 32 * (k + c) * matcore.UNIT_ROUNDOFF
    inflation = 1 + slack * (1 + (np.sqrt(r) + 1) / matcore.REL_TOL)
    return matcore.full_rank_certified(probe, max(joint, scale) * inflation)


def _solved_contained(
    noise: np.ndarray, secret: np.ndarray, rows: slice, blocks: np.ndarray, scale: float
) -> int:
    """The block-solve exit of :func:`columns_contained`: how many of
    :func:`_bounds_cleared`'s three tests its bounds pass, 3 meaning a
    clear containment.

    With ``B = noise[rows]`` square and ``z = B^-1 secret[rows]``: ``B`` is
    a row block of ``noise``, so ``1/||B^-1||_F <= sigma_min(B) <=
    sigma_k(noise) <= sigma_k([noise | secret])`` with ``k`` the noise
    columns; and ``[noise | secret]`` is within ``||secret - noise z||_F``
    of the rank-``k`` ``[noise | noise z]``, which bounds its every later
    singular value.  A block that is not square, is empty or is exactly
    singular proves nothing (0) and leaves the decision to the rank pair.

    ``secret - noise z`` is zero in ``rows``; in the other rows ``R`` it
    is ``secret[R] - (noise[R] B^-1) secret[rows]``.  ``secret[rows]`` is
    block diagonal with the slot blocks ``blocks``, so the second product
    is one batched ``(t, |R|, r) @ (t, r, w)`` product per run of ``R``'s
    rows before and after ``rows``, kept in slot order, and the secret's
    rows are subtracted from it in place through a strided view.  The
    oracle's ``rows`` come first, so ``R`` is the final phase alone.
    """
    block = noise[rows]
    if block.shape[0] != block.shape[1] or block.size == 0:
        return 0
    try:
        inverse = np.linalg.inv(block)
    except np.linalg.LinAlgError:
        return 0
    t, r, w = blocks.shape
    start, stop, _ = rows.indices(len(noise))
    residual = 0.0
    for part in (slice(0, start), slice(stop, len(noise))):
        k = part.stop - part.start
        if k:
            mixed = noise[part] @ inverse
            product = np.matmul(mixed.reshape(k, t, r).swapaxes(0, 1), blocks)
            product -= secret[part].reshape(k, t, w).swapaxes(0, 1)
            residual = float(np.hypot(residual, np.linalg.norm(product)))
    weakest = 1.0 / float(np.linalg.norm(inverse))
    return _bounds_cleared(_column_norms(noise), secret, weakest, residual, scale)


def _column_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norms of ``x``'s columns, ``np.linalg.norm(x, axis=0)``, taken
    from its real and imaginary views with no complex temporary."""
    return np.sqrt(np.einsum("ij,ij->j", x.real, x.real) + np.einsum("ij,ij->j", x.imag, x.imag))


def _bounds_cleared(
    noise_norms: np.ndarray, secret: np.ndarray, weakest: float, residual: float, scale: float
) -> int:
    """How many of three tests, in order, the block solve's bounds pass
    for ``[noise | secret]``, ``noise`` of column norms ``noise_norms``.

    ``weakest`` is a lower bound on the joint matrix's ``k``-th singular
    value, ``k`` being the noise columns, and ``residual`` an upper bound on
    its singular values past the ``k``-th.  The joint matrix's rank cut is
    :data:`matcore.REL_TOL` times the larger of ``scale`` and its largest
    singular value, which lies between its largest column norm and its
    Frobenius norm.

    1. ``weakest`` clears the largest possible cut: no noise column is
       lost, and since the noise's own cut is no larger, ``rank(noise,
       scale)`` is ``k``.
    2. ``residual`` is at most the smallest possible cut too: no singular
       value past the ``k``-th counts, so no leak can be proved.
    3. ``residual`` clears that cut by :data:`CONTAINMENT_GUARD`: the
       secret lies in the noise span by a margin no rank cut overturns, a
       containment.

    The guard stands in for the rounding the bounds leave out, so only the
    third decides a verdict; the first two spare :func:`columns_contained`
    the noise rank and the leak exit.
    """
    secret_norms = _column_norms(secret)
    upper = max(float(np.hypot(np.linalg.norm(noise_norms), np.linalg.norm(secret_norms))), scale)
    if weakest <= matcore.REL_TOL * upper:
        return 0
    noise_col = float(np.max(noise_norms, initial=0.0))
    cut = matcore.REL_TOL * max(noise_col, float(np.max(secret_norms, initial=0.0)), scale)
    if residual > cut:
        return 1
    return 3 if residual * CONTAINMENT_GUARD <= cut else 2


def _slot_blocks(rows: np.ndarray, n: int, m: int, t: int, what: str) -> np.ndarray:
    """The ``(t, n, 2m)`` diagonal blocks of a map's ``n t`` rows over
    ``t`` slots whose columns are the inputs of the same slots, in slot
    order.

    Those rows are block diagonal: slot ``s``'s rows meet only the ``2m``
    columns of slot ``s``.  A map whose rows reach outside the diagonal
    blocks is refused, naming ``what``.
    """
    slots = np.arange(t)
    blocks = rows.reshape(t, n, t, 2 * m)[slots, :, slots]
    if np.count_nonzero(rows) != np.count_nonzero(blocks):
        raise InvalidTranscript(f"{what} are not block diagonal")
    return blocks


def equivocation_subspace_check(
    transcript: Transcript, nulls: tuple | None = None
) -> tuple[bool, bool]:
    """Column-space containment oracle for zero leakage, at both receivers.

    Each receiver is the eavesdropper on the other's symbols: conditioned on
    its own messages, those symbols must enter its observation only inside
    the noise columns' span.  Returns the verdicts ``(rx1, rx2)``: True iff
    ``rank([noise cols | secret cols])`` equals ``rank([noise cols])``.

    The noise phase is eliminated before the replay.  A secret map's
    phase-1 rows are zero (checked exactly), and receiver ``j``'s phase-1
    rows of the noise map are its block-diagonal phase-1 lift ``G_j``, so
    ``secret = noise @ x`` needs ``G_j x = 0``, ``x = N_j z`` with ``N_j``
    the per-slot null bases of ``G_j``: the secret map's later rows must lie
    in the span of the noise map of the input ``N_j z``.  The bases come
    from the phase-1 slot blocks of the channel states: ``nulls``, the
    :class:`matcore.SlotNullBases` of receiver 1's and receiver 2's, which
    :func:`run_trial` shares with the rank report, or else one
    :func:`matcore.slot_null_bases` of both.  Each receiver is decided in
    turn from two replays (:func:`schemes.linear_response` with
    ``eavesdropper``), four in all: one of the other receiver's secret
    group, which forms this receiver's map alone, then one of the noise,
    which forms this receiver's map of ``N_j z`` alone.  Both maps are
    freed before the next receiver's are formed.  :func:`columns_contained`
    decides on them with its rank cuts kept at ``G_j``'s scale.  Receiver
    ``j``'s own phase-1 output of ``N_j z`` is zero, so its own fresh
    phase's mixing, its rows there and the final-phase product that
    retransmits the other receiver's outputs of that phase are never
    formed.  With an empty noise phase the noise maps have no columns, so
    the secret maps must have rank 0.

    A secret map's rows are those of the noise phase, the receiver's own
    fresh phase, the other fresh phase and the final phase, in that order.
    Its rows in the receiver's own fresh phase are zero too (checked
    exactly) and are dropped with the noise map's, so the secret rows kept
    are the map's tail, a view, and both maps hold the rows of the other
    receiver's fresh phase, then of the final phase.  The first are the row
    block :func:`columns_contained` solves when it is square: for schemes
    A, B and D the block is ``(2m-n) t1`` square, and its solve replaces
    the rank pair's two SVDs.  The secret map's rows there are block
    diagonal, since that phase's inputs are the secret group itself
    (checked exactly); the solve reads their slot blocks, and its residual
    is formed in the final phase alone.  A leaking receiver (schemes C and
    E, the leaking mutants) is decided by the certificate from the reduced
    noise map's rank, one SVD of that map and none of the joint matrix;
    with no noise columns, by none at all.
    """
    transcript.check_complete()
    m, n = transcript.config.effective_m, transcript.config.n
    t1, t2, t3, _ = transcript.plan.phase_lengths
    p1 = n * t1
    if nulls is None:
        nulls = matcore.slot_null_bases(transcript.states.slot_blocks()[:, :t1])

    def contained(rx, group):
        """Receiver ``rx + 1``'s verdict; its maps are freed on return."""
        # the secret map's rows of the receiver's own fresh phase, then of the other's
        own_t, other_t = (t2, t3) if rx == 0 else (t3, t2)
        own = slice(p1, p1 + n * own_t)
        other = slice(own.stop, own.stop + n * other_t)
        secret = schemes.linear_response(transcript, group, eavesdropper=True)[rx]
        if np.any(secret[:p1]):
            raise InvalidTranscript("secret symbols reach the receiver during the noise phase")
        if np.any(secret[own]):
            raise InvalidTranscript("secret symbols reach the receiver during its own fresh phase")
        # the other fresh phase's inputs are the group itself
        what = "the secret map's rows in the other receiver's fresh phase"
        solved = _slot_blocks(secret[other], n, m, other_t, what)
        bases = [None, None]
        bases[rx] = nulls[rx].basis
        noise = schemes.linear_response(transcript, "u", eavesdropper=True, bases=bases)[rx]
        rows = slice(0, n * other_t)
        return columns_contained(noise, secret[other.start:], nulls[rx].largest, (rows, solved))

    return contained(0, "v2"), contained(1, "v1")


def decode_error(transcript: Transcript, receiver: Node, symbols: np.ndarray) -> float:
    """Relative error of the receiver's decoded ``symbols`` against the sent
    ground truth."""
    sent = transcript.symbols.v1 if receiver is Node.RX1 else transcript.symbols.v2
    return float(np.linalg.norm(symbols - sent) / max(np.linalg.norm(sent), 1e-300))


def replay_matches_recorded(transcript: Transcript) -> bool:
    """Cross-check: the coefficient maps the oracle reads, times the sent
    symbols and summed over the groups, reproduce the recorded run to
    :data:`REPLAY_TOL`."""
    m = transcript.config.effective_m
    replayed = sum(
        np.stack(schemes.linear_response(transcript, group))
        @ schemes._per_slot(getattr(transcript.symbols, group), m).reshape(-1)
        for group in ("u", "v1", "v2")
    )
    for idx, stack in enumerate(replayed):
        recorded = np.concatenate([out[idx] for out in transcript.outputs])
        scale = max(float(np.linalg.norm(recorded)), 1.0)
        if float(np.linalg.norm(stack - recorded)) > REPLAY_TOL * scale:
            return False
    return True


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one seeded trial of spec row ``spec``.

    Each per-receiver outcome is one ``(rx1, rx2)`` pair:
    ``decode_errors``, the relative error of each decode (None where the
    decoder refused its system), and ``oracle``, the subspace oracle's
    verdicts (``(None, None)`` when it did not run).  The decode verdicts
    and the DoF are derived from them, not stored.
    """

    spec: SchemeSpec
    config: AntennaConfig
    seed: int
    attempts: int
    plan: schemes.PhasePlan
    decode_errors: tuple[float | None, float | None]
    secrecy: SecrecyReport
    oracle: tuple[bool | None, bool | None]

    @property
    def decoded(self) -> tuple[bool, bool]:
        """Per receiver, whether its decode error is within ``DECODE_TOL``."""
        return tuple(e is not None and e <= schemes.DECODE_TOL for e in self.decode_errors)

    @property
    def decode_ok(self) -> bool:
        return all(self.decoded)

    @property
    def dof(self) -> Fraction | None:
        """The plan's per-receiver DoF, the same for both receivers, when
        both decode; else None."""
        return self.plan.dof_target() if self.decode_ok else None

    def to_jsonable(self) -> dict:
        dof = self.dof
        return {
            "scheme": self.spec.scheme.value,
            "config": {"m": self.config.m, "n": self.config.n},
            "model": self.spec.model.value,
            "seed": self.seed,
            "attempts": self.attempts,
            "plan": self.plan.to_jsonable(),
            "decode": _per_receiver([
                {"ok": ok, "relative_error": err}
                for ok, err in zip(self.decoded, self.decode_errors)
            ]),
            "secrecy": self.secrecy.to_jsonable(),
            "subspace_oracle": _per_receiver(self.oracle),
            "empirical_dof": None if dof is None else _per_receiver([frac_json(dof)] * 2),
        }


def run_trial(
    spec: SchemeSpec,
    config: AntennaConfig,
    seed: int = 0,
    mutation: str | None = None,
    with_oracle: bool = True,
) -> TrialReport:
    """One seeded trial of ``spec``: run, decode, rank report, subspace oracle, DoF.

    Null-set events are resampled here and nowhere else: a
    :class:`SingularSystem` from the run (a deficient state or precoder
    draw, a singular encoder solve) or from an unmutated decode resamples
    the whole trial at a derived seed, as the almost-sure rank statements
    permit.  A mutant's singular decode, and any decode residual above
    tolerance, is reported, never resampled.  Each decode, failed or not,
    gives its receiver's rate rank to the rank report.  One
    :func:`matcore.slot_null_bases` of both receivers' phase-1 slot blocks
    serves the rank report and the oracle.
    """
    # an unmutated scheme's singular decode is a null-set draw too
    recorded = (SingularSystem, DecodeFailure) if mutation else DecodeFailure
    trial_seed = seed
    for attempt in range(1, MAX_RESAMPLES + 1):
        try:
            transcript = schemes.run(spec, config, seed=trial_seed, mutation=mutation)
            outcomes = []  # (decode error, rate rank) per receiver
            for receiver in (Node.RX1, Node.RX2):
                try:
                    decoded = schemes.decode(transcript, receiver)
                except recorded as exc:
                    outcomes.append((None, exc.rate_rank))
                else:
                    error = decode_error(transcript, receiver, decoded.symbols)
                    outcomes.append((error, decoded.rate_rank))
            break
        except SingularSystem:  # a null-set draw: resample
            trial_seed = _resample_seed(seed, attempt)
    else:
        raise SingularSystem(f"trial for seed {seed} kept drawing singular systems")

    errors, ranks = zip(*outcomes)
    # both receivers' phase-1 null bases, for the report and the oracle
    t1 = transcript.plan.phase_lengths[0]
    nulls = matcore.slot_null_bases(transcript.states.slot_blocks()[:, :t1])
    return TrialReport(
        spec=spec,
        config=config,
        seed=seed,
        attempts=attempt,
        plan=transcript.plan,
        decode_errors=errors,
        secrecy=secrecy_rank_report(transcript, ranks, (nulls[1], nulls[0])),
        oracle=equivocation_subspace_check(transcript, nulls) if with_oracle else (None, None),
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
    checks = [
        ("rate ranks", all(
            rank == r.secrecy.rate_target for r in reports for rank in r.secrecy.rate_ranks
        )),
        ("report/oracle agreement", all(
            oracle is None or (defect == 0) == oracle
            for r in reports for defect, oracle in zip(r.secrecy.leak_defects, r.oracle)
        )),
    ]
    defects = [defect for r in reports for defect in r.secrecy.leak_defects]
    if leakage == "zero":
        checks.append(("zero leakage", all(defect == 0 for defect in defects)))
    if leakage == "positive":
        checks.append(("negative control", all(defect > 0 for defect in defects)))
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
