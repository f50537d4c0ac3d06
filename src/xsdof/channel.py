"""The two-transmitter / two-receiver fading channel.

Per-slot channel states (four independent complex-Gaussian blocks, full
rank almost surely), the noiseless channel map and the feedback-topology
descriptors.

A :class:`StateSequence` keeps every slot's four blocks in one read-only
``(horizon, 2, 2, n, m)`` array, ``blocks[t - 1, j - 1, i - 1]`` being
``h_ji`` at slot ``t``; that array is the only form of channel state.  The
ledger grants slot views of it, and the decoder, the rank report and the
replay read a phase as its ``(t, n, 2m)`` slot blocks
(:func:`diagonal_blocks`), never as a dense block-diagonal lift.

Noise is omitted entirely, not merely made small: every decode and secrecy
check in this package is a statement about the noiseless linear maps, which
is exactly the level at which degrees-of-freedom accounting lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from . import matcore
from .errors import InvalidInput, InvalidShape, SingularSystem


class Regime(Enum):
    """Antenna-count regime; boundaries resolve to the smaller branch.

    Every regime-dependent formula in the package agrees across the shared
    boundaries (2m = n and m = n), which the test suite asserts by
    evaluating both branches there.
    """

    DEGENERATE = "degenerate"  # 2m <= n: no secure transmission possible
    MID = "mid"                # n <= 2m <= 2n
    HIGH = "high"              # 2m >= 2n


class FeedbackModel(Enum):
    """Who learns which receiver outputs and whether transmitters get delayed CSI."""

    ASYM_FB_DELAYED_CSIT = "asym-fb-dcsit"
    SYM_FB_NO_CSIT = "sym-fb"
    ASYM_FB_ONLY = "asym-fb"
    ASYM_FB_DCSIT_TX1_ONLY = "asym-fb-dcsit-tx1"

    def feedback_sources(self, tx: int) -> tuple[int, ...]:
        """Receiver indices whose outputs are fed back to transmitter ``tx``."""
        if tx not in (1, 2):
            raise InvalidInput(f"transmitter index must be 1 or 2, got {tx}")
        if self is FeedbackModel.SYM_FB_NO_CSIT:
            return (1, 2)
        return (tx,)

    def grants_delayed_csi(self, tx: int) -> bool:
        """Whether transmitter ``tx`` receives the delayed channel state."""
        if tx not in (1, 2):
            raise InvalidInput(f"transmitter index must be 1 or 2, got {tx}")
        if self is FeedbackModel.ASYM_FB_DELAYED_CSIT:
            return True
        if self is FeedbackModel.ASYM_FB_DCSIT_TX1_ONLY:
            return tx == 1
        return False


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts: ``m`` per transmitter, ``n`` per receiver."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InvalidInput(f"antenna counts must be >= 1, got ({self.m}, {self.n})")

    @property
    def effective_m(self) -> int:
        """Transmit antennas a scheme actually drives; extra ones stay silent."""
        return min(self.m, self.n)

    @property
    def regime(self) -> Regime:
        if 2 * self.m <= self.n:
            return Regime.DEGENERATE
        if 2 * self.m <= 2 * self.n:
            return Regime.MID
        return Regime.HIGH


@dataclass(frozen=True)
class StateSequence:
    """An i.i.d. draw of channel states over a horizon, immutable once built.

    ``blocks`` is the ``(horizon, 2, 2, n, m)`` array of every slot's
    blocks, made read-only here.
    """

    config: AntennaConfig
    blocks: np.ndarray

    def __post_init__(self):
        self.blocks.flags.writeable = False

    @property
    def horizon(self) -> int:
        return len(self.blocks)

    def __getitem__(self, slot: int) -> np.ndarray:
        """Slot ``slot``'s ``(2, 2, n, m)`` view, ``[j - 1, i - 1]`` being
        ``h_ji``; 1-based, matching the protocol's slot numbering."""
        if not 1 <= slot <= len(self.blocks):
            raise InvalidInput(f"slot {slot} outside horizon 1..{len(self.blocks)}")
        return self.blocks[slot - 1]

    def slot_blocks(self) -> np.ndarray:
        """Every slot's ``[h_j1 | h_j2]`` per receiver on the first
        ``config.effective_m`` transmit antennas, as a ``(2, horizon, n,
        2m)`` array: ``[j - 1, t - 1]`` is the ``n x 2m`` diagonal block
        receiver ``j``'s lift has at slot ``t`` (see :func:`lift_rows`)."""
        return diagonal_blocks(self.blocks.swapaxes(0, 1), self.config.effective_m)


def generate_states(
    config: AntennaConfig,
    horizon: int,
    rng: np.random.Generator,
) -> StateSequence:
    """Draw ``horizon`` independent channel states.

    Each slot's stacked 2n x 2m matrix must have rank ``min(2n, 2m)`` at the
    working tolerance; a draw with a failing slot (a null-set event for
    Gaussian draws) raises :class:`SingularSystem`, and the trial driver
    (``verify.run_trial``) resamples the whole trial.

    One :func:`matcore.random_matrix` call draws every slot, consuming the
    stream slot by slot, ``h11, h12, h21, h22`` in each slot and real part
    then imaginary part in each block: the order of one draw per block, so
    the blocks are bit for bit a slot-by-slot loop's.  One stacked
    :func:`matcore.rank_value` call decides every slot's rank.
    """
    if horizon < 1:
        raise InvalidInput(f"horizon must be >= 1, got {horizon}")
    n, m = config.n, config.m
    blocks = matcore.random_matrix(n, m, rng, batch=(horizon, 2, 2))
    stacked = diagonal_blocks(blocks, m).reshape(horizon, 2 * n, 2 * m)
    failing = np.flatnonzero(matcore.rank_value(stacked) != min(2 * n, 2 * m)) + 1
    if failing.size:
        raise SingularSystem(f"channel states of slots {failing.tolist()} are rank deficient")
    return StateSequence(config, blocks)


def apply_channel(state: np.ndarray, x1: np.ndarray, x2: np.ndarray):
    """Noiseless channel map ``y_j = h_j1 x1 + h_j2 x2`` for both receivers.

    ``state`` is one slot's ``(2, 2, n, m)`` state and ``x1``, ``x2`` its
    ``(m,)`` transmit vectors, or a ``(t, 2, 2, n, m)`` stack of states and
    ``(t, m)`` stacks of vectors; ``y1``, ``y2`` are ``(n,)`` or ``(t, n)``.
    A stack takes one batched product, each slot's outputs bit for bit
    those of a call on that slot alone.
    """
    x1 = np.asarray(x1, dtype=complex)
    x2 = np.asarray(x2, dtype=complex)
    want = state.shape[:-4] + state.shape[-1:]
    if x1.shape != want or x2.shape != want:
        raise InvalidShape(f"inputs must be {want}, got {x1.shape}, {x2.shape}")
    # [..., j, i] is h_ji x_i
    terms = state @ np.stack([x1, x2], axis=-2)[..., None, :, :, None]
    y = terms[..., 0, :, 0] + terms[..., 1, :, 0]
    return y[..., 0, :], y[..., 1, :]


def lift_phase(states, which: tuple[int, int], m_eff: int | None = None) -> np.ndarray:
    """Block-diagonal lift of one channel block over a contiguous slot range.

    ``states`` holds the range's ``(2, 2, n, m)`` slot arrays (a slice of
    :attr:`StateSequence.blocks`, or a sequence of slot views); ``which =
    (j, i)`` selects the receiver-``j`` / transmitter-``i`` block; ``m_eff``
    restricts to the first ``m_eff`` transmit antennas (the coordinates a
    scheme actually drives).
    """
    if len(states) == 0:
        raise InvalidInput("lift_phase requires a nonempty slot range")
    j, i = which
    return matcore.block_diag([s[j - 1, i - 1, :, :m_eff] for s in states])


def diagonal_blocks(rows: np.ndarray, m_eff: int) -> np.ndarray:
    """The ``n x 2m`` diagonal blocks of :func:`lift_rows` of ``rows``.

    ``rows`` is ``(..., t, 2, n, m)``, a receiver's blocks ``(h_j1, h_j2)``
    per slot (``StateSequence.blocks[slots - 1, j - 1]``); the result is
    ``(..., t, n, 2m)``, slot ``s``'s ``[h_j1 | h_j2]``, whose first ``m``
    columns meet the lift's ``x1`` stack and its last ``m`` the ``x2`` stack.
    ``m_eff`` keeps the first ``m_eff`` transmit antennas.
    """
    rows = rows[..., :m_eff]
    n, m = rows.shape[-2:]
    return rows.swapaxes(-3, -2).reshape(rows.shape[:-3] + (n, 2 * m))


def lift_rows(rows: np.ndarray, m_eff: int | None = None) -> np.ndarray:
    """One receiver's lifted map on the stacked pair of transmit vectors.

    ``rows`` holds that receiver's blocks ``(h_j1, h_j2)`` per slot, shape
    ``(t, 2, n, m)``: ``StateSequence.blocks[slots - 1, j - 1]``.  Returns
    ``[lift(h_j1) | lift(h_j2)]``, i.e. the matrix multiplying ``[x1_stack;
    x2_stack]`` to give that receiver's stacked phase output, built by one
    scatter of the slot blocks into a zero array; ``m_eff`` keeps the first
    ``m_eff`` transmit antennas.  An empty slot range (``t = 0``, an empty
    phase) lifts to a ``(0, 0)`` matrix.

    No trial builds this lift (or :func:`lift_phase`'s): the package works
    on the slot blocks of :func:`diagonal_blocks`.  Both stay as dense
    references and in the benchmark tracer's tables.
    """
    if rows.ndim != 4:
        raise InvalidInput(f"lift_rows expects a (t, 2, n, m) array, got {rows.shape}")
    if m_eff is not None:
        rows = rows[..., :m_eff]
    t, _, n, m = rows.shape
    out = np.zeros((t, n, 2, t, m), dtype=complex)
    diag = np.arange(t)
    # out[s, :, i, s, :] is slot s's block from transmitter i + 1
    out[diag, :, :, diag, :] = rows.transpose(0, 2, 1, 3)
    return out.reshape(t * n, 2 * t * m)
