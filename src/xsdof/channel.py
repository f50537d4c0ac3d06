"""The two-transmitter / two-receiver fading channel.

Per-slot channel states (four independent complex-Gaussian blocks, full
rank almost surely), the noiseless channel map, the feedback-topology
descriptors, and block-diagonal lifting of a phase's slots into one matrix.

A :class:`StateSequence` keeps every slot's four blocks in one
``(horizon, 2, 2, n, m)`` array, ``blocks[t - 1, j - 1, i - 1]`` being
``h_ji`` at slot ``t``; its :class:`ChannelState` per slot holds views into
that array, so the ledger reads slots while the replay and the lifts work
on whole slot ranges at once.

Noise is omitted entirely, not merely made small: every decode and secrecy
check in this package is a statement about the noiseless linear maps, which
is exactly the level at which degrees-of-freedom accounting lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from . import matcore
from .errors import InvalidInput, InvalidShape

#: Draws of one slot's state before a rank failure is reported.
MAX_STATE_DRAWS = 16


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
class ChannelState:
    """One slot's four channel blocks, each ``n x m``, full rank jointly.

    In a :class:`StateSequence` the blocks are read-only views into the
    sequence's state array.
    """

    h11: np.ndarray
    h12: np.ndarray
    h21: np.ndarray
    h22: np.ndarray
    slot: int

    def block(self, rx: int, tx: int) -> np.ndarray:
        return getattr(self, f"h{rx}{tx}")


@dataclass(frozen=True)
class StateSequence:
    """An i.i.d. draw of channel states over a horizon, immutable once built.

    ``blocks`` is the ``(horizon, 2, 2, n, m)`` array of every slot's
    blocks (made read-only here); ``states`` holds one :class:`ChannelState`
    per slot whose blocks are views into it.
    """

    config: AntennaConfig
    blocks: np.ndarray
    states: tuple[ChannelState, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.blocks.flags.writeable = False
        n, m = self.config.n, self.config.m
        views = tuple(
            ChannelState(*slot.reshape(4, n, m), slot=t)
            for t, slot in enumerate(self.blocks, start=1)
        )
        object.__setattr__(self, "states", views)

    @property
    def horizon(self) -> int:
        return len(self.states)

    def __getitem__(self, slot: int) -> ChannelState:
        """1-based slot access, matching the protocol's slot numbering."""
        if not 1 <= slot <= len(self.states):
            raise InvalidInput(f"slot {slot} outside horizon 1..{len(self.states)}")
        return self.states[slot - 1]

    def rows(self, rx: int, slots) -> np.ndarray:
        """Receiver ``rx``'s blocks ``(h_rx1, h_rx2)`` at the 1-based
        ``slots``, as a ``(len(slots), 2, n, m)`` array: the input of
        :func:`lift_rows`."""
        return self.blocks[np.asarray(slots, dtype=int) - 1, rx - 1]

    def slot_blocks(self, m_eff: int | None = None) -> np.ndarray:
        """Every slot's ``[h_j1 | h_j2]`` per receiver, as a ``(2, horizon,
        n, 2m)`` array: ``[j - 1, t - 1]`` is the ``n x 2m`` diagonal block
        receiver ``j``'s lift has at slot ``t`` (see :func:`lift_rows`).
        ``m_eff`` keeps the first ``m_eff`` transmit antennas."""
        return diagonal_blocks(self.blocks.swapaxes(0, 1), m_eff)


def _stacked(slot: np.ndarray) -> np.ndarray:
    """The joint 2n x 2m matrix of one slot's ``(2, 2, n, m)`` blocks."""
    _, _, n, m = slot.shape
    return slot.transpose(0, 2, 1, 3).reshape(2 * n, 2 * m)


def generate_states(
    config: AntennaConfig,
    horizon: int,
    rng: np.random.Generator,
) -> StateSequence:
    """Draw ``horizon`` independent channel states.

    Each slot's stacked 2n x 2m matrix must have rank ``min(2n, 2m)`` at the
    working tolerance; a failing slot (a null-set event for Gaussian draws)
    is redrawn rather than accepted.  Blocks are drawn slot by slot in the
    order ``h11, h12, h21, h22``.
    """
    if horizon < 1:
        raise InvalidInput(f"horizon must be >= 1, got {horizon}")
    n, m = config.n, config.m
    want = min(2 * n, 2 * m)
    blocks = np.empty((horizon, 2, 2, n, m), dtype=complex)
    for slot in blocks:
        for _ in range(MAX_STATE_DRAWS):
            for block in slot.reshape(4, n, m):
                block[...] = matcore.random_matrix(n, m, rng)
            if matcore.rank_value(_stacked(slot)) == want:
                break
        else:  # pragma: no cover - probability ~0 for Gaussian draws
            raise InvalidInput("could not draw a full-rank channel state")
    return StateSequence(config, blocks)


def apply_channel(state: ChannelState, x1: np.ndarray, x2: np.ndarray):
    """Noiseless channel map: ``y_j = h_j1 x1 + h_j2 x2`` for both receivers.

    Inputs may carry a trailing axis of stacked columns (used by the linear
    replay machinery); outputs then carry the same trailing axis.
    """
    x1 = np.asarray(x1, dtype=complex)
    x2 = np.asarray(x2, dtype=complex)
    m = state.h11.shape[1]
    if x1.shape[0] != m or x2.shape[0] != m:
        raise InvalidShape(f"inputs must have {m} coordinates, got {x1.shape[0]}, {x2.shape[0]}")
    y1 = state.h11 @ x1 + state.h12 @ x2
    y2 = state.h21 @ x1 + state.h22 @ x2
    return y1, y2


def lift_phase(states: Sequence[ChannelState], which: tuple[int, int], m_eff: int | None = None) -> np.ndarray:
    """Block-diagonal lift of one channel block over a contiguous slot range.

    ``which = (j, i)`` selects the receiver-``j`` / transmitter-``i`` block;
    ``m_eff`` restricts to the first ``m_eff`` transmit antennas (the
    coordinates a scheme actually drives).
    """
    if len(states) == 0:
        raise InvalidInput("lift_phase requires a nonempty slot range")
    j, i = which
    blocks = [s.block(j, i) if m_eff is None else s.block(j, i)[:, :m_eff] for s in states]
    return matcore.block_diag(blocks)


def diagonal_blocks(rows: np.ndarray, m_eff: int | None = None) -> np.ndarray:
    """The ``n x 2m`` diagonal blocks of :func:`lift_rows` of ``rows``.

    ``rows`` is ``(..., t, 2, n, m)``, a receiver's blocks ``(h_j1, h_j2)``
    per slot; the result is ``(..., t, n, 2m)``, slot ``s``'s ``[h_j1 |
    h_j2]``, whose first ``m`` columns meet the lift's ``x1`` stack and its
    last ``m`` the ``x2`` stack.  ``m_eff`` keeps the first ``m_eff``
    transmit antennas.
    """
    rows = rows[..., :m_eff]
    n, m = rows.shape[-2:]
    return rows.swapaxes(-3, -2).reshape(rows.shape[:-3] + (n, 2 * m))


def lift_rows(rows: np.ndarray, m_eff: int | None = None) -> np.ndarray:
    """One receiver's lifted map on the stacked pair of transmit vectors.

    ``rows`` holds that receiver's blocks ``(h_j1, h_j2)`` per slot, shape
    ``(t, 2, n, m)`` (see :meth:`StateSequence.rows`).  Returns
    ``[lift(h_j1) | lift(h_j2)]``, i.e. the matrix multiplying ``[x1_stack;
    x2_stack]`` to give that receiver's stacked phase output, built by one
    scatter of the slot blocks into a zero array; ``m_eff`` keeps the first
    ``m_eff`` transmit antennas.  An empty slot range (``t = 0``, an empty
    phase) lifts to a ``(0, 0)`` matrix.
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
