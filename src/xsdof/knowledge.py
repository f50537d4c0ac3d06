"""Per-node knowledge ledgers and capability-restricted views.

The feedback model's information-flow contract is enforced structurally:
encoders and decoders receive *views* whose getters raise
:class:`UnauthorizedAccess` for anything the model never grants, so a
scheme physically cannot read state it should not know.  Every read,
granted or denied, lands in an access log for audit.

Availability is monotone and one slot delayed for everything a receiver
sends back: an item produced at slot ``t`` becomes readable at slot
``t + 1`` and stays readable forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channel import AntennaConfig, FeedbackModel
from .errors import (
    InvalidInput,
    ProtocolViolation,
    UnauthorizedAccess,
)
from .matcore import solve_full_column_rank


class Node(Enum):
    TX1 = "tx1"
    TX2 = "tx2"
    RX1 = "rx1"
    RX2 = "rx2"

    @property
    def is_transmitter(self) -> bool:
        return self in (Node.TX1, Node.TX2)

    @property
    def index(self) -> int:
        return int(self.value[-1])


def tx(i: int) -> Node:
    return Node.TX1 if i == 1 else Node.TX2


def rx(j: int) -> Node:
    return Node.RX1 if j == 1 else Node.RX2


class ItemKind(Enum):
    OWN_MESSAGE_SYMBOLS = "own-messages"
    OWN_NOISE_SYMBOLS = "own-noise"
    RECEIVED_OUTPUT = "received-output"
    FED_BACK_OUTPUT = "fed-back-output"
    DELAYED_CSI = "delayed-csi"
    INSTANT_CSI_OWN_ROW = "instant-csi-own-row"


@dataclass(frozen=True)
class AccessRecord:
    """One view read: who asked for what, when, and whether it was granted."""

    node: Node
    kind: ItemKind
    key: object
    at_slot: int
    granted: bool


@dataclass
class NodeLedger:
    """Time-indexed set of knowledge items held by one node."""

    node: Node
    items: dict = field(default_factory=dict)  # (kind, key) -> (available_from, payload)

    def grant(self, kind: ItemKind, key, payload, available_from: int):
        self.items[(kind, key)] = (available_from, payload)

    def lookup(self, kind: ItemKind, key, at_slot: int):
        entry = self.items.get((kind, key))
        if entry is None or entry[0] > at_slot:
            return None
        return entry


class KnowledgeBase:
    """The four ledgers, the access log, and the slot-advance protocol.

    The simulation driver is the single writer; views handed to encoders
    and decoders are read-only.  ``withhold`` removes specific grants, used
    by the no-clairvoyance tests to prove that encoders genuinely depend on
    what their views expose.
    """

    def __init__(
        self,
        model: FeedbackModel,
        config: AntennaConfig,
        withhold: set | None = None,
    ):
        self.model = model
        self.config = config
        self.ledgers = {node: NodeLedger(node) for node in Node}
        self.log: list[AccessRecord] = []
        self.current_slot = 0
        self._withheld = withhold or set()

    def grant(self, node: Node, kind: ItemKind, key, payload, available_from: int):
        if (node, kind, key) in self._withheld:
            return
        self.ledgers[node].grant(kind, key, payload, available_from)

    def grant_own_symbols(self, node: Node, messages: dict, noise):
        for name, payload in messages.items():
            self.grant(node, ItemKind.OWN_MESSAGE_SYMBOLS, name, payload, available_from=1)
        self.grant(node, ItemKind.OWN_NOISE_SYMBOLS, "noise", noise, available_from=1)

    def advance_slot(self, slot: int, outputs, state: np.ndarray):
        """Record slot ``slot``'s outputs and grant items per the feedback model.

        ``state`` is the slot's ``(2, 2, n, m)`` channel view.  Receivers
        observe their own output and own row pair ``state[j - 1]``
        immediately and the whole state one slot later; transmitters receive
        fed-back outputs (and delayed CSI where the model says so) one slot
        later.
        """
        if slot != self.current_slot + 1:
            raise ProtocolViolation(
                f"advance_slot({slot}) out of order; expected {self.current_slot + 1}"
            )
        self.current_slot = slot
        y = {1: outputs[0], 2: outputs[1]}
        for j in (1, 2):
            node = rx(j)
            self.grant(node, ItemKind.RECEIVED_OUTPUT, slot, y[j], available_from=slot)
            self.grant(node, ItemKind.INSTANT_CSI_OWN_ROW, slot, state[j - 1], available_from=slot)
            self.grant(node, ItemKind.DELAYED_CSI, slot, state, available_from=slot + 1)
        for i in (1, 2):
            node = tx(i)
            for src in self.model.feedback_sources(i):
                self.grant(node, ItemKind.FED_BACK_OUTPUT, (src, slot), y[src], available_from=slot + 1)
            if self.model.grants_delayed_csi(i):
                self.grant(node, ItemKind.DELAYED_CSI, slot, state, available_from=slot + 1)

    def view(self, node: Node, slot: int, decoder: bool = False) -> "View":
        """Capability view for ``node`` encoding at ``slot`` (or decoding).

        Encoder views expose items available strictly by ``slot``.  A decoder
        view sits at the final slot: it holds every output and own-row state,
        and the full channel state of every slot but the last, which is the
        receiver-side knowledge the decoders are defined over.
        """
        if slot < 1:
            raise InvalidInput(f"slot must be >= 1, got {slot}")
        at = self.current_slot if decoder else slot
        return View(self, node, at)


class View:
    """Read-only, logged, capability-checked window onto one node's ledger."""

    def __init__(self, kb: KnowledgeBase, node: Node, at_slot: int):
        self._kb = kb
        self.node = node
        self.at_slot = at_slot

    def _get(self, kind: ItemKind, key):
        entry = self._kb.ledgers[self.node].lookup(kind, key, self.at_slot)
        self._kb.log.append(AccessRecord(self.node, kind, key, self.at_slot, entry is not None))
        if entry is None:
            raise UnauthorizedAccess(
                f"{self.node.value} may not read {kind.value}[{key!r}] at slot {self.at_slot}"
            )
        return entry[1]

    def own_messages(self, name: str):
        return self._get(ItemKind.OWN_MESSAGE_SYMBOLS, name)

    def own_noise(self):
        return self._get(ItemKind.OWN_NOISE_SYMBOLS, "noise")

    def fed_back_output(self, source_rx: int, slot: int):
        if not self.node.is_transmitter:
            raise UnauthorizedAccess("only transmitters hold fed-back outputs")
        return self._get(ItemKind.FED_BACK_OUTPUT, (source_rx, slot))

    def own_output(self, slot: int):
        if self.node.is_transmitter:
            raise UnauthorizedAccess("transmitters hear nothing directly")
        return self._get(ItemKind.RECEIVED_OUTPUT, slot)

    def delayed_csi(self, slot: int) -> np.ndarray:
        """Slot ``slot``'s ``(2, 2, n, m)`` channel state, ``[j - 1, i - 1]``
        being ``h_ji``."""
        return self._get(ItemKind.DELAYED_CSI, slot)

    def own_csi_rows(self, slot: int) -> np.ndarray:
        """Slot ``slot``'s own row pair ``(h_j1, h_j2)``, a ``(2, n, m)`` array."""
        if self.node.is_transmitter:
            raise UnauthorizedAccess("transmitters have no instantaneous CSI")
        return self._get(ItemKind.INSTANT_CSI_OWN_ROW, slot)


def availability(model: FeedbackModel, node: Node, kind: ItemKind, key, at_slot: int, horizon: int) -> bool:
    """Reference availability table, independent of the ledger bookkeeping.

    Used by the audit tests: every *granted* read in an access log must be
    allowed by this table for the run's feedback model.
    """
    if kind in (ItemKind.OWN_MESSAGE_SYMBOLS, ItemKind.OWN_NOISE_SYMBOLS):
        return True
    if node.is_transmitter:
        i = node.index
        if kind is ItemKind.FED_BACK_OUTPUT:
            src, slot = key
            return src in model.feedback_sources(i) and 1 <= slot < at_slot
        if kind is ItemKind.DELAYED_CSI:
            return model.grants_delayed_csi(i) and 1 <= key < at_slot
        return False
    # receivers: own outputs and own-row CSI immediately, full CSI one slot later
    if kind is ItemKind.RECEIVED_OUTPUT:
        return 1 <= key <= min(at_slot, horizon)
    if kind is ItemKind.INSTANT_CSI_OWN_ROW:
        return 1 <= key <= min(at_slot, horizon)
    if kind is ItemKind.DELAYED_CSI:
        return 1 <= key < at_slot and key <= horizon
    return False


def recover_peer_inputs(
    view: View,
    config: AntennaConfig,
    slots,
    own_inputs,
) -> list[np.ndarray]:
    """Infer the other transmitter's inputs over ``slots`` from feedback + CSI.

    Transmitter ``i`` subtracts its own contribution from its receiver's
    fed-back output and solves the remaining tall system for the peer's
    input, slot by slot.  The effective antenna count is at most ``n``, so
    the per-slot system is never underdetermined.  Requires delayed CSI in
    the view; both reads go through the capability checks.
    """
    m_eff = config.effective_m
    me = view.node.index
    peer = 2 if me == 1 else 1
    recovered = []
    for slot, own_x in zip(slots, own_inputs):
        y = view.fed_back_output(me, slot)
        row = view.delayed_csi(slot)[me - 1, :, :, :m_eff]
        h_own, h_peer = row[me - 1], row[peer - 1]
        recovered.append(solve_full_column_rank(h_peer, y - h_own @ own_x).x)
    return recovered


def rebuild_receiver_output(
    view: View,
    config: AntennaConfig,
    slots,
    x1_list,
    x2_list,
    target_rx: int,
) -> np.ndarray:
    """Reconstruct a receiver's stacked phase output from CSI and known inputs."""
    m_eff = config.effective_m
    parts = []
    for slot, x1, x2 in zip(slots, x1_list, x2_list):
        h1, h2 = view.delayed_csi(slot)[target_rx - 1, :, :, :m_eff]
        parts.append(h1 @ x1 + h2 @ x2)
    return np.concatenate(parts)
