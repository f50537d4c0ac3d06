"""Phase-based transmission schemes as ledger-constrained encoders + decoders.

Five schemes share one machinery: a noise phase, two fresh-symbol phases
cloaked by mixes of the intended receiver's noise-phase output, and a final
phase retransmitting what each receiver overheard of the other's fresh phase.

* ``A``: own-receiver feedback plus delayed transmitter CSI; both
  transmitters carry every mixing and retransmission term.
* ``D``: the same construction driven purely by symmetric output feedback:
  every quantity a transmitter needs arrives directly, so no CSI is read.
* ``B``: single-slot phases for the many-antenna regime (m >= n); only
  own-receiver feedback is needed.
* ``C``: feedback-only variant for the mid regime with shorter fresh
  phases; each side-information vector is retransmitted by the one
  transmitter that heard it.  A second row, C's tx1-only mode, moves every
  knowledge-heavy role onto transmitter 1 (feedback and delayed CSI to it).
* ``E``: the no-secrecy variant: the scheme-A construction with an empty
  noise phase.

One row of :data:`SPECS` per variant holds all that sets it apart: the
scheme, feedback model, phase-length rule, the carriers of each precoder,
whether the final phase retransmits selected rows, and the leakage claim.
That row alone describes a run: the plan, the one encoder, the one
decoder, the linear replay and the audits in ``verify`` read it.

Encoders obtain every quantity, their own symbols included, through
capability views; when the direct fed-back route is not granted they fall
back to reconstruction (recover the peer's inputs from own feedback and
delayed CSI, then rebuild the other receiver's output).  If neither route is
granted the run aborts with :class:`UnauthorizedAccess`; that abort is the
enforcement working, not a failure of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

import numpy as np

from . import matcore
from .channel import (
    AntennaConfig,
    FeedbackModel,
    Regime,
    StateSequence,
    apply_channel,
    diagonal_blocks,
    generate_states,
)
from .errors import (
    DecodeFailure,
    InvalidInput,
    InvalidTranscript,
    RegimeError,
    SingularSystem,
    UnauthorizedAccess,
)
from .knowledge import (
    KnowledgeBase,
    Node,
    recover_peer_inputs,
    rebuild_receiver_output,
    tx,
)

DECODE_TOL = 1e-6

MUTATIONS = ("theta1_zero", "phi1_zero", "skip_phase1")


class SchemeId(Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"


@dataclass(frozen=True)
class SchemeSpec:
    """What separates one scheme variant from the others.

    ``model`` is the feedback model a run grants.  ``theta1``/``theta2`` name
    the carriers of the phase-2/phase-3 mixing, ``phi1``/``phi2`` those of
    the final-phase combiners (``phi1`` forwards receiver 2's phase-2
    output, which receiver 1 needs; ``phi2`` receiver 1's phase-3 output).
    A carrier is a key of :data:`CARRIERS`: ``both`` splits the precoder's
    rows top/bottom between transmitters 1 and 2, ``tx1``/``tx2`` hand all
    rows to one transmitter.  ``selected`` makes the final phase retransmit
    ``2m-n`` rows of every overheard slot instead of all ``n``.
    ``leakage`` is the claim the verifier holds the variant to: ``zero``,
    ``advisory`` (reported, not enforced) or ``positive`` (the negative
    control).
    """

    scheme: SchemeId
    model: FeedbackModel
    phases: str
    theta1: str
    theta2: str
    phi1: str
    phi2: str
    selected: bool
    leakage: str


#: Transmitters carrying a precoder's output, in the order its row blocks go.
CARRIERS = {"both": (1, 2), "tx1": (1,), "tx2": (2,)}

#: Phase lengths (noise, fresh for receiver 1, fresh for receiver 2, final)
#: at ``m`` effective transmit and ``n`` receive antennas.  Every rule gives
#: all four; ``no-noise`` gives an empty noise phase, which every stage runs
#: like any other phase (with no slots, it sends, mixes and reads nothing).
PHASE_RULES = {
    "retrospective": lambda m, n: (n * n, n * (2 * m - n), n * (2 * m - n), (2 * m - n) ** 2),
    "no-noise": lambda m, n: (0, n * (2 * m - n), n * (2 * m - n), (2 * m - n) ** 2),
    "feedback-only": lambda m, n: (n * n, m * (2 * m - n), m * (2 * m - n), (2 * m - n) ** 2),
    "single-slot": lambda m, n: (1, 1, 1, 1),
}

_FB, _SYM, _DCSIT, _TX1 = (
    FeedbackModel.ASYM_FB_ONLY,
    FeedbackModel.SYM_FB_NO_CSIT,
    FeedbackModel.ASYM_FB_DELAYED_CSIT,
    FeedbackModel.ASYM_FB_DCSIT_TX1_ONLY,
)
_A, _B, _C, _D, _E = SchemeId

#: One row per variant, keyed by ``(scheme, tx1_only)``.  A, D and E let both
#: transmitters mix the fed-forward output, so the mixing map spans all 2m
#: input coordinates of each fresh slot: a mixing map confined to one
#: transmitter's m coordinates cannot reach the rank the zero-leakage
#: identity needs when m < n.  B and C are one construction with different
#: phase lengths.  In C's tx1-only mode transmitter 2 knows nothing beyond its
#: own symbols: transmitter 1 reconstructs receiver 2's phase-1 output and the
#: overheard side information through its own feedback plus delayed CSI.
SPECS = {
    # (scheme, tx1_only): SchemeSpec(scheme, model, phases, theta1, theta2, phi1, phi2, selected, leakage)
    (_A, False): SchemeSpec(_A, _DCSIT, "retrospective", "both", "both", "both", "both", True, "zero"),
    (_D, False): SchemeSpec(_D, _SYM, "retrospective", "both", "both", "both", "both", True, "zero"),
    (_E, False): SchemeSpec(_E, _DCSIT, "no-noise", "both", "both", "both", "both", True, "positive"),
    (_B, False): SchemeSpec(_B, _FB, "single-slot", "tx1", "tx2", "tx2", "tx1", False, "zero"),
    (_C, False): SchemeSpec(_C, _FB, "feedback-only", "tx1", "tx2", "tx2", "tx1", False, "advisory"),
    (_C, True): SchemeSpec(_C, _TX1, "feedback-only", "tx1", "tx1", "tx1", "tx1", True, "advisory"),
}


def variant(scheme: SchemeId, tx1_only: bool = False) -> SchemeSpec:
    """The spec row of a scheme, or of its tx1-only mode."""
    try:
        return SPECS[(scheme, tx1_only)]
    except KeyError:
        raise InvalidInput(f"scheme {scheme.value} has no tx1-only run mode") from None


def _carrier_span(carrier: str, width: int) -> slice:
    """The stacked ``[x1; x2]`` coordinates a carried precoder output fills.

    ``width`` is the per-transmitter length of the phase's input stack.
    """
    txs = CARRIERS[carrier]
    return slice((txs[0] - 1) * width, txs[-1] * width)


@dataclass(frozen=True)
class PhasePlan:
    """Slot counts of the four phases and the per-receiver symbol budget.

    The noise phase (the first) may be empty: scheme E's is, and the
    ``skip_phase1`` mutation empties it.
    """

    phase_lengths: tuple[int, int, int, int]
    symbols_per_receiver: int

    @property
    def horizon(self) -> int:
        return sum(self.phase_lengths)

    def dof_target(self) -> Fraction:
        return Fraction(self.symbols_per_receiver, self.horizon)

    def to_jsonable(self) -> dict:
        """The plan as written out: only the phases that have slots, so a
        plan without a noise phase lists three."""
        return {
            "phase_lengths": [length for length in self.phase_lengths if length],
            "symbols_per_receiver": self.symbols_per_receiver,
        }


def plan(spec: SchemeSpec, config: AntennaConfig) -> PhasePlan:
    """Phase lengths and symbol budget for a spec row at a configuration.

    Schemes operate on ``min(m, n)`` effective transmit antennas; surplus
    antennas send structural zeros.  Secrecy schemes refuse the degenerate
    regime (``2m <= n``), where the secure region is the origin alone.
    """
    rule = spec.phases
    if rule == "single-slot":
        if config.m < config.n:
            raise RegimeError(
                f"scheme {spec.scheme.value} needs m >= n, got (m={config.m}, n={config.n})"
            )
    elif config.regime is Regime.DEGENERATE:
        raise RegimeError(
            f"(m={config.m}, n={config.n}): 2m <= n, the secure region is {{(0,0)}}; "
            f"scheme {spec.scheme.value} does not apply"
        )
    m = config.effective_m
    lengths = PHASE_RULES[rule](m, config.n)
    return PhasePlan(lengths, 2 * m * lengths[1])


#: A trial's measured peak memory over both receivers' whole coefficient
#: maps of its larger symbol group, above the interpreter's own
#: (``ru_maxrss`` of one ``simulate`` call, seeds 7 and 1): 2.5, 1.6 and 1.5
#: times on scheme A at (6,6), (8,8) and (10,10).  It was 3.6, 2.8 and 2.8
#: while the oracle replayed the noise on the identity, and 3.0, 2.1 and 2.0
#: while it formed both receivers' noise maps together.  4 keeps the
#: estimate an upper bound and the refused configurations where they were.
PEAK_PER_REPLAY = 4


def peak_bytes(pln: PhasePlan, config: AntennaConfig) -> int:
    """Estimated peak memory of one trial with its subspace oracle, in bytes.

    The unit is the size of both receivers' whole coefficient maps of the
    larger symbol group: ``n`` rows a slot over the horizon per receiver,
    times the group's ``2m t`` columns (``t`` is ``t1`` for the noise,
    ``t2`` for a secret group), of 16-byte complex entries.  The oracle
    forms no such pair: its noise maps are reduced, and each
    :func:`linear_response` of a secret group is one receiver's map, half
    of one.  The trial peaks at about :data:`PEAK_PER_REPLAY` units.
    Nothing is drawn to estimate it.
    """
    m, n = config.effective_m, config.n
    t1, t2 = pln.phase_lengths[:2]
    replay = 2 * n * pln.horizon * 2 * m * max(t1, t2) * 16
    return PEAK_PER_REPLAY * replay


@dataclass(frozen=True)
class Precoders:
    """Publicly known mixing and retransmission matrices.

    ``theta1``/``theta2`` mix the phase-1 outputs into the fresh-information
    phases; ``phi1``/``phi2`` combine the side-information vectors in the
    final phase.  Shapes depend on the scheme; with an empty noise phase the
    mixing matrices have no columns.
    """

    theta1: np.ndarray
    theta2: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray


def draw_precoders(
    spec: SchemeSpec,
    config: AntennaConfig,
    pln: PhasePlan,
    rng: np.random.Generator,
) -> Precoders:
    """Draw Gaussian precoders, each once and full rank.

    Each precoder maps the outputs per slot of its source phase to ``m``
    inputs per slot and carrying transmitter of its target phase: the
    mixing matrices read all ``n`` noise-phase outputs of a slot, the
    final-phase ones the :func:`retransmitted_rows` of each overheard slot.
    With an empty noise phase the mixing matrices are empty (no columns), a
    draw that takes nothing from ``rng``.  Scheme C's tx1-only row, like
    C's own, gives each precoder one carrier, so it draws C's mixing
    matrices; it selects where C does not, so its ``phi`` are narrower.

    Full rank is decided by :func:`matcore.rank_value`.  A Gaussian draw
    is full rank almost surely; a candidate that misses (a null-set event)
    raises :class:`SingularSystem`, and the trial driver
    (``verify.run_trial``) resamples the whole trial.
    """
    m, n = config.effective_m, config.n
    t1, t2, _, t4 = pln.phase_lengths
    drawn = {}
    mixed, read = n * t1, retransmitted_rows(spec, config) * t2
    sizes = (("theta1", t2, mixed), ("theta2", t2, mixed), ("phi1", t4, read), ("phi2", t4, read))
    for name, t_phase, c in sizes:
        shape = (len(CARRIERS[getattr(spec, name)]) * m * t_phase, c)
        cand = matcore.random_matrix(*shape, rng)
        if matcore.rank_value(cand) != min(shape):
            raise SingularSystem(f"{name} of shape {shape} is rank deficient")
        drawn[name] = cand
    return Precoders(**drawn)


@dataclass(frozen=True)
class Symbols:
    """All random payloads of one run: artificial noise and fresh symbols."""

    u1: np.ndarray
    u2: np.ndarray
    v11: np.ndarray
    v21: np.ndarray
    v12: np.ndarray
    v22: np.ndarray

    @property
    def v1(self) -> np.ndarray:
        return np.concatenate([self.v11, self.v21])

    @property
    def v2(self) -> np.ndarray:
        return np.concatenate([self.v12, self.v22])


@dataclass
class Transcript:
    """Complete record of one scheme run.

    ``spec`` is the run's row; ``plan`` holds the phase lengths actually
    used (the ``skip_phase1`` mutation empties the noise phase).
    ``knowledge`` retains the ledgers so that decoding runs through the same
    capability checks as encoding did.
    """

    spec: SchemeSpec
    config: AntennaConfig
    plan: PhasePlan
    states: StateSequence
    precoders: Precoders
    symbols: Symbols
    inputs: list  # per slot: (x1, x2) at full m width
    outputs: list  # per slot: (y1, y2)
    knowledge: KnowledgeBase

    @property
    def horizon(self) -> int:
        return self.plan.horizon

    def phase_ranges(self) -> list[list[int]]:
        """1-based slot numbers of each of the four phases; an empty phase
        has none."""
        out, start = [], 1
        for length in self.plan.phase_lengths:
            out.append(list(range(start, start + length)))
            start += length
        return out

    def check_complete(self):
        if len(self.inputs) != self.horizon or len(self.outputs) != self.horizon:
            raise InvalidTranscript(
                f"transcript has {len(self.inputs)} slots, plan says {self.horizon}"
            )


def side_info(transcript: Transcript, values: np.ndarray) -> np.ndarray:
    """Overheard outputs ``values`` (``n`` rows a slot) as the final phase
    retransmits them: the first :func:`retransmitted_rows` of every slot,
    in slot order, as a new array.

    The lifted maps are block diagonal, so each slot's unknowns can only be
    completed by equations overheard in that same slot; a selection that
    starves a slot leaves the decode system rank deficient no matter how
    the retransmission is mixed.
    """
    n, take = transcript.config.n, retransmitted_rows(transcript.spec, transcript.config)
    return values[(np.arange(0, len(values), n)[:, None] + np.arange(take)).ravel()]


def retransmitted_rows(spec: SchemeSpec, config: AntennaConfig) -> int:
    """Rows of a slot's overheard outputs that :func:`side_info` keeps: the
    first ``2m - n`` when ``spec`` selects, otherwise all ``n``."""
    return 2 * config.effective_m - config.n if spec.selected else config.n


def _placed(transcript: Transcript, name: str, values: np.ndarray, width: int) -> np.ndarray:
    """Precoder ``name`` applied to ``values``, on the stacked ``[x1; x2]``
    coordinates (``width`` per transmitter) of the transmitters carrying it."""
    out = np.zeros((2 * width,) + values.shape[1:], dtype=complex)
    span = _carrier_span(getattr(transcript.spec, name), width)
    np.matmul(getattr(transcript.precoders, name), values, out=out[span])
    return out


def carried_map(transcript: Transcript, blocks: np.ndarray, name: str) -> np.ndarray:
    """The map from precoder ``name``'s input to a phase's stacked outputs.

    ``blocks`` are the phase's ``(t, n, 2m)`` slot blocks (see
    :func:`diagonal_blocks`).  The phase's lift is block diagonal, so slot
    ``s``'s outputs meet only slot ``s``'s ``m`` rows of each carrier's row
    block of the precoder: one batched product of the blocks' carrier
    columns with those rows gives the ``n*t x k`` map, ``k`` being the
    precoder's column count (zero for an empty noise phase's mixing).
    """
    precoder = getattr(transcript.precoders, name)
    carrier = getattr(transcript.spec, name)
    t, n, width = blocks.shape
    m, k = width // 2, precoder.shape[1]
    txs = len(CARRIERS[carrier])
    per_slot = precoder.reshape(txs, t, m, k).swapaxes(0, 1).reshape(t, txs * m, k)
    return (blocks[..., _carrier_span(carrier, m)] @ per_slot).reshape(n * t, k)


class _Run:
    """Mutable encoder state of one run; fills the transcript a phase at a
    time."""

    def __init__(self, transcript: Transcript):
        self.transcript = transcript

    def acquire_output(self, node: Node, target_rx: int, slots, at_slot: int) -> np.ndarray:
        """Stacked outputs of ``target_rx`` over ``slots`` as known to ``node``.

        Direct fed-back route first; otherwise reconstruct through delayed
        CSI.  Raises UnauthorizedAccess when the model grants neither.
        """
        view = self.transcript.knowledge.view(node, at_slot)
        try:
            return np.concatenate([view.fed_back_output(target_rx, t) for t in slots])
        except UnauthorizedAccess:
            pass
        m = self.transcript.config.effective_m
        own = [self.transcript.inputs[t - 1][node.index - 1][:m] for t in slots]
        peer = recover_peer_inputs(view, self.transcript.config, slots, own)
        if node.index == 1:
            x1s, x2s = own, peer
        else:
            x1s, x2s = peer, own
        return rebuild_receiver_output(view, self.transcript.config, slots, x1s, x2s, target_rx)

    def carried(self, terms, at_slot: int, width: int) -> dict:
        """Each transmitter's share of a phase's precoded terms.

        ``terms`` lists ``(precoder, source receiver, source slots,
        retransmit)``; every carrier acquires the source outputs through its
        own view, as :func:`side_info` when ``retransmit``, and applies its
        row block of the precoder.
        """
        tr = self.transcript
        out = {i: np.zeros(width, dtype=complex) for i in (1, 2)}
        for i in (1, 2):
            for name, source_rx, slots, retransmit in terms:
                carriers = CARRIERS[getattr(tr.spec, name)]
                if i not in carriers:
                    continue
                k = carriers.index(i)
                rows = getattr(tr.precoders, name)[k * width : (k + 1) * width]
                y = self.acquire_output(tx(i), source_rx, slots, at_slot)
                out[i] = out[i] + rows @ (side_info(tr, y) if retransmit else y)
        return out

    def send(self, slots, x: dict):
        """Transmit per-transmitter stacks over ``slots``, ``m`` entries a slot.

        The encoder reads nothing between the slots of a phase, so one
        channel product gives every slot's outputs; the inputs (at full
        ``m`` width), outputs and ledger then advance slot by slot.
        """
        tr = self.transcript
        t, m = len(slots), tr.config.effective_m
        xs = np.zeros((2, t, tr.config.m), dtype=complex)
        xs[..., :m] = np.reshape((x[1], x[2]), (2, t, m))
        y1, y2 = apply_channel(tr.states.blocks[np.asarray(slots, dtype=int) - 1], xs[0], xs[1])
        for k, slot in enumerate(slots):
            y = (y1[k], y2[k])
            tr.inputs.append((xs[0, k], xs[1, k]))
            tr.outputs.append(y)
            tr.knowledge.advance_slot(slot, y, tr.states[slot])


def run(
    spec: SchemeSpec,
    config: AntennaConfig,
    *,
    seed: int = 0,
    mutation: str | None = None,
) -> Transcript:
    """Execute one run of spec row ``spec`` and return its transcript.

    The ledgers grant what ``spec.model`` grants.  Every encoder computation
    goes through capability views; a scheme/model mismatch therefore
    surfaces as :class:`UnauthorizedAccess` during the run rather than as an
    upfront refusal.  ``mutation`` applies one of the adversarial variants
    used by the verifier's sensitivity checks.
    """
    if mutation is not None and mutation not in MUTATIONS:
        raise InvalidInput(f"unknown mutation {mutation!r}; expected one of {MUTATIONS}")
    if mutation == "skip_phase1" and spec.scheme in (SchemeId.B, SchemeId.C):
        raise InvalidInput("skip_phase1 applies to the retrospective schemes only")
    nominal = pln = plan(spec, config)
    if mutation == "skip_phase1":
        pln = replace(nominal, phase_lengths=(0,) + nominal.phase_lengths[1:])
    t1, t2 = pln.phase_lengths[:2]
    m = config.effective_m

    rng_states = matcore.substream(seed, "states")
    rng_prec = matcore.substream(seed, "precoders")
    rng_sym = matcore.substream(seed, "symbols")

    states = generate_states(config, pln.horizon, rng_states)
    # drawn for the nominal plan, so a mutant draws its parent's precoders
    precoders = draw_precoders(spec, config, nominal, rng_prec)
    if mutation == "theta1_zero":
        precoders = replace(precoders, theta1=np.zeros_like(precoders.theta1))
    if mutation == "phi1_zero":
        precoders = replace(precoders, phi1=np.zeros_like(precoders.phi1))
    if mutation == "skip_phase1":  # no noise phase left to mix
        precoders = replace(
            precoders, theta1=precoders.theta1[:, :0], theta2=precoders.theta2[:, :0]
        )

    symbols = Symbols(
        u1=matcore.random_vector(m * t1, rng_sym),
        u2=matcore.random_vector(m * t1, rng_sym),
        v11=matcore.random_vector(m * t2, rng_sym),
        v21=matcore.random_vector(m * t2, rng_sym),
        v12=matcore.random_vector(m * t2, rng_sym),
        v22=matcore.random_vector(m * t2, rng_sym),
    )

    kb = KnowledgeBase(spec.model)
    kb.grant_own_symbols(Node.TX1, {"v11": symbols.v11, "v12": symbols.v12}, symbols.u1)
    kb.grant_own_symbols(Node.TX2, {"v21": symbols.v21, "v22": symbols.v22}, symbols.u2)

    transcript = Transcript(
        spec=spec,
        config=config,
        plan=pln,
        states=states,
        precoders=precoders,
        symbols=symbols,
        inputs=[],
        outputs=[],
        knowledge=kb,
    )
    _encode(_Run(transcript))
    transcript.check_complete()
    return transcript


def _encode(run_: _Run):
    """The four phases, with the carriers and selection of the run's spec."""
    tr = run_.transcript
    m = tr.config.effective_m
    r1, r2, r3, r4 = tr.phase_ranges()
    views = {i: tr.knowledge.view(tx(i), 1) for i in (1, 2)}
    noise = {i: views[i].own_noise() for i in (1, 2)}
    run_.send(r1, noise)

    # fresh symbols for receiver j, cloaked by receiver j's phase-1 output
    for j, phase in ((1, r2), (2, r3)):
        fresh = {i: views[i].own_messages(f"v{i}{j}") for i in (1, 2)}
        # an empty noise phase has no output to acquire: no ledger reads
        mixing = [(f"theta{j}", j, r1, False)] if r1 else []
        mix = run_.carried(mixing, phase[0], m * len(phase))
        run_.send(phase, {i: fresh[i] + mix[i] for i in (1, 2)})

    # retransmission of the overheard equations both receivers still need
    retransmit = [("phi1", 2, r2, True), ("phi2", 1, r3, True)]
    run_.send(r4, run_.carried(retransmit, r4[0], m * len(r4)))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _own_rows(view, slots) -> np.ndarray:
    """Own-row CSI ``(h_j1, h_j2)`` per slot from the instantaneous grants,
    as a ``(t, 2, n, m)`` array."""
    return np.array([view.own_csi_rows(t) for t in slots])


def _cross_rows(view, slots, other_rx) -> np.ndarray:
    """The other receiver's ``(h_j1, h_j2)`` per slot, via delayed CSI."""
    return np.array([view.delayed_csi(t)[other_rx - 1] for t in slots])


def _stacked_outputs(view, slots) -> np.ndarray:
    return np.array([view.own_output(t) for t in slots], dtype=complex).reshape(-1)


def _per_slot(x: np.ndarray, m: int) -> np.ndarray:
    """A lift-order stack ``[x1 stack; x2 stack]`` as ``(t, 2m, 1)`` slot inputs."""
    return x.reshape(2, -1, m).swapaxes(0, 1).reshape(-1, 2 * m, 1)


def _lift_order(x: np.ndarray) -> np.ndarray:
    """``(t, 2m, 1)`` slot inputs as one lift-order stack."""
    return x.reshape(len(x), 2, -1).swapaxes(0, 1).reshape(-1)


@dataclass(frozen=True)
class Decoded:
    """A receiver's decoded symbols and its rate rank: the rank of the
    stacked system ``[G; F]`` they were solved from."""

    symbols: np.ndarray
    rate_rank: int


def decode(transcript: Transcript, receiver: Node) -> Decoded:
    """Recover the receiver's fresh symbols using only its decoder view.

    Returns the stacked pair (both transmitters' symbols destined to this
    receiver) and its rate rank.  The receiver knows the mixing its fresh
    phase carries (a map of its own phase-1 output) and the retransmission
    of what it overheard itself; it subtracts both and solves its
    fresh-phase rows ``G`` stacked with the final-phase rows ``F``, through
    which the other receiver's view of the fresh phase arrives.

    ``G`` is block diagonal, one ``n x 2m`` block ``B`` per fresh slot, so
    it is eliminated slot by slot and never formed: the per-slot
    pseudo-inverses ``B^H (B B^H)^-1`` (each block has full row rank) give a
    particular solution ``x_p`` of its rows, and with ``N`` the per-slot
    null bases of ``G`` (:func:`matcore.slot_null_bases`) every solution is
    ``x_p + N z``.  The one dense solve is ``F N z = rhs_F - F x_p``,
    ``n*t4 x (2m-n)*t2`` instead of the stacked system's ``n*(t2+t4) x
    2m*t2``.  ``F N`` is the final precoded map times the block-diagonal
    overheard lift times ``N``: it is formed from the per-slot products of
    the overheard blocks (only the rows :func:`side_info` keeps) with the
    bases (:func:`matcore.times_block_diagonal`), with no dense lift.  It
    is square for A, B, D and E: :func:`matcore.solve_square` certifies it
    and solves by LU, or falls back to the SVD.  C's is tall and goes to
    :func:`matcore.solve_full_column_rank`'s SVD.  Both cut at ``REL_TOL``
    times the larger of ``F N``'s and ``G``'s largest singular values, the
    cut of ``rank([G; F]) = rank(G) + rank(F N)``, so a solve decides the
    rate rank, the one decision of it (:func:`verify.secrecy_rank_report`
    reads it).  Below the cut, on null-set channel draws, it raises
    :class:`SingularSystem` (callers resample), its ``rate_rank`` from the
    rank the refusing SVD decided; a residual over the whole stacked system
    above the relative tolerance raises :class:`DecodeFailure`, with the
    full ``rate_rank``.
    """
    transcript.check_complete()
    if receiver not in (Node.RX1, Node.RX2):
        raise InvalidInput("decode expects a receiver node")
    m, n = transcript.config.effective_m, transcript.config.n
    r1, r2, r3, r4 = transcript.phase_ranges()
    if receiver is Node.RX1:
        other, fresh, side, theta, mine, theirs = 2, r2, r3, "theta1", "phi2", "phi1"
    else:
        other, fresh, side, theta, mine, theirs = 1, r3, r2, "theta2", "phi1", "phi2"
    view = transcript.knowledge.view(receiver, transcript.horizon)

    own_f = diagonal_blocks(_own_rows(view, fresh), m)
    cross_f = diagonal_blocks(_cross_rows(view, fresh, other), m)
    own4 = diagonal_blocks(_own_rows(view, r4), m)
    mix = _placed(transcript, theta, _stacked_outputs(view, r1), m * len(fresh))
    y_side = side_info(transcript, _stacked_outputs(view, side))
    y_final = _stacked_outputs(view, r4) - carried_map(transcript, own4, mine) @ y_side
    final = carried_map(transcript, own4, theirs)

    def stacked(x):
        """The stacked system's fresh and final rows times ``(t, 2m, 1)`` slot inputs."""
        overheard = side_info(transcript, (cross_f @ x).reshape(-1))
        return (own_f @ x).reshape(-1), final @ overheard

    mix_f, mix_final = stacked(_per_slot(mix, m))
    rhs_f, rhs_final = _stacked_outputs(view, fresh) - mix_f, y_final - mix_final
    own_h = own_f.conj().swapaxes(1, 2)
    x_p = own_h @ np.linalg.solve(own_f @ own_h, rhs_f.reshape(-1, n, 1))
    (null,) = matcore.slot_null_bases(own_f[None])
    take = retransmitted_rows(transcript.spec, transcript.config)
    reduced = matcore.times_block_diagonal(final, cross_f[:, :take] @ null.basis)
    rows, cols = reduced.shape
    solve = matcore.solve_square if rows == cols else matcore.solve_full_column_rank
    try:
        z = solve(reduced, rhs_final - stacked(x_p)[1], null.largest)
    except SingularSystem as exc:
        exc.rate_rank = null.rank + exc.rank
        raise
    x = x_p + null.basis @ z.reshape(len(fresh), -1, 1)
    rhs = np.concatenate([rhs_f, rhs_final])
    residual = np.linalg.norm(np.concatenate(stacked(x)) - rhs)
    if residual > DECODE_TOL * max(np.linalg.norm(rhs), 1.0):
        failure = DecodeFailure(f"decode residual {residual:.3e} exceeds tolerance")
        failure.rate_rank = null.rank + cols
        raise failure
    return Decoded(_lift_order(x), null.rank + cols)


# ---------------------------------------------------------------------------
# closed-form linear replay (audit tool; bypasses the ledgers on purpose)
# ---------------------------------------------------------------------------


def _stack_for(transcript: Transcript, name: str, shape: tuple) -> np.ndarray:
    """An ``[x1; x2]`` input stack of ``shape`` for :func:`_by_slot` to
    write precoder ``name``'s products into: left unfilled when both
    transmitters carry it, since every row is then written, and zero
    otherwise, where the other transmitter's rows stay silent."""
    fill = np.empty if getattr(transcript.spec, name) == "both" else np.zeros
    return fill(shape, dtype=complex)


def _by_slot(transcript: Transcript, name: str, blocks: np.ndarray, out: np.ndarray):
    """Precoder ``name`` times the block-diagonal outputs of a phase,
    slot by slot, written into ``out``.

    ``blocks`` are the ``(t, r, c)`` slot blocks the precoder reads: a
    receiver's ``n`` rows a slot, or the ones :func:`side_info` keeps, of
    ``c`` inputs a slot (``2m`` of an identity-input phase, the null
    basis's width for the noise).  Slot ``s``'s rows meet only the ``r``
    precoder columns from ``s * r`` and only the ``c`` input columns of
    slot ``s``, so one batched ``(t, R, r) @ (t, r, c)`` product gives them
    all.  ``out`` is the ``[x1; x2]`` stack of the target phase, its
    columns in slot order; the products are written into the carrier rows
    of it.
    """
    precoder = getattr(transcript.precoders, name)
    t, r, width = blocks.shape
    rows = out[_carrier_span(getattr(transcript.spec, name), len(out) // 2)]
    per_slot = precoder.reshape(len(rows), t, r).swapaxes(0, 1)
    np.matmul(per_slot, blocks, out=rows.reshape(len(rows), t, width).swapaxes(0, 1))


def linear_response(
    transcript: Transcript, rx: int, group: str, basis: np.ndarray | None = None
) -> np.ndarray:
    """Receiver ``rx + 1``'s coefficient map of symbol group ``group``, as
    the eavesdropper on the other receiver: one of the maps the subspace
    oracle reads.

    ``group`` is the other receiver's secret group (``"v2"`` for ``rx``
    0, ``"v1"`` for 1), or ``"u"`` with ``basis`` the ``(t1, 2m, w)``
    per-slot null bases of the receiver's phase-1 blocks.  Recomputes the
    run from the channel states and precoders alone, with the group's
    input set to the identity and every other input to zero, so the
    receiver's outputs of the group are its map times the group's
    symbols.  This is an independent code path from the ledger-driven
    engine and from the rank-identity assembly in ``verify``.

    A secret group's map is ``n horizon x 2m t``, its columns in slot
    order (slot ``s``'s ``2m`` inputs ``[x1 | x2]`` from ``2m s``).  Its
    rows are those of the noise phase, the receiver's own fresh phase, the
    other fresh phase and the final phase, in that order, so the rows the
    oracle keeps are the map's tail: receiver 2's map swaps the two fresh
    phases.  The group enters in the other fresh phase, so the first two
    stay zero and multiply nothing.  The other fresh phase's inputs are the
    group itself: each slot's ``n x 2m`` block goes into that slot's
    columns, with no product.  The final-phase precoder that retransmits
    the receiver's outputs there multiplies them slot by slot
    (:func:`_by_slot`), and the final phase is one batched product
    (:func:`_send`).

    The noise map is that of the input ``N z``, ``N`` the block-diagonal
    matrix with diagonal ``basis``, on the receiver's rows in the other
    fresh phase and then the final phase (:func:`_eavesdropped_noise`).
    """
    transcript.check_complete()
    secret = ("v2", "v1")[rx]
    if group not in ("u", secret) or (group == "u") != (basis is not None):
        raise InvalidInput(f"receiver {rx + 1} eavesdrops on {secret!r}, "
                           f"or on 'u' given its phase-1 null basis, not on {group!r}")
    m, n = transcript.config.effective_m, transcript.config.n
    t1, t2, t3, t4 = transcript.plan.phase_lengths
    slot_rows = transcript.states.slot_blocks()
    # the other receiver's fresh phase: where it starts, its length, the
    # precoder mixing the noise into it and the one retransmitting this
    # receiver's outputs of it
    start, t, theta, phi = ((t1 + t2, t3, "theta2", "phi2") if rx == 0
                            else (t1, t2, "theta1", "phi1"))
    heard, final = slot_rows[rx, start : start + t], slot_rows[rx, t1 + t2 + t3 :]
    if group == "u":
        mixed = slot_rows[1 - rx, :t1] @ basis
        return _eavesdropped_noise(transcript, theta, phi, mixed, heard, final)
    k = 2 * m * t
    y = np.zeros((transcript.horizon, n, k), dtype=complex)
    other = t1 + t2 + t3 - t  # past the noise phase and the receiver's own fresh phase
    slots = np.arange(t)
    y[other : other + t].reshape(t, n, t, 2 * m)[slots, :, slots] = heard
    take = retransmitted_rows(transcript.spec, transcript.config)
    x4 = _stack_for(transcript, phi, (2 * m * t4, k))
    _by_slot(transcript, phi, heard[:, :take], x4)
    _send(final, x4, y[other + t :])
    return y.reshape(n * transcript.horizon, k)


def _send(blocks: np.ndarray, x: np.ndarray, out: np.ndarray):
    """A receiver's outputs of the stacked ``[x1; x2]`` input ``x`` over a
    phase with ``(t, n, 2m)`` slot blocks ``blocks``, written into ``out``,
    ``(t, n, k)``: one batched product of the blocks with each
    transmitter's ``(t, m, k)`` half of ``x``, a view of it."""
    t, _, width = blocks.shape
    halves = x.reshape(2, t, width // 2, out.shape[-1])
    np.matmul(blocks[..., : width // 2], halves[0], out=out)
    out += blocks[..., width // 2 :] @ halves[1]


def _eavesdropped_noise(
    transcript: Transcript, theta: str, phi: str, mixed: np.ndarray, heard: np.ndarray,
    final: np.ndarray,
) -> np.ndarray:
    """A receiver's map of the noise input ``N z``, ``N`` the block-diagonal
    null bases of its own phase-1 lift, on its rows in the other receiver's
    fresh phase and then the final phase.  ``mixed`` is the other
    receiver's phase-1 output of ``N z``, ``(t1, n, w)`` slot by slot;
    ``theta`` mixes it into the other fresh phase, where the receiver
    hears it through the slot blocks ``heard``, and ``phi`` retransmits
    what it heard there, through its final-phase slot blocks ``final``.

    The receiver's own phase-1 output of ``N z`` is zero, so the mixing of
    its own fresh phase, its rows there and the final-phase precoder that
    reads the other receiver's outputs in that phase all vanish, and none
    is formed.  What is left is one dense product: ``phi`` on ``(2m - n)
    t1`` columns where an identity replay has ``2m t1``.  It is taken as
    ``(D4 Phi) s``, ``s`` the :func:`side_info` of what the receiver heard,
    ``D4`` its final-phase lift and ``Phi`` the placed precoder: its ``n
    t4`` rows where ``D4 (Phi s)`` has ``2m t4``.  A precoder both transmitters carry is its own placed copy,
    so only the ``tx1``/``tx2`` carriers of schemes B and C are padded
    with zeros, and only their mixing input is zero-filled
    (:func:`_stack_for`).
    """
    m, n = transcript.config.effective_m, transcript.config.n
    t1, _, w = mixed.shape
    t, t4, k = len(heard), len(final), t1 * w
    out = np.empty((t + t4, n, k), dtype=complex)
    x = _stack_for(transcript, theta, (2 * m * t, k))
    _by_slot(transcript, theta, mixed, x)
    _send(heard, x, out[:t])
    overheard = side_info(transcript, out[:t].reshape(n * t, k))
    placed = precoder = getattr(transcript.precoders, phi)
    h = precoder.shape[1]
    if getattr(transcript.spec, phi) != "both":
        placed = np.zeros((2 * m * t4, h), dtype=complex)
        placed[_carrier_span(getattr(transcript.spec, phi), m * t4)] = precoder
    lifted = np.empty((t4, n, h), dtype=complex)
    _send(final, placed, lifted)
    final_rows = out[t:].reshape(n * t4, k)  # a view: ``out`` is contiguous
    np.matmul(lifted.reshape(n * t4, h), overheard, out=final_rows)
    return out.reshape(n * (t + t4), k)
