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
    DegeneratePrecoders,
    InvalidInput,
    InvalidTranscript,
    RegimeError,
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

#: Draws of one precoder before a rank failure is reported.
MAX_PRECODER_DRAWS = 16

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


#: A trial's measured peak memory over its largest linear replay: 3.4 to 4.3
#: times, above the interpreter's own, on scheme A from (6,6) to (10,10).
PEAK_PER_REPLAY = 4


def peak_bytes(pln: PhasePlan, config: AntennaConfig) -> int:
    """Estimated peak memory of one trial with its subspace oracle, in bytes.

    A :func:`linear_response` replay is the largest array of a trial: both
    receivers' ``n`` rows a slot over the horizon, times the group's ``2m
    t`` columns (``t`` is ``t1`` for the noise, ``t2`` for a secret group),
    of 16-byte complex entries; the trial peaks at about
    :data:`PEAK_PER_REPLAY` times the largest.  Nothing is drawn to
    estimate it.
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
    """Draw Gaussian precoders, redrawing any that miss full rank.

    Each precoder maps the ``n`` outputs per slot of its source phase to
    ``m`` inputs per slot and carrying transmitter of its target phase; with
    an empty noise phase the mixing matrices are empty (no columns), a draw
    that takes nothing from ``rng``.  Scheme C's tx1-only row, like C's
    own, gives each precoder one carrier, so it draws the same precoders.

    Full rank is decided by :func:`matcore.has_full_rank`: a Cholesky
    certificate, with the SVD rank only where that cannot certify.  Both
    accept exactly the candidates the SVD rank accepts, so the stream and
    the precoders are those of an SVD check.  A Gaussian draw is full rank
    almost surely; exhausting the retries therefore signals a tolerance
    bug, not bad luck.
    """
    m, n = config.effective_m, config.n
    t1, t2, _, t3 = pln.phase_lengths
    drawn = {}
    sizes = (("theta1", t2, t1), ("theta2", t2, t1), ("phi1", t3, t2), ("phi2", t3, t2))
    for name, t_phase, t_prev in sizes:
        shape = (len(CARRIERS[getattr(spec, name)]) * m * t_phase, n * t_prev)
        for _ in range(MAX_PRECODER_DRAWS):
            cand = matcore.random_matrix(*shape, rng)
            if matcore.has_full_rank(cand):
                drawn[name] = cand
                break
        else:
            raise DegeneratePrecoders(f"{name} of shape {shape} failed rank target")
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
    def u(self) -> np.ndarray:
        return np.concatenate([self.u1, self.u2])

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

    @property
    def access_log(self):
        return self.knowledge.log

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
    retransmits them.

    When the spec selects, the first ``2m - n`` rows of every slot move to
    the top, in slot order, and zero rows pad the result back to full
    height; otherwise every row is retransmitted.  The lifted maps are block
    diagonal, so each slot's unknowns can only be completed by equations
    overheard in that same slot; a selection that starves a slot leaves the
    decode system rank deficient no matter how the retransmission is mixed.
    """
    if not transcript.spec.selected:
        return values
    n = transcript.config.n
    take = 2 * transcript.config.effective_m - n
    rows = (np.arange(0, len(values), n)[:, None] + np.arange(take)).ravel()
    out = np.zeros(values.shape, dtype=complex)
    out[: len(rows)] = values[rows]
    return out


def _placed(transcript: Transcript, name: str, values: np.ndarray, width: int) -> np.ndarray:
    """Precoder ``name`` applied to ``values``, on the stacked ``[x1; x2]``
    coordinates (``width`` per transmitter) of the transmitters carrying it."""
    out = np.zeros((2 * width,) + values.shape[1:], dtype=complex)
    if values.any():  # a secret replay feeds 3 of its 4 products zeros
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
    withhold: set | None = None,
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

    kb = KnowledgeBase(spec.model, config, withhold=withhold)
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


def _check_residual(ax, b):
    scale = np.linalg.norm(b)
    residual = np.linalg.norm(ax - b)
    if residual > DECODE_TOL * max(scale, 1.0):
        raise DecodeFailure(f"decode residual {residual:.3e} exceeds tolerance")


def decode(transcript: Transcript, receiver: Node) -> np.ndarray:
    """Recover the receiver's fresh symbols using only its decoder view.

    Returns the stacked pair (both transmitters' symbols destined to this
    receiver).  The receiver knows the mixing its fresh phase carries (a map
    of its own phase-1 output) and the retransmission of what it overheard
    itself; it subtracts both and solves its fresh-phase rows ``G`` stacked
    with the final-phase rows ``F``, through which the other receiver's view
    of the fresh phase arrives.

    ``G`` is block diagonal, one ``n x 2m`` block ``B`` per fresh slot, so
    it is eliminated slot by slot and never formed: the per-slot
    pseudo-inverses ``B^H (B B^H)^-1`` (each block has full row rank) give a
    particular solution ``x_p`` of its rows, and with ``N`` the per-slot
    null bases of ``G`` (:func:`matcore.slot_null_bases`) every solution is
    ``x_p + N z``.  The one dense solve is ``F N z = rhs_F - F x_p``,
    ``n*t4 x (2m-n)*t2`` instead of the stacked system's ``n*(t2+t4) x
    2m*t2``.  Raises :class:`DecodeFailure` when the residual over the whole
    stacked system exceeds the relative tolerance, and
    :class:`SingularSystem` / :class:`IllConditioned` on null-set channel
    draws (callers resample).
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
    view = transcript.knowledge.view(receiver, transcript.horizon, decoder=True)

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
    reduced = final @ side_info(transcript, null.apply_blocks(cross_f))
    sol = matcore.solve_full_column_rank(
        reduced, rhs_final - stacked(x_p)[1], condition_limit=matcore.CONDITION_LIMIT
    )
    x = x_p + null.basis @ sol.x.reshape(len(fresh), -1, 1)
    _check_residual(np.concatenate(stacked(x)), np.concatenate([rhs_f, rhs_final]))
    return _lift_order(x)


# ---------------------------------------------------------------------------
# closed-form linear replay (audit tool; bypasses the ledgers on purpose)
# ---------------------------------------------------------------------------


def linear_response(transcript: Transcript, group: str) -> tuple[np.ndarray, np.ndarray]:
    """Both receivers' coefficient maps of symbol group ``group``.

    ``group`` is ``"u"``, ``"v1"`` or ``"v2"``.  Recomputes the whole run
    from the channel states and precoders alone, with that group set to the
    identity and the other two to zeros, so receiver ``j``'s stacked outputs
    are its map times the group's symbols.  This is an independent code path
    from the ledger-driven engine (used to cross-check it) and from the
    rank-identity assembly in ``verify``.

    The channel acts slot by slot: each phase is one batched product of the
    ``(t, n, 2m)`` slot blocks of both receivers with the ``(t, 2m, k)``
    per-slot input slices, written into one ``(2, horizon, n, k)`` array
    whose two halves are the returned maps.  A phase whose input is all
    zero, as a secret replay's noise phase and the other group's fresh
    phase are, is written as zeros and multiplies nothing.
    """
    transcript.check_complete()
    cfg, sym = transcript.config, transcript.symbols
    m, n = cfg.effective_m, cfg.n
    ranges = transcript.phase_ranges()
    t2, t3 = len(ranges[1]), len(ranges[3])

    dims = {name: len(getattr(sym, name)) for name in ("u", "v1", "v2")}
    k = dims[group]
    u, v1, v2 = (
        np.eye(d, dtype=complex) if name == group else np.zeros((d, k), complex)
        for name, d in dims.items()
    )

    horizon = transcript.horizon
    slot_rows = transcript.states.slot_blocks(m)
    y = np.empty((2, horizon, n, k), dtype=complex)
    stacks = y.reshape(2, n * horizon, k)
    bounds = np.cumsum([0] + [len(slots) for slots in ranges])

    def send(p: int, x: np.ndarray):
        """Phase ``p``'s outputs of stacked input ``x``, written into ``y``;
        an all-zero input writes zeros without a product."""
        lo, hi = bounds[p - 1], bounds[p]
        t = hi - lo
        if not x.any():
            y[:, lo:hi] = 0.0
        else:
            per_slot = x.reshape(2, t, m, k).transpose(1, 0, 2, 3).reshape(t, 2 * m, k)
            np.matmul(slot_rows[:, lo:hi], per_slot, out=y[:, lo:hi])
        return stacks[0, n * lo : n * hi], stacks[1, n * lo : n * hi]

    y1p1, y2p1 = send(1, u)
    x2s = _placed(transcript, "theta1", y1p1, m * t2)
    x3s = _placed(transcript, "theta2", y2p1, m * t2)
    x2s += v1
    x3s += v2

    _, y2p2 = send(2, x2s)
    y1p3, _ = send(3, x3s)

    x4s = _placed(transcript, "phi1", side_info(transcript, y2p2), m * t3)
    x4s += _placed(transcript, "phi2", side_info(transcript, y1p3), m * t3)
    send(4, x4s)
    return stacks[0], stacks[1]
