"""Reconstruction pipeline over announced measurement outcomes.

Expands the announced Bell outcomes of qubits (2,5) and (3,4) into signed
terms, discards terms inconsistent with the dealer's announced state,
attaches the (1,6) outcome, discards terms whose untouched GHZ half
violates the announced state's support, and matches the two surviving
terms against each candidate gate applied to the perfectly correlated
reference state.  A pure function of the announcements throughout; the
transcript's ground truth is never consulted.

Every step reads ``Term.bits`` directly.  What the announced state and
position fix is one cached Decoder per (label, position): the untouched
half's shift and allowed triples, a gate table built from the symbolic
gate images, and a table of single-qubit flips.  A filter is then a mask
and a set lookup, gate inference one lookup, and the tamper report one
lookup per discard.

The five public stage functions are the steps.  The announcements fix the
reconstruction, so it lives in one decode table of the 512 announced tuples,
``_decoded``: each entry is one trace of every stage, as each label's support
keeps two of the four expanded terms, and it ends in the result or the
rejection's message.  It is filled on first use by one run of the stages on
terms drawn from constant tables (the (1,6) attach reads interned six-qubit
terms, so a reconstruction constructs no term).  ``reconstruct``,
``reconstruct_trace`` and a NoMatch's ``.trace`` read that entry, so a warm
reconstruction runs no stage.  The fill raises nothing, and each entry point
raises its NoMatch from its own frame: a NoMatch holds only the five announced
values, so a kept rejection pins neither the fill's frame nor its trace.
A NoMatch message is rendered once per key, into a cached table.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Collection, Mapping, NamedTuple, Optional, Sequence

from .protocol import (
    Announcement,
    GateAction,
    MeasurementAnnouncement,
    PAIRING_2534,
    Party,
    PositionAnnouncement,
    StateLabelAnnouncement,
    decode_secret,
)
from .qcore import BELL_KET_SIGNS, GATES, LABELS, BellOutcome, PauliGate, StateLabel
from .symexact import SymbolicState, Term, apply_gate_sym, bell_products

MIDDLE_QUBITS = (2, 3, 4, 5)
ALL_QUBITS = (1, 2, 3, 4, 5, 6)


class ReconError(Exception):
    """Base class for reconstruction failures."""


class IncompleteTranscript(ReconError):
    """The announcement list is missing entries or breaks the honest order."""


class NoMatch(ReconError):
    """No candidate gate fits: tampering or inconsistent announcements.

    One that ``reconstruct`` or ``reconstruct_trace`` raises holds the five
    announced values it rejected, and nothing of the stages that rejected
    them; one that ``infer_gate`` raises on its own holds none.  Pickle and
    ``copy`` rebuild it through its constructor, so the copy keeps them.
    """

    # no per-instance dict: a sweep may keep hundreds of these
    __slots__ = ("_announced",)

    def __init__(self, message: str, announced: Optional[tuple] = None):
        # all BaseException.__init__ does is set args
        self.args = (message,)
        self._announced = announced

    def __reduce__(self):
        # BaseException's passes args alone, which would drop the announced values
        return type(self), (self.args[0], self._announced), self.__dict__

    @property
    def trace(self) -> "PipelineTrace | None":
        """The trace of the rejected announcements, from the decode table, or None."""
        return None if self._announced is None else _decoded(*self._announced)


class Ambiguous(ReconError):
    """Two candidate gates share an image; raised when a gate table is built."""


class FilterResult(NamedTuple):
    """Partition of a term list into kept and discarded terms, in their source order."""

    kept: tuple[Term, ...]
    discarded: tuple[Term, ...]


class TamperReport(NamedTuple):
    """Bit-flip interference hypothesis read off the discarded terms."""

    flipped_qubits: tuple[int, ...]
    hypothesized_gate: PauliGate

    def render(self) -> str:
        qubits = ",".join(map(str, self.flipped_qubits))
        # the member's attribute: Enum.value is a Python-level property
        return f"{self.hypothesized_gate._value_} on qubit {qubits}"


class ReconstructionResult(NamedTuple):
    action: GateAction
    secret: str
    tamper: Optional[TamperReport]


class PipelineTrace(NamedTuple):
    """All intermediate states of one reconstruction, and its result or its rejection."""

    expansion: SymbolicState
    support_filter: FilterResult
    kept_mid: SymbolicState
    attached: SymbolicState
    untouched_filter: FilterResult
    final_kept: SymbolicState
    result: Optional[ReconstructionResult]
    rejection: Optional[str]


class Decoder(NamedTuple):
    """What one announced (label, position) fixes for the last pipeline stages.

    ``untouched_shift`` brings the untouched GHZ half's triple to the low bits
    of a pattern over qubits 1..6, and ``support`` holds the triples it may take.
    ``gates`` maps a kept pair's key to its gate's action and the secret it carries.
    """

    position: int
    untouched_shift: int
    support: frozenset[int]
    gates: Mapping[tuple[int, int, int], tuple[GateAction, str]]
    flips: tuple[Optional[int], ...]


_Terms = tuple[Term, ...]


def _split(terms: Sequence[Term], shift: int, mask: int, allowed: Collection[int]) -> FilterResult:
    """Split terms by whether their bits ``shift`` up, under ``mask``, are allowed."""
    kept, discarded = [], []
    for t in terms:
        (kept if t.bits >> shift & mask in allowed else discarded).append(t)
    # what FilterResult's generated __new__ calls, without its Python frame
    return tuple.__new__(FilterResult, (tuple(kept), tuple(discarded)))


# per announced state, the (q4,q5) bits its GHZ half support allows: (q4,q5)
# are the first two qubits of the second half, a triple's top two bits
_MIDDLE_SUPPORT = {label: frozenset(h >> 1 for h in label.half_support) for label in LABELS}


def filter_support(terms: Sequence[Term], label: StateLabel) -> FilterResult:
    """Keep the terms over qubits 2..5 whose (q4,q5) bits lie in the announced support.

    This is the support-membership generalization of the positional
    discard rule (states A/B keep the diagonal pair of the canonical
    four-term expansion, C/D the anti-diagonal pair).
    """
    try:
        allowed = _MIDDLE_SUPPORT[label]
    except (KeyError, TypeError):  # no label, or unhashable
        raise ValueError(f"label must be a StateLabel, got {label!r}") from None
    # (q4,q5) are the two low bits of a pattern over qubits 2..5
    return _split(terms, 0, 0b11, allowed)


@functools.cache
def _attached_terms(p1: BellOutcome) -> tuple[_Terms, _Terms]:
    """The six-qubit terms of the (1,6) ket tensored onto each signed middle term.

    One row per ket term, q1 first; entry ``bits << 1 | (sign < 0)`` of a row
    is that ket term times the middle term (bits, sign) over qubits 2..5.
    """
    placed = sorted((k1 << 5 | k6, s) for (k1, k6), s in BELL_KET_SIGNS[p1].items())
    return tuple(
        tuple(Term(b | bits << 1, s * sign) for bits in range(16) for sign in (1, -1))
        for b, s in placed
    )


def attach_p1(kept: Sequence[Term], p1: BellOutcome) -> _Terms:
    """Tensor the announced (1,6) Bell ket onto kept terms over qubits 2..5: terms over 1..6."""
    # the ket's two terms differ on q1, the top bit, so ket-major order is canonical
    return tuple([row[t.bits << 1 | (t.sign < 0)] for row in _attached_terms(p1) for t in kept])


# per encoding position, the qubits of the GHZ half the dealer's gate toggles
# and of the half it leaves untouched
_HALVES = {1: ((1, 2, 3), (4, 5, 6)), 6: ((4, 5, 6), (1, 2, 3))}


def _pair_key(a: int, sign_a: int, b: int, sign_b: int) -> tuple[int, int, int]:
    """Two signed triples up to order and global sign: (low, high, relative sign)."""
    return (a, b, sign_a * sign_b) if a < b else (b, a, sign_a * sign_b)


@functools.cache
def _decoder(label: StateLabel, position: int) -> Decoder:
    """The decoder of one announced (label, position).

    Callers pass a checked position: True and 1.0 are equal to 1 as cache keys.

    ``gates`` keys each candidate gate by its image of the announced state's
    toggled GHZ half, as two signed triples.  The build raises Ambiguous if
    two gates share an image, so that a lookup names at most one gate.
    ``flips`` holds, per untouched triple, the qubit whose flip reaches the
    nearest support triple, or None where that is not at Hamming distance 1.
    """
    support = label.half_support
    toggled, untouched = _HALVES[position]
    reference = SymbolicState.from_terms(toggled, [Term(h, 1) for h in support])
    gates: dict[tuple[int, int, int], tuple[GateAction, str]] = {}
    for gate in GATES:
        image = apply_gate_sym(reference, gate, position)
        (a, b) = image.terms
        key = _pair_key(a.bits, a.sign, b.bits, b.sign)
        if key in gates:
            shared = gates[key][0].gate
            raise Ambiguous(f"gates {shared.value} and {gate.value} share {image.render()}")
        action = GateAction(gate, position)
        gates[key] = (action, decode_secret(action))
    flips = []
    for triple in range(8):
        diff = min((triple ^ h for h in support), key=int.bit_count)
        flips.append(untouched[3 - diff.bit_length()] if diff.bit_count() == 1 else None)
    # a half's last qubit q is bit 6 - q of a pattern over qubits 1..6
    shift = len(ALL_QUBITS) - untouched[-1]
    return Decoder(position, shift, frozenset(support), MappingProxyType(gates), tuple(flips))


def filter_untouched(terms: Sequence[Term], decoder: Decoder) -> FilterResult:
    """Keep the terms over qubits 1..6 whose untouched-half triple is in the announced support."""
    return _split(terms, decoder.untouched_shift, 0b111, decoder.support)


@functools.cache
def _no_gate_message(position: int, a: int, sign_a: int, b: int, sign_b: int) -> str:
    """The NoMatch message for a kept pair no gate table entry names."""
    toggled = _HALVES[position][0]
    target = SymbolicState.from_terms(toggled, [Term(a, sign_a), Term(b, sign_b)])
    return f"no gate maps the reference onto {target.render()}"


def infer_gate(kept: Sequence[Term], decoder: Decoder) -> tuple[GateAction, str]:
    """The action, and its secret, whose image of the reference is the kept pair.

    The untouched half of the kept terms is support-consistent by
    construction, so the pair's toggled half must reproduce one gate's
    image of the announced state's GHZ half, patterns and signs, up to one
    global sign.  Relative sign is preserved: it is the Z/I and iY/X
    discriminator.  Raises NoMatch where no gate does.
    """
    # the two halves are the two triples of a six-bit pattern
    shift = 3 - decoder.untouched_shift
    first, second = kept
    a, b = first.bits >> shift & 7, second.bits >> shift & 7
    if a == b:
        raise NoMatch("kept terms collapse onto one toggled-half pattern")
    entry = decoder.gates.get(_pair_key(a, first.sign, b, second.sign))
    if entry is None:
        raise NoMatch(_no_gate_message(decoder.position, a, first.sign, b, second.sign))
    return entry


@functools.cache
def _flip_report(qubit: int) -> TamperReport:
    return TamperReport((qubit,), PauliGate.X)


def tamper_report(discarded: Sequence[Term], decoder: Decoder) -> Optional[TamperReport]:
    """Bit-flip hypothesis from the untouched-half discards.

    The discards are terms over qubits 1..6, as filter_untouched leaves
    them.  Each discarded term's untouched triple is compared against the
    nearest support string; a report is issued only when a single common
    qubit at Hamming distance 1 explains every discard.
    """
    if not discarded:
        return None
    shift, flips = decoder.untouched_shift, decoder.flips
    qubit = flips[discarded[0].bits >> shift & 7]
    for t in discarded:
        if flips[t.bits >> shift & 7] != qubit:
            return None
    return None if qubit is None else _flip_report(qubit)


# (kind, party) of each announcement, in the honest order
_HONEST_ORDER = (
    (MeasurementAnnouncement, Party.P2),
    (MeasurementAnnouncement, Party.P3),
    (StateLabelAnnouncement, None),
    (MeasurementAnnouncement, Party.P1),
    (PositionAnnouncement, None),
)


def _validated(announcements: Sequence[Announcement]) -> tuple:
    """The announced (o2, o3, label, o1, position) of a list in the honest order.

    Every record was built through its constructor, which checked its
    fields, so what is left to check is the order: each slot's exact record
    type and each measurement's party.
    """
    try:
        count = len(announcements)
    except TypeError:  # an iterator, a generator, None
        given = type(announcements).__name__
        raise IncompleteTranscript(f"announcements must be a sequence, got {given}") from None
    if count != len(_HONEST_ORDER):
        raise IncompleteTranscript(f"expected {len(_HONEST_ORDER)} announcements, got {count}")
    p2, p3, state_ann, p1, pos_ann = announcements
    if not (
        type(p2) is type(p3) is type(p1) is MeasurementAnnouncement
        and type(state_ann) is StateLabelAnnouncement
        and type(pos_ann) is PositionAnnouncement
        and p2.party == Party.P2
        and p3.party == Party.P3
        and p1.party == Party.P1
    ):
        # name the first record out of place
        for ann, (kind, party) in zip(announcements, _HONEST_ORDER):
            if type(ann) is not kind or party is not None and ann.party != party:
                raise IncompleteTranscript(f"announcement {ann!r} out of order")
    return p2.outcome, p3.outcome, state_ann.label, p1.outcome, pos_ann.position


@functools.cache
def _decoded(
    o2: BellOutcome, o3: BellOutcome, label: StateLabel, o1: BellOutcome, position: int
) -> PipelineTrace:
    """One decode table entry: the trace, which ends in the result or the rejection.

    Nothing is raised here: a cache keeps no call that raised, and the entry
    point raises, so that a kept NoMatch holds neither this frame nor the trace.
    Callers pass validated announcements: True and 1.0 are equal to 1 as cache keys.

    Each record is built as the generated ``__new__`` builds it, without its
    Python frame: terms kept in order from a canonical state are canonical
    already, so no state needs ``from_terms``.
    """
    new = tuple.__new__
    expansion = bell_products(PAIRING_2534)[o2, o3]
    middle = filter_support(expansion.terms, label)
    norm = expansion.norm_exponent
    attached = attach_p1(middle.kept, o1)
    decoder = _decoder(label, position)
    untouched = filter_untouched(attached, decoder)
    kept = untouched.kept
    # the (1,6) ket's 1/sqrt2 adds 1 to the norm exponent
    reached = (
        expansion,
        middle,
        new(SymbolicState, (MIDDLE_QUBITS, middle.kept, norm)),
        new(SymbolicState, (ALL_QUBITS, attached, norm + 1)),
        untouched,
        new(SymbolicState, (ALL_QUBITS, kept, norm + 1)),
    )
    if len(kept) != 2:
        rejection = f"{len(kept)} terms survive the untouched-half filter"
        return new(PipelineTrace, (*reached, None, rejection))
    try:
        action, secret = infer_gate(kept, decoder)
    except NoMatch as exc:
        return new(PipelineTrace, (*reached, None, exc.args[0]))
    tamper = tamper_report(untouched.discarded, decoder)
    result = new(ReconstructionResult, (action, secret, tamper))
    return new(PipelineTrace, (*reached, result, None))


def reconstruct_trace(announcements: Sequence[Announcement]) -> PipelineTrace:
    """The full pipeline's trace, every intermediate kept for reporting."""
    announced = _validated(announcements)
    trace = _decoded(*announced)
    if trace.result is None:
        rejection = trace.rejection
        # the traceback keeps this frame's locals
        del trace
        raise NoMatch(rejection, announced)
    return trace


def reconstruct(announcements: Sequence[Announcement]) -> ReconstructionResult:
    """Reconstruct the secret from announcements alone."""
    announced = _validated(announcements)
    trace = _decoded(*announced)
    result = trace.result
    if result is None:
        rejection = trace.rejection
        # the traceback keeps this frame's locals
        del trace
        raise NoMatch(rejection, announced)
    return result
