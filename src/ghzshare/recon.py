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
rejection's message.  It is filled on first use by one run of the stages.
``reconstruct`` and ``reconstruct_trace`` read that entry, so a warm
reconstruction runs no stage.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Collection, Mapping, NamedTuple, Optional, Sequence

from .protocol import (
    Announcement,
    Announcements,
    GateAction,
    PAIRING_2534,
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
    """No candidate gate fits: tampering or inconsistent announcements."""


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


def _split(terms: Sequence[Term], shift: int, mask: int, allowed: Collection[int]) -> FilterResult:
    """Split terms by whether their bits ``shift`` up, under ``mask``, are allowed."""
    kept, discarded = [], []
    for t in terms:
        (kept if t.bits >> shift & mask in allowed else discarded).append(t)
    return FilterResult(tuple(kept), tuple(discarded))


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


def attach_p1(kept: Sequence[Term], p1: BellOutcome) -> tuple[Term, ...]:
    """Tensor the announced (1,6) Bell ket onto kept terms over qubits 2..5: terms over 1..6."""
    # each ket lists its q1 = 0 term first, and q1 is the top bit, so ket-major order is canonical
    attached = []
    for (k1, k6), s in BELL_KET_SIGNS[p1].items():
        attached += [Term(k1 << 5 | t.bits << 1 | k6, s * t.sign) for t in kept]
    return tuple(attached)


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
        toggled = _HALVES[decoder.position][0]
        target = SymbolicState.from_terms(toggled, [Term(a, first.sign), Term(b, second.sign)])
        raise NoMatch(f"no gate maps the reference onto {target.render()}")
    return entry


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
    return None if qubit is None else TamperReport((qubit,), PauliGate.X)


def _validated(announcements: Sequence[Announcement]) -> tuple:
    """The announced (o2, o3, label, o1, position) of a list in the honest order.

    An Announcements record checked the order when it was built; any other
    sequence of five is checked by building one.
    """
    if type(announcements) is not Announcements:
        try:
            count = len(announcements)
        except TypeError:  # an iterator, a generator, None
            given = type(announcements).__name__
            raise IncompleteTranscript(f"announcements must be a sequence, got {given}") from None
        expected = len(Announcements._fields)
        if count != expected:
            raise IncompleteTranscript(f"expected {expected} announcements, got {count}")
        try:
            announcements = Announcements(*announcements)
        except ValueError as exc:
            raise IncompleteTranscript(exc.args[0]) from None
    p2, p3, state_ann, p1, pos_ann = announcements
    return p2.outcome, p3.outcome, state_ann.label, p1.outcome, pos_ann.position


@functools.cache
def _decoded(
    o2: BellOutcome, o3: BellOutcome, label: StateLabel, o1: BellOutcome, position: int
) -> PipelineTrace:
    """One decode table entry: the trace, which ends in the result or the rejection.

    Nothing is raised here: a cache keeps no call that raised.
    Callers pass validated announcements: True and 1.0 are equal to 1 as cache keys.
    """
    expansion = bell_products(PAIRING_2534)[o2, o3]
    middle = filter_support(expansion.terms, label)
    norm = expansion.norm_exponent
    attached = attach_p1(middle.kept, o1)
    decoder = _decoder(label, position)
    untouched = filter_untouched(attached, decoder)
    kept = untouched.kept
    # terms kept in order from a canonical state need no from_terms; the (1,6)
    # ket's 1/sqrt2 adds 1 to the norm exponent
    reached = (
        expansion,
        middle,
        SymbolicState(MIDDLE_QUBITS, middle.kept, norm),
        SymbolicState(ALL_QUBITS, attached, norm + 1),
        untouched,
        SymbolicState(ALL_QUBITS, kept, norm + 1),
    )
    if len(kept) != 2:
        rejection = f"{len(kept)} terms survive the untouched-half filter"
        return PipelineTrace(*reached, None, rejection)
    try:
        action, secret = infer_gate(kept, decoder)
    except NoMatch as exc:
        return PipelineTrace(*reached, None, exc.args[0])
    tamper = tamper_report(untouched.discarded, decoder)
    return PipelineTrace(*reached, ReconstructionResult(action, secret, tamper), None)


def reconstruct_trace(announcements: Sequence[Announcement]) -> PipelineTrace:
    """The full pipeline's trace, which ends in its result or its rejection."""
    return _decoded(*_validated(announcements))


def reconstruct(announcements: Sequence[Announcement]) -> ReconstructionResult:
    """Reconstruct the secret from announcements alone."""
    # only the last two fields, so a kept NoMatch's frame holds no stage piece
    result, rejection = _decoded(*_validated(announcements))[-2:]
    if result is None:
        raise NoMatch(rejection)
    return result
