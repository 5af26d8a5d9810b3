"""Reconstruction pipeline over announced measurement outcomes.

Expands the announced Bell outcomes of qubits (2,5) and (3,4) into signed
terms, discards terms inconsistent with the dealer's announced state,
attaches the (1,6) outcome, discards terms whose untouched GHZ half
violates the announced state's support, and matches the two surviving
terms against each candidate gate applied to the perfectly correlated
reference state.  A pure function of the announcements throughout; the
transcript's ground truth is never consulted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from .protocol import (
    Announcement,
    GateAction,
    MeasurementAnnouncement,
    P1_PAIR,
    P2_PAIR,
    P3_PAIR,
    Party,
    PositionAnnouncement,
    StateLabelAnnouncement,
    decode_secret,
)
from .qcore import GATES, BellOutcome, PauliGate, StateLabel
from .symexact import (
    EmptyState,
    SymbolicState,
    Term,
    apply_gate_sym,
    bell_products,
    bell_terms,
    equal_up_to_global_sign,
    expand_product,
    restrict,
)

MIDDLE_QUBITS = (2, 3, 4, 5)
ALL_QUBITS = (1, 2, 3, 4, 5, 6)


class ReconError(Exception):
    """Base class for reconstruction failures."""


class IncompleteTranscript(ReconError):
    """The announcement list is missing entries or breaks the honest order."""


class NoMatch(ReconError):
    """No candidate gate fits: tampering or inconsistent announcements."""

    def __init__(self, message: str, trace: "PipelineTrace | None" = None):
        super().__init__(message)
        self.trace = trace


class Ambiguous(ReconError):
    """More than one candidate gate fits (never occurs in honest runs)."""


@dataclass(frozen=True)
class FilterResult:
    """Partition of a term list into kept and discarded terms."""

    kept: tuple[Term, ...]
    discarded: tuple[Term, ...]


@dataclass(frozen=True)
class TamperReport:
    """Bit-flip interference hypothesis read off the discarded terms."""

    flipped_qubits: tuple[int, ...]
    hypothesized_gate: PauliGate

    def render(self) -> str:
        qubits = ",".join(str(q) for q in self.flipped_qubits)
        return f"{self.hypothesized_gate.value} on qubit {qubits}"


@dataclass(frozen=True)
class ReconstructionResult:
    action: GateAction
    secret: str
    tamper: Optional[TamperReport]


@dataclass(frozen=True)
class PipelineTrace:
    """All intermediate states of one reconstruction, for reporting."""

    expansion: SymbolicState
    support_filter: FilterResult
    kept_mid: SymbolicState
    attached: Optional[SymbolicState]
    untouched_filter: Optional[FilterResult]
    final_kept: Optional[SymbolicState]
    result: Optional[ReconstructionResult]


def _partition(state: SymbolicState, qubits: tuple[int, ...], allowed: set[str]) -> FilterResult:
    """Split a state's terms by whether their bits on the given qubits are allowed."""
    kept, discarded = [], []
    for t in state.terms:
        (kept if restrict(state.qubits, t, qubits) in allowed else discarded).append(t)
    return FilterResult(tuple(kept), tuple(discarded))


def filter_support(state: SymbolicState, label: StateLabel) -> FilterResult:
    """Keep terms whose (q4,q5) bits lie in the announced state's support.

    This is the support-membership generalization of the positional
    discard rule (states A/B keep the diagonal pair of the canonical
    four-term expansion, C/D the anti-diagonal pair).
    """
    if state.qubits != MIDDLE_QUBITS:
        raise ValueError(f"expected a state over qubits {MIDDLE_QUBITS}, got {state.qubits}")
    # (q4,q5) values allowed by the label: the first two bits of each second-half support string
    return _partition(state, (4, 5), {h[:2] for h in label.half_support})


def attach_p1(kept: SymbolicState, p1: BellOutcome) -> SymbolicState:
    """Tensor the announced (1,6) Bell ket onto the kept middle terms."""
    if not kept.terms:
        raise EmptyState("no kept terms to attach the (1,6) outcome to")
    return expand_product([bell_terms(p1, P1_PAIR), kept])


def untouched_half(position: int) -> tuple[int, int, int]:
    """Qubits of the GHZ half the dealer's gate did not touch."""
    return (4, 5, 6) if position == 1 else (1, 2, 3)


def toggled_half(position: int) -> tuple[int, int, int]:
    return (1, 2, 3) if position == 1 else (4, 5, 6)


def filter_untouched(state: SymbolicState, label: StateLabel, position: int) -> FilterResult:
    """Keep terms whose untouched-half triple is in the announced support."""
    if state.qubits != ALL_QUBITS:
        raise ValueError(f"expected a state over qubits 1..6, got {state.qubits}")
    return _partition(state, untouched_half(position), set(label.half_support))


def _half_reference(label: StateLabel, qubits: tuple[int, int, int]) -> SymbolicState:
    terms = [Term(int(h, 2), 1) for h in sorted(label.half_support)]
    return SymbolicState.from_terms(qubits, terms, 1)


@functools.cache
def _gate_images(label: StateLabel, position: int) -> tuple[tuple[PauliGate, SymbolicState], ...]:
    """Each candidate gate applied to the announced state's toggled GHZ half."""
    reference = _half_reference(label, toggled_half(position))
    return tuple((gate, apply_gate_sym(reference, gate, position)) for gate in GATES)


def infer_gate(kept: SymbolicState, label: StateLabel, position: int) -> GateAction:
    """Identify the gate whose action on the reference state yields the kept pair.

    The untouched half of the kept terms is support-consistent by
    construction, so the comparison is made on the toggled half: each
    candidate gate is applied symbolically to the announced state's GHZ
    half and must reproduce the kept terms' toggled-half patterns and
    signs, up to a single global sign.  Relative sign is preserved: it is
    the Z/I and iY/X discriminator.
    """
    if len(kept.terms) != 2:
        raise NoMatch(f"expected exactly 2 kept terms, got {len(kept.terms)}")
    half = toggled_half(position)
    restricted = [Term(int(restrict(kept.qubits, t, half), 2), t.sign) for t in kept.terms]
    if restricted[0].bits == restricted[1].bits:
        raise NoMatch("kept terms collapse onto one toggled-half pattern")
    target = SymbolicState.from_terms(half, restricted, 1)
    matches = [
        gate
        for gate, image in _gate_images(label, position)
        if equal_up_to_global_sign(image, target)
    ]
    if not matches:
        raise NoMatch(f"no gate maps the reference onto {target.render()}")
    if len(matches) > 1:
        raise Ambiguous(f"gates {[g.value for g in matches]} all match {target.render()}")
    return GateAction(matches[0], position)


def tamper_report(
    untouched_discarded: Sequence[Term], label: StateLabel, position: int
) -> Optional[TamperReport]:
    """Bit-flip hypothesis from the untouched-half discards.

    The discards are terms over qubits 1..6, as filter_untouched leaves
    them.  Each discarded term's untouched triple is compared against the
    nearest support string; a report is issued only when a single common
    qubit at Hamming distance 1 explains every discard.
    """
    if not untouched_discarded:
        return None
    half = untouched_half(position)
    flips = set()
    for term in untouched_discarded:
        triple = restrict(ALL_QUBITS, term, half)
        best = min(label.half_support, key=lambda h: _hamming(triple, h))
        nearest = _hamming(triple, best)
        if nearest != 1:
            return None
        flips.add(next(half[i] for i in range(3) if triple[i] != best[i]))
    if len(flips) != 1:
        return None
    return TamperReport((flips.pop(),), PauliGate.X)


def _hamming(a: str, b: str) -> int:
    return sum(x != y for x, y in zip(a, b))


def _validated(announcements: Sequence[Announcement]):
    expected = (
        (MeasurementAnnouncement, Party.P2, P2_PAIR),
        (MeasurementAnnouncement, Party.P3, P3_PAIR),
        (StateLabelAnnouncement, None, None),
        (MeasurementAnnouncement, Party.P1, P1_PAIR),
        (PositionAnnouncement, None, None),
    )
    if len(announcements) != len(expected):
        raise IncompleteTranscript(
            f"expected {len(expected)} announcements, got {len(announcements)}"
        )
    for ann, (kind, party, pair) in zip(announcements, expected):
        if not isinstance(ann, kind):
            raise IncompleteTranscript(f"announcement {ann!r} out of order")
        if party is not None and (ann.party != party or tuple(ann.pair) != pair):
            raise IncompleteTranscript(f"announcement {ann!r} out of order")
    p2, p3, state_ann, p1, pos_ann = announcements
    return p2.outcome, p3.outcome, state_ann.label, p1.outcome, pos_ann.position


def reconstruct_trace(announcements: Sequence[Announcement]) -> PipelineTrace:
    """Run the full pipeline, keeping every intermediate for reporting."""
    o2, o3, label, o1, position = _validated(announcements)
    # the P2 x P3 product of the announced (2,5) and (3,4) Bell kets, over qubits 2..5
    expansion = bell_products((P2_PAIR, P3_PAIR))[o2, o3]
    support = filter_support(expansion, label)
    kept_mid = SymbolicState.from_terms(MIDDLE_QUBITS, support.kept, expansion.norm_exponent)
    if not kept_mid.terms:
        raise NoMatch(
            "announced state is inconsistent with every expanded term",
            PipelineTrace(expansion, support, kept_mid, None, None, None, None),
        )
    attached = attach_p1(kept_mid, o1)
    untouched = filter_untouched(attached, label, position)
    final_kept = SymbolicState.from_terms(ALL_QUBITS, untouched.kept, attached.norm_exponent)
    partial = PipelineTrace(expansion, support, kept_mid, attached, untouched, final_kept, None)
    if len(final_kept.terms) != 2:
        raise NoMatch(
            f"{len(final_kept.terms)} terms survive the untouched-half filter", partial
        )
    try:
        action = infer_gate(final_kept, label, position)
    except NoMatch as exc:
        raise NoMatch(str(exc), partial) from None
    result = ReconstructionResult(
        action=action,
        secret=decode_secret(action),
        tamper=tamper_report(untouched.discarded, label, position),
    )
    return PipelineTrace(expansion, support, kept_mid, attached, untouched, final_kept, result)


def reconstruct(announcements: Sequence[Announcement]) -> ReconstructionResult:
    """Reconstruct the secret from announcements alone."""
    trace = reconstruct_trace(announcements)
    assert trace.result is not None
    return trace.result
