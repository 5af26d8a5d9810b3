"""The (3,3) secret sharing protocol state machine.

The dealer encodes a 2-bit secret as a Pauli gate on qubit 1 or 6 of a
shared GHZ product state, the three reconstructors measure their pairs in
the Bell basis, and the run is recorded as an ordered announcement
transcript.  Reconstruction never reads the transcript's ground truth.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple, Union

from .qcore import (
    BELL_OUTCOMES,
    LABELS,
    BellOutcome,
    BellPair,
    PauliGate,
    StateLabel,
    apply_gate,
    measure_bell,
    outcome_from_ascii,
    prepare_state,
)

ENCODING_POSITIONS = (1, 6)

# Measurement order follows particle ownership: P1 holds (1,6), P2 (2,5), P3 (3,4).
P1_PAIR: BellPair = (1, 6)
P2_PAIR: BellPair = (2, 5)
P3_PAIR: BellPair = (3, 4)
# P2's and P3's pairs together: the (2,5),(3,4) pairing of the middle qubits 2..5
PAIRING_2534: tuple[BellPair, BellPair] = (P2_PAIR, P3_PAIR)


class Party:
    """Protocol roles and the qubit pairs they own."""

    DEALER = "Dealer"
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"

    OWNED_PAIRS: dict[str, BellPair | None] = {
        DEALER: None,
        P1: P1_PAIR,
        P2: P2_PAIR,
        P3: P3_PAIR,
    }


def check_secret(bits: str) -> str:
    if not isinstance(bits, str) or len(bits) != 2 or any(c not in "01" for c in bits):
        raise ValueError(f"secret must be a 2-character 0/1 string, got {bits!r}")
    return bits


def check_seed(seed: int) -> int:
    """A seed a transcript can record: a 64-bit unsigned int.

    Never a bool or None (which would draw entropy), nor a negative int,
    which ``random.Random`` seeds from its absolute value.
    """
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return seed


def check_position(position: int) -> int:
    if type(position) is not int or position not in ENCODING_POSITIONS:
        raise ValueError(f"encoding position must be 1 or 6, got {position!r}")
    return position


# A NamedTuple's own body may not define __new__, so each record that checks
# its fields subclasses a private one and builds itself with tuple.__new__, as
# the generated __new__ does.  The generated _make, which _replace calls, would
# skip the checks, so each such record's _make is this call of its constructor.
def _construct(cls, iterable):
    return cls(*iterable)


# pickle protocols 0 and 1 would rebuild a tuple subclass with tuple.__new__,
# past the checks: each checking record pickles and copies as a constructor call
def _reduce(record):
    return type(record), tuple(record)


class _GateAction(NamedTuple):
    gate: PauliGate
    position: int


class GateAction(_GateAction):
    """The carrier of the secret: a gate and the qubit it toggles."""

    __slots__ = ()
    _make = classmethod(_construct)
    __reduce__ = _reduce

    def __new__(cls, gate: PauliGate, position: int) -> GateAction:
        return tuple.__new__(cls, (gate, check_position(position)))

    def render(self) -> str:
        # the member's attribute: Enum.value is a Python-level property
        return f"{self.gate._value_}{self.position}"


_ENCODE = {
    ("00", 1): PauliGate.I,
    ("01", 1): PauliGate.X,
    ("11", 1): PauliGate.IY,
    ("10", 1): PauliGate.Z,
    ("11", 6): PauliGate.I,
    ("10", 6): PauliGate.X,
    ("00", 6): PauliGate.IY,
    ("01", 6): PauliGate.Z,
}
_DECODE = {(gate, position): bits for (bits, position), gate in _ENCODE.items()}


def encode_secret(bits: str, position: int) -> GateAction:
    """Map a 2-bit secret to the gate the dealer applies at the given position."""
    check_secret(bits)
    check_position(position)
    return GateAction(_ENCODE[(bits, position)], position)


def decode_secret(action: GateAction) -> str:
    """Inverse of encode_secret at the action's position."""
    try:
        return _DECODE[(action.gate, action.position)]
    except (AttributeError, KeyError, TypeError):  # not a GateAction's gate and position
        raise ValueError(f"action must be a GateAction, got {action!r}") from None


class _MeasurementAnnouncement(NamedTuple):
    party: str
    pair: BellPair
    outcome: BellOutcome


class MeasurementAnnouncement(_MeasurementAnnouncement):
    __slots__ = ()
    _make = classmethod(_construct)
    __reduce__ = _reduce

    def __new__(cls, party: str, pair: BellPair, outcome: BellOutcome) -> MeasurementAnnouncement:
        # a party that is no str, or a pair that is no sequence, owns nothing
        owned = Party.OWNED_PAIRS.get(party) if isinstance(party, str) else None
        if owned is None or not isinstance(pair, (tuple, list)) or tuple(pair) != owned:
            raise ValueError(f"{party} does not own pair {pair}")
        # True == 1 and 2.0 == 2, but neither writes back to JSON as the int it equals
        first, second = pair
        if type(first) is not int or type(second) is not int:
            raise ValueError(f"pair qubits must be ints, got {pair!r}")
        if not isinstance(outcome, BellOutcome):
            raise ValueError(f"outcome must be a BellOutcome, got {outcome!r}")
        return tuple.__new__(cls, (party, owned, outcome))

    def to_dict(self) -> dict:
        return {
            "type": "measurement",
            "party": self.party,
            "pair": list(self.pair),
            "outcome": self.outcome.ascii,
        }


class _StateLabelAnnouncement(NamedTuple):
    label: StateLabel


class StateLabelAnnouncement(_StateLabelAnnouncement):
    __slots__ = ()
    _make = classmethod(_construct)
    __reduce__ = _reduce

    def __new__(cls, label: StateLabel) -> StateLabelAnnouncement:
        if not isinstance(label, StateLabel):
            raise ValueError(f"label must be a StateLabel, got {label!r}")
        return tuple.__new__(cls, (label,))

    def to_dict(self) -> dict:
        return {"type": "dealer_state", "state": self.label.value}


class _PositionAnnouncement(NamedTuple):
    position: int


class PositionAnnouncement(_PositionAnnouncement):
    __slots__ = ()
    _make = classmethod(_construct)
    __reduce__ = _reduce

    def __new__(cls, position: int) -> PositionAnnouncement:
        return tuple.__new__(cls, (check_position(position),))

    def to_dict(self) -> dict:
        return {"type": "dealer_position", "position": self.position}


Announcement = Union[MeasurementAnnouncement, StateLabelAnnouncement, PositionAnnouncement]


def announcement_from_dict(data: dict) -> Announcement:
    """Parse one announcement; malformed input raises ValueError."""
    try:
        kind = data["type"]
        if kind == "measurement":
            return MeasurementAnnouncement(
                data["party"], tuple(data["pair"]), outcome_from_ascii(data["outcome"])
            )
        if kind == "dealer_state":
            return StateLabelAnnouncement(StateLabel(data["state"]))
        if kind == "dealer_position":
            return PositionAnnouncement(data["position"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed announcement {data!r}: {exc!r}") from exc
    raise ValueError(f"unknown announcement type {kind!r}")


# Every record make_announcements can return, built once through the
# checking constructors: 4 outcomes per party, 4 labels and 2 positions.
_P1_RECORDS = {o: MeasurementAnnouncement(Party.P1, P1_PAIR, o) for o in BELL_OUTCOMES}
_P2_RECORDS = {o: MeasurementAnnouncement(Party.P2, P2_PAIR, o) for o in BELL_OUTCOMES}
_P3_RECORDS = {o: MeasurementAnnouncement(Party.P3, P3_PAIR, o) for o in BELL_OUTCOMES}
_LABEL_RECORDS = {label: StateLabelAnnouncement(label) for label in LABELS}
_POSITION_RECORDS = {p: PositionAnnouncement(p) for p in ENCODING_POSITIONS}


def make_announcements(
    o2: BellOutcome,
    o3: BellOutcome,
    label: StateLabel,
    o1: BellOutcome,
    position: int,
) -> tuple[Announcement, ...]:
    """Announcements in the honest order: P2, P3, dealer's state, P1, dealer's position.

    The records are the prebuilt ones; any other input reaches the
    constructors, which raise ValueError.
    """
    # True and 1.0 are equal to 1 as keys, so the position's type is checked first
    if type(position) is int:
        try:
            return (
                _P2_RECORDS[o2],
                _P3_RECORDS[o3],
                _LABEL_RECORDS[label],
                _P1_RECORDS[o1],
                _POSITION_RECORDS[position],
            )
        except (KeyError, TypeError):  # a value outside the vocabulary, or unhashable
            pass
    return (
        MeasurementAnnouncement(Party.P2, P2_PAIR, o2),
        MeasurementAnnouncement(Party.P3, P3_PAIR, o3),
        StateLabelAnnouncement(label),
        MeasurementAnnouncement(Party.P1, P1_PAIR, o1),
        PositionAnnouncement(position),
    )


class Transcript(NamedTuple):
    """One protocol run: seed, ground truth, and the ordered announcements.

    true_label/true_action are verification-only; reconstruction must not
    read them.
    """

    seed: int
    true_label: StateLabel
    true_action: GateAction
    announcements: tuple[Announcement, ...]

    def to_dict(self) -> dict:
        announcements = self.announcements
        # an iterator would write its announcements once, and then none
        if not isinstance(announcements, (tuple, list)):
            given = type(announcements).__name__
            raise ValueError(f"announcements must be a sequence, got {given}")
        return {
            "seed": self.seed,
            "true_config": {
                "state": self.true_label.value,
                "gate": self.true_action.gate.value,
                "position": self.true_action.position,
            },
            "announcements": [a.to_dict() for a in announcements],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "Transcript":
        """Parse a transcript; malformed input raises ValueError."""
        try:
            seed = data["seed"]
            config = data["true_config"]
            true_label = StateLabel(config["state"])
            true_action = GateAction(PauliGate(config["gate"]), config["position"])
            announcements = tuple(announcement_from_dict(a) for a in data["announcements"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed transcript: {exc!r}") from exc
        return cls(check_seed(seed), true_label, true_action, announcements)

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        """Parse a transcript's JSON; malformed input, nested however deep, raises ValueError."""
        try:
            return cls.from_dict(json.loads(text))
        except RecursionError as exc:
            raise ValueError("malformed transcript: nested too deeply") from exc


def run_protocol(
    label: StateLabel | None,
    bits: str,
    position: int | None,
    seed: int,
) -> Transcript:
    """Run one honest protocol instance, deterministically per seed.

    A None label or position is drawn uniformly from the seeded generator
    (label first, then position, then the three measurements in order
    (1,6), (2,5), (3,4)).
    """
    check_secret(bits)
    if label is not None and not isinstance(label, StateLabel):
        raise ValueError(f"state label must be a StateLabel or None, got {label!r}")
    rng = random.Random(check_seed(seed))
    if label is None:
        label = LABELS[rng.randrange(4)]
    if position is None:
        position = ENCODING_POSITIONS[rng.randrange(2)]
    action = encode_secret(bits, position)
    state = apply_gate(prepare_state(label), action.gate, action.position)
    o1, state = measure_bell(state, P1_PAIR, rng)
    o2, state = measure_bell(state, P2_PAIR, rng)
    o3, state = measure_bell(state, P3_PAIR, rng)
    return Transcript(
        seed=seed,
        true_label=label,
        true_action=action,
        announcements=make_announcements(o2, o3, label, o1, position),
    )


def replay(transcript: Transcript):
    """Reconstruct from a stored transcript's announcements only."""
    from .recon import reconstruct

    return reconstruct(transcript.announcements)
