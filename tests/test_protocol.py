"""Protocol state machine tests: encoding, transcripts, determinism."""

import copy
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzshare.protocol import (
    GateAction,
    MeasurementAnnouncement,
    PositionAnnouncement,
    StateLabelAnnouncement,
    Transcript,
    decode_secret,
    encode_secret,
    make_announcements,
    replay,
    run_protocol,
)
from ghzshare.qcore import BELL_OUTCOMES, LABELS, BellOutcome, PauliGate, StateLabel
from ghzshare.recon import IncompleteTranscript

ALL_SECRETS = ("00", "01", "10", "11")

ENCODING = {
    ("00", 1): PauliGate.I,
    ("01", 1): PauliGate.X,
    ("11", 1): PauliGate.IY,
    ("10", 1): PauliGate.Z,
    ("11", 6): PauliGate.I,
    ("10", 6): PauliGate.X,
    ("00", 6): PauliGate.IY,
    ("01", 6): PauliGate.Z,
}


@pytest.mark.parametrize("bits,position", list(ENCODING))
def test_encoding_table(bits, position):
    action = encode_secret(bits, position)
    assert action.gate is ENCODING[(bits, position)]
    assert action.position == position
    assert decode_secret(action) == bits


def test_worked_examples():
    assert encode_secret("11", 1) == GateAction(PauliGate.IY, 1)
    assert encode_secret("11", 6) == GateAction(PauliGate.I, 6)
    assert decode_secret(GateAction(PauliGate.IY, 1)) == "11"
    assert decode_secret(GateAction(PauliGate.IY, 6)) == "00"
    assert decode_secret(GateAction(PauliGate.I, 1)) == "00"


@pytest.mark.parametrize("position", [1, 6])
def test_encoding_is_bijective_per_position(position):
    gates = {encode_secret(bits, position).gate for bits in ALL_SECRETS}
    assert len(gates) == 4


def test_cross_position_relationships():
    # I and iY encode complementary secrets at the two positions; X and Z differ too.
    for gate in (PauliGate.I, PauliGate.X, PauliGate.IY, PauliGate.Z):
        s1 = decode_secret(GateAction(gate, 1))
        s6 = decode_secret(GateAction(gate, 6))
        assert s1 != s6
        if gate in (PauliGate.I, PauliGate.IY):
            assert s6 == "".join("1" if c == "0" else "0" for c in s1)


def test_rejects_malformed_secrets_and_positions():
    with pytest.raises(ValueError):
        encode_secret("2x", 1)
    with pytest.raises(ValueError):
        encode_secret("0", 1)
    with pytest.raises(ValueError):
        encode_secret("00", 2)
    with pytest.raises(ValueError):
        GateAction(PauliGate.I, 3)


@pytest.mark.parametrize("bits", [("1", "1"), ["0", "1"], b"01", None], ids=repr)
def test_rejects_non_string_secrets(bits):
    # a two-item sequence of "0"/"1" passes the length and character checks
    with pytest.raises(ValueError, match="secret must be a 2-character 0/1 string"):
        encode_secret(bits, 1)
    with pytest.raises(ValueError, match="secret must be a 2-character 0/1 string"):
        run_protocol(StateLabel.A, bits, 1, seed=7)


@pytest.mark.parametrize("seed", [True, 1.5, "abc", None, -3, 2**64, 2**70], ids=repr)
def test_run_protocol_rejects_seeds_a_transcript_cannot_hold(seed):
    # None would seed from OS entropy, -3 would run as seed 3, and the others
    # write transcripts from_json rejects
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_protocol(StateLabel.A, "01", 1, seed)


@pytest.mark.parametrize("label", ["A", 0, PauliGate.I], ids=repr)
def test_run_protocol_rejects_labels_that_are_not_state_labels(label):
    with pytest.raises(ValueError, match="state label must be a StateLabel or None"):
        run_protocol(label, "01", 1, seed=7)


def test_every_seed_run_protocol_takes_survives_the_json_round_trip():
    for seed in (0, 7, 2**64 - 1):
        transcript = run_protocol(None, "10", None, seed)
        assert Transcript.from_json(transcript.to_json()) == transcript


def test_honest_transcript_structure():
    transcript = run_protocol(StateLabel.A, "11", 1, seed=7)
    anns = transcript.announcements
    assert len(anns) == 5
    assert isinstance(anns[0], MeasurementAnnouncement) and anns[0].party == "P2"
    assert anns[0].pair == (2, 5)
    assert isinstance(anns[1], MeasurementAnnouncement) and anns[1].party == "P3"
    assert anns[1].pair == (3, 4)
    assert isinstance(anns[2], StateLabelAnnouncement)
    assert isinstance(anns[3], MeasurementAnnouncement) and anns[3].party == "P1"
    assert anns[3].pair == (1, 6)
    assert isinstance(anns[4], PositionAnnouncement)
    assert transcript.true_action == GateAction(PauliGate.IY, 1)


def test_same_seed_same_transcript():
    a = run_protocol(StateLabel.B, "01", 6, seed=123)
    b = run_protocol(StateLabel.B, "01", 6, seed=123)
    assert a == b
    assert a.to_json() == b.to_json()


def test_random_label_frequencies_within_four_sigma():
    n = 4096
    counts = {label: 0 for label in StateLabel}
    for seed in range(n):
        t = run_protocol(None, "10", None, seed=seed)
        counts[t.true_label] += 1
    bound = 4 * math.sqrt(n * 0.25 * 0.75)
    for label in StateLabel:
        assert abs(counts[label] - n / 4) <= bound


@pytest.mark.parametrize("seed", range(12))
def test_replay_recovers_secret(seed):
    transcript = run_protocol(StateLabel.A, "11", 1, seed=seed)
    assert replay(transcript).secret == "11"


def test_replay_is_pure():
    transcript = run_protocol(StateLabel.C, "00", 6, seed=5)
    assert replay(transcript) == replay(transcript)


def test_replay_ignores_true_config():
    transcript = run_protocol(StateLabel.D, "10", 1, seed=9)
    forged = Transcript(
        seed=transcript.seed,
        true_label=StateLabel.A,
        true_action=GateAction(PauliGate.I, 6),
        announcements=transcript.announcements,
    )
    assert replay(forged) == replay(transcript)


def test_replay_missing_announcement_raises():
    transcript = run_protocol(StateLabel.A, "11", 1, seed=3)
    truncated = Transcript(
        seed=transcript.seed,
        true_label=transcript.true_label,
        true_action=transcript.true_action,
        announcements=transcript.announcements[:3] + transcript.announcements[4:],
    )
    with pytest.raises(IncompleteTranscript):
        replay(truncated)


def test_transcript_json_round_trip():
    transcript = run_protocol(None, "01", None, seed=42)
    text = transcript.to_json()
    assert Transcript.from_json(text) == transcript
    assert Transcript.from_json(text).to_json() == text


def test_measurement_announcement_pair_ownership():
    with pytest.raises(ValueError):
        MeasurementAnnouncement("P1", (2, 5), BellOutcome.A_PLUS)


def test_a_pair_given_as_a_list_is_stored_as_the_owned_tuple():
    announcement = MeasurementAnnouncement("P1", [1, 6], BellOutcome.B_MINUS)
    assert announcement == ("P1", (1, 6), BellOutcome.B_MINUS)
    assert hash(announcement) == hash(("P1", (1, 6), BellOutcome.B_MINUS))
    honest = run_protocol(None, "10", None, seed=5)
    *rest, (party, pair, outcome), position = honest.announcements
    listed = [*rest, MeasurementAnnouncement(party, list(pair), outcome), position]
    transcript = Transcript(honest.seed, honest.true_label, honest.true_action, tuple(listed))
    assert transcript == honest and hash(transcript) == hash(honest)


def test_announcements_reject_a_label_or_outcome_given_as_text():
    # parsed transcripts hold enums; one built in code with text must fail typed
    with pytest.raises(ValueError, match="label must be a StateLabel, got 'A'$"):
        StateLabelAnnouncement("A")
    with pytest.raises(ValueError, match=r"outcome must be a BellOutcome, got 'a\+'$"):
        MeasurementAnnouncement("P1", (1, 6), "a+")
    assert StateLabelAnnouncement(StateLabel.A).label is StateLabel.A


def test_decode_secret_rejects_what_is_no_gate_action():
    # a plain tuple has no fields; GateAction checks its position, not its gate
    for bad in [("X", 1), None, GateAction("X", 1)]:
        with pytest.raises(ValueError, match="^action must be a GateAction, got "):
            decode_secret(bad)
    assert decode_secret(GateAction(PauliGate.X, 1)) == "01"


def test_prebuilt_announcements_equal_fresh_records_on_all_512_tuples():
    for label, position, o1, o2, o3 in itertools.product(
        LABELS, (1, 6), BELL_OUTCOMES, BELL_OUTCOMES, BELL_OUTCOMES
    ):
        made = make_announcements(o2, o3, label, o1, position)
        fresh = (
            MeasurementAnnouncement("P2", (2, 5), o2),
            MeasurementAnnouncement("P3", (3, 4), o3),
            StateLabelAnnouncement(label),
            MeasurementAnnouncement("P1", (1, 6), o1),
            PositionAnnouncement(position),
        )
        assert made == fresh
        assert [type(a) for a in made] == [type(a) for a in fresh]
        # built once: a second call returns the same records
        assert all(a is b for a, b in zip(made, make_announcements(o2, o3, label, o1, position)))


HONEST_ARGS = (BellOutcome.A_MINUS, BellOutcome.B_PLUS, StateLabel.C, BellOutcome.A_PLUS, 6)


@pytest.mark.parametrize(
    "index,value",
    [
        # equal to 1 or 6 as a key, or no int at all
        *((4, value) for value in (True, 1.0, 6.0, "1")),
        # text in place of an enum, or an enum of the wrong kind
        (0, "a+"), (1, "a+"), (3, "a+"), (2, "A"),
        (2, BellOutcome.A_PLUS), (3, StateLabel.A),
        # nothing, or a value no table can hold
        *((index, None) for index in range(5)),
        *((index, [1]) for index in range(5)),
    ],
    ids=repr,
)
def test_make_announcements_still_rejects_what_the_constructors_reject(index, value):
    args = list(HONEST_ARGS)
    args[index] = value
    with pytest.raises(ValueError):
        make_announcements(*args)


@pytest.mark.parametrize("pair", [(True, 6), (1.0, 6), (1, 6.0), (True, 6.0)])
def test_measurement_announcement_rejects_pair_qubits_that_are_not_ints(pair):
    # each equals (1, 6), but a transcript holding it would not write back (1, 6)
    with pytest.raises(ValueError, match="pair qubits must be ints, got"):
        MeasurementAnnouncement("P1", pair, BellOutcome.A_PLUS)


@pytest.mark.parametrize("party,pair", [("P1", 5), ("P1", None), (["P1"], (1, 6))], ids=repr)
def test_measurement_announcement_rejects_a_party_or_pair_of_the_wrong_type(party, pair):
    # an unhashable party or a pair that is no sequence is malformed input, not a TypeError
    with pytest.raises(ValueError, match="does not own pair"):
        MeasurementAnnouncement(party, pair, BellOutcome.A_PLUS)


@pytest.mark.parametrize("index,pair", [(3, [True, 6]), (0, [2.0, 5]), (1, [3, 4.0])])
def test_transcript_json_rejects_pair_qubits_that_are_not_ints(index, pair):
    doc = _valid_transcript_dict()
    doc["announcements"][index]["pair"] = pair
    with pytest.raises(ValueError, match="pair qubits must be ints, got"):
        Transcript.from_json(json.dumps(doc))


def test_a_transcript_equals_and_hashes_as_its_json_round_trip():
    for seed in range(32):
        transcript = run_protocol(None, "01", None, seed)
        parsed = Transcript.from_json(transcript.to_json())
        assert parsed == transcript and hash(parsed) == hash(transcript)
        assert [type(a) for a in parsed.announcements] == [
            type(a) for a in transcript.announcements
        ]


def _valid_transcript_dict() -> dict:
    return run_protocol(None, "01", None, seed=42).to_dict()


def _delete(path):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        del doc[last]

    return mutate


def _set(path, value):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value

    return mutate


MALFORMED = {
    "missing seed": _delete(("seed",)),
    "missing true_config": _delete(("true_config",)),
    "missing announcements": _delete(("announcements",)),
    "missing config state": _delete(("true_config", "state")),
    "missing outcome": _delete(("announcements", 0, "outcome")),
    "unknown outcome": _set(("announcements", 0, "outcome"), "c+"),
    "outcome is a list": _set(("announcements", 0, "outcome"), ["a+"]),
    "missing announcement type": _delete(("announcements", 2, "type")),
    "pair is a number": _set(("announcements", 0, "pair"), 5),
    "seed is a string": _set(("seed",), "abc"),
    "seed is a boolean": _set(("seed",), True),
    "seed is negative": _set(("seed",), -3),
    "seed is 2**64": _set(("seed",), 2**64),
    "announcements is a number": _set(("announcements",), 7),
    "announcement is a string": _set(("announcements", 1), "P3"),
    "party is a list": _set(("announcements", 0, "party"), ["P2"]),
    "unknown gate": _set(("true_config", "gate"), "Y"),
    "position out of range": _set(("announcements", 4, "position"), 3),
    "position is a boolean": _set(("announcements", 4, "position"), True),
    "config position is a float": _set(("true_config", "position"), 1.0),
    "unknown announcement type": _set(("announcements", 2, "type"), "dealer_secret"),
}


@pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_transcript_raises_value_error(mutate):
    doc = _valid_transcript_dict()
    mutate(doc)
    with pytest.raises(ValueError):
        Transcript.from_dict(doc)


def test_an_unknown_announcement_type_is_named():
    doc = _valid_transcript_dict()
    doc["announcements"][2]["type"] = "dealer_secret"
    with pytest.raises(ValueError, match="^unknown announcement type 'dealer_secret'$"):
        Transcript.from_dict(doc)


def _seven_a_iy1():
    return run_protocol(StateLabel.A, "11", 1, seed=7)


NOT_SEQUENCES = {
    "iterator": lambda anns: iter(anns),
    "generator": lambda anns: (a for a in anns),
    "None": lambda anns: None,
    "int": lambda anns: 5,
    "str": lambda anns: "ab",
}


@pytest.mark.parametrize("make", NOT_SEQUENCES.values(), ids=NOT_SEQUENCES.keys())
def test_a_transcript_over_no_sequence_refuses_to_write(make):
    honest = _seven_a_iy1()
    announcements = make(honest.announcements)
    transcript = honest._replace(announcements=announcements)
    message = f"^announcements must be a sequence, got {type(announcements).__name__}$"
    # refused every time: an iterator would write its announcements once, then none
    for write in (transcript.to_dict, transcript.to_json, transcript.to_json):
        with pytest.raises(ValueError, match=message):
            write()


def test_a_tuple_and_a_list_of_announcements_write_the_same_bytes():
    honest = _seven_a_iy1()
    as_list = honest._replace(announcements=list(honest.announcements))
    assert as_list.to_json() == honest.to_json()
    assert len(json.loads(honest.to_json())["announcements"]) == 5


def test_no_checked_record_has_a_per_instance_dict():
    records = (GateAction(PauliGate.X, 1), *_seven_a_iy1().announcements)
    assert {type(r).__name__ for r in records} == {
        "GateAction",
        "MeasurementAnnouncement",
        "StateLabelAnnouncement",
        "PositionAnnouncement",
    }
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


@pytest.mark.parametrize("text", ["[]", "null", "5", '"transcript"', "{"])
def test_non_object_json_raises_value_error(text):
    with pytest.raises(ValueError):
        Transcript.from_json(text)


def test_deeply_nested_json_raises_value_error():
    # the decoder's recursion limit is the input's fault, as any other malformed text
    with pytest.raises(ValueError, match="nested too deeply"):
        Transcript.from_json("[" * 100_000 + "]" * 100_000)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_transcript_parser_raises_only_value_error(data):
    valid = _valid_transcript_dict()
    path = data.draw(st.sampled_from(list(_paths(valid))))
    replacement = data.draw(st.none() | JSON_VALUES, label="replacement (None: delete)")
    if not path:
        doc = replacement
    else:
        doc = copy.deepcopy(valid)
        (_set(path, replacement) if replacement is not None else _delete(path))(doc)
    try:
        parsed = Transcript.from_dict(doc)
    except ValueError:
        return
    assert Transcript.from_dict(parsed.to_dict()) == parsed
