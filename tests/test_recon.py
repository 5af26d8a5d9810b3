"""Reconstruction pipeline tests against the worked hand expansions."""

import copy
import gc
import itertools
import pickle
import re
import types

import pytest

from ghzshare import recon

from ghzshare.protocol import (
    Announcements,
    GateAction,
    PositionAnnouncement,
    Transcript,
    decode_secret,
    make_announcements,
    replay,
    run_protocol,
)
from ghzshare.qcore import (
    BELL_OUTCOMES,
    GATES,
    LABELS,
    PauliGate,
    StateLabel,
)
from ghzshare.recon import (
    ALL_QUBITS,
    Ambiguous,
    FilterResult,
    IncompleteTranscript,
    NoMatch,
    PipelineTrace,
    _HALVES,
    _decoder,
    attach_p1,
    filter_support,
    filter_untouched,
    infer_gate,
    reconstruct,
    reconstruct_trace,
    tamper_report,
)
from ghzshare.symexact import (
    SymbolicState,
    Term,
    apply_gate_sym,
    bell_terms,
    equal_up_to_global_sign,
    expand_product,
)

from oracles import restrict

A_P, A_M, B_P, B_M = BELL_OUTCOMES
ALL = (1, 2, 3, 4, 5, 6)


def out_of_order(record) -> str:
    """The whole message that names ``record`` as out of the honest order."""
    return "^" + re.escape(f"announcement {record!r} out of order") + "$"


# Each state's GHZ half support as the paper writes it; the string oracles below read these.
SUPPORT = {
    StateLabel.A: ("000", "111"),
    StateLabel.B: ("001", "110"),
    StateLabel.C: ("011", "100"),
    StateLabel.D: ("101", "010"),
}


def state_of(qubits, signed_bits, k=0):
    terms = [Term(int(bits, 2), sign) for bits, sign in signed_bits]
    return SymbolicState.from_terms(tuple(qubits), terms, k)


def test_half_supports_are_the_papers_strings():
    for label in LABELS:
        assert tuple(format(h, "03b") for h in label.half_support) == SUPPORT[label]


def half_reference(label, half):
    """The announced state's GHZ half on the given qubits, read from the paper's strings."""
    return state_of(half, [(h, 1) for h in SUPPORT[label]], k=1)


def keys(state, terms):
    return tuple((state.key(t), t.sign) for t in terms)


def patterns(terms):
    """Six-qubit terms as the paper writes them."""
    return tuple((format(t.bits, "06b"), t.sign) for t in terms)


EXPANSION = state_of(
    (2, 3, 4, 5), [("0000", 1), ("0110", 1), ("1001", -1), ("1111", -1)], k=2
)


def test_filter_support_state_a_keeps_diagonal_pair():
    result = filter_support(EXPANSION.terms, StateLabel.A)
    assert keys(EXPANSION, result.kept) == (("0000", 1), ("1111", -1))
    assert keys(EXPANSION, result.discarded) == (("0110", 1), ("1001", -1))


def test_filter_support_state_c_keeps_antidiagonal_pair():
    result = filter_support(EXPANSION.terms, StateLabel.C)
    assert keys(EXPANSION, result.kept) == (("0110", 1), ("1001", -1))
    assert keys(EXPANSION, result.discarded) == (("0000", 1), ("1111", -1))


def test_filter_support_keeps_everything_inside_support():
    inside = state_of((2, 3, 4, 5), [("0000", 1), ("1111", -1)], k=1)
    result = filter_support(inside.terms, StateLabel.A)
    assert keys(inside, result.kept) == (("0000", 1), ("1111", -1))
    assert result.discarded == ()


def test_filter_partition_is_exact():
    for label in LABELS:
        result = filter_support(EXPANSION.terms, label)
        assert sorted(result.kept + result.discarded) == sorted(EXPANSION.terms)
        assert not set(result.kept) & set(result.discarded)


def test_filter_support_keeps_two_of_four_terms_on_every_input():
    # each Bell ket takes both values of each of its qubits, so the four terms of
    # a (2,5)x(3,4) product take all four (q4,q5) values, and a label allows two:
    # every announced tuple reaches the last stage
    inputs = list(itertools.product(BELL_OUTCOMES, BELL_OUTCOMES, LABELS))
    for o2, o3, label in inputs:
        expansion = expand_product([bell_terms(o2, (2, 5)), bell_terms(o3, (3, 4))])
        assert len({t.bits & 0b11 for t in expansion.terms}) == 4
        result = filter_support(expansion.terms, label)
        assert (len(result.kept), len(result.discarded)) == (2, 2)
    assert len(inputs) == 64


def test_attach_p1_produces_six_qubit_expansion():
    kept = state_of((2, 3, 4, 5), [("0000", 1), ("1111", -1)], k=2)
    assert patterns(attach_p1(kept.terms, B_P)) == (
        ("000001", 1),
        ("011111", -1),
        ("100000", 1),
        ("111110", -1),
    )


def test_attach_p1_single_term():
    kept = state_of((2, 3, 4, 5), [("0000", 1)], k=2)
    assert patterns(attach_p1(kept.terms, A_P)) == (("000000", 1), ("100001", 1))


ATTACHED = state_of(
    (1, 2, 3, 4, 5, 6),
    [("000001", 1), ("011111", -1), ("100000", 1), ("111110", -1)],
    k=3,
)


def test_filter_untouched_position_1():
    result = filter_untouched(ATTACHED.terms, _decoder(StateLabel.A, 1))
    assert keys(ATTACHED, result.kept) == (("011111", -1), ("100000", 1))
    assert keys(ATTACHED, result.discarded) == (("000001", 1), ("111110", -1))


def test_filter_untouched_position_6():
    result = filter_untouched(ATTACHED.terms, _decoder(StateLabel.A, 6))
    assert keys(ATTACHED, result.kept) == (("000001", 1), ("111110", -1))


def test_filter_untouched_all_violating():
    bad = state_of((1, 2, 3, 4, 5, 6), [("000001", 1), ("111110", -1)], k=1)
    result = filter_untouched(bad.terms, _decoder(StateLabel.A, 1))
    assert result.kept == ()


def test_infer_gate_worked_example():
    kept = state_of((1, 2, 3, 4, 5, 6), [("011111", -1), ("100000", 1)], k=3)
    assert infer_gate(kept.terms, _decoder(StateLabel.A, 1)) == (GateAction(PauliGate.IY, 1), "11")


def test_infer_gate_z_and_identity():
    decoder = _decoder(StateLabel.A, 1)
    z_kept = state_of((1, 2, 3, 4, 5, 6), [("000000", 1), ("111111", -1)], k=3)
    assert infer_gate(z_kept.terms, decoder) == (GateAction(PauliGate.Z, 1), "10")
    i_kept = state_of((1, 2, 3, 4, 5, 6), [("000000", 1), ("111111", 1)], k=3)
    assert infer_gate(i_kept.terms, decoder) == (GateAction(PauliGate.I, 1), "00")


def test_infer_gate_no_match_on_foreign_support():
    kept = state_of((1, 2, 3, 4, 5, 6), [("001000", 1), ("110111", 1)], k=3)
    with pytest.raises(NoMatch, match=r"^no gate maps the reference onto "):
        infer_gate(kept.terms, _decoder(StateLabel.A, 1))


def test_infer_gate_refuses_a_pair_whose_toggled_halves_coincide():
    # reconstruct never reaches this: the untouched-half filter keeps two distinct terms
    kept = [Term(0b000000, 1), Term(0b000111, 1)]
    message = "^kept terms collapse onto one toggled-half pattern$"
    with pytest.raises(NoMatch, match=message):
        infer_gate(kept, _decoder(StateLabel.A, 1))


def test_infer_gate_unique_across_honest_candidates():
    # For each label/position, the four candidate actions are pairwise
    # distinguishable, so Ambiguous is unreachable on honest inputs.
    for label in LABELS:
        for position in (1, 6):
            half = _HALVES[position][0]
            reference = half_reference(label, half)
            images = [apply_gate_sym(reference, g, position) for g in GATES]
            for i in range(4):
                for j in range(i + 1, 4):
                    assert not equal_up_to_global_sign(images[i], images[j])


@pytest.mark.parametrize("position", [True, 3, 1.0], ids=repr)
def test_the_boundary_checks_the_position_before_the_decoder_cache(position):
    # True and 1.0 equal 1 as cache keys, and 3 has no decoder to build; only a
    # PositionAnnouncement carries a position into the stages
    _decoder.cache_clear()
    message = f"encoding position must be 1 or 6, got {position!r}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        PositionAnnouncement(position)
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        make_announcements(A_M, A_P, StateLabel.A, B_P, position)
    honest = make_announcements(A_M, A_P, StateLabel.A, B_P, 1)
    listed = honest[:4] + ((position,),)
    with pytest.raises(IncompleteTranscript, match=out_of_order((position,))):
        reconstruct(listed)
    with pytest.raises(ValueError, match=out_of_order((position,))):
        Announcements(*listed)
    assert _decoder.cache_info().currsize == 0


def test_tamper_report_single_common_flip():
    discards = [
        Term(int("000110", 2), 1),
        Term(int("111001", 2), -1),
    ]
    report = tamper_report(discards, _decoder(StateLabel.A, 1))
    assert report is not None
    assert report.flipped_qubits == (6,)
    assert report.hypothesized_gate is PauliGate.X


def test_tamper_report_empty_and_multiflip():
    decoder = _decoder(StateLabel.A, 1)
    assert tamper_report([], decoder) is None
    discards = [
        Term(int("000110", 2), 1),
        Term(int("111010", 2), -1),
    ]
    # deviations at different untouched qubits: no single-flip hypothesis
    assert tamper_report(discards, decoder) is None


def test_tamper_rule_fires_on_honest_p1_pair_deviation():
    # Honest discards always deviate at P1's untouched qubit, so the
    # nearest-support single-flip rule reports them too; the verification
    # suite records this as the rule's false-positive behavior.
    discards = [
        Term(int("000001", 2), 1),
        Term(int("111110", 2), -1),
    ]
    report = tamper_report(discards, _decoder(StateLabel.A, 1))
    assert report is not None and report.flipped_qubits == (6,)


def test_reconstruct_worked_run():
    announcements = make_announcements(A_M, A_P, StateLabel.A, B_P, 1)
    result = reconstruct(announcements)
    assert result.action == GateAction(PauliGate.IY, 1)
    assert result.secret == "11"


def test_reconstruct_eve_run():
    announcements = make_announcements(B_M, B_P, StateLabel.A, A_P, 1)
    result = reconstruct(announcements)
    assert result.action == GateAction(PauliGate.IY, 1)
    assert result.tamper is not None
    assert result.tamper.flipped_qubits == (6,)
    assert result.tamper.hypothesized_gate is PauliGate.X


def test_reconstruct_identity_branch():
    announcements = make_announcements(A_P, A_P, StateLabel.A, A_P, 1)
    result = reconstruct(announcements)
    assert result.action == GateAction(PauliGate.I, 1)
    assert result.secret == "00"


def test_reconstruct_rejects_reordered_announcements():
    announcements = make_announcements(A_M, A_P, StateLabel.A, B_P, 1)
    p2, p3, state, p1, position = announcements
    # every other placing of the three measurements, repeats too, names the first
    # one out of place
    for q2, q3, q1 in itertools.product((p2, p3, p1), repeat=3):
        reordered = (q2, q3, state, q1, position)
        if reordered == announcements:
            continue
        first = next(a for a, b in zip(reordered, announcements) if a is not b)
        with pytest.raises(IncompleteTranscript, match=out_of_order(first)):
            reconstruct(reordered)
        with pytest.raises(ValueError, match=out_of_order(first)):
            Announcements(*reordered)
    with pytest.raises(IncompleteTranscript):
        reconstruct(announcements[:4])


def test_a_value_with_no_length_is_an_incomplete_transcript():
    announcements = make_announcements(A_M, A_P, StateLabel.A, B_P, 1)
    given = (
        (None, "NoneType"),
        (5, "int"),
        (iter(announcements), "tuple_iterator"),
        ((a for a in announcements), "generator"),
    )
    for value, kind in given:
        message = f"^announcements must be a sequence, got {kind}$"
        transcript = Transcript(0, StateLabel.A, GateAction(PauliGate.IY, 1), value)
        for reconstruction in (reconstruct, reconstruct_trace, replay):
            with pytest.raises(IncompleteTranscript, match=message):
                reconstruction(transcript if reconstruction is replay else value)
    expected = reconstruct(announcements)
    for sequence in (list(announcements), tuple(announcements)):
        assert reconstruct(sequence) is expected
        assert reconstruct_trace(sequence).result is expected


def test_reconstruct_rejects_plain_tuples_equal_to_valid_announcements():
    # a record compares as the tuple of its fields, so order checks must read types
    announcements = make_announcements(A_M, A_P, StateLabel.A, B_P, 1)
    plain = tuple(tuple(a) for a in announcements)
    assert plain == announcements
    with pytest.raises(IncompleteTranscript, match=out_of_order(plain[0])):
        reconstruct(plain)
    with pytest.raises(ValueError, match=out_of_order(plain[0])):
        Announcements(*plain)
    for i, ann in enumerate(announcements):
        mixed = announcements[:i] + (tuple(ann),) + announcements[i + 1 :]
        with pytest.raises(IncompleteTranscript, match=out_of_order(tuple(ann))):
            reconstruct(mixed)
        with pytest.raises(ValueError, match=out_of_order(tuple(ann))):
            Announcements(*mixed)


# per record field, values its constructor refuses in every slot of the honest list
REFUSED = {
    "gate": (None, "X", 1, StateLabel.A),
    "party": (None, 2, "Dealer", "P4", ["P2"]),
    "pair": (None, (), (6, 1), (1.0, 6), (True, 6), [2.0, 5], "25"),
    "outcome": (None, "a+", 0, StateLabel.A),
    "label": (None, "A", 0, A_P),
    "position": (None, 3, True, 1.0, "1"),
    "sign": (0, 2, True),
    "bits": (-1, 1.5),
}


def validating_records():
    """One record of each of the five types whose constructor checks its fields."""
    return make_announcements(A_M, A_P, StateLabel.A, B_P, 1) + (
        GateAction(PauliGate.IY, 1),
        Term(5, -1),
    )


def test_make_and_replace_raise_the_constructors_error():
    # _replace calls _make, and each validating record's _make is its constructor
    fields = []
    for record in validating_records():
        kind = type(record)
        for field in record._fields:
            fields.append(field)
            for value in REFUSED.get(field, ()):
                values = [value if f == field else v for f, v in zip(record._fields, record)]
                with pytest.raises(ValueError) as constructed:
                    kind(*values)
                with pytest.raises(ValueError) as replaced:
                    record._replace(**{field: value})
                with pytest.raises(ValueError) as made:
                    kind._make(values)
                assert str(replaced.value) == str(made.value) == str(constructed.value)
    measured = ["party", "pair", "outcome"]
    announced = measured * 2 + ["label"] + measured + ["position"]
    assert fields == announced + ["gate", "position", "bits", "sign"]


@pytest.mark.parametrize("reconstruction", [reconstruct, reconstruct_trace])
def test_a_relisted_pair_is_rebuilt_as_the_owned_pair(reconstruction):
    honest = make_announcements(A_M, A_P, StateLabel.A, B_P, 1)
    for i in (0, 1, 3):
        rebuilt = honest[i]._replace(pair=list(honest[i].pair))
        assert type(rebuilt) is type(honest[i])
        assert rebuilt.pair is honest[i].pair
        relisted = honest[:i] + (rebuilt,) + honest[i + 1 :]
        assert reconstruction(relisted) == reconstruction(honest)


def counted_constructors(monkeypatch, kinds) -> dict[type, int]:
    """How often each kind's checking __new__ runs from now on."""
    calls = dict.fromkeys(kinds, 0)
    for kind in kinds:

        def counted(cls, *args, _new=kind.__new__, _kind=kind):
            calls[_kind] += 1
            return _new(cls, *args)

        monkeypatch.setattr(kind, "__new__", staticmethod(counted))
    return calls


def test_pickle_and_copy_rebuild_equal_records(monkeypatch):
    records = validating_records() + (make_announcements(A_M, A_P, StateLabel.A, B_P, 1),)
    calls = counted_constructors(monkeypatch, {type(record) for record in records})
    for record in records:
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        before = calls[type(record)]
        pickled = [pickle.loads(pickle.dumps(record, protocol)) for protocol in protocols]
        copies = pickled + [copy.copy(record), copy.deepcopy(record)]
        # every protocol, 0 and 1 too, and every copy runs the record's checks once
        assert calls[type(record)] - before == len(copies)
        for copied in copies:
            assert type(copied) is type(record)
            assert copied == record


@pytest.mark.parametrize("reconstruction", [reconstruct, reconstruct_trace])
def test_a_subclass_of_a_record_in_its_slot_is_out_of_order(reconstruction):
    # a subclass may override what reconstruction reads, so only the exact type is in order
    honest = make_announcements(A_M, A_P, StateLabel.A, B_P, 1)
    for i, record in enumerate(honest):
        subclass = type("Derived", (type(record),), {"__slots__": ()})
        derived = subclass(*record)
        assert derived == record
        listed = honest[:i] + (derived,) + honest[i + 1 :]
        with pytest.raises(IncompleteTranscript, match=out_of_order(derived)):
            reconstruction(listed)
        with pytest.raises(ValueError, match=out_of_order(derived)):
            Announcements(*listed)


def test_filter_support_refuses_a_value_that_is_no_label():
    terms = (Term(0, 1),)
    for value in ("A", None, A_P, ["A"]):
        with pytest.raises(ValueError, match=re.escape(f"got {value!r}") + "$"):
            filter_support(terms, value)


def test_honest_kept_pair_is_gate_on_a_correlated_reference():
    # In honest runs the final kept terms equal the dealer's gate applied to
    # one of the two perfectly correlated references (each half string paired
    # with itself, or with its complement), up to one global sign.  Which of
    # the two occurs tracks P1's outcome type, which is why gate inference
    # compares only the toggled half.
    from ghzshare.harness import enumerate_branches
    from ghzshare.qcore import apply_gate, prepare_state
    from ghzshare.recon import reconstruct_trace
    from ghzshare.symexact import apply_gate_sym, equal_up_to_global_sign
    from ghzshare.protocol import make_announcements as announce

    def reference(label, cross):
        halves = sorted(SUPPORT[label])
        pairs = zip(halves, reversed(halves)) if cross else zip(halves, halves)
        terms = [Term(int(a + b, 2), 1) for a, b in pairs]
        return SymbolicState.from_terms((1, 2, 3, 4, 5, 6), terms, 1)

    for label in LABELS:
        for gate in GATES:
            for position in (1, 6):
                images = [
                    apply_gate_sym(reference(label, cross), gate, position)
                    for cross in (False, True)
                ]
                encoded = apply_gate(prepare_state(label), gate, position)
                for branch in enumerate_branches(encoded):
                    trace = reconstruct_trace(
                        announce(branch.o2, branch.o3, label, branch.o1, position)
                    )
                    assert trace.final_kept is not None
                    assert any(
                        equal_up_to_global_sign(trace.final_kept, image)
                        for image in images
                    ), (label, gate, position, branch.o1)


def test_withholding_p1_leaves_all_four_gates_consistent_everywhere():
    # For every label/position and every (P2,P3) pair with positive
    # probability, each gate is consistent with exactly one P1 outcome.
    from ghzshare.harness import enumerate_branches
    from ghzshare.qcore import apply_gate, prepare_state
    from ghzshare.protocol import make_announcements as announce

    for label in LABELS:
        for position in (1, 6):
            reachable = set()
            positive = {}
            for gate in GATES:
                encoded = apply_gate(prepare_state(label), gate, position)
                for b in enumerate_branches(encoded):
                    reachable.add((b.o2, b.o3))
                    positive[(gate, b.o1, b.o2, b.o3)] = True
            for o2, o3 in reachable:
                consistent = set()
                for o1 in BELL_OUTCOMES:
                    try:
                        result = reconstruct(announce(o2, o3, label, o1, position))
                    except NoMatch:
                        continue
                    if positive.get((result.action.gate, o1, o2, o3)):
                        consistent.add(result.action.gate)
                assert consistent == set(GATES), (label, position, o2, o3)


def test_untouched_filter_soundness_everywhere():
    # Kept terms of filter_untouched always carry a support-consistent
    # untouched triple, for every announcement combination.
    label = StateLabel.B
    for o2 in BELL_OUTCOMES:
        for o3 in BELL_OUTCOMES:
            expansion = expand_product([bell_terms(o2, (2, 5)), bell_terms(o3, (3, 4))])
            support = filter_support(expansion.terms, label)
            for o1 in BELL_OUTCOMES:
                attached = attach_p1(support.kept, o1)
                for position in (1, 6):
                    result = filter_untouched(attached, _decoder(label, position))
                    half = (4, 5, 6) if position == 1 else (1, 2, 3)
                    for t in result.kept:
                        assert restrict(ALL, t, half) in SUPPORT[label]


# -- integer-mask tables against the string readers they replaced -----------

TUPLES = tuple(itertools.product(LABELS, (1, 6), BELL_OUTCOMES, BELL_OUTCOMES, BELL_OUTCOMES))


def _traces():
    """The pipeline trace of every announcement tuple, ending in its result or its rejection."""
    for label, position, o1, o2, o3 in TUPLES:
        yield reconstruct_trace(make_announcements(o2, o3, label, o1, position))


def _outcome(announcements):
    """What reconstruct returns or raises."""
    try:
        return reconstruct(announcements)
    except NoMatch as exc:
        return exc


STAGES = ("filter_support", "attach_p1", "filter_untouched", "infer_gate", "tamper_report")


def _count_stages(monkeypatch):
    """Wrap the five stage functions on the module: (calls, NoMatches raised) per stage."""
    calls, raised = dict.fromkeys(STAGES, 0), dict.fromkeys(STAGES, 0)

    def counted(name, stage):
        def call(*args):
            calls[name] += 1
            try:
                return stage(*args)
            except NoMatch:
                raised[name] += 1
                raise

        return call

    for name in STAGES:
        monkeypatch.setattr(recon, name, counted(name, getattr(recon, name)))
    return calls, raised


def _stages_reached(trace):
    """How many stages ran before the one that rejected, that one included."""
    return 3 if len(trace.final_kept.terms) != 2 else 4


def test_reconstruct_and_reconstruct_trace_agree_on_every_tuple(monkeypatch):
    calls, raises = _count_stages(monkeypatch)
    successes, reached = 0, []
    for label, position, o1, o2, o3 in TUPLES:
        announcements = make_announcements(o2, o3, label, o1, position)
        result = _outcome(announcements)
        calls.update(dict.fromkeys(STAGES, 0))
        raises.update(dict.fromkeys(STAGES, 0))
        # the trace is read from the decode table the reconstruction filled
        trace = reconstruct_trace(announcements)
        assert trace is recon._decoded(o2, o3, label, o1, position)
        # a plain sequence of the same records is checked, then read as the record is
        for listed in (tuple(announcements), list(announcements)):
            assert reconstruct_trace(listed) is trace
            again = _outcome(listed)
            if isinstance(result, NoMatch):
                assert type(again) is NoMatch and str(again) == str(result)
            else:
                assert again is result
        assert not any(calls.values()) and not any(raises.values())
        # no trace stops before P1's outcome is attached
        assert trace.attached is not None
        if isinstance(result, NoMatch):
            assert type(result) is NoMatch
            assert trace.result is None and str(result) == trace.rejection
            reached.append(_stages_reached(trace))
        else:
            assert trace.rejection is None and result is trace.result
            successes += 1
        # the five public stage functions, chained from the expand_product oracle,
        # agree with the trace's states; every tuple passes the support filter
        expansion = expand_product([bell_terms(o2, (2, 5)), bell_terms(o3, (3, 4))])
        assert expansion == trace.expansion
        support = filter_support(expansion.terms, label)
        assert support == trace.support_filter
        kept_mid = SymbolicState.from_terms((2, 3, 4, 5), support.kept, expansion.norm_exponent)
        assert kept_mid == trace.kept_mid
        attached = attach_p1(support.kept, o1)
        assert expand_product([bell_terms(o1, (1, 6)), kept_mid]) == trace.attached
        assert attached == trace.attached.terms
        decoder = _decoder(label, position)
        untouched = filter_untouched(attached, decoder)
        assert untouched == trace.untouched_filter
        assert untouched.kept == trace.final_kept.terms
        assert trace.final_kept == SymbolicState.from_terms(
            ALL_QUBITS, untouched.kept, trace.attached.norm_exponent
        )
        if trace.result is not None:
            assert infer_gate(untouched.kept, decoder) == trace.result[:2]
            assert tamper_report(untouched.discarded, decoder) == trace.result.tamper
        elif len(untouched.kept) == 2:
            with pytest.raises(NoMatch, match=re.escape(trace.rejection) + "$"):
                infer_gate(untouched.kept, decoder)
    assert successes == 256
    assert sorted(reached) == [3] * 128 + [4] * 128


ANNOUNCED = tuple(make_announcements(o2, o3, label, o1, p) for label, p, o1, o2, o3 in TUPLES)


def _kept_sweep(reconstruction):
    """Every tuple's outcome, each NoMatch kept as it was caught."""
    outcomes = []
    for announcements in ANNOUNCED:
        try:
            outcomes.append(reconstruction(announcements))
        except NoMatch as exc:
            outcomes.append(exc)
    return outcomes


def _held(exc):
    """What a NoMatch keeps alive: its fields, and the locals of the recon frames it holds.

    A caller's frame, and any frame's globals and ``f_back``, are the
    caller's; types, modules, functions and code are shared by everyone.
    """
    held, seen, todo = [], set(), [exc]
    shared = (type, types.ModuleType, types.FunctionType, types.CodeType)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, shared):
            continue
        seen.add(id(obj))
        held.append(obj)
        if isinstance(obj, types.FrameType):
            if obj.f_code.co_filename == recon.__file__:
                todo.extend(obj.f_locals.values())
        else:
            todo.extend(gc.get_referents(obj))
    return held


def test_a_kept_rejection_holds_its_entry_point_and_no_stage_piece():
    outcomes = _kept_sweep(reconstruct)
    rejections = [(a, o) for a, o in zip(ANNOUNCED, outcomes) if isinstance(o, NoMatch)]
    assert len(rejections) == 256
    for announcements, exc in rejections:
        entries, tb = [], exc.__traceback__
        while tb is not None:
            if tb.tb_frame.f_code.co_filename == recon.__file__:
                entries.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        assert entries == ["reconstruct"]
        # a Term tuple holds Terms, so a Term is all the walk needs to find
        pieces = (FilterResult, SymbolicState, PipelineTrace, Term)
        held = _held(exc)
        # the walk reads the entry point's locals
        assert any(o is announcements for o in held)
        assert not [o for o in held if isinstance(o, pieces)]
        frames = [o.f_code.co_name for o in held if isinstance(o, types.FrameType)]
        assert "_stages" not in frames


def test_a_kept_sweep_leaves_few_objects_for_the_cyclic_collector():
    _kept_sweep(reconstruct)  # fills the decode table
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        outcomes = _kept_sweep(reconstruct)
        left = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(outcomes) == 512
    # a result is the decode table's own; per NoMatch itself, its args tuple,
    # two traceback entries and the reconstruct frame
    assert left <= 256 * 5 + 16, left


def _sweep(reconstruction=reconstruct):
    for label, position, o1, o2, o3 in TUPLES:
        try:
            reconstruction(make_announcements(o2, o3, label, o1, position))
        except NoMatch:
            pass


def test_reconstruct_runs_the_five_public_stage_functions(monkeypatch):
    # the decode table's fill calls each stage by its public name, so a wrapper
    # set on the module, as a tracer sets one, sees every call and every
    # NoMatch; it runs them once per tuple, whichever entry point fills it
    calls, raised = _count_stages(monkeypatch)
    warm_sweeps = (_sweep, lambda: _sweep(reconstruct_trace))
    for reconstruction in (reconstruct, reconstruct_trace):
        recon._decoded.cache_clear()
        calls.update(dict.fromkeys(STAGES, 0))
        raised.update(dict.fromkeys(STAGES, 0))
        _sweep(reconstruction)
        assert list(calls.values()) == [512, 512, 512, 384, 256]
        assert raised == {**dict.fromkeys(STAGES, 0), "infer_gate": 128}
        # a warm sweep of either entry point runs none
        for warm in warm_sweeps:
            calls.update(dict.fromkeys(STAGES, 0))
            raised.update(dict.fromkeys(STAGES, 0))
            warm()
            assert not any(calls.values()) and not any(raised.values())


def test_one_decode_table_serves_two_readers(monkeypatch):
    # whichever entry point fills an entry, the stages run once for it, and the
    # other entry point finds the same objects there
    calls = _count_stages(monkeypatch)[0]
    for first, then in ((reconstruct_trace, reconstruct), (reconstruct, reconstruct_trace)):
        recon._decoded.cache_clear()
        calls.update(dict.fromkeys(STAGES, 0))
        filled = _kept_sweep(first)
        assert list(calls.values()) == [512, 512, 512, 384, 256]
        calls.update(dict.fromkeys(STAGES, 0))
        read = _kept_sweep(then)
        assert not any(calls.values())
        outcomes, traces = (filled, read) if first is reconstruct else (read, filled)
        for (label, position, o1, o2, o3), result, trace in zip(TUPLES, outcomes, traces):
            assert trace is recon._decoded(o2, o3, label, o1, position)
            if isinstance(result, NoMatch):
                assert type(result) is NoMatch and str(result) == trace.rejection
            else:
                assert result is trace.result
        assert not any(calls.values())


def _count_builds(monkeypatch):
    """Every term, stage state and render built from now on, by name."""
    calls = []

    def counted(name, wrapped):
        def call(*args, **kwargs):
            calls.append(name)
            return wrapped(*args, **kwargs)

        return call

    # the benchmark counts terms built through the same hook
    monkeypatch.setattr(Term, "__post_init__", counted("Term", Term.__post_init__))
    from_terms = counted("from_terms", SymbolicState.from_terms.__func__)
    monkeypatch.setattr(SymbolicState, "from_terms", classmethod(from_terms))
    monkeypatch.setattr(SymbolicState, "render", counted("render", SymbolicState.render))
    return calls


def test_a_warm_sweep_builds_no_term_state_or_render(monkeypatch):
    # results and rejection messages come from the decode table the first sweep fills
    _sweep()
    calls = _count_builds(monkeypatch)
    _sweep()
    assert calls == []
    SymbolicState.from_terms((1,), [Term(1, 1)]).render()
    assert calls == ["Term", "from_terms", "render"]


def test_a_warm_replay_runs_no_stage_and_builds_nothing(monkeypatch):
    transcripts = [
        run_protocol(label, bits, position, seed)
        for label in LABELS
        for bits in ("00", "01", "10", "11")
        for position in (1, 6)
        for seed in range(4)
    ]
    for transcript in transcripts:
        replay(transcript)
    stage_calls = _count_stages(monkeypatch)[0]
    calls = _count_builds(monkeypatch)
    results = [replay(transcript) for transcript in transcripts]
    assert not any(stage_calls.values())
    assert calls == []
    assert [r.action for r in results] == [t.true_action for t in transcripts]


def test_the_decode_table_agrees_with_the_stages_on_every_tuple():
    recon._decoded.cache_clear()
    _sweep()
    assert recon._decoded.cache_info().currsize == 512
    for label, position, o1, o2, o3 in TUPLES:
        announced = (o2, o3, label, o1, position)
        trace = recon._decoded(*announced)
        assert type(trace) is PipelineTrace
        assert trace == recon._decoded.__wrapped__(*announced)
        # every tuple reaches the last stage and ends in exactly one of the two
        assert (trace.result is None) != (trace.rejection is None)
        announcements = make_announcements(o2, o3, label, o1, position)
        assert reconstruct_trace(announcements) is trace
        if trace.result is not None:
            assert reconstruct(announcements) is trace.result
            continue
        with pytest.raises(NoMatch) as warm:
            reconstruct(announcements)
        assert type(warm.value) is NoMatch
        assert warm.value.args == (trace.rejection,)


def test_a_rejection_pickles_and_copies_with_its_type_and_message():
    rejections = [o for o in _kept_sweep(reconstruct) if isinstance(o, NoMatch)]
    assert len(rejections) == 256
    # and one that infer_gate raises on its own
    rejections.append(NoMatch("no gate maps the reference onto +|000> on (1,2,3)"))
    for exc in rejections:
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies = [pickle.loads(pickle.dumps(exc, protocol)) for protocol in protocols]
        copies += [copy.copy(exc), copy.deepcopy(exc)]
        for copied in copies:
            assert type(copied) is NoMatch
            assert copied.args == exc.args


def _string_partition(state, qubits, allowed):
    kept = tuple(t for t in state.terms if restrict(state.qubits, t, qubits) in allowed)
    return kept, tuple(t for t in state.terms if t not in kept)


def test_mask_partitions_equal_string_partitions_on_every_stage_state():
    middle, full = set(), set()
    for trace in _traces():
        middle.update({trace.expansion, trace.kept_mid})
        full.update(s for s in (trace.attached, trace.final_kept) if s is not None)
    assert len(middle) > 16 and len(full) > 64
    for label in LABELS:
        for state in middle:
            result = filter_support(state.terms, label)
            oracle = _string_partition(state, (4, 5), {h[:2] for h in SUPPORT[label]})
            assert (result.kept, result.discarded) == oracle
        for state, position in itertools.product(full, (1, 6)):
            result = filter_untouched(state.terms, _decoder(label, position))
            half = (4, 5, 6) if position == 1 else (1, 2, 3)
            oracle = _string_partition(state, half, set(SUPPORT[label]))
            assert (result.kept, result.discarded) == oracle


def test_gate_table_equals_the_signed_image_matches():
    for label, position in itertools.product(LABELS, (1, 6)):
        half = _HALVES[position][0]
        images = [(g, apply_gate_sym(half_reference(label, half), g, position)) for g in GATES]
        decoder = _decoder(label, position)
        shift, table = 3 - decoder.untouched_shift, decoder.gates
        actions = [GateAction(g, position) for g in GATES]
        entries = sorted(table.values(), key=lambda entry: GATES.index(entry[0].gate))
        assert entries == [(action, decode_secret(action)) for action in actions]
        assert restrict(ALL, Term(0b111 << shift, 1), half) == "111"
        for a, b in itertools.permutations(range(8), 2):
            for sign_a, sign_b in itertools.product((1, -1), repeat=2):
                target = SymbolicState.from_terms(half, [Term(a, sign_a), Term(b, sign_b)], 1)
                matches = [g for g, image in images if equal_up_to_global_sign(image, target)]
                assert len(matches) <= 1
                # any untouched bits: the gate is read off the toggled half alone
                untouched = 0b101 << 3 - shift
                terms = [Term(a << shift | untouched, sign_a), Term(b << shift, sign_b)]
                kept = SymbolicState.from_terms(ALL, terms, 3).terms
                if matches:
                    action = GateAction(matches[0], position)
                    assert infer_gate(kept, decoder) == (action, decode_secret(action))
                else:
                    message = f"no gate maps the reference onto {target.render()}"
                    with pytest.raises(NoMatch, match=re.escape(message) + "$"):
                        infer_gate(kept, decoder)


def _string_flip(triple: str, label, half):
    """The nearest-support single flip, read with string Hamming distances."""
    best = min(SUPPORT[label], key=lambda h: sum(x != y for x, y in zip(triple, h)))
    differ = [half[i] for i in range(3) if triple[i] != best[i]]
    return differ[0] if len(differ) == 1 else None


def test_flip_table_equals_string_hamming_nearest_support():
    for label, position in itertools.product(LABELS, (1, 6)):
        half = (4, 5, 6) if position == 1 else (1, 2, 3)
        decoder = _decoder(label, position)
        shift, table = decoder.untouched_shift, decoder.flips
        assert len(table) == 8
        for triple in range(8):
            term = Term(triple << shift, 1)
            assert table[triple] == _string_flip(restrict(ALL, term, half), label, half)
            report = tamper_report([term], decoder)
            flipped = None if report is None else report.flipped_qubits[0]
            assert flipped == table[triple]


def test_attach_p1_equals_expand_product_on_every_reachable_kept_state():
    kept_states = {trace.kept_mid for trace in _traces() if trace.kept_mid.terms}
    assert len(kept_states) == 24
    for kept in kept_states:
        for outcome in BELL_OUTCOMES:
            oracle = expand_product([bell_terms(outcome, (1, 6)), kept])
            assert attach_p1(kept.terms, outcome) == oracle.terms


def test_colliding_gate_images_fail_the_table_build(monkeypatch):
    image_of = recon.apply_gate_sym

    def collided(state, gate, qubit):
        # Z's image given again under X: two gates now share one key
        return image_of(state, PauliGate.Z if gate is PauliGate.X else gate, qubit)

    monkeypatch.setattr(recon, "apply_gate_sym", collided)
    _decoder.cache_clear()
    try:
        with pytest.raises(Ambiguous, match="share"):
            _decoder(StateLabel.A, 1)
    finally:
        _decoder.cache_clear()
