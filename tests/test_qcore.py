"""Statevector engine tests: preparation, gates, Bell measurement."""

import functools
import math
import random

import numpy as np
import pytest

from ghzshare import qcore
from ghzshare.qcore import (
    BELL_OUTCOMES,
    GATES,
    LABELS,
    BellOutcome,
    PauliGate,
    StateLabel,
    apply_gate,
    bell_probabilities,
    bits_to_index,
    check_pair,
    global_phase_equal,
    measure_bell,
    norm,
    partial_inner,
    prepare_state,
)

A_P, A_M, B_P, B_M = BELL_OUTCOMES


def amplitudes_of(state):
    return {i: round(float(state[i]), 9) for i in range(64) if abs(state[i]) > 1e-9}


def test_prepare_a_support():
    state = prepare_state(StateLabel.A)
    expected = {int(s, 2): 0.5 for s in ("000000", "000111", "111000", "111111")}
    assert amplitudes_of(state) == expected


def test_prepare_b_support():
    state = prepare_state(StateLabel.B)
    expected = {int(s, 2): 0.5 for s in ("001001", "001110", "110001", "110110")}
    assert amplitudes_of(state) == expected


@pytest.mark.parametrize("label", LABELS)
def test_prepare_normalized(label):
    state = prepare_state(label)
    assert abs(norm(state) - 1.0) <= 1e-12
    assert len(amplitudes_of(state)) == 4


def test_iy_on_first_qubit_of_a():
    state = apply_gate(prepare_state(StateLabel.A), PauliGate.IY, 1)
    expected = {
        int("100000", 2): -0.5,
        int("100111", 2): -0.5,
        int("011000", 2): 0.5,
        int("011111", 2): 0.5,
    }
    assert amplitudes_of(state) == expected


def test_z_on_first_qubit_of_a():
    state = apply_gate(prepare_state(StateLabel.A), PauliGate.Z, 1)
    expected = {
        int("000000", 2): 0.5,
        int("000111", 2): 0.5,
        int("111000", 2): -0.5,
        int("111111", 2): -0.5,
    }
    assert amplitudes_of(state) == expected


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_identity_gate_is_identity(label, q):
    state = prepare_state(label)
    assert np.array_equal(apply_gate(state, PauliGate.I, q), state)


@pytest.mark.parametrize("gate", [PauliGate.X, PauliGate.Z])
@pytest.mark.parametrize("q", [1, 4, 6])
def test_x_and_z_are_involutions(gate, q):
    state = apply_gate(prepare_state(StateLabel.C), PauliGate.IY, 2)
    twice = apply_gate(apply_gate(state, gate, q), gate, q)
    assert np.max(np.abs(twice - state)) <= 1e-14


@pytest.mark.parametrize("q", [1, 3, 6])
def test_iy_squares_to_minus_identity(q):
    state = prepare_state(StateLabel.D)
    twice = apply_gate(apply_gate(state, PauliGate.IY, q), PauliGate.IY, q)
    assert np.max(np.abs(twice + state)) <= 1e-14
    assert global_phase_equal(twice, state)
    four = apply_gate(apply_gate(twice, PauliGate.IY, q), PauliGate.IY, q)
    assert np.max(np.abs(four - state)) <= 1e-14


@pytest.mark.parametrize("gate", GATES)
@pytest.mark.parametrize("q", [1, 2, 5, 6])
def test_gates_preserve_norm(gate, q):
    state = apply_gate(prepare_state(StateLabel.B), PauliGate.X, 3)
    assert abs(norm(apply_gate(state, gate, q)) - 1.0) <= 1e-14


@pytest.mark.parametrize("label", LABELS)
def test_uniform_bell_probabilities_on_p1_pair(label):
    probs = bell_probabilities(prepare_state(label), (1, 6))
    for outcome in BELL_OUTCOMES:
        p, post = probs[outcome]
        assert abs(p - 0.25) <= 1e-12
        assert post is not None and abs(norm(post) - 1.0) <= 1e-12


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("pair", [(1, 6), (2, 5), (3, 4)])
def test_probabilities_sum_to_one(label, pair):
    state = apply_gate(prepare_state(label), PauliGate.IY, 6)
    probs = bell_probabilities(state, pair)
    assert abs(sum(p for p, _ in probs.values()) - 1.0) <= 1e-12


def test_collapse_of_iy_run_matches_worked_example():
    # iY at qubit 1 on state A, then b+ on (1,6): the (2,3,4,5) factor is
    # -|0000> + |1111> (the -a+a- - a-a+ Bell product in the (2,3),(4,5) pairing).
    state = apply_gate(prepare_state(StateLabel.A), PauliGate.IY, 1)
    rest = partial_inner(state, (1, 6), B_P)
    rest = rest / np.linalg.norm(rest)
    expected = np.zeros(16)
    expected[0b0000] = -1.0 / math.sqrt(2)
    expected[0b1111] = 1.0 / math.sqrt(2)
    assert np.max(np.abs(rest - expected)) <= 1e-12


def test_eigenstate_measures_with_certainty():
    state = np.zeros(64)
    # a+ on (1,6) tensored with |0000> on (2,3,4,5)
    state[bits_to_index((0, 0, 0, 0, 0, 0))] = 1.0 / math.sqrt(2)
    state[bits_to_index((1, 0, 0, 0, 0, 1))] = 1.0 / math.sqrt(2)
    probs = bell_probabilities(state, (1, 6))
    assert abs(probs[A_P][0] - 1.0) <= 1e-12
    for outcome in (A_M, B_P, B_M):
        assert probs[outcome][0] == 0.0
        assert probs[outcome][1] is None
    outcome, post = measure_bell(state, (1, 6), random.Random(99))
    assert outcome is A_P
    assert global_phase_equal(post, state)


def test_measure_bell_deterministic_per_seed():
    state = prepare_state(StateLabel.A)
    first = measure_bell(state, (1, 6), random.Random(1234))
    second = measure_bell(state, (1, 6), random.Random(1234))
    assert first[0] is second[0]
    assert np.array_equal(first[1], second[1])


def test_measure_bell_frequencies_within_four_sigma():
    state = prepare_state(StateLabel.A)
    rng = random.Random(2024)
    counts = {o: 0 for o in BELL_OUTCOMES}
    n = 4096
    for _ in range(n):
        outcome, _ = measure_bell(state, (1, 6), rng)
        counts[outcome] += 1
    bound = 4 * math.sqrt(n * 0.25 * 0.75)
    for outcome in BELL_OUTCOMES:
        assert abs(counts[outcome] - n / 4) <= bound


@pytest.mark.parametrize("label", LABELS)
def test_remaining_pairs_stay_bell_correlated(label):
    # After measuring (1,6) of a prepared state, measuring (2,3) pins (4,5).
    for _, post in bell_probabilities(prepare_state(label), (1, 6)).values():
        assert post is not None
        for _, post23 in bell_probabilities(post, (2, 3)).items():
            p23, s23 = post23
            if s23 is None:
                continue
            probs45 = [p for p, _ in bell_probabilities(s23, (4, 5)).values()]
            assert sum(1 for p in probs45 if abs(p - 1.0) <= 1e-9) == 1
            assert all(p <= 1e-9 or abs(p - 1.0) <= 1e-9 for p in probs45)


def _joint_distribution(state, order):
    dist = {}

    def rec(s, acc, prob):
        if len(acc) == len(order):
            dist[tuple(sorted(acc.items()))] = prob
            return
        pair = order[len(acc)]
        for outcome, (p, post) in bell_probabilities(s, pair).items():
            if post is None:
                continue
            rec(post, {**acc, pair: outcome.ascii}, prob * p)

    rec(state, {}, 1.0)
    return dist


@pytest.mark.parametrize(
    "label,gate,position",
    [(StateLabel.A, PauliGate.IY, 1), (StateLabel.C, PauliGate.Z, 6)],
)
def test_measurement_order_independence(label, gate, position):
    state = apply_gate(prepare_state(label), gate, position)
    orders = [
        [(1, 6), (2, 5), (3, 4)],
        [(2, 5), (3, 4), (1, 6)],
        [(3, 4), (1, 6), (2, 5)],
    ]
    base = _joint_distribution(state, orders[0])
    for order in orders[1:]:
        other = _joint_distribution(state, order)
        assert set(base) == set(other)
        for key in base:
            assert abs(base[key] - other[key]) <= 1e-12


def test_global_phase_equal_basics():
    v = prepare_state(StateLabel.A)
    assert global_phase_equal(v, -v)
    assert global_phase_equal(v, 1j * v)
    e0 = np.zeros(64)
    e0[0] = 1.0
    e63 = np.zeros(64)
    e63[63] = 1.0
    assert not global_phase_equal(e0, e63)


# ---------------------------------------------------------------------------
# kernel oracles: the slice-based projection and kron-built gate matrices

SQRT1_2 = 1.0 / math.sqrt(2.0)
ORDERED_PAIRS = [(a, b) for a in range(1, 7) for b in range(1, 7) if a != b]
REF_KETS = {
    A_P: {(0, 0): 1, (1, 1): 1},
    A_M: {(0, 0): 1, (1, 1): -1},
    B_P: {(0, 1): 1, (1, 0): 1},
    B_M: {(0, 1): 1, (1, 0): -1},
}
REF_MATRICES = {
    PauliGate.I: np.array([[1.0, 0.0], [0.0, 1.0]]),
    PauliGate.X: np.array([[0.0, 1.0], [1.0, 0.0]]),
    PauliGate.IY: np.array([[0.0, 1.0], [-1.0, 0.0]]),
    PauliGate.Z: np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def ref_slice(pair, ket):
    idx = [slice(None)] * 6
    idx[pair[0] - 1], idx[pair[1] - 1] = ket
    return tuple(idx)


def ref_projection(state, pair, outcome):
    """<outcome| on the pair by slicing the (2,)*6 tensor, ket by ket."""
    psi = state.reshape((2,) * 6)
    rest = np.zeros((2,) * 4)
    for ket, sign in REF_KETS[outcome].items():
        rest = rest + sign * SQRT1_2 * psi[ref_slice(pair, ket)]
    return rest


def ref_bell(state, pair):
    results = {}
    for outcome in BELL_OUTCOMES:
        rest = ref_projection(state, pair, outcome)
        prob = float(np.sum(rest * rest))
        if prob <= 1e-12:
            results[outcome] = (0.0, None)
            continue
        rest = rest / math.sqrt(prob)
        post = np.zeros((2,) * 6)
        for ket, sign in REF_KETS[outcome].items():
            post[ref_slice(pair, ket)] = sign * SQRT1_2 * rest
        results[outcome] = (prob, post.reshape(64))
    return results


@functools.cache
def ref_gate_matrix(gate, q):
    factors = [np.eye(2)] * 6
    factors[q - 1] = REF_MATRICES[gate]
    return functools.reduce(np.kron, factors)


@pytest.fixture(scope="module")
def reachable_states():
    """Every state the (1,6) -> (2,5) -> (3,4) walk reaches from the 32 encoded states."""
    states = {}

    def visit(state, pairs):
        states.setdefault(state.tobytes(), state)
        if pairs:
            for _, post in ref_bell(state, pairs[0]).values():
                if post is not None:
                    visit(post, pairs[1:])

    for label in LABELS:
        for gate in GATES:
            for position in (1, 6):
                encoded = ref_gate_matrix(gate, position) @ prepare_state(label)
                visit(encoded, [(1, 6), (2, 5), (3, 4)])
    return list(states.values())


def test_reachable_states_cover_the_walk(reachable_states):
    # 32 encoded states; the distinct post-measurement states after each pair
    assert len(reachable_states) == 312


def test_bell_probabilities_match_slice_reference(reachable_states):
    impossible = 0
    for state in reachable_states:
        for pair in ORDERED_PAIRS:
            got = bell_probabilities(state, pair)
            want = ref_bell(state, pair)
            assert list(got) == list(want)
            for outcome, (prob, post) in want.items():
                got_prob, got_post = got[outcome]
                assert got_prob == prob, (pair, outcome)
                if post is None:
                    assert (got_prob, got_post) == (0.0, None)
                    impossible += 1
                else:
                    assert np.array_equal(got_post, post), (pair, outcome)
    assert impossible > 0


def test_partial_inner_matches_slice_reference(reachable_states):
    for state in reachable_states:
        for pair in ORDERED_PAIRS:
            for outcome in BELL_OUTCOMES:
                got = partial_inner(state, pair, outcome)
                assert got.shape == (16,)
                assert np.array_equal(got, ref_projection(state, pair, outcome).reshape(-1))


def test_apply_gate_matches_kron_matrix(reachable_states):
    for state in reachable_states:
        for gate in GATES:
            for q in range(1, 7):
                got = apply_gate(state, gate, q)
                assert np.array_equal(got, ref_gate_matrix(gate, q) @ state), (gate, q)
                assert not np.signbit(got[got == 0.0]).any()


def test_list_pair_and_bad_pairs():
    state = apply_gate(prepare_state(StateLabel.C), PauliGate.IY, 6)
    as_list = bell_probabilities(state, [1, 6])
    as_tuple = bell_probabilities(state, (1, 6))
    for outcome in BELL_OUTCOMES:
        assert as_list[outcome][0] == as_tuple[outcome][0]
        assert np.array_equal(as_list[outcome][1], as_tuple[outcome][1])
    assert np.array_equal(partial_inner(state, [1, 6], A_P), partial_inner(state, (1, 6), A_P))
    for bad in [(1, 1), (0, 6), (1, 7), (1,), (1, 2, 3)]:
        with pytest.raises(ValueError):
            bell_probabilities(state, bad)
        with pytest.raises(ValueError):
            partial_inner(state, bad, A_P)
        with pytest.raises(ValueError):
            measure_bell(state, bad, random.Random(0))
    # a float qubit equals and hashes like an int, so it must not reach a
    # table cached for the int: it fails whether or not that table exists
    with pytest.raises(TypeError):
        bell_probabilities(state, (1.0, 6))
    with pytest.raises(TypeError):
        partial_inner(state, (1, 6.0), A_P)
    with pytest.raises(TypeError):
        apply_gate(state, PauliGate.X, 6.0)


def test_bool_qubits_are_rejected_cached_or_not():
    # True == 1 and hashes alike, so a bool would otherwise run as qubit 1
    state = apply_gate(prepare_state(StateLabel.C), PauliGate.IY, 6)
    qcore._gate_table.cache_clear()
    qcore._bell_tables.cache_clear()
    for _ in range(2):
        for qubit in (True, False):
            with pytest.raises(ValueError):
                apply_gate(state, PauliGate.X, qubit)
        for pair in [(True, 6), (6, True), (False, 6)]:
            with pytest.raises(ValueError):
                bell_probabilities(state, pair)
            with pytest.raises(ValueError):
                partial_inner(state, pair, A_P)
        # the second round runs with the int tables for qubit 1 and (1, 6) cached
        apply_gate(state, PauliGate.X, 1)
        bell_probabilities(state, (1, 6))
        bell_probabilities(state, (6, 1))
    assert check_pair([1, 6]) == (1, 6)
    assert all(type(q) is int for q in check_pair((np.int64(1), 6)))


def test_returned_arrays_do_not_alias_cached_tables():
    expected = amplitudes_of(prepare_state(StateLabel.B))
    prepare_state(StateLabel.B)[:] = 7.0
    assert amplitudes_of(prepare_state(StateLabel.B)) == expected

    base = prepare_state(StateLabel.D)
    gated = apply_gate(base, PauliGate.IY, 4)
    before = gated.copy()
    gated[:] = 7.0
    assert np.array_equal(apply_gate(base, PauliGate.IY, 4), before)

    first = bell_probabilities(base, (2, 5))
    saved = {o: (p, None if post is None else post.copy()) for o, (p, post) in first.items()}
    for _, post in first.values():
        if post is not None:
            post[:] = 7.0
    again = bell_probabilities(base, (2, 5))
    for outcome, (prob, post) in saved.items():
        assert again[outcome][0] == prob
        assert (post is None) == (again[outcome][1] is None)
        if post is not None:
            assert np.array_equal(again[outcome][1], post)

    rest = partial_inner(base, (1, 6), B_M)
    saved_rest = rest.copy()
    rest[:] = 7.0
    assert np.array_equal(partial_inner(base, (1, 6), B_M), saved_rest)


def test_cached_tables_are_read_only():
    arrays = [qcore._BELL_COEF]
    for label in LABELS:
        arrays.append(qcore._prepared(label))
    for gate in GATES:
        for q in range(1, 7):
            arrays.extend(qcore._gate_table(gate, q))
    for pair in ORDERED_PAIRS:
        arrays.extend(qcore._bell_tables(pair))
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0
