"""Harness tests: exhaustive verification, the collapse table, scenarios."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from ghzshare import harness
from ghzshare.cli import main
from ghzshare.harness import (
    SCENARIOS,
    exhaustive_verify,
    misannouncement_matrix,
    scenario_eve_intercept,
    scenario_lie_position,
    scenario_lie_state,
    scenario_no_collusion,
    scenario_p1_withholds,
    table1,
    verify_summary,
)
from ghzshare.protocol import (
    ENCODING_POSITIONS,
    P1_PAIR,
    P2_PAIR,
    P3_PAIR,
    GateAction,
    decode_secret,
    make_announcements,
)
from ghzshare.qcore import (
    BELL_OUTCOMES,
    GATES,
    LABELS,
    BellOutcome,
    DenseState,
    PauliGate,
    StateLabel,
    bell_probabilities,
    global_phase_equal,
)
from ghzshare import recon
from ghzshare.recon import NoMatch, reconstruct
from ghzshare.symexact import SymbolicState, Term, bell_terms, to_statevector
from oracles import FRAME, par, ph
from test_recon import _count_builds, _count_stages

EXPECTED_FLAGGED_ROWS = {
    ("I", "b+"),
    ("I", "b-"),
    ("X", "a+"),
    ("X", "a-"),
    ("iY", "a+"),
    ("iY", "a-"),
    ("Z", "a+"),
    ("Z", "a-"),
    ("Z", "b+"),
    ("Z", "b-"),
}


@pytest.fixture(scope="module")
def records():
    return exhaustive_verify()


@pytest.fixture(scope="module")
def rows():
    return table1()


def test_exhaustive_counts(records):
    summary = verify_summary(records)
    assert summary["configurations"] == 32
    assert summary["branches"] == 256
    assert summary["failures"] == 0


def test_every_branch_reconstructs_the_encoded_secret(records):
    for r in records:
        assert r.passed, r.failures
        assert r.reconstructed_secret == r.secret
        assert r.reconstructed_action == f"{r.gate}{r.position}"


def test_branch_probabilities_structure(records):
    by_config = {}
    for r in records:
        by_config.setdefault((r.label, r.gate, r.position), []).append(r.probability)
    assert len(by_config) == 32
    for probs in by_config.values():
        assert 4 <= len(probs) <= 64
        assert sum(probs) == 1
        for p in probs:
            assert p > 0
            assert (p * 64).denominator == 1


def test_every_honest_branch_has_probability_exactly_one_eighth(records):
    assert len(records) == 256
    assert all(r.probability == Fraction(1, 8) for r in records)
    assert {r.to_dict()["probability"] for r in records} == {0.125}


def test_worked_branch_present(records):
    matches = [
        r
        for r in records
        if (r.label, r.gate, r.position, r.p1, r.p2, r.p3)
        == ("A", "iY", 1, "b+", "a-", "a+")
    ]
    assert len(matches) == 1
    assert matches[0].probability > 0
    assert matches[0].reconstructed_secret == "11"


def test_no_signalling_is_decided_once_when_the_branch_table_fills(monkeypatch, capsys):
    harness._branches.cache_clear()
    harness._announced_product.cache_clear()
    try:
        exhaustive_verify()
        # one fill computes each of the 64 products once
        info = harness._announced_product.cache_info()
        assert (info.currsize, info.misses, info.hits) == (64, 64, 256 - 64)
        # a warm run reads the verdicts the fill recorded
        exhaustive_verify()
        assert harness._announced_product.cache_info() == info
        for cfg in harness.configurations():
            assert all(branch.no_signalling for branch in harness._branches(*cfg))

        # a wrong product planted before the fill: the P3 ket of another outcome
        # whenever P1 finds b-, which is never the state the branch ends in
        product = harness._announced_product
        other = dict(zip(BELL_OUTCOMES, BELL_OUTCOMES[1:] + BELL_OUTCOMES[:1]))

        def planted(o1, o2, o3):
            return product(o1, o2, other[o3] if o1 is BellOutcome.B_MINUS else o3)

        monkeypatch.setattr(harness, "_announced_product", planted)
        harness._branches.cache_clear()
        records = exhaustive_verify()
        failed = [r for r in records if not r.passed]
        assert len(failed) == 64
        assert {r.p1 for r in failed} == {"b-"}
        for r in failed:
            assert r.failures == ("final state is not the product of the announced kets",)
        capsys.readouterr()
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("32 configurations, 256 branches, 64 failures\n")
        assert out.count("final state is not the product of the announced kets") == 64
    finally:
        # the next fill, after the plant is undone, is an honest one
        harness._branches.cache_clear()


def test_enumerate_branches_skips_the_p1_outcomes_a_state_cannot_show():
    # a+ on (1,6) times |0000>: P1 hears a+ alone, then P2 and P3 each a+ or a-
    state = DenseState(((0b000000, 1), (0b100001, 1)), 1)
    branches = list(harness.enumerate_branches(state))
    assert len(branches) == 4
    assert {branch.o1 for branch in branches} == {BellOutcome.A_PLUS}
    assert [branch.probability for branch in branches] == [Fraction(1, 4)] * 4


def test_honest_branches_are_a_read_only_table_over_the_configurations():
    harness._branches.cache_clear()
    exhaustive_verify()
    info = harness._branches.cache_info()
    assert (info.currsize, info.misses) == (32, 32)
    # a second full audit reads the table only
    exhaustive_verify()
    table1()
    for scenario in SCENARIOS.values():
        scenario()
    assert harness._branches.cache_info().misses == 32
    for cfg in harness.configurations():
        encoded = harness._encoded(*cfg)
        assert harness._branches(*cfg) == tuple(harness.enumerate_branches(encoded))
        for branch in harness._branches(*cfg):
            # the P1-conditional collapse is the encoded state's, which lie-state reads
            assert branch.mid_after_p1 == harness._collapse(encoded, branch.o1)
            triple = (branch.o1, branch.o2, branch.o3)
            probability, final = born_walk(encoded, triple)
            assert probability == branch.probability
            assert branch.mid_after_p3 == harness._collapse(final, branch.o1)


def born_walk(state, triple):
    """The product of the three Born probabilities along an outcome triple, and
    the state the three measurements leave: None where the product is 0.
    """
    product = Fraction(1)
    for pair, outcome in zip((P1_PAIR, P2_PAIR, P3_PAIR), triple):
        probability, state = bell_probabilities(state, pair)[outcome]
        product *= probability
        if state is None:
            break
    return product, state


def test_the_table_lookup_agrees_with_the_dense_walk_on_every_outcome_triple():
    # two derivations per triple: the Born probabilities along it, and the
    # Pauli frame, which names the one gate the triple can come from
    positive = 0
    for cfg in harness.configurations():
        label, gate = cfg[:2]
        branches = harness._branches(*cfg)
        encoded = harness._encoded(*cfg)
        for triple in itertools.product(BELL_OUTCOMES, repeat=3):
            o1, o2, o3 = triple
            probability = sum(b.probability for b in harness._view(branches, *triple))
            assert probability == born_walk(encoded, triple)[0], (cfg, triple)
            reachable = (par(o2) ^ par(o3)) == (label in (StateLabel.B, StateLabel.C))
            framed = FRAME[par(o1) ^ par(o3), ph(o1) ^ ph(o2) ^ ph(o3)] is gate
            assert probability == (Fraction(1, 8) if reachable and framed else 0), (cfg, triple)
            positive += probability > 0
    assert positive == 256


def test_the_view_names_the_gates_the_reconstructions_find_with_p3_withheld():
    # P2's view with P1's outcome: over the four P3 outcomes, the gates
    # reconstructed whose honest branch the dense walk finds positive
    views = 0
    for label, position in itertools.product(LABELS, ENCODING_POSITIONS):
        tables = {gate: harness._branches(label, gate, position) for gate in GATES}
        for o1, o2 in itertools.product(BELL_OUTCOMES, repeat=2):
            reconstructed = set()
            for o3 in BELL_OUTCOMES:
                try:
                    result = reconstruct(make_announcements(o2, o3, label, o1, position))
                except NoMatch:
                    continue
                encoded = harness._encoded(label, result.action.gate, position)
                if born_walk(encoded, (o1, o2, o3))[0] > 0:
                    reconstructed.add(result.action.gate)
            viewed = {gate for gate, table in tables.items() if harness._view(table, o1, o2)}
            assert reconstructed == viewed, (label, position, o1, o2)
            assert len(viewed) == 2, (label, position, o1, o2)
            views += 1
    assert views == 128


def test_a_warm_audit_walks_only_the_state_eve_modified(monkeypatch):
    def audit():
        exhaustive_verify()
        table1()
        for scenario in SCENARIOS.values():
            scenario()

    audit()
    calls = dict.fromkeys(("prepare_state", "apply_gate", "partial_inner", "bell_probabilities"), 0)
    for name in calls:

        def counted(*args, _name=name, _dense=getattr(harness, name)):
            calls[_name] += 1
            return _dense(*args)

        monkeypatch.setattr(harness, name, counted)
    audit()
    # eve-intercept encodes Z1, flips qubit 6 and walks the result once: four
    # P1 outcomes, two P2 outcomes after each, eight branches
    assert calls == {
        "prepare_state": 1,
        "apply_gate": 2,
        "partial_inner": 4 + 8,
        "bell_probabilities": 1 + 4 + 8,
    }


def test_the_phase_comparison_agrees_with_the_dense_bridge():
    # _phase_equal reads a state's terms in place of the vector to_statevector builds
    verdicts = Counter()
    for label, gate, position in harness.configurations():
        for branch in harness._branches(label, gate, position):
            trace = harness._reconstruction(branch.o2, branch.o3, label, branch.o1, position)
            states = (trace.expansion, trace.kept_mid, trace.attached)
            flipped = [
                SymbolicState(s.qubits, tuple(Term(t.bits, -t.sign) for t in s.terms), 0)
                for s in states
            ]
            for vec in (branch.mid_after_p3, branch.mid_after_p1, branch.after_p1):
                for state in (*states, *flipped):
                    verdict = harness._phase_equal(vec, state)
                    assert verdict == global_phase_equal(vec, to_statevector(state))
                    verdicts[verdict] += 1
    # each honest branch matches its three stage states and their negations
    assert verdicts == {True: 256 * 6, False: 256 * 12}


def test_a_warm_table_still_checks_every_stage_of_every_reconstruction(monkeypatch):
    exhaustive_verify()
    monkeypatch.setattr(harness, "_phase_equal", lambda vec, state: False)
    records = exhaustive_verify()
    assert len(records) == 256
    for r in records:
        assert r.failures == (
            "expansion differs from the measured (2,3,4,5) factor",
            "kept terms differ from the P1-conditional collapse",
            "attached state differs from the post-P1 state",
        )


def test_a_warm_table_still_reconstructs_on_every_call(monkeypatch):
    exhaustive_verify()
    reconstruct_trace = harness.reconstruct_trace

    def wrong_gate(announcements):
        trace = reconstruct_trace(announcements)
        action = trace.result.action
        gate = GATES[(GATES.index(action.gate) + 1) % len(GATES)]
        wrong = GateAction(gate, action.position)
        result = trace.result._replace(action=wrong, secret=decode_secret(wrong))
        return trace._replace(result=result)

    monkeypatch.setattr(harness, "reconstruct_trace", wrong_gate)
    records = exhaustive_verify()
    assert len(records) == 256
    for r in records:
        assert r.reconstructed_action != f"{r.gate}{r.position}"
        assert r.failures == (
            f"reconstructed {r.reconstructed_secret!r}, encoded {r.secret!r}",
            f"reconstructed {r.reconstructed_action}, encoded {r.gate}{r.position}",
        )


def test_a_warm_audit_reconstructs_each_call_what_it_checks(monkeypatch):
    # per call, every reconstruction traced: every honest branch for verify;
    # eve-intercept's two scripted tuples and every honest branch for its
    # tamper count; the matrix's 128 (branch, announced label) pairs, which
    # lie-state prints beside its one scripted tuple; lie-position's one
    # scripted tuple and p1-withholds' four; table1 and no-collusion read only
    # the branch table
    exhaustive_verify()
    table1()
    for scenario in SCENARIOS.values():
        scenario()
    calls = Counter()
    reconstruct_trace = harness.reconstruct_trace

    def counted(announcements):
        calls["reconstruct_trace"] += 1
        return reconstruct_trace(announcements)

    monkeypatch.setattr(harness, "reconstruct_trace", counted)
    expected = (
        (exhaustive_verify, {"reconstruct_trace": 256}),
        (scenario_eve_intercept, {"reconstruct_trace": 258}),
        (misannouncement_matrix, {"reconstruct_trace": 128}),
        (table1, {}),
        (scenario_lie_state, {"reconstruct_trace": 129}),
        (scenario_lie_position, {"reconstruct_trace": 1}),
        (scenario_p1_withholds, {"reconstruct_trace": 4}),
        (scenario_no_collusion, {}),
    )
    for _ in range(2):
        for audit, counts in expected:
            calls.clear()
            audit()
            assert calls == counts, audit.__name__


def test_a_warm_audit_runs_no_stage(monkeypatch):
    # every reconstruction an audit makes is read from the decode table
    exhaustive_verify()
    table1()
    for scenario in SCENARIOS.values():
        scenario()
    stage_calls = _count_stages(monkeypatch)[0]
    builds = _count_builds(monkeypatch)
    exhaustive_verify()
    assert not any(stage_calls.values())
    # no term, stage state or render
    assert builds == []
    table1()
    for scenario in SCENARIOS.values():
        scenario()
    assert not any(stage_calls.values())


def test_a_warm_table_reads_its_collapse_forms_and_still_diffs_every_row(monkeypatch):
    # the oracle forms are a table; the comparison with the printed entries is not
    table1()
    scenario_lie_state()
    calls = Counter()

    def counted(name):
        wrapped = getattr(harness, name)

        def call(*args):
            calls[name] += 1
            return wrapped(*args)

        monkeypatch.setattr(harness, name, call)

    for name in ("from_statevector", "bell_decompose", "_entries_match"):
        counted(name)
    for _ in range(2):
        calls.clear()
        table1()
        assert calls == {"_entries_match": 32}
    calls.clear()
    scenario_lie_state()
    assert calls == {}


def test_exhaustive_is_deterministic(records):
    again = exhaustive_verify()
    assert [r.to_dict() for r in again] == [r.to_dict() for r in records]


# ---------------------------------------------------------------------------
# collapse table


def test_table_has_16_rows_all_matching_some_pairing(rows):
    assert len(rows) == 16
    for row in rows:
        assert row.matched_pairings, (row.gate, row.p1_outcome)


def test_table_row_identity_alpha_plus(rows):
    row = next(r for r in rows if (r.gate, r.p1_outcome) == ("I", "a+"))
    assert row.oracle_2345 == "+a+(2,3)a+(4,5) +a-(2,3)a-(4,5)"
    assert not row.flagged


def test_table_row_iy_beta_plus(rows):
    row = next(r for r in rows if (r.gate, r.p1_outcome) == ("iY", "b+"))
    assert row.oracle_2345 == "-a+(2,3)a-(4,5) -a-(2,3)a+(4,5)"
    assert not row.flagged


def test_table_row_z_alpha_plus_flagged_for_subscripts(rows):
    row = next(r for r in rows if (r.gate, r.p1_outcome) == ("Z", "a+"))
    assert row.oracle_2345 == "+a+(2,3)a-(4,5) +a-(2,3)a+(4,5)"
    assert row.flagged
    assert "subscript-typo" in row.flags


def test_flagged_row_set_is_stable(rows):
    flagged = {(r.gate, r.p1_outcome) for r in rows if r.flagged}
    assert flagged == EXPECTED_FLAGGED_ROWS


def test_flagged_rows_emit_oracle_forms(rows):
    for row in rows:
        if row.flagged:
            assert row.oracle_2345
            assert row.oracle_2534
            assert row.printed


def test_table_is_deterministic(rows):
    assert [r.to_dict() for r in table1()] == [r.to_dict() for r in rows]


# ---------------------------------------------------------------------------
# scenarios: computed behavior (the acceptance suite asserts the stated
# expectations; here we pin what the simulation actually does)


@pytest.fixture(scope="module")
def lie_state():
    return scenario_lie_state()


@pytest.fixture(scope="module")
def eve():
    return scenario_eve_intercept()


def test_lie_state_reconstruction_is_inconsistent(lie_state):
    deduction = lie_state.assertion("deduction")
    assert deduction.observed.startswith("no-match")
    assert not deduction.passed
    assert lie_state.assertion("true secret").passed


def test_lie_state_collapse_is_mixed_pairing(lie_state):
    assert lie_state.states["collapse_terms"] == "+|0010> +|1101> on (2,3,4,5)"
    assert lie_state.states["collapse_pairing_23_45"] == "+a+(2,3)b+(4,5) -a-(2,3)b-(4,5)"


def test_lie_state_misannouncement_matrix(lie_state):
    matrix = lie_state.states["misannouncement_matrix"]
    assert matrix["A"]["A"] == ["X1"]
    assert matrix["C"]["A"] == ["no-match"]
    assert matrix["B"]["A"] == ["no-match"]
    # a D-state run misannounced as A still leaks the true gate
    assert matrix["D"]["A"] == ["X1"]
    for label in "ABCD":
        assert matrix[label][label] == ["X1"]


def test_misannouncement_matrix_fn_matches_report(lie_state):
    assert misannouncement_matrix() == lie_state.states["misannouncement_matrix"]


def test_lie_position_scenario_passes():
    report = scenario_lie_position()
    assert report.verdict
    assert report.assertion("deduction").observed == "iY6"


def test_p1_withholds_scenario_passes():
    report = scenario_p1_withholds()
    assert report.verdict
    assert report.assertion("ambiguity set size").observed == "4"


def test_no_collusion_scenario_passes():
    report = scenario_no_collusion()
    assert report.verdict
    assert report.states["toggled_run_gates"] == ["X1", "iY1"]
    assert report.states["identity_run_gates"] == ["I1", "Z1"]


def test_eve_scenario_detection_chain(eve):
    for name in (
        "modified state matches the intercepted product state",
        "expansion matches the four printed terms",
        "state filter keeps the first and fourth term",
        "attached state matches the four printed six-qubit terms",
        "position filter keeps the second and third term",
        "deduction",
        "tamper report",
    ):
        assert eve.assertion(name).passed, name


def test_eve_counterfactual_is_iy_at_6(eve):
    counterfactual = eve.assertion("counterfactual deduction (dealer announces qubit 6)")
    assert counterfactual.observed == "iY6"
    assert not counterfactual.passed


def test_eve_run_is_indistinguishable_from_an_honest_branch(eve, records):
    # The Eve script's announcement tuple also occurs as a positive-probability
    # honest iY1 branch, so tamper reports cannot be announcement-sound.
    twins = [
        r
        for r in records
        if (r.label, r.gate, r.position, r.p1, r.p2, r.p3)
        == ("A", "iY", 1, "a+", "b-", "b+")
    ]
    assert len(twins) == 1
    assert twins[0].probability > 0
    assert twins[0].tamper == "X on qubit 6"


def test_eve_counts_tamper_reports_without_rerunning_the_verifier(monkeypatch):
    def refuse():
        raise AssertionError("exhaustive_verify called")

    monkeypatch.setattr(harness, "exhaustive_verify", refuse)
    report = scenario_eve_intercept()
    assert report.assertion("tamper false positives across honest branches").observed == "256"


def test_scenarios_are_reproducible():
    for name, fn in SCENARIOS.items():
        assert fn().to_dict() == fn().to_dict(), name


def test_collapse_checks_report_mismatch_when_the_phase_check_fails(monkeypatch):
    # every "match"/"mismatch" check reads what it compared, never a constant
    monkeypatch.setattr(harness, "_phase_equal", lambda vec, state: False)
    checks = {
        "no-collusion": (
            "toggled-run collapse re-pairs to a+a- + a-a+ on (2,5),(3,4)",
            "identity-run collapse re-pairs to a+a+ + a-a- on (2,5),(3,4)",
        ),
        "eve-intercept": ("collapse after P1=a+ re-pairs to b+b- + b-b+ on (2,5),(3,4)",),
        "p1-withholds": ("every consistent configuration collapses to the same display state",),
    }
    for name, assertion_names in checks.items():
        report = SCENARIOS[name]()
        for assertion_name in assertion_names:
            record = report.assertion(assertion_name)
            assert (record.observed, record.passed) == ("mismatch", False), (name, record)
        assert not report.verdict


def test_phase_equal_refuses_a_vector_of_another_width_or_norm():
    state = bell_terms(BELL_OUTCOMES[1], (2, 5))
    vec = to_statevector(state)
    assert harness._phase_equal(vec, state)
    # the amplitudes still equal the terms, so only the width or the norm tells them apart
    assert vec.amplitudes == state.terms
    assert not harness._phase_equal(vec._replace(n_qubits=vec.n_qubits + 1), state)
    assert not harness._phase_equal(vec._replace(exponent=vec.exponent + 2), state)


def test_a_report_raises_for_an_assertion_it_does_not_hold():
    report = scenario_lie_position()
    assert report.assertion("deduction").name == "deduction"
    with pytest.raises(KeyError, match="nope"):
        report.assertion("nope")


def test_a_planted_rejection_fails_exactly_its_record(monkeypatch):
    # no honest tuple is rejected, so a rejection is planted in one decode table entry
    label, gate, position = StateLabel.B, PauliGate.Z, 6
    branch = harness._branches(label, gate, position)[2]
    planted = (branch.o2, branch.o3, label, branch.o1, position)
    decoded = recon._decoded

    def with_planted(*announced):
        trace = decoded(*announced)
        if announced == planted:
            return trace._replace(result=None, rejection="planted")
        return trace

    monkeypatch.setattr(recon, "_decoded", with_planted)
    records = exhaustive_verify()
    failed = [r for r in records if not r.passed]
    assert verify_summary(records) == {"configurations": 32, "branches": 256, "failures": 1}
    (record,) = failed
    assert (record.label, record.gate, record.position) == ("B", "Z", 6)
    assert (record.p1, record.p2, record.p3) == (branch.o1.ascii, branch.o2.ascii, branch.o3.ascii)
    assert record.failures == ("reconstruction failed: planted",)
    assert record.to_dict()["failures"] == ["reconstruction failed: planted"]
    deduced = (record.reconstructed_action, record.reconstructed_secret, record.tamper)
    assert deduced == (None, None, None)
