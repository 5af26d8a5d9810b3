"""Reconstruction over all 512 announcement tuples, against a closed-form oracle.

Write each Bell outcome as a parity bit (a=0, b=1) and a phase bit (+=0,
-=1), and each gate as a Pauli frame (x, z): I=(0,0), X=(1,0), iY=(1,1),
Z=(0,1).  A tuple (label, position, P1, P2, P3) is honest-reachable exactly
when par(P2) ^ par(P3) == (label in {B, C}), and then the dealer's gate is
x = par(P1) ^ par(P3), z = ph(P1) ^ ph(P2) ^ ph(P3) at the announced
position, whatever the label.  Every other tuple is rejected with NoMatch:
half of them because no term survives the untouched-half filter, half
because no gate maps the reference onto the two surviving terms.  The
formula is kept in the tests' oracles, apart from the reconstruction code,
as an independent oracle.
"""

import itertools
import sys

import ghzshare.cli  # noqa: F401  -- loads every module that may hold a cache
from ghzshare import harness, recon, symexact
from ghzshare.harness import table1
from ghzshare.protocol import (
    GateAction,
    decode_secret,
    make_announcements,
    replay,
    run_protocol,
)
from ghzshare.qcore import BELL_OUTCOMES, LABELS, StateLabel
from ghzshare.recon import NoMatch, reconstruct, reconstruct_trace
from oracles import FRAME, par, ph
from test_lint import SOURCES, cached_functions

TUPLES = tuple(itertools.product(LABELS, (1, 6), BELL_OUTCOMES, BELL_OUTCOMES, BELL_OUTCOMES))


def rejecting_stage(trace: recon.PipelineTrace) -> str:
    return "untouched-half filter" if len(trace.final_kept.terms) != 2 else "infer_gate"


def test_reconstruct_matches_the_pauli_frame_on_all_512_tuples():
    assert len(TUPLES) == 512
    rejections = {"untouched-half filter": 0, "infer_gate": 0}
    for label, position, o1, o2, o3 in TUPLES:
        reachable = (par(o2) ^ par(o3)) == (label in (StateLabel.B, StateLabel.C))
        announced = (label.value, position, o1.value, o2.value, o3.value)
        announcements = make_announcements(o2, o3, label, o1, position)
        trace = reconstruct_trace(announcements)
        # every tuple passes the support filter
        assert trace.attached is not None, announced
        try:
            result = reconstruct(announcements)
        except NoMatch as exc:
            assert type(exc) is NoMatch, announced
            assert str(exc) == trace.rejection, announced
            assert not reachable, announced
            rejections[rejecting_stage(trace)] += 1
            continue
        assert reachable, announced
        frame = (par(o1) ^ par(o3), ph(o1) ^ ph(o2) ^ ph(o3))
        action = GateAction(FRAME[frame], position)
        assert result.action == action, announced
        assert result.secret == decode_secret(action), announced
    assert rejections == {"untouched-half filter": 128, "infer_gate": 128}


def _sweep_and_table():
    for label, position, o1, o2, o3 in TUPLES:
        try:
            reconstruct(make_announcements(o2, o3, label, o1, position))
        except NoMatch:
            pass
    table1()


# the cached tables whose size the domain bounds
SIZED = {
    "bell_products": symexact.bell_products,
    "decode_table": recon._decoded,
    "decoders": recon._decoder,
}


def test_constant_tables_fill_to_their_domains_and_stop_missing():
    # The cached tables are keyed on small finite domains, never on a state
    # or a trace: one pass over every tuple (plus the collapse table, which
    # decomposes under both pairings) fills each to its domain size, and a
    # second pass adds no miss anywhere.
    # the collapse forms too: while they are warm, table1 refills no bell_products
    tables = {
        **SIZED,
        "collapse_forms": harness._collapse_forms,
    }
    for table in tables.values():
        table.cache_clear()
    _sweep_and_table()
    sizes = {name: table.cache_info().currsize for name, table in SIZED.items()}
    # one decode entry per announced tuple, one decoder per (label, position)
    assert sizes == {"bell_products": 2, "decode_table": 512, "decoders": 8}
    misses = {name: table.cache_info().misses for name, table in tables.items()}
    _sweep_and_table()
    assert {name: table.cache_info().misses for name, table in tables.items()} == misses


def test_every_recon_cache_is_sized_over_the_domain():
    # a table added to recon later is checked against its domain, not left to grow
    cached = {node.name for node in cached_functions(SOURCES["recon.py"])}
    assert "_decoded" in cached
    assert cached <= {table.__name__ for table in SIZED.values()}


def _package_caches() -> dict:
    """Every functools cache in the package, by its defining module and name."""
    caches = {}
    for module in list(sys.modules):
        if module.split(".")[0] == "ghzshare":
            for value in vars(sys.modules[module]).values():
                if hasattr(value, "cache_info"):
                    caches[f"{value.__module__}.{value.__qualname__}"] = value
    return caches


def _full_pass():
    _sweep_and_table()
    harness.exhaustive_verify()
    for scenario in harness.SCENARIOS.values():
        scenario()
    for seed, label in enumerate(LABELS):
        replay(run_protocol(label, "01", (1, 6)[seed % 2], seed))


def test_every_package_cache_fills_to_its_domain_and_stops_missing():
    # one pass over everything the package does fills each table to a size
    # its finite domain fixes, and a second pass adds no miss: a cache added
    # later must be pinned here, not left to grow
    caches = _package_caches()
    assert len(caches) == sum(len(cached_functions(tree)) for tree in SOURCES.values())
    for cache in caches.values():
        cache.cache_clear()
    _full_pass()
    sizes = {name: cache.cache_info().currsize for name, cache in caches.items()}
    assert sizes == {
        # the honest state space: 32 configurations, one product per outcome triple
        "ghzshare.harness._branches": 32,
        "ghzshare.harness._announced_product": 64,
        # the collapse table's 16 P1-conditional collapses and lie-state's one
        "ghzshare.harness._collapse_forms": 17,
        # per label, per pair, per probability reached
        "ghzshare.qcore._prepare_state": 4,
        "ghzshare.qcore._bell_tables": 3,
        "ghzshare.qcore._probability": 5,
        # per (label, position), per announced tuple
        "ghzshare.protocol._announcements": 512,
        "ghzshare.recon._decoder": 8,
        "ghzshare.recon._decoded": 512,
        # per pairing
        "ghzshare.symexact.bell_products": 2,
    }
    misses = {name: cache.cache_info().misses for name, cache in caches.items()}
    _full_pass()
    assert {name: cache.cache_info().misses for name, cache in caches.items()} == misses
