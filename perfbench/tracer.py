"""Span tracer that wraps the package's public functions from outside.

Nothing under ``src/`` is edited: each named function is replaced, in every
``ghzshare`` module namespace that holds a reference to it (and in module
level dicts such as ``harness.SCENARIOS``), by a wrapper that records a span.
``uninstall`` puts the originals back.

A span is (name, start_ns, end_ns, parent span id, op id). Self time is a
span's duration minus the time its child spans cover. Calls and self time
are aggregated online for every op; full span records are kept in memory for
the first ``MAX_SPANS`` spans only and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

MAX_SPANS = 20_000

# (module, attribute path) of every function the traced run reports.
TRACED = (
    ("qcore", "prepare_state"),
    ("qcore", "apply_gate"),
    ("qcore", "bell_probabilities"),
    ("qcore", "measure_bell"),
    ("qcore", "partial_inner"),
    ("qcore", "global_phase_equal"),
    ("symexact", "bell_terms"),
    ("symexact", "expand_product"),
    ("symexact", "SymbolicState.from_terms"),
    ("symexact", "apply_gate_sym"),
    ("symexact", "equal_up_to_global_sign"),
    ("symexact", "bell_decompose"),
    ("symexact", "to_statevector"),
    ("protocol", "run_protocol"),
    ("protocol", "replay"),
    ("protocol", "make_announcements"),
    ("protocol", "Transcript.to_json"),
    ("protocol", "Transcript.from_json"),
    ("recon", "reconstruct_trace"),
    ("recon", "filter_support"),
    ("recon", "attach_p1"),
    ("recon", "filter_untouched"),
    ("recon", "infer_gate"),
    ("recon", "tamper_report"),
    ("harness", "exhaustive_verify"),
    ("harness", "enumerate_branches"),
    ("harness", "table1"),
    ("harness", "scenario_lie_state"),
    ("harness", "scenario_lie_position"),
    ("harness", "scenario_p1_withholds"),
    ("harness", "scenario_no_collusion"),
    ("harness", "scenario_eve_intercept"),
)

TRACED_NAMES = tuple(f"{mod}.{path}" for mod, path in TRACED)


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.stack: list[list] = []  # frames: [name, start_ns, child_ns, span_id]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.next_id = 0
        self.op_id = 0

    # -- spans ------------------------------------------------------------

    def enter(self, name: str, count: bool = True) -> list:
        if count:
            self.calls[name] += 1
        self.next_id += 1
        frame = [name, self.clock(), 0, self.next_id]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, record: bool = True) -> None:
        end = self.clock()
        popped = self.stack.pop()
        assert popped is frame, "span stack out of order"
        duration = end - frame[1]
        self.self_ns[frame[0]] += duration - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if record:
            self.record(frame[0], frame[1], end, parent[3] if parent else 0, frame[3])

    def record(self, name: str, start: int, end: int, parent_id: int, span_id: int) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent_id, self.op_id))

    def write_spans(self, path) -> None:
        """One JSON object per line: id, name, start_ns, end_ns, parent (0: none), op."""
        fields = ("id", "name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")

    def parent_name(self) -> str | None:
        return self.stack[-2][0] if len(self.stack) > 1 else None

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook(tracer, None, exc)
                tracer.leave(frame)
                raise
            if hook is not None:
                hook(tracer, result, None)
            tracer.leave(frame)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        """Generator spans run from creation to exhaustion (or close).

        Self time counts only the time spent inside the generator's own
        resumptions; the consumer's work between items belongs to the
        consumer, and each resumption is charged to whichever span pulled it.
        """
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            parent = tracer.stack[-1][3] if tracer.stack else 0
            tracer.next_id += 1
            span_id = tracer.next_id
            start = tracer.clock()
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = tracer.enter(name, count=False)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer.leave(frame, record=False)
                        return
                    except BaseException:
                        tracer.leave(frame, record=False)
                        raise
                    tracer.leave(frame, record=False)
                    yield item
            finally:
                inner.close()
                tracer.record(name, start, tracer.clock(), parent, span_id)

        traced.__wrapped__ = fn
        return traced


# -- counter hooks: run at the span boundary, from outside the program ------


def _bell_probabilities(tracer, result, exc):
    if exc is None:
        tracer.counters["bell.useful"] += sum(post is not None for _, post in result.values())
        tracer.counters["bell.outcomes"] += len(result)


def _kept_ratio(prefix):
    def hook(tracer, result, exc):
        if exc is None:
            tracer.counters[prefix + ".kept"] += len(result.kept)
            tracer.counters[prefix + ".total"] += len(result.kept) + len(result.discarded)

    return hook


def _equal_up_to_global_sign(tracer, result, exc):
    if exc is None and tracer.parent_name() == "recon.infer_gate":
        tracer.counters["infer.tried"] += 1
        tracer.counters["infer.matched"] += bool(result)


def _is_nomatch(exc) -> bool:
    return type(exc).__name__ == "NoMatch" and type(exc).__module__ == "ghzshare.recon"


def _infer_gate(tracer, result, exc):
    if _is_nomatch(exc):
        tracer.counters["nomatch.infer"] += 1


def _reconstruct_trace(tracer, result, exc):
    # A NoMatch re-raised from infer_gate was counted there; the stage of the
    # others is read off the partial pipeline trace the exception carries.
    if not _is_nomatch(exc) or exc.trace is None:
        return
    if exc.trace.attached is None:
        tracer.counters["nomatch.support"] += 1
    elif len(exc.trace.final_kept.terms) != 2:
        tracer.counters["nomatch.untouched"] += 1


_HOOKS = {
    "qcore.bell_probabilities": _bell_probabilities,
    "recon.filter_support": _kept_ratio("support"),
    "recon.filter_untouched": _kept_ratio("untouched"),
    "symexact.equal_up_to_global_sign": _equal_up_to_global_sign,
    "recon.infer_gate": _infer_gate,
    "recon.reconstruct_trace": _reconstruct_trace,
}


# -- installation -----------------------------------------------------------


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "ghzshare" or name.startswith("ghzshare."))
    ]


def install(tracer: Tracer):
    """Wrap every TRACED function; return a callable that restores the originals."""
    import ghzshare.cli  # noqa: F401  -- loads every module that may hold a reference

    modules = _package_modules()
    undo: list[tuple] = []  # (owner, key, original, owner is a dict)

    def replace(owner, key, new, is_dict=False):
        old = owner[key] if is_dict else owner.__dict__[key]
        undo.append((owner, key, old, is_dict))
        if is_dict:
            owner[key] = new
        else:
            setattr(owner, key, new)

    for mod_name, path in TRACED:
        name = f"{mod_name}.{path}"
        home = sys.modules[f"ghzshare.{mod_name}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                replace(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                replace(cls, attr, tracer.wrap(name, raw))
            continue
        original = getattr(home, path)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    replace(mod, key, wrapped)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            replace(value, dkey, wrapped, is_dict=True)

    # Every Term construction runs __post_init__ once; count it without a span.
    term = sys.modules["ghzshare.symexact"].Term
    post_init = term.__dict__["__post_init__"]

    def counted_post_init(self):
        tracer.counters["terms_built"] += 1
        post_init(self)

    replace(term, "__post_init__", counted_post_init)

    def uninstall():
        for owner, key, old, is_dict in reversed(undo):
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)

    return uninstall


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-op calls, self time and ratios, keyed by metric name."""
    out: dict[str, tuple[float, str]] = {}
    for name in TRACED_NAMES:
        out[f"{name}.calls_per_op"] = (tracer.calls.get(name, 0) / ops, "calls/op")
        out[f"{name}.self_us_per_op"] = (tracer.self_ns.get(name, 0) / 1e3 / ops, "us/op")
    c = tracer.counters

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    out["qcore.bell_probabilities.useful_ratio"] = (ratio("bell.useful", "bell.outcomes"), "ratio")
    out["symexact.terms_built_per_op"] = (c.get("terms_built", 0) / ops, "terms/op")
    out["recon.filter_support.kept_ratio"] = (ratio("support.kept", "support.total"), "ratio")
    out["recon.filter_untouched.kept_ratio"] = (ratio("untouched.kept", "untouched.total"), "ratio")
    out["recon.infer_gate.match_ratio"] = (ratio("infer.matched", "infer.tried"), "ratio")
    for stage in ("support", "untouched", "infer"):
        out[f"recon.nomatch.{stage}_per_op"] = (c.get(f"nomatch.{stage}", 0) / ops, "raises/op")
    return out
