"""Per-layer tracing from outside the program.

The layers are autorel's modules.  ``Tracer.install`` replaces each public
function of a layer, in every autorel module that binds it, by a wrapper
that records a span (name, parent span, start, end) and the size of the
automaton the call returns; ``MultiTrackAutomaton.__post_init__`` (the
constructor validation) is wrapped too.  Spans stay in memory until the
run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

from autorel import automata, cli, coloring, definability, recognizable, relations, tm

LAYERS = (automata, relations, recognizable, definability, coloring, tm, cli)
POST_INIT = "automata.MultiTrackAutomaton.__post_init__"
# private helpers that are a layer's JSON load and canonical emit
EXTRA = ("cli._load_json", "cli._emit_relation")

# metric names are <module>.<function>.<counter>
PER_LAYER = [
    # |Sigma|^2 column sets on machine alphabets (tm-pipeline)
    "relations.functional.calls", "relations.functional.total_ms",
    "relations.co_functional.calls", "relations.co_functional.total_ms",
    "relations.neq_relation.calls", "relations.neq_relation.total_ms",
    "relations.neq_relation.transitions_out",
    "relations.common_image_pairs.total_ms", "relations.common_image_pairs.transitions_out",
    "automata.restrict_valid_pad.calls", "automata.restrict_valid_pad.self_ms",
    "automata.restrict_valid_pad.states_out", "automata.restrict_valid_pad.transitions_out",
    "automata.intersect.calls", "automata.intersect.self_ms",
    "automata.intersect.states_out", "automata.intersect.transitions_out",
    "automata.relational_join.calls", "automata.relational_join.self_ms",
    "automata.relational_join.transitions_out",
    # products of languages (gadget, lifting, separator and coloring checks)
    "recognizable.product_relation.calls", "recognizable.product_relation.total_ms",
    "recognizable.product_relation.states_out",
    "recognizable.product_relation.transitions_out",
    "automata.cylindrify.calls", "automata.cylindrify.self_ms",
    "automata.cylindrify.transitions_out",
    # complement, subset construction, minimization
    "automata.complement_relative.calls", "automata.complement_relative.self_ms",
    "automata.complement_relative.total_ms",
    "automata.complement_relative.transitions_out",
    "automata.determinize_minimize.calls", "automata.determinize_minimize.self_ms",
    "automata.determinize_minimize.states_out",
    "automata.determinize_minimize.transitions_out",
    "automata.project.calls", "automata.project.self_ms",
    "automata.union.calls", "automata.union.self_ms",
    "automata.emptiness_shortest.calls", "automata.emptiness_shortest.self_ms",
    "automata.satisfies_valid_pad.calls", "automata.satisfies_valid_pad.self_ms",
    "automata.equivalent.calls", "automata.equivalent.total_ms",
    # constructor validation
    f"{POST_INIT}.calls", f"{POST_INIT}.self_ms",
    "automata.check_alphabet.calls", "automata.check_alphabet.self_ms",
    # definability
    "definability.build_equiv.calls", "definability.build_equiv.total_ms",
    "definability.decompose.calls", "definability.decompose.total_ms",
    "definability.rectangle_cover.calls", "definability.rectangle_cover.self_ms",
    "definability.maximal_rectangles.self_ms",
    "definability.kprod_definability.calls", "definability.kprod_definability.total_ms",
    "definability.krec_definability.total_ms", "definability.min_prod.total_ms",
    # separators and colorings
    "recognizable.to_automatic.calls", "recognizable.to_automatic.total_ms",
    "recognizable.verify_separator.calls", "recognizable.verify_separator.total_ms",
    "recognizable.one_prod_separability.total_ms",
    "recognizable.partition_ok.calls", "recognizable.partition_ok.total_ms",
    "recognizable.lift_to_kprod.total_ms",
    "coloring.incompatibility_graph.total_ms",
    "coloring.bounded_color_search.calls", "coloring.bounded_color_search.total_ms",
    "coloring.verify_coloring.calls", "coloring.verify_coloring.total_ms",
    "coloring.separator_from_coloring.total_ms",
    # Turing-machine kit
    "tm.wf_checks.calls", "tm.wf_checks.total_ms",
    "tm.coloring_gadget.calls", "tm.coloring_gadget.total_ms",
    "tm.pad_transform.calls", "tm.pad_transform.total_ms",
    "tm.machine_init_configs.total_ms",
    "tm.config_graph.calls", "tm.config_graph.transitions_out",
    "relations.successor_words.calls", "relations.successor_words.self_ms",
    # CLI: JSON load and validation, canonical emit, whole verbs
    "cli._load_json.calls", "cli._load_json.total_ms",
    "automata.from_json_dict.calls", "automata.from_json_dict.total_ms",
    "cli._emit_relation.calls", "cli._emit_relation.total_ms",
    "automata.to_json_dict.calls", "automata.to_json_dict.self_ms",
    "cli.main.calls", "cli.main.self_ms", "cli.main.total_ms",
]

UNITS = {"calls": "count", "self_ms": "ms", "total_ms": "ms",
         "states_out": "count", "transitions_out": "count"}


def _size(res) -> tuple:
    base = getattr(res, "base", res)
    if isinstance(base, automata.MultiTrackAutomaton):
        return base.states, len(base.transitions)
    return 0, 0


class Tracer:
    def __init__(self):
        # span: (name, parent id, outermost of its name, start, end, states, transitions)
        self.spans: list = []
        self._stack: list = []
        self._active: dict = defaultdict(int)
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = active[name] == 0
            stack.append(sid)
            active[name] += 1
            res = None
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                spans[sid] = (name, parent, outer, t0, t1) + _size(res)
        return traced

    def install(self) -> None:
        names = {}
        for mod in LAYERS:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                full = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or full in EXTRA)):
                    names[obj] = full
        wrapped = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for mod in LAYERS:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        cls = automata.MultiTrackAutomaton
        self._undo.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self._wrap(POST_INIT, cls.__post_init__)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def per_layer(self, rounds: int) -> dict:
        """Per-round totals of every counter in PER_LAYER."""
        child = defaultdict(float)
        for name, parent, _outer, t0, t1, _s, _t in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg = defaultdict(float)
        for sid, (name, _parent, outer, t0, t1, states, trans) in enumerate(self.spans):
            agg[f"{name}.calls"] += 1
            agg[f"{name}.self_ms"] += (t1 - t0 - child[sid]) * 1e3
            if outer:
                agg[f"{name}.total_ms"] += (t1 - t0) * 1e3
            agg[f"{name}.states_out"] += states
            agg[f"{name}.transitions_out"] += trans
        return {m: {"value": agg[m] / rounds, "unit": UNITS[m.rsplit(".", 1)[1]]}
                for m in PER_LAYER}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, _outer, t0, t1, states, trans) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": t0, "end": t1, "states_out": states,
                                     "transitions_out": trans}) + "\n")
