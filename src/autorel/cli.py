"""Command-line front end.

Decision verbs exit 0 (yes, witness emitted), 1 (definitive no) or
2 (parse error, precondition failure, or exhausted budget).  Witnesses are
written as canonical JSON so their bytes are reproducible.  Separators
(from sep-1prod, separator-from-coloring, and definable-kprod against the
pair that ``reduce --mode def-to-sep`` writes) re-verify under sep-verify,
and colorings from color-search under color-verify.  No verb reads the
block partition that definable-krec writes.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from pathlib import Path
from typing import Optional

from . import automata as au
from . import coloring as co
from . import definability as de
from . import dot
from . import recognizable as rc
from . import relations as rel
from . import tm
from .automata import AutomataError, BudgetExceededError

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _load_json(path: str) -> dict:
    text = _read(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply") from None


def load_relation(path: str) -> rel.AutomaticRelation:
    a = au.from_json_dict(_load_json(path))
    if a.tracks != 2:
        raise CliError(f"{path}: expected a 2-track relation automaton")
    return rel.relation(a)


def load_separator(path: str) -> rc.RecognizableRelation:
    return rc.recognizable_from_json_dict(_load_json(path))


def load_partitioned(path: str) -> rc.PartitionedRecognizable:
    return rc.partitioned_from_json_dict(_load_json(path))


def load_coloring(path: str) -> co.RegularColoring:
    return co.coloring_from_json_dict(_load_json(path))


def load_machine(path: str) -> tm.TuringMachine:
    return tm.machine_from_json_dict(_load_json(path))


def _write(path: Optional[str], text: str) -> None:
    if path:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as e:
            raise CliError(f"cannot write {path}: {e}") from None


def _emit_relation(path: Optional[str], r: rel.AutomaticRelation) -> None:
    _write(path, au.dumps(au.determinize_minimize(r.base)))


def _parse_word(text: str, alphabet) -> tuple:
    if text in ("", "ε", "eps"):
        return ()
    if "," in text:
        return tuple(tok for tok in text.split(",") if tok)
    if text in alphabet:
        return (text,)
    return tuple(text)


# ---------------------------------------------------------------------------
# verb handlers

def cmd_sep_verify(args) -> int:
    s = load_separator(args.s)
    r1, r2 = load_relation(args.r1), load_relation(args.r2)
    v = rc.verify_separator(s, r1, r2)
    print(v.kind if v.witness is None else f"{v.kind} witness={v.witness}")
    return EXIT_YES if v.ok else EXIT_NO


def cmd_sep_1prod(args) -> int:
    r1, r2 = load_relation(args.r1), load_relation(args.r2)
    s = rc.one_prod_separability(r1, r2)
    if s is None:
        print("no 1-product separator exists")
        return EXIT_NO
    _write(args.out, rc.dumps_recognizable(s))
    print("separator: pi1(R1) x pi2(R1)" + (f" -> {args.out}" if args.out else ""))
    return EXIT_YES


def cmd_definable_krec(args) -> int:
    r = load_relation(args.r)
    w = de.krec_definability(r, args.k)
    if w is None:
        print(f"not definable with a {args.k}-block partition")
        return EXIT_NO
    _write(args.out, rc.dumps_partitioned(w))
    print(f"definable: {len(w.partition)} blocks, {len(w.pairs)} pairs"
          + (f" -> {args.out}" if args.out else ""))
    return EXIT_YES


def cmd_definable_kprod(args) -> int:
    r = load_relation(args.r)
    w = de.kprod_definability(r, args.k)
    if w is None:
        print(f"not definable with {args.k} products")
        return EXIT_NO
    _write(args.out, rc.dumps_recognizable(w))
    print(f"definable with {len(w.products)} products"
          + (f" -> {args.out}" if args.out else ""))
    return EXIT_YES


def cmd_min_prod(args) -> int:
    r = load_relation(args.r)
    k = de.min_prod(r, args.kmax)
    if k is None:
        print(f"no presentation with at most {args.kmax} products")
        return EXIT_NO
    print(f"min products: {k}")
    return EXIT_YES


def cmd_recognizable(args) -> int:
    r = load_relation(args.r)
    if de.recognizable(r):
        print("recognizable: the congruence has finite index")
        return EXIT_YES
    print("not recognizable: the congruence has infinite index")
    return EXIT_NO


def cmd_incomp(args) -> int:
    r1, r2 = load_relation(args.r1), load_relation(args.r2)
    g = co.incompatibility_graph(r1, r2)
    _emit_relation(args.out, g)
    print(f"incompatibility graph -> {args.out}")
    return EXIT_YES


# per mode: the reduction, the options naming its inputs and its outputs,
# and the kind of instance it builds
_REDUCTIONS = {
    "sep-to-color": (lambda r1, r2: (co.reduce_sep_to_coloring(r1, r2),),
                     ("r1", "r2"), ("out",), "colorability"),
    "color-to-sep": (co.reduce_coloring_to_sep, ("graph",), ("out1", "out2"),
                     "separability"),
    "def-to-sep": (co.definability_to_separability, ("r",), ("out1", "out2"),
                   "separability"),
}


def cmd_reduce(args) -> int:
    reduce, inputs, outputs, kind = _REDUCTIONS[args.mode]
    missing = [f"--{a}" for a in inputs + outputs if not getattr(args, a)]
    if missing:
        raise CliError(f"reduce --mode {args.mode} needs {', '.join(missing)}")
    paths = [getattr(args, a) for a in outputs]
    for path, r in zip(paths, reduce(*(load_relation(getattr(args, a)) for a in inputs))):
        _emit_relation(path, r)
    print(f"{kind} instance -> {', '.join(paths)}")
    return EXIT_YES


def cmd_color_verify(args) -> int:
    e = load_relation(args.graph)
    c = load_coloring(args.coloring)
    v = co.verify_coloring(e, c)
    if v.ok:
        print("PROPER")
        return EXIT_YES
    print(f"{v.kind} witness={v.witness}"
          + (f" color={v.color}" if v.color is not None else ""))
    return EXIT_NO


def cmd_color_search(args) -> int:
    e = load_relation(args.graph)
    c = co.bounded_color_search(e, args.k, args.states)
    if c is None:
        print("no coloring in the bounded space (not a proof of impossibility)")
        return EXIT_NO
    _write(args.out, co.dumps_coloring(c))
    print(f"found a {len(c.colors)}-coloring" + (f" -> {args.out}" if args.out else ""))
    return EXIT_YES


def cmd_separator_from_coloring(args) -> int:
    r1, r2 = load_relation(args.r1), load_relation(args.r2)
    c = load_coloring(args.coloring)
    s = co.separator_from_coloring(r1, r2, c)
    _write(args.out, rc.dumps_recognizable(s))
    print(f"separator with {len(s.products)} products"
          + (f" -> {args.out}" if args.out else ""))
    return EXIT_YES


def cmd_lift_kprod(args) -> int:
    r1, r2 = load_relation(args.r1), load_relation(args.r2)
    l1, l2 = rc.lift_to_kprod(r1, r2, args.k)
    _emit_relation(args.out1, l1)
    _emit_relation(args.out2, l2)
    print(f"lifted instance -> {args.out1}, {args.out2}")
    return EXIT_YES


def cmd_tm_compile(args) -> int:
    t = load_machine(args.tm)
    g = tm.config_graph(t)
    _emit_relation(args.out, g)
    print(f"configuration graph -> {args.out}")
    return EXIT_YES


def cmd_tm_check(args) -> int:
    t = load_machine(args.tm)
    rep = tm.wf_checks(t, depth=args.depth)
    print(f"initial-no-predecessor: {rep.initial_no_predecessor}")
    print(f"functional: {rep.functional}")
    print(f"co-functional: {rep.co_functional}")
    print(f"backward sampling (advisory, depth {rep.depth}, {rep.sampled} configs): "
          f"cycles={len(rep.backward_cycles)} deep-chains={len(rep.backward_deep)}")
    for c in rep.backward_cycles[:3]:
        print(f"  backward cycle through: {''.join(c)}")
    return EXIT_YES if rep.exact_ok else EXIT_NO


def cmd_tm_gadget(args) -> int:
    t = load_machine(args.tm)
    g = tm.coloring_gadget(t, args.k)
    _emit_relation(args.out, g)
    print(f"tagged gadget graph (k={args.k}) -> {args.out}")
    return EXIT_YES


def cmd_tm_pad(args) -> int:
    t = load_machine(args.tm)
    try:
        t2 = tm.pad_transform(t)
    except tm.PadTransformError as e:
        print(f"precondition failed: {e}")
        return EXIT_NO
    _write(args.out, tm.dumps_machine(t2))
    print(f"padded machine ({len(t2.states)} states) -> {args.out}")
    return EXIT_YES


def cmd_reach(args) -> int:
    r = load_relation(args.rel)
    start = _parse_word(args.start, r.alphabet)
    res = tm.reach_bfs(r, start, args.max_len, args.max_steps)
    for w in res.words:
        print(",".join(w) if any(len(s) > 1 for s in w) else "".join(w) or "ε")
    print(f"# {len(res.words)} words, truncated={res.truncated}")
    return EXIT_YES


def cmd_export_dot(args) -> int:
    e = load_relation(args.graph)
    c = load_coloring(args.coloring) if args.coloring else None
    second = load_relation(args.r2) if args.r2 else None
    text = dot.export_dot(e, args.max_len, c, second)
    _write(args.out, text)
    if not args.out:
        sys.stdout.write(text)
    else:
        print(f"dot -> {args.out}")
    return EXIT_YES


def cmd_make_rel(args) -> int:
    r = rel.parse_relation_spec(args.spec, args.alphabet.split(",")
                                if args.alphabet else None)
    _emit_relation(args.out, r)
    print(f"relation -> {args.out}")
    return EXIT_YES


def cmd_fixtures(args) -> int:
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise CliError(f"cannot write {outdir}: {e}") from None

    def emit(name, text):
        _write(str(outdir / name), text)
        print(f"wrote {outdir / name}")

    fc1 = rel.successor_relation(1)
    fc2 = rel.successor_relation(2)
    eqlen = rel.equal_length_relation(("a", "b"))
    ap1 = rel.append_one_relation(("a", "b"))
    emit("fc1.json", au.dumps(au.determinize_minimize(fc1.base)))
    emit("fc2.json", au.dumps(au.determinize_minimize(fc2.base)))
    emit("tree.json", au.dumps(au.determinize_minimize(rel.tree_relation().base)))
    emit("equal-length.json", au.dumps(au.determinize_minimize(eqlen.base)))
    emit("append-one.json", au.dumps(au.determinize_minimize(ap1.base)))
    emit("parity-separator.json",
         rc.dumps_recognizable(rc.parity_separator()))
    emit("length-incomp.json", au.dumps(au.determinize_minimize(
        co.incompatibility_graph(eqlen, ap1).base)))
    emit("demo-machine.json", tm.dumps_machine(tm.halting_fixture()))
    emit("looping-machine.json", tm.dumps_machine(tm.looping_fixture()))
    return EXIT_YES


# ---------------------------------------------------------------------------

def _at_least(low: int):
    """An argparse type: an integer >= ``low``."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return n
    return parse


@functools.cache  # one parser per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="autorel",
        description="Decision procedures for automatic relations: separator "
                    "verification, definability, regular colorings, and "
                    "Turing-machine instance generators.")
    p.add_argument("--budget", type=_at_least(1), default=None,
                   help="budget for the whole command: one unit per state built or "
                        "loaded, per cover-search step and per candidate coloring")
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = verb("sep-verify", cmd_sep_verify, help="verify a separator")
    sp.add_argument("--s", required=True)
    sp.add_argument("--r1", required=True)
    sp.add_argument("--r2", required=True)

    sp = verb("sep-1prod", cmd_sep_1prod, help="decide 1-product separability")
    sp.add_argument("--r1", required=True)
    sp.add_argument("--r2", required=True)
    sp.add_argument("--out")

    sp = verb("definable-krec", cmd_definable_krec,
              help="decide k-block partition definability")
    sp.add_argument("--r", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--out")

    sp = verb("definable-kprod", cmd_definable_kprod,
              help="decide k-product definability")
    sp.add_argument("--r", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--out")

    sp = verb("min-prod", cmd_min_prod, help="least k with a k-product presentation")
    sp.add_argument("--r", required=True)
    sp.add_argument("--kmax", type=int, required=True)

    sp = verb("recognizable", cmd_recognizable,
              help="decide whether a relation is recognizable at all")
    sp.add_argument("--r", required=True)

    sp = verb("incomp", cmd_incomp, help="build the incompatibility graph")
    sp.add_argument("--r1", required=True)
    sp.add_argument("--r2", required=True)
    sp.add_argument("--out", required=True)

    sp = verb("reduce", cmd_reduce, help="run one of the instance reductions")
    sp.add_argument("--mode", required=True,
                    choices=["sep-to-color", "color-to-sep", "def-to-sep"])
    sp.add_argument("--r1")
    sp.add_argument("--r2")
    sp.add_argument("--graph")
    sp.add_argument("--r")
    sp.add_argument("--out")
    sp.add_argument("--out1")
    sp.add_argument("--out2")

    sp = verb("color-verify", cmd_color_verify, help="verify a coloring")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--coloring", required=True)

    sp = verb("color-search", cmd_color_search,
              help="bounded search for a k-coloring")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--states", type=int, required=True)
    sp.add_argument("--out")

    sp = verb("separator-from-coloring", cmd_separator_from_coloring,
              help="closed-form separator from a proper coloring")
    sp.add_argument("--r1", required=True)
    sp.add_argument("--r2", required=True)
    sp.add_argument("--coloring", required=True)
    sp.add_argument("--out")

    sp = verb("lift-kprod", cmd_lift_kprod,
              help="pad a 2-product instance to a k-product one")
    sp.add_argument("--r1", required=True)
    sp.add_argument("--r2", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--out1", required=True)
    sp.add_argument("--out2", required=True)

    sp = verb("tm-compile", cmd_tm_compile,
              help="compile a machine's one-step relation")
    sp.add_argument("--tm", required=True)
    sp.add_argument("--out", required=True)

    sp = verb("tm-check", cmd_tm_check, help="well-formedness report")
    sp.add_argument("--tm", required=True)
    sp.add_argument("--depth", type=_at_least(0), default=32)

    sp = verb("tm-gadget", cmd_tm_gadget, help="build the tagged gadget graph")
    sp.add_argument("--tm", required=True)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--out", required=True)

    sp = verb("tm-pad", cmd_tm_pad, help="padding construction")
    sp.add_argument("--tm", required=True)
    sp.add_argument("--out")

    sp = verb("reach", cmd_reach, help="bounded forward reachability")
    sp.add_argument("--rel", required=True)
    sp.add_argument("--start", default="")
    sp.add_argument("--max-len", type=_at_least(0), default=8)
    sp.add_argument("--max-steps", type=_at_least(0), default=10_000)

    sp = verb("export-dot", cmd_export_dot, help="DOT slice of a graph")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--coloring")
    sp.add_argument("--r2")
    sp.add_argument("--max-len", type=_at_least(0), default=3)
    sp.add_argument("--out")

    sp = verb("fixtures", cmd_fixtures, help="materialize the worked examples")
    sp.add_argument("--outdir", required=True)

    sp = verb("make-rel", cmd_make_rel,
              help='build a relation from a spec expression, e.g. '
                   '"(union (fc 1) (inverse (fc 1)))"')
    sp.add_argument("--spec", required=True)
    sp.add_argument("--alphabet", help="comma-separated symbols")
    sp.add_argument("--out", required=True)

    return p


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector paused, and the
    caller's setting is restored however it ends.  What autorel builds is
    acyclic (tuples, frozensets, dicts), so reference counting frees it,
    while a collector pass walks every live transition tuple and frees
    nothing: such passes took a third of a large load.  Commands leave
    nothing in reference cycles, so no garbage outlives the pause.
    """
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        with au.state_budget(args.budget):
            return args.fn(args)
    except BudgetExceededError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (CliError, AutomataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        # a construction outgrew the memory it may use: no verdict either way
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
