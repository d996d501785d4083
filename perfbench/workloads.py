"""Seeded inputs and one round of queries for each workload.

A round is a fixed list of ``autorel`` CLI calls; the benchmark repeats
whole rounds.  Every query names its output files and a check from
``oracle`` that judges the exit code, the printed verdict and those files.

Instance shapes come from fixed catalogue generators, so a query costs the
same whatever the seed; ``--seed`` picks letter and state names, a letter
renaming applied to both tracks, track order, and the order of instances
in the round.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle as orc
from autorel import automata as au
from autorel import recognizable as rc
from autorel import relations as rel

AB = ("a", "b")
CATALOGUE_SEED = 2305


@dataclass
class Query:
    argv: list
    check: Callable  # check(code, stdout, outs) -> reason or None
    outs: list = field(default_factory=list)


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _rename(d: dict, maps) -> dict:
    """Automaton JSON with track i's letters renamed by maps[i]."""
    out = dict(d)
    out["transitions"] = [
        [s, [m.get(x, x) for m, x in zip(maps, sym)], t]
        for s, sym, t in d["transitions"]]
    return out


def _swap_tracks(d: dict) -> dict:
    out = dict(d)
    out["transitions"] = [[s, sym[::-1], t] for s, sym, t in d["transitions"]]
    return out


def _automaton(tracks, n, accepting, trans) -> au.MultiTrackAutomaton:
    return au.MultiTrackAutomaton(tracks=tracks, alphabet=AB, states=n,
                                  initial=frozenset({0}), accepting=frozenset(accepting),
                                  transitions=frozenset(trans))


def _text(path) -> str:
    return Path(path).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# tm-pipeline

def _machine(states, tape, initial, finals, delta) -> dict:
    return {"states": list(states), "tape": list(tape), "blank": "_",
            "initial": initial, "final": list(finals),
            "delta": [list(r) for r in delta]}


def _fixture_machines(rng: random.Random, wd: Path) -> tuple:
    """The looping and halting fixtures and a non-reversible machine, with
    seeded state and tape names; returns their paths."""
    q = [f"q{i}" for i in rng.sample(range(100), 3)]
    one, two = (str(i) for i in rng.sample(range(10), 2))
    loop = _write(wd / "loop.json", _machine(
        [q[0]], [one], q[0], [], [(q[0], "_", q[0], one, "R")]))
    halt = _write(wd / "halt.json", _machine(
        q, [one], q[0], [q[2]],
        [(q[0], "_", q[1], one, "R"), (q[1], "_", q[2], one, "L")]))
    # deterministic, not reversible: reading blank or `one` in q0 leads to
    # the same successor, so two configurations share it
    nonrev = _write(wd / "nonrev.json", _machine(
        q[:2], [one, two], q[0], [],
        [(q[0], "_", q[1], one, "R"), (q[0], one, q[1], one, "R"),
         (q[1], two, q[0], two, "L")]))
    return loop, halt, nonrev


def _report_check(path, n):
    return lambda code, out, outs: orc.check_tm_check(
        code, out, orc.Machine.loads(_text(path)), n)


def _gadget_check(path, k):
    return lambda code, out, outs: (
        f"exit {code}" if code != 0 else
        orc.check_gadget(outs[0], orc.Machine.loads(_text(path)), k, 40))


def _padded_check(halts):
    return lambda code, out, outs: (
        f"exit {code}" if code != 0 else orc.check_padded(outs[0], halts, 3, 400))


def tm_pipeline(seed: int, wd: Path, tiny: bool = False) -> list:
    """Pad, check exact reversibility, build the gadget: the fixture
    machines padded have configuration alphabets of 179 and 289 symbols."""
    loop, halt, _nonrev = _fixture_machines(random.Random(seed), wd)
    ploop, phalt = str(wd / "ploop.json"), str(wd / "phalt.json")
    qs = [
        Query(["tm-pad", "--tm", loop, "--out", ploop], _padded_check(False), [ploop]),
        Query(["tm-pad", "--tm", halt, "--out", phalt], _padded_check(True), [phalt]),
        Query(["tm-check", "--tm", ploop], _report_check(ploop, 3)),
    ]
    if not tiny:
        g2 = str(wd / "gadget2.json")
        qs += [
            Query(["tm-check", "--tm", phalt], _report_check(phalt, 3)),
            Query(["tm-gadget", "--tm", ploop, "--k", "2", "--out", g2],
                  _gadget_check(ploop, 2), [g2]),
        ]
    return qs


def _raw_machine_queries(rng: random.Random, wd: Path) -> list:
    """tm-check and tm-gadget --k 3 on the raw fixtures, whose alphabets
    are small, and tm-pad on a machine that is not reversible."""
    loop, halt, nonrev = _fixture_machines(rng, wd)
    qs = []
    for name, path in (("loop", loop), ("halt", halt)):
        g3 = str(wd / f"gadget3-{name}.json")
        qs += [
            Query(["tm-check", "--tm", path], _report_check(path, 4)),
            Query(["tm-gadget", "--tm", path, "--k", "3", "--out", g3],
                  _gadget_check(path, 3), [g3]),
        ]
    qs.append(Query(["tm-pad", "--tm", nonrev],
                    lambda code, out, outs: orc.check_not_reversible(
                        code, out, orc.Machine.loads(_text(nonrev)), 3)))
    return qs


# ---------------------------------------------------------------------------
# definability

def _random_dfa(rng: random.Random, n: int) -> au.MultiTrackAutomaton:
    """A complete DFA whose language is neither empty nor everything."""
    full = au.full_language(AB)
    while True:
        trans = [(p, (x,), rng.randrange(n)) for p in range(n) for x in AB]
        acc = {p for p in range(n) if rng.random() < 0.5}
        a = au.determinize_minimize(_automaton(1, n, acc, trans))
        if a.accepting and not au.equivalent(a, full):
            return a


def _product_union(rng: random.Random, m: int) -> au.MultiTrackAutomaton:
    acc = au.empty_language(2, AB)
    for _ in range(m):
        left = _random_dfa(rng, rng.choice([2, 3]))
        right = _random_dfa(rng, rng.choice([2, 3]))
        acc = au.union(acc, rc.product_relation(left, right).base)
    return au.determinize_minimize(acc)


def definability(seed: int, wd: Path, tiny: bool = False) -> list:
    """kREC/kPROD definability on planted product unions over {a, b} and on
    three relations that are not recognizable at all."""
    rng = random.Random(seed)
    cat = random.Random(CATALOGUE_SEED)
    planted = []  # (JSON dict, planted product count)
    for m in (1, 2, 3):
        rels = [_product_union(cat, m) for _ in range(5)]
        keep = 1 if tiny else 3
        planted += [(au.to_json_dict(r), m) for r in rels[:keep]]
    insts = []
    for i, (d, m) in enumerate(planted):
        # one renaming for both tracks, and the inverse: both keep the
        # congruence index and the product count
        sigma = dict(zip(AB, AB[::-1])) if rng.random() < 0.5 else {}
        d = _rename(d, [sigma, sigma])
        if rng.random() < 0.5:
            d = _swap_tracks(d)
        insts.append((_write(wd / f"planted{i}.json", d), m))
    letter = rng.choice("acdeg")
    nonrec = [rel.successor_relation(1, (letter,), letter),
              rel.equal_length_relation(AB)]
    if not tiny:
        nonrec.insert(1, rel.successor_relation(2, (letter,), letter))
    for i, r in enumerate(nonrec):
        d = au.to_json_dict(au.determinize_minimize(r.base))
        insts.append((_write(wd / f"nonrec{i}.json", d), None))
    rng.shuffle(insts)

    qs = []
    for path, m in insts:
        out_p = path.replace(".json", ".kprod.json")
        out_r = path.replace(".json", ".krec.json")
        qs += [
            Query(["min-prod", "--kmax", "3", "--r", path], _min_prod_check(path, m)),
            Query(["definable-kprod", "--k", str(m or 3), "--r", path, "--out", out_p],
                  _kprod_check(path, m), [out_p]),
            Query(["definable-krec", "--k", "4", "--r", path, "--out", out_r],
                  _krec_check(path), [out_r]),
        ]
    return qs


def _min_prod_check(path, planted):
    def check(code, out, outs):
        if planted is None:
            return None if code == 1 and "no presentation" in out else \
                f"not recognizable, yet exit {code}: {out.strip()!r}"
        if code != 0 or not out.startswith("min products: "):
            return f"exit {code}: {out.strip()!r}"
        k = int(out.split(": ")[1])
        lb = orc.prod_lower_bound(orc.Nfa.loads(_text(path)), 4, 6, 3)
        if lb is None or not lb <= k <= planted:
            return f"min products {k}, brute-force bound {lb}, planted {planted}"
        return None
    return check


def _kprod_check(path, planted):
    def check(code, out, outs):
        if planted is None:
            return None if code == 1 else f"not recognizable, yet exit {code}"
        if code != 0:
            return f"planted with {planted} products, yet exit {code}"
        return orc.check_kprod_witness(outs[0], orc.Nfa.loads(_text(path)), planted, 4)
    return check


def _krec_check(path):
    def check(code, out, outs):
        r = orc.Nfa.loads(_text(path))
        if code == 0:
            return orc.check_krec_witness(outs[0], r, 4, 4)
        index = len(orc.congruence_classes(r, 4, 6))
        if code != 1 or index <= 4:
            return f"exit {code}, brute-force index at least {index}"
        return None
    return check


# ---------------------------------------------------------------------------
# separation

def _two_state_languages() -> list:
    """Transition tables of complete 2-state DFAs over {a, b} that reach
    state 1; accepting in state 1, the language and its complement are
    both non-empty."""
    out = []
    for t in range(16):
        table = [(t >> i) & 1 for i in range(4)]  # (0,a) (0,b) (1,a) (1,b)
        if table[0] == 1 or table[1] == 1:
            out.append(table)
    return out


def _dfa2(table) -> au.MultiTrackAutomaton:
    trans = [(p, (x,), table[2 * p + i]) for p in range(2) for i, x in enumerate(AB)]
    return _automaton(1, 2, {1}, trans)


def _random_relation(rng: random.Random) -> au.MultiTrackAutomaton:
    cols = list(au.valid_pad_automaton(2, AB).column_universe())
    trans = [(p, c, rng.randrange(3)) for p in range(3) for c in cols
             if rng.random() < 0.35]
    raw = _automaton(2, 3, rng.sample(range(3), 2), trans)
    return au.restrict_valid_pad(raw)


def _separation_catalogue(count: int) -> list:
    """Instances (P, R1, R2) with R1 inside S = P x Q u Q x P and R2 inside
    P x P u Q x Q, where Q is the complement of P: the 2-coloring {P, Q}
    is proper on their incompatibility graph, and S separates."""
    cat = random.Random(CATALOGUE_SEED)
    tables = _two_state_languages()
    out = []
    while len(out) < count:
        p = _dfa2(tables[len(out) % len(tables)])
        q = au.complement_relative(p)
        s = rc.to_automatic(rc.RecognizableRelation(AB, ((p, q), (q, p))))
        same = rc.to_automatic(rc.RecognizableRelation(AB, ((p, p), (q, q))))
        r1 = au.determinize_minimize(au.intersect(_random_relation(cat), s.base))
        r2 = au.determinize_minimize(au.intersect(_random_relation(cat), same.base))
        d1, d2 = au.to_json_dict(r1), au.to_json_dict(r2)
        n1, n2, np_ = orc.Nfa(d1), orc.Nfa(d2), orc.Nfa(au.to_json_dict(p))
        ws = orc.words_upto(AB, 3)
        both_sides = {np_.accepts(u) for u in ws for v in ws if n1.accepts(u, v)}
        if both_sides == {True, False} and any(n2.accepts(u, v) for u in ws for v in ws) \
                and orc.incompatibility_edges(n1, n2, 2, 4):
            out.append((au.to_json_dict(p), au.to_json_dict(q), d1, d2))
    return out


def _word_json(word) -> dict:
    n = len(word)
    return {"tracks": 1, "alphabet": list(AB), "states": n + 1, "initial": [0],
            "accepting": [n], "transitions": [[i, [x], i + 1] for i, x in enumerate(word)]}


def _full_json() -> dict:
    return {"tracks": 1, "alphabet": list(AB), "states": 1, "initial": [0],
            "accepting": [0], "transitions": [[0, [x], 0] for x in AB]}


def separation(seed: int, wd: Path, tiny: bool = False) -> list:
    """Many short queries: separator verification, the 1-product test,
    incompatibility graphs, bounded coloring search and verification, the
    separator read off a coloring, the fresh-symbol lifting, and the
    machine checks on small alphabets."""
    rng = random.Random(seed)
    qs = []
    order = list(enumerate(_separation_catalogue(2 if tiny else 6)))
    rng.shuffle(order)
    for j, (p, q, d1, d2) in order:
        sigma = dict(zip(AB, AB[::-1])) if rng.random() < 0.5 else {}
        flip = rng.random() < 0.5
        p, q = _rename(p, [sigma]), _rename(q, [sigma])
        d1, d2 = _rename(d1, [sigma, sigma]), _rename(d2, [sigma, sigma])
        if flip:
            d1, d2 = _swap_tracks(d1), _swap_tracks(d2)

        def f(name, j=j):
            return wd / f"s{j}-{name}.json"

        r1, r2 = _write(f("r1"), d1), _write(f("r2"), d2)
        n1, n2 = orc.Nfa(d1), orc.Nfa(d2)
        ws = orc.words_upto(AB, 3)
        extra = min(((u, v) for u in ws for v in ws if n2.accepts(u, v)),
                    key=lambda uv: orc.pair_key(*uv, AB))
        seps = {
            "SEPARATES": [(p, q), (q, p)],
            "FAILS_CONTAINMENT": [(p, q)],
            "FAILS_DISJOINT": [(p, q), (q, p), (_word_json(extra[0]), _word_json(extra[1]))],
        }
        for expect, prods in seps.items():
            path = _write(f(expect.lower()), {"products": [
                {"left": l, "right": r} for l, r in prods]})
            qs.append(Query(["sep-verify", "--s", path, "--r1", r1, "--r2", r2],
                            _sep_verify_check(path, r1, r2, expect)))
        one = str(f("1prod"))
        qs.append(Query(["sep-1prod", "--r1", r1, "--r2", r2, "--out", one],
                        _sep_1prod_check(r1, r2), [one]))
        g, col, sep = str(f("graph")), str(f("coloring")), str(f("sep-from-col"))
        qs.append(Query(["incomp", "--r1", r1, "--r2", r2, "--out", g],
                        _incomp_check(r1, r2), [g]))
        qs.append(Query(["color-search", "--graph", g, "--k", "2", "--states", "2",
                         "--out", col], _coloring_check(r1, r2, col, "found"), [col]))
        qs.append(Query(["color-verify", "--graph", g, "--coloring", col],
                        _coloring_check(r1, r2, col, "PROPER")))
        for expect, colors in (("MONOCHROME_EDGE", [_full_json()]),
                               ("NOT_PARTITION", [p, _full_json()])):
            path = _write(f(expect.lower()), {"colors": colors})
            qs.append(Query(["color-verify", "--graph", g, "--coloring", path],
                            _bad_coloring_check(g, path, expect)))
        qs.append(Query(["separator-from-coloring", "--r1", r1, "--r2", r2,
                         "--coloring", col, "--out", sep],
                        _separator_check(r1, r2), [sep]))

    letter = rng.choice("acdeg")
    fc = [au.to_json_dict(au.determinize_minimize(
        rel.successor_relation(c, (letter,), letter).base)) for c in (1, 2)]
    f1, f2 = _write(wd / "fc1.json", fc[0]), _write(wd / "fc2.json", fc[1])
    for k in ((4, 6) if tiny else range(4, 9)):
        o1, o2 = str(wd / f"lift{k}-1.json"), str(wd / f"lift{k}-2.json")
        qs.append(Query(["lift-kprod", "--r1", f1, "--r2", f2, "--k", str(k),
                         "--out1", o1, "--out2", o2],
                        _lift_check(f1, f2, k), [o1, o2]))
    return qs + _raw_machine_queries(rng, wd)


def _sep_verify_check(s, r1, r2, expect):
    def check(code, out, outs):
        return orc.check_sep_verify(
            code, out, orc.Products(json.loads(_text(s))),
            orc.Nfa.loads(_text(r1)), orc.Nfa.loads(_text(r2)), 3, expect)
    return check


def _sep_1prod_check(r1, r2):
    def check(code, out, outs):
        return orc.check_sep_1prod(code, out, outs[0] if code == 0 else None,
                                   orc.Nfa.loads(_text(r1)), orc.Nfa.loads(_text(r2)), 3)
    return check


def _incomp_check(r1, r2):
    def check(code, out, outs):
        if code != 0:
            return f"exit {code}"
        edges = orc.incompatibility_edges(
            orc.Nfa.loads(_text(r1)), orc.Nfa.loads(_text(r2)), 2, 5)
        return orc.check_graph(orc.Nfa.loads(outs[0]), edges, 2)
    return check


def _coloring_check(r1, r2, col, verdict):
    """The coloring in ``col`` is proper on the brute-force incompatibility
    edges; ``verdict`` is the line the query must print first."""
    def check(code, out, outs):
        if code != 0 or not out.startswith(verdict):
            return f"exit {code}: {out.strip()!r}"
        colors = [orc.Nfa(c) for c in json.loads(_text(col))["colors"]]
        edges = orc.incompatibility_edges(
            orc.Nfa.loads(_text(r1)), orc.Nfa.loads(_text(r2)), 3, 5)
        return orc.check_proper(colors, 2, edges, AB, 4)
    return check


def _bad_coloring_check(g, path, expect):
    def check(code, out, outs):
        colors = [orc.Nfa(c) for c in json.loads(_text(path))["colors"]]
        return orc.check_color_verify_bad(code, out, colors, orc.Nfa.loads(_text(g)),
                                          4, expect)
    return check


def _separator_check(r1, r2):
    def check(code, out, outs):
        if code != 0:
            return f"exit {code}"
        return orc.check_separates(orc.Products(json.loads(outs[0])),
                                   orc.Nfa.loads(_text(r1)), orc.Nfa.loads(_text(r2)), 3)
    return check


def _lift_check(f1, f2, k):
    """The lifted pair adds letters a#i, b#i: R1 gains (a#i, b#i); R2 gains
    every other pair with a fresh letter on either side."""
    def check(code, out, outs):
        if code != 0:
            return f"exit {code}"
        r1, r2 = orc.Nfa.loads(_text(f1)), orc.Nfa.loads(_text(f2))
        l1, l2 = orc.Nfa.loads(outs[0]), orc.Nfa.loads(outs[1])
        old = r1.alphabet
        fa = [f"a#{i}" for i in range(1, k - 1)]
        fb = [f"b#{i}" for i in range(1, k - 1)]
        if l1.alphabet != old + tuple(fa + fb) or l2.alphabet != l1.alphabet:
            return f"lifted alphabet {l1.alphabet}"
        olds = orc.words_upto(old, 4)
        ws = olds + [(x,) for x in fa + fb] + [(old[0], fa[0]), (fb[0], old[0])]

        def want1(u, v):
            if u in olds and v in olds:
                return r1.accepts(u, v)
            return len(u) == len(v) == 1 and u[0] in fa and v[0] == fb[fa.index(u[0])]

        def want2(u, v):
            if u in olds and v in olds:
                return r2.accepts(u, v)
            fu = len(u) == 1 and (u[0] in fa or u[0] in fb)
            fv = len(v) == 1 and (v[0] in fa or v[0] in fb)
            if fu and u[0] in fa and v in olds or u in olds and fv and v[0] in fb:
                return True
            if fu and fv and u[0] in fa and v[0] in fb:
                return fa.index(u[0]) != fb.index(v[0])
            return fu and fv and u[0] in fb and v[0] in fa

        for u in ws:
            for v in ws:
                if l1.accepts(u, v) != want1(u, v):
                    return f"lifted R1 wrong on {(u, v)}"
                if l2.accepts(u, v) != want2(u, v):
                    return f"lifted R2 wrong on {(u, v)}"
        return None
    return check
