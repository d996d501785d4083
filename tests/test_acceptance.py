"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with -s); every stated
tolerance and runtime bound is asserted here, none deferred.
"""

import random
import re
import time
from itertools import product

import pytest

from autorel import automata as au
from autorel import coloring as co
from autorel import definability as de
from autorel import recognizable as rc
from autorel import relations as rel
from autorel import tm

from conftest import (decode_config, encode_config, equiv_oracle, equivalent_rel,
                      min_cover_oracle, random_relation, separator_from_kcoloring,
                      words_upto)

A = ("a",)
AB = ("a", "b")


def report(n, ok, desc):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def parity_colors(alphabet):
    even = au.MultiTrackAutomaton(
        1, alphabet, 2, frozenset({0}), frozenset({0}),
        frozenset({(0, (x,), 1) for x in alphabet}
                  | {(1, (x,), 0) for x in alphabet}))
    odd = au.MultiTrackAutomaton(
        1, alphabet, 2, frozenset({0}), frozenset({1}),
        frozenset({(0, (x,), 1) for x in alphabet}
                  | {(1, (x,), 0) for x in alphabet}))
    return even, odd


def test_acceptance_01_parity_separator():
    t0 = time.perf_counter()
    fc1, fc2 = rel.successor_relation(1), rel.successor_relation(2)
    good = rc.verify_separator(rc.parity_separator(), fc1, fc2)
    even, odd = rc.even_odd_languages()
    mutated = rc.RecognizableRelation(alphabet=A,
                                      products=((even, even), (odd, odd)))
    bad = rc.verify_separator(mutated, fc1, fc2)
    elapsed = time.perf_counter() - t0
    ok = (good.kind == rc.SEPARATES
          and bad.kind == rc.FAILS_DISJOINT
          and bad.witness is not None
          and fc2.contains(*bad.witness)
          and rc.to_automatic(mutated).contains(*bad.witness)
          and elapsed < 1.0)
    report(1, ok, f"parity separator verifies, mutation caught "
                  f"(witness {bad.witness}, {elapsed:.2f}s)")


def test_acceptance_02_offset_chain_colorings():
    ok = True
    times = []
    for c in (1, 2, 3):
        t0 = time.perf_counter()
        n = 2 * c
        ring = {(i, ("a",), (i + 1) % n) for i in range(n)}
        v1 = au.MultiTrackAutomaton(1, A, n, frozenset({0}),
                                    frozenset(range(c)), frozenset(ring))
        v2 = au.MultiTrackAutomaton(1, A, n, frozenset({0}),
                                    frozenset(range(c, n)), frozenset(ring))
        verdict = co.verify_coloring(rel.successor_relation(c),
                                     co.RegularColoring(colors=(v1, v2)))
        times.append(time.perf_counter() - t0)
        ok = ok and verdict.ok and times[-1] < 1.0
    report(2, ok, f"offset-chain colorings proper for c=1,2,3 "
                  f"({', '.join(f'{t:.2f}s' for t in times)})")


def test_acceptance_03_incompatibility_exactness():
    ok = True
    for name, make in (("fc(1)", lambda: rel.successor_relation(1)),
                       ("fc(2)", lambda: rel.successor_relation(2)),
                       ("tree", rel.tree_relation)):
        r = make()
        g = co.incompatibility_graph(r, rel.make_identity(r.alphabet))
        ok = ok and co.graph_equal(g, r)
    report(3, ok, "incomp(R, Id) is exactly the graph of R (exact automata "
                  "equivalence of the undirected edge sets) for fc(1), fc(2), tree")


def test_acceptance_04_length_incompatibility():
    eqlen = rel.equal_length_relation(AB)
    ap1 = rel.append_one_relation(AB)
    g = co.incompatibility_graph(eqlen, ap1)
    pairs = 0
    edges_ok = True
    for u in words_upto(AB, 3):
        for v in words_upto(AB, 3):
            pairs += 1
            if g.contains(u, v) != (abs(len(u) - len(v)) == 1):
                edges_ok = False
    even, odd = parity_colors(AB)
    coloring = co.RegularColoring(colors=(even, odd))
    proper = co.verify_coloring(g, coloring).ok
    s = co.separator_from_coloring(eqlen, ap1, coloring)
    same_parity = au.union(rc.product_relation(even, even).base,
                           rc.product_relation(odd, odd).base)
    sep_ok = au.equivalent(rc.to_automatic(s).base, same_parity)
    ok = edges_ok and pairs >= 64 and proper and sep_ok
    report(4, ok, f"length incompatibility: {pairs} pairs brute-forced, coloring proper, "
                  f"closed-form separator equals same-length-parity")


def test_acceptance_05_reduction_round_trips():
    rng = random.Random(7)
    done = 0
    attempts = 0
    ok = True
    while done < 10 and attempts < 200:
        attempts += 1
        e = random_relation(rng, states=3)
        e = rel.difference_rel(e, rel.make_identity(AB))
        coloring = co.bounded_color_search(e, 2, 2)
        if coloring is None:
            coloring = co.bounded_color_search(e, 3, 2)
        if coloring is None:
            continue
        done += 1
        pair = co.reduce_coloring_to_sep(e)
        sep = separator_from_kcoloring(e, coloring)
        ok = ok and rc.verify_separator(sep.to_recognizable(), *pair).ok
        back = co.coloring_from_separator(sep)
        ok = ok and co.verify_coloring(e, back).ok
        sep2 = separator_from_kcoloring(e, back)
        ok = ok and rc.verify_separator(sep2.to_recognizable(), *pair).ok
    ok = ok and done == 10
    report(5, ok, f"separator/coloring reductions round-trip on {done} random "
                  f"instances ({attempts} draws)")


def test_acceptance_06_definability_decisions():
    a_star = au.determinize_minimize(au.MultiTrackAutomaton(
        1, AB, 1, frozenset({0}), frozenset({0}),
        frozenset({(0, ("a",), 0)})))
    b_star = au.determinize_minimize(au.MultiTrackAutomaton(
        1, AB, 1, frozenset({0}), frozenset({0}),
        frozenset({(0, ("b",), 0)})))
    axb = rc.to_automatic(rc.RecognizableRelation(
        alphabet=AB, products=((a_star, b_star),)))
    sym = rc.to_automatic(rc.RecognizableRelation(
        alphabet=AB, products=((a_star, b_star), (b_star, a_star))))
    fc1 = rel.successor_relation(1)

    checks = []

    t0 = time.perf_counter()
    checks.append(de.min_prod(axb, 3) == 1)
    checks.append(time.perf_counter() - t0 < 5.0)

    t0 = time.perf_counter()
    checks.append(de.min_prod(sym, 3) == 2)
    checks.append(time.perf_counter() - t0 < 5.0)

    t0 = time.perf_counter()
    checks.append(all(de.krec_definability(fc1, k) is None for k in range(1, 7)))
    checks.append(time.perf_counter() - t0 < 5.0)

    t0 = time.perf_counter()
    w = de.krec_definability(axb, 4)
    checks.append(w is not None and len(w.partition) == 4)
    # the witness blocks match the brute-force congruence on words <= 3
    oracle = equiv_oracle(rel.relation(axb.base), 3)
    for cls in oracle:
        block = [i for i, lang in enumerate(w.partition)
                 if au.membership(lang, (cls[0],))]
        checks.append(len(block) == 1)
        checks.append(all(au.membership(w.partition[block[0]], (x,))
                          for x in cls))
    checks.append(time.perf_counter() - t0 < 5.0)

    report(6, all(checks),
           "min_prod(a*xb*)=1, min_prod(sym)=2, fc(1) not kREC for k<=6, "
           "a*xb* 4-block witness matches the brute-force classes")


def test_acceptance_07_equivalence_laws():
    ok = True
    for make in (lambda: rel.successor_relation(1),
                 lambda: rel.successor_relation(2),
                 lambda: rel.tree_relation(),
                 lambda: rel.equal_length_relation(AB),
                 lambda: rel.append_one_relation(AB),
                 lambda: rel.make_identity(AB)):
        r = make()
        eq = de.build_equiv(r)
        ident = rel.make_identity(r.alphabet)
        ok = ok and au.included(ident.base, eq.base)
        ok = ok and equivalent_rel(eq, rel.inverse(eq))
        ok = ok and au.included(rel.compose(eq, eq).base, eq.base)
    report(7, ok, "the congruence is reflexive, symmetric and transitive "
                  "(exact automata checks) on all six fixture relations")


def test_acceptance_08_rectangle_cover_vs_enumeration():
    rng = random.Random(11)
    fixtures = 0
    draws = 0
    ok = True
    while fixtures < 20 and draws < 200:
        draws += 1
        n_states = rng.randint(1, 2)
        table = {(q, x): rng.randrange(n_states)
                 for q in range(n_states) for x in AB}
        langs = []
        for color in range(n_states):
            trans = [(q, (x,), table[(q, x)]) for q in range(n_states) for x in AB]
            langs.append(au.MultiTrackAutomaton(
                1, AB, n_states, frozenset({0}), frozenset({color}),
                frozenset(trans)))
        pairs = [(i, j) for i in range(n_states) for j in range(n_states)
                 if rng.random() < 0.55]
        if not pairs:
            continue
        r = rc.to_automatic(rc.RecognizableRelation(
            alphabet=AB, products=tuple((langs[i], langs[j]) for i, j in pairs)))
        dec = de.decompose(rel.relation(r.base), 5)
        if dec.truncated:
            continue
        fixtures += 1
        ones = de.QuotientMatrix.from_decomposition(dec).ones()
        expect = min_cover_oracle(ones, 4)
        got = next((k for k in range(0, 5)
                    if de.rectangle_cover(ones, k) is not None), None)
        ok = ok and got == expect
    ok = ok and fixtures == 20
    report(8, ok, f"rectangle-cover search equals exhaustive enumeration on "
                  f"{fixtures} quotient matrices of size <= 5")


def test_acceptance_09_tm_pipeline():
    halting = tm.halting_fixture()

    # independent simulator over structurally enumerated configurations
    def step_oracle(t, word):
        parsed = decode_config(word)
        left, sym, state, right = parsed
        if state in t.finals:
            return None
        rule = t.rules.get((state, sym))
        if rule is None:
            return None
        q2, y, d = rule
        if d == tm.RIGHT:
            if right:
                return encode_config(left + (y,), right[0], q2, right[1:])
            return encode_config(left + (y,), t.blank, q2, ())
        if not left:
            return None
        return encode_config(left[:-1], left[-1], q2, (y,) + right)

    def all_configs(t, max_len):
        out = []
        for total in range(1, max_len + 1):
            for i in range(total):
                for pre in product(t.tape, repeat=i):
                    for post in product(t.tape, repeat=total - i - 1):
                        for q in t.states:
                            for s in t.tape:
                                out.append(encode_config(pre, s, q, post))
                            if not post:
                                out.append(encode_config(pre, t.blank, q, ()))
        return out

    g = tm.config_graph(halting)
    expected = set()
    for c in all_configs(halting, 6):
        nxt = step_oracle(halting, c)
        if nxt is not None:
            expected.add((c, nxt))
    got = {p for p in rel.relation_pairs(g, 7) if len(p[0]) <= 6}
    sim_ok = got == expected

    padded = tm.pad_transform(halting)
    gp = tm.config_graph(padded)
    exact_ok = rel.functional(gp) and rel.co_functional(gp)

    looping = tm.pad_transform(tm.looping_fixture())
    gl = tm.config_graph(looping)
    res = tm.reach_bfs(gl, tm.initial_config(looping), 18, max_steps=400)
    shape_ok = True
    for w in res.words:
        p = "".join(c for c in w if c in ("a", "b"))
        if not re.fullmatch(r"a*b*", p) or abs(p.count("a") - p.count("b")) > 2:
            shape_ok = False
    exact2 = rel.functional(gl) and rel.co_functional(gl)

    ok = sim_ok and exact_ok and shape_ok and exact2
    report(9, ok, f"config graph == simulator on {len(expected)} edges "
                  f"(configs <= 6), padded machines exactly reversible, "
                  f"zone projections a^n b^n' with |n-n'| <= 2 over "
                  f"{len(res.words)} explored configurations")


def test_acceptance_10_tagged_gadget():
    t = tm.halting_fixture()
    e = tm.coloring_gadget(t, 2)
    edges = [p for p in rel.relation_pairs(e, 6)
             if len(p[0]) <= 5 and len(p[1]) <= 5]
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    color = {}
    bipartite = True
    for s in adj:
        if s in color:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            cur = stack.pop()
            for nb in adj[cur]:
                if nb not in color:
                    color[nb] = 1 - color[cur]
                    stack.append(nb)
                elif color[nb] == color[cur]:
                    bipartite = False

    reach = set(tm.reach_bfs(tm.config_graph(t), tm.initial_config(t), 8).words)

    def reach_color(word):
        body = word[1:]
        blue = word[0] == "B"
        return 0 if (blue and body in reach) or (not blue and body not in reach) \
            else 1

    proper = all(reach_color(u) != reach_color(v) for u, v in edges)
    ok = bipartite and proper and len(edges) > 0
    report(10, ok, f"tagged gadget slice (<=5): bipartite on {len(edges)} edges, "
                   f"Reach-based 2-coloring proper")


def test_acceptance_11_bounded_search_honesty():
    tree = rel.tree_relation()
    absent = []
    for bound in (2, 3, 4):
        absent.append(co.bounded_color_search(tree, 2, bound) is None)

    eps = au.word_language((), AB)
    ring = {(i, (x,), (i + 1) % 4) for i in range(4) for x in AB}
    low = au.MultiTrackAutomaton(1, AB, 4, frozenset({0}),
                                 frozenset({0, 1}), frozenset(ring))
    v2 = au.determinize_minimize(au.difference(low, eps))
    v3 = au.MultiTrackAutomaton(1, AB, 4, frozenset({0}),
                                frozenset({2, 3}), frozenset(ring))
    three = co.RegularColoring(colors=(eps, v2, v3))
    proper = co.verify_coloring(tree, three).ok
    ok = all(absent) and proper
    report(11, ok, "2-color search over DFAs with <= 4 states finds nothing "
                   "for the tree, while its 3-coloring verifies as proper")
