import os
import random
import subprocess
import sys
from itertools import product

import pytest

from autorel import automata as au
from autorel import coloring as co
from autorel import dot
from autorel import recognizable as rc
from autorel import relations as rel

from conftest import (canonical_dfas_oracle, equivalent_rel, export_dot_oracle, neq_relation,
                      random_nfa, random_relation, separator_from_kcoloring, words_upto)

A = ("a",)
AB = ("a", "b")


def parity_colors(alphabet):
    """(even-length, odd-length) over the alphabet."""
    even = au.MultiTrackAutomaton(
        1, alphabet, 2, frozenset({0}), frozenset({0}),
        frozenset({(0, (x,), 1) for x in alphabet}
                  | {(1, (x,), 0) for x in alphabet}))
    odd = au.MultiTrackAutomaton(
        1, alphabet, 2, frozenset({0}), frozenset({1}),
        frozenset({(0, (x,), 1) for x in alphabet}
                  | {(1, (x,), 0) for x in alphabet}))
    return even, odd


def offset_parity_coloring(c):
    """V1 = {a^n : n mod 2c < c}, V2 the complement, over {a}."""
    n = 2 * c
    ring = {(i, ("a",), (i + 1) % n) for i in range(n)}
    v1 = au.MultiTrackAutomaton(1, A, n, frozenset({0}),
                                frozenset(range(c)), frozenset(ring))
    v2 = au.MultiTrackAutomaton(1, A, n, frozenset({0}),
                                frozenset(range(c, n)), frozenset(ring))
    return co.RegularColoring(colors=(v1, v2))


def tree_three_coloring():
    """{eps}, then words by length mod 4 in {0,1} / {2,3}: the repaired
    regular form of the paper's third color for the tree."""
    eps = au.word_language((), AB)
    ring = {(i, (x,), (i + 1) % 4) for i in range(4) for x in AB}
    low = au.MultiTrackAutomaton(1, AB, 4, frozenset({0}),
                                 frozenset({0, 1}), frozenset(ring))
    v2 = au.determinize_minimize(au.difference(low, eps))
    v3 = au.MultiTrackAutomaton(1, AB, 4, frozenset({0}),
                                frozenset({2, 3}), frozenset(ring))
    return co.RegularColoring(colors=(eps, v2, v3))


# ---------------------------------------------------------------------------
# incompatibility graph

def test_incomp_with_identity_is_the_graph_itself():
    for make in (lambda: rel.successor_relation(1),
                 lambda: rel.successor_relation(2),
                 lambda: rel.tree_relation()):
        r = make()
        ident = rel.make_identity(r.alphabet)
        g = co.incompatibility_graph(r, ident)
        assert co.graph_equal(g, r)
        # and exactly the symmetric closure as a relation
        assert au.equivalent(g.base, rel.symmetric_closure(r).base)


def test_incomp_of_eqlen_and_append_is_length_difference_one():
    eqlen = rel.equal_length_relation(AB)
    ap1 = rel.append_one_relation(AB)
    g = co.incompatibility_graph(eqlen, ap1)
    for u in words_upto(AB, 3):
        for v in words_upto(AB, 3):
            assert g.contains(u, v) == (abs(len(u) - len(v)) == 1)
    assert equivalent_rel(g, rel.inverse(g))


def test_incomp_of_empty_is_empty():
    empty = rel.empty_relation(AB)
    g = co.incompatibility_graph(empty, rel.make_identity(AB))
    assert au.is_empty(g.base)


def test_incomp_identity_with_itself_cross_module_oracle():
    # every word collides with itself through the shared image, nothing else
    ident = rel.make_identity(AB)
    assert au.equivalent(co.incompatibility_graph(ident, ident).base, ident.base)


def _small_colorings(alphabet):
    """Every 2-coloring read off a complete DFA of at most 2 states, and
    one overlapping pair of colors (not a partition)."""
    out = []
    for n in (1, 2):
        for table in co._canonical_dfas(alphabet, n):
            for labels in product(range(2), repeat=n):
                colors = co._dfa_color_languages(alphabet, n, table, labels, 2)
                out.append(co.RegularColoring(colors=tuple(colors)))
    full = au.full_language(alphabet)
    out.append(co.RegularColoring(colors=(full, parity_colors(alphabet)[0])))
    return out


def test_verify_coloring_agrees_on_graph_nfa_and_canonical_graph():
    # separator_from_coloring checks a coloring on the graph's NFA; the
    # verdict and witness must be those of the canonical graph
    eqlen, ap1 = rel.equal_length_relation(AB), rel.append_one_relation(AB)
    instances = [(eqlen, ap1), (ap1, eqlen),
                 (rel.tree_relation(), rel.make_identity(AB)),
                 (rel.successor_relation(1), rel.successor_relation(2))]
    rng = random.Random(7101)
    instances += [(random_relation(rng, states=rng.randint(1, 3)),
                   random_relation(rng, states=rng.randint(1, 3)))
                  for _ in range(8)]
    kinds = set()
    for r1, r2 in instances:
        nfa = co._incompatibility_nfa(r1, r2)
        graph = co.incompatibility_graph(r1, r2)
        assert au.equivalent(nfa.base, graph.base)
        for c in _small_colorings(r1.alphabet):
            verdict = co.verify_coloring(nfa, c)
            assert verdict == co.verify_coloring(graph, c)
            kinds.add(verdict.kind)
    assert kinds == {co.PROPER, co.NOT_PARTITION, co.MONOCHROME_EDGE}


# ---------------------------------------------------------------------------
# verify_coloring

def test_offset_parity_colorings_are_proper():
    for c in (1, 2, 3):
        fc = rel.successor_relation(c)
        assert co.verify_coloring(fc, offset_parity_coloring(c)).ok


def test_tree_three_coloring_proper():
    assert co.verify_coloring(rel.tree_relation(), tree_three_coloring()).ok


def test_identity_graph_one_color_monochrome():
    v = co.verify_coloring(
        rel.make_identity(A),
        co.RegularColoring(colors=(au.full_language(A),)))
    assert v.kind == co.MONOCHROME_EDGE
    assert v.witness == ((), ()) and v.color == 0


def test_not_partition_verdicts():
    even, odd = parity_colors(AB)
    hole = co.verify_coloring(rel.make_identity(AB),
                              co.RegularColoring(colors=(even,)))
    assert hole.kind == co.NOT_PARTITION and hole.witness == ("a",)
    overlap = co.verify_coloring(rel.make_identity(AB),
                                 co.RegularColoring(colors=(even, even, odd)))
    assert overlap.kind == co.NOT_PARTITION and overlap.witness == ()


# ---------------------------------------------------------------------------
# the reductions

def test_reduce_coloring_to_sep_is_edge_identity_pair():
    fc1 = rel.successor_relation(1)
    e, ident = co.reduce_coloring_to_sep(fc1)
    assert e is fc1
    assert equivalent_rel(ident, rel.make_identity(A))


def test_coloring_yields_krec_separator_and_back():
    fc1 = rel.successor_relation(1)
    coloring = offset_parity_coloring(1)
    sep = separator_from_kcoloring(fc1, coloring)
    e, ident = co.reduce_coloring_to_sep(fc1)
    assert rc.verify_separator(sep.to_recognizable(), e, ident).ok
    back = co.coloring_from_separator(sep)
    assert co.verify_coloring(fc1, back).ok


def test_separator_from_coloring_eqlen_append():
    eqlen = rel.equal_length_relation(AB)
    ap1 = rel.append_one_relation(AB)
    even, odd = parity_colors(AB)
    s = co.separator_from_coloring(eqlen, ap1,
                                   co.RegularColoring(colors=(even, odd)))
    same_parity = au.union(rc.product_relation(even, even).base,
                           rc.product_relation(odd, odd).base)
    assert au.equivalent(rc.to_automatic(s).base, same_parity)


def test_separator_from_coloring_offset_instance():
    fc1, fc2 = rel.successor_relation(1), rel.successor_relation(2)
    s = co.separator_from_coloring(fc1, fc2, offset_parity_coloring(1))
    assert au.equivalent(rc.to_automatic(s).base,
                         rc.to_automatic(rc.parity_separator()).base)


def test_separator_from_coloring_empty_instance():
    empty = rel.empty_relation(A)
    s = co.separator_from_coloring(
        empty, empty, co.RegularColoring(colors=(au.full_language(A),)))
    assert au.is_empty(rc.to_automatic(s).base)


def test_separator_from_coloring_rejects_improper():
    fc1, fc2 = rel.successor_relation(1), rel.successor_relation(2)
    with pytest.raises(co.InvalidColoringError) as exc:
        co.separator_from_coloring(
            fc1, fc2, co.RegularColoring(colors=(au.full_language(A),)))
    assert exc.value.verdict.kind == co.MONOCHROME_EDGE


def test_definability_to_separability():
    full = rel.full_relation(AB)
    r1, r2 = co.definability_to_separability(full)
    assert equivalent_rel(r1, full)
    assert au.is_empty(r2.base)
    ident = rel.make_identity(AB)
    _, complement = co.definability_to_separability(ident)
    assert equivalent_rel(complement, neq_relation(AB))
    # any separator of (a* x b*, complement) must equal the relation itself
    from autorel import definability as de
    axb = rc.to_automatic(rc.RecognizableRelation(
        alphabet=AB,
        products=((au.determinize_minimize(au.MultiTrackAutomaton(
            1, AB, 1, frozenset({0}), frozenset({0}),
            frozenset({(0, ("a",), 0)}))),
            au.determinize_minimize(au.MultiTrackAutomaton(
                1, AB, 1, frozenset({0}), frozenset({0}),
                frozenset({(0, ("b",), 0)})))),)))
    r1, r2 = co.definability_to_separability(axb)
    w = de.kprod_definability(axb, 1)
    v = rc.verify_separator(w, r1, r2)
    assert v.ok


# ---------------------------------------------------------------------------
# bounded search

def test_bounded_search_finds_parity_for_fc1():
    found = co.bounded_color_search(rel.successor_relation(1), 2, 2)
    assert found is not None
    assert co.verify_coloring(rel.successor_relation(1), found).ok
    expect = offset_parity_coloring(1)
    assert au.equivalent(found.colors[0], expect.colors[0])


def test_bounded_search_finds_even_odd_lengths():
    eqlen = rel.equal_length_relation(AB)
    ap1 = rel.append_one_relation(AB)
    g = co.incompatibility_graph(eqlen, ap1)
    found = co.bounded_color_search(g, 2, 2)
    assert found is not None
    even, odd = parity_colors(AB)
    assert au.equivalent(found.colors[0], even)
    assert au.equivalent(found.colors[1], odd)


def test_bounded_search_tree_absent_small_bounds():
    tree = rel.tree_relation()
    assert co.bounded_color_search(tree, 2, 3) is None


@pytest.mark.parametrize("alphabet, nmax", [("a", 4), ("ab", 4), ("abc", 3)])
def test_canonical_dfas_match_the_filter_oracle(alphabet, nmax):
    for n in range(1, nmax + 1):
        assert list(co._canonical_dfas(alphabet, n)) == list(canonical_dfas_oracle(alphabet, n))


def test_canonical_dfas_count_at_five_states():
    assert sum(1 for _ in co._canonical_dfas("ab", 5)) == 160_675


def test_first_canonical_dfa_over_many_letters_comes_at_once():
    # a filter over all tables scans 2^40 of them before this first one
    code = ("from autorel import coloring as co\n"
            "print(next(co._canonical_dfas([f'x{i}' for i in range(40)], 2)))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(co.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=30)
    assert done.stdout == f"{(0,) * 39 + (1,) + (0,) * 40}\n"


def test_bounded_search_budget_distinct():
    # each candidate coloring charges one unit: the whole bounded space
    # holds no coloring, and one unit less raises instead of answering
    tree = rel.tree_relation()
    with au.state_budget():
        assert co.bounded_color_search(tree, 2, 3) is None
        candidates = au._active_budget().used
    with pytest.raises(au.BudgetExceededError), au.state_budget(candidates - 1):
        co.bounded_color_search(tree, 2, 3)


def test_symmetric_two_product_bridge():
    # for symmetric R: (A, B) colors the graph of R iff (AxB) u (BxA)
    # separates R from the identity -- checked both ways on sym(fc1)
    r = rel.symmetric_closure(rel.successor_relation(1))
    ident = rel.make_identity(A)
    even, odd = parity_colors(A)
    coloring = co.RegularColoring(colors=(even, odd))
    assert co.verify_coloring(r, coloring).ok
    two_prod = rc.RecognizableRelation(alphabet=A,
                                       products=((even, odd), (odd, even)))
    assert rc.verify_separator(two_prod, r, ident).ok
    # and back: a verified separator of that shape is a proper coloring
    back = co.RegularColoring(colors=(two_prod.products[0][0],
                                      two_prod.products[0][1]))
    assert co.verify_coloring(r, back).ok


def test_normalized_separator_still_separates():
    fc1, fc2 = rel.successor_relation(1), rel.successor_relation(2)
    out = rc.normalize_symmetric_separator(rc.parity_separator())
    assert rc.verify_separator(out, fc1, fc2).ok


# ---------------------------------------------------------------------------
# instance-level round trips between separators and colorings

def test_round_trips_on_random_instances(rng):
    done = 0
    attempts = 0
    while done < 4 and attempts < 60:
        attempts += 1
        e = random_relation(rng, states=3)
        e = rel.difference_rel(e, rel.make_identity(AB))  # no self-loops
        coloring = co.bounded_color_search(e, 2, 2)
        if coloring is None:
            coloring = co.bounded_color_search(e, 3, 2)
        if coloring is None:
            continue
        done += 1
        # coloring -> separator of (E, Id) -> coloring
        sep = separator_from_kcoloring(e, coloring)
        pair = co.reduce_coloring_to_sep(e)
        assert rc.verify_separator(sep.to_recognizable(), *pair).ok
        back = co.coloring_from_separator(sep)
        assert co.verify_coloring(e, back).ok
        # separator -> coloring -> separator
        again = separator_from_kcoloring(e, back)
        assert rc.verify_separator(again.to_recognizable(), *pair).ok
    assert done == 4


def test_export_dot_lists_the_edges_the_membership_loop_finds():
    eqlen, ap1 = rel.equal_length_relation(AB), rel.append_one_relation(AB)
    nfa = au.restrict_valid_pad(random_nfa(random.Random(4242), 2, AB, 4))
    assert not nfa.deterministic
    cases = [
        (rel.successor_relation(1), None, None),
        (rel.tree_relation(), None, None),
        (eqlen, co.RegularColoring(colors=parity_colors(AB)), ap1),
        (rel.finite_relation([(("a", "b"), ("ab",)), (("ab",), ())], ("a", "b", "ab")),
         None, None),
        (rel.relation(nfa), None, eqlen),
    ]
    for e, coloring, secondary in cases:
        for max_len in range(6):
            want = export_dot_oracle(e, max_len, coloring, secondary)
            assert dot.export_dot(e, max_len, coloring, secondary) == want, (e, max_len)
