import random

import pytest

from autorel import automata as au
from autorel import coloring as co
from autorel import recognizable as rc
from autorel import relations as rel

from conftest import (epsilon_language, lift_to_kprod_oracle, partition_ok_oracle,
                      product_oracle, random_language, random_relation, words_upto)

A = ("a",)
AB = ("a", "b")


def lang(regex_like, alphabet):
    """Tiny helper: builds a*, b*, a+, b+ over the alphabet."""
    letter = regex_like[0]
    if regex_like.endswith("*"):
        return au.determinize_minimize(au.MultiTrackAutomaton(
            1, alphabet, 1, frozenset({0}), frozenset({0}),
            frozenset({(0, (letter,), 0)})))
    return au.determinize_minimize(au.MultiTrackAutomaton(
        1, alphabet, 2, frozenset({0}), frozenset({1}),
        frozenset({(0, (letter,), 1), (1, (letter,), 1)})))


def test_to_automatic_examples():
    s = rc.RecognizableRelation(alphabet=AB, products=((lang("a*", AB), lang("b*", AB)),))
    auto = rc.to_automatic(s)
    assert auto.contains("aa", "b")
    assert not auto.contains("b", "aa")
    empty = rel.empty_relation(AB)
    assert au.is_empty(rc.to_automatic(
        rc.RecognizableRelation(alphabet=AB, products=())).base)
    assert au.is_empty(empty.base)


def test_product_relation_matches_cylindrify_oracle(rng):
    langs = [au.empty_language(1, AB), epsilon_language(1, AB),
             au.full_language(AB)]
    langs += [random_language(rng, density=rng.choice((0.2, 0.5, 0.8)))
              for _ in range(12)]
    for left in langs:
        for right in langs:
            got = rc.product_relation(left, right).base
            assert au.satisfies_valid_pad(got)
            assert au.equivalent(got, product_oracle(left, right))


def test_product_relation_rejects_mismatched_operands():
    with pytest.raises(au.ArityMismatchError):
        rc.product_relation(rel.successor_relation(1).base, au.full_language(A))
    with pytest.raises(au.ArityMismatchError):
        rc.product_relation(au.full_language(A), au.full_language(AB))


def test_parity_separator_membership():
    s2 = rc.to_automatic(rc.parity_separator())
    assert s2.contains("", "a")
    # (a, aa) lands in odd x even, and it must be in S anyway since S
    # contains all of {(a^n, a^{n+1})}
    assert s2.contains("a", "aa")
    assert not s2.contains("a", "aaa")
    assert not s2.contains("", "aa")


def test_verify_separator_parity():
    fc1, fc2 = rel.successor_relation(1), rel.successor_relation(2)
    v = rc.verify_separator(rc.parity_separator(), fc1, fc2)
    assert v.ok and v.witness is None


def test_verify_separator_full_relation_hits_identity():
    full1 = au.full_language(A)
    s = rc.RecognizableRelation(alphabet=A, products=((full1, full1),))
    ident = rel.make_identity(A)
    v = rc.verify_separator(s, ident, ident)
    assert v.kind == rc.FAILS_DISJOINT
    assert v.witness == ((), ())


def test_verify_separator_swapped_instance():
    # swapping R1/R2 breaks both conditions; the containment
    # witness is the shortlex-least pair of fc(2) outside S
    fc1, fc2 = rel.successor_relation(1), rel.successor_relation(2)
    v = rc.verify_separator(rc.parity_separator(), fc2, fc1)
    assert not v.ok
    assert v.containment_witness == ((), ("a", "a"))
    assert v.disjoint_witness is not None


def test_verdict_witnesses_really_lie_in_the_stated_languages():
    fc1, fc2 = rel.successor_relation(1), rel.successor_relation(2)
    even, odd = rc.even_odd_languages()
    bad = rc.RecognizableRelation(alphabet=A, products=((even, even), (odd, odd)))
    v = rc.verify_separator(bad, fc1, fc2)
    assert v.kind == rc.FAILS_DISJOINT
    assert fc2.contains(*v.disjoint_witness)
    assert rc.to_automatic(bad).contains(*v.disjoint_witness)
    assert fc1.contains(*v.containment_witness)
    assert not rc.to_automatic(bad).contains(*v.containment_witness)


def test_one_prod_separability_examples():
    r1 = rel.finite_relation([("a", "b")], AB)
    r2 = rel.finite_relation([("b", "a")], AB)
    s = rc.one_prod_separability(r1, r2)
    assert s is not None and len(s.products) == 1
    left, right = s.products[0]
    assert set(au.iter_words(left, 2)) == {("a",)}
    assert set(au.iter_words(right, 2)) == {("b",)}

    fc1, fc2 = rel.successor_relation(1), rel.successor_relation(2)
    assert rc.one_prod_separability(fc1, fc2) is None
    # the definitive-no witness: pi1 x pi2 = a* x a+ already meets fc2 at (eps, aa)
    cand = rc.RecognizableRelation(
        alphabet=A,
        products=((au.determinize_minimize(rel.project_first(fc1)),
                   au.determinize_minimize(rel.project_second(fc1))),))
    assert rc.verify_separator(cand, fc1, fc2).witness == ((), ("a", "a"))

    empty = rel.empty_relation(A)
    s0 = rc.one_prod_separability(empty, fc1)
    assert s0 is not None
    assert s0.empty_products() == [0]


def test_normalize_symmetric_separator_fixed_points():
    s2 = rc.parity_separator()
    out = rc.normalize_symmetric_separator(s2)
    direct = au.intersect(rc.to_automatic(s2).base, rel.inverse(rc.to_automatic(s2)).base)
    assert au.equivalent(rc.to_automatic(out).base, direct)
    assert au.equivalent(rc.to_automatic(out).base, rc.to_automatic(s2).base)

    ab = rc.RecognizableRelation(
        alphabet=AB, products=((lang("a*", AB), lang("b*", AB)),
                               (lang("b*", AB), lang("a*", AB))))
    with pytest.raises(rc.NotApplicableError):
        # a* and b* share the empty word, so the sides are not disjoint
        rc.normalize_symmetric_separator(ab)


def test_normalize_symmetric_separator_closed_formula():
    s = rc.RecognizableRelation(
        alphabet=AB, products=((lang("a*", AB), lang("b+", AB)),
                               (lang("b*", AB), lang("a+", AB))))
    out = rc.normalize_symmetric_separator(s)
    direct = au.intersect(rc.to_automatic(s).base,
                          rel.inverse(rc.to_automatic(s)).base)
    assert au.equivalent(rc.to_automatic(out).base, direct)
    # output is symmetric by shape
    assert au.equivalent(rc.to_automatic(out).base,
                         rel.inverse(rc.to_automatic(out)).base)


def test_normalize_symmetric_separator_is_the_symmetric_core_on_random_instances():
    # A1 x B1 u B2 x A2 with A_i cap B_i empty: the closed form is S cap S^-1.
    # A1 and A2 share a core so that A1 cap A2, and so the result, is often
    # not empty; B_i is a random language or Sigma*, minus A_i
    rng = random.Random(7802)
    nonempty = 0
    for i in range(220):
        alphabet = (AB, ("a", "b", "c"), ("b", "a"))[i % 3]
        core, x1, x2, y1, y2 = (random_language(rng, alphabet, states=rng.randint(2, 3))
                                for _ in range(5))
        if i % 2:
            y1 = y2 = au.full_language(alphabet)
        a1, a2 = au.union(core, x1), au.union(core, x2)
        b1, b2 = au.difference(y1, a1), au.difference(y2, a2)
        s = rc.RecognizableRelation(alphabet=alphabet, products=((a1, b1), (b2, a2)))
        got = rc.to_automatic(rc.normalize_symmetric_separator(s)).base
        direct = au.intersect(rc.to_automatic(s).base, rel.inverse(rc.to_automatic(s)).base)
        assert au.equivalent(got, direct), [au.dumps(x) for x in (a1, b1, b2, a2)]
        nonempty += not au.is_empty(got)
    assert nonempty >= 50


def test_normalize_requires_two_products():
    one = rc.RecognizableRelation(alphabet=AB,
                                  products=((lang("a*", AB), lang("b+", AB)),))
    with pytest.raises(rc.NotApplicableError):
        rc.normalize_symmetric_separator(one)


def test_lift_to_kprod_small_cases():
    fc1, fc2 = rel.successor_relation(1), rel.successor_relation(2)
    assert rc.lift_to_kprod(fc1, fc2, 2) == (fc1, fc2)
    l1, l2 = rc.lift_to_kprod(fc1, fc2, 3)
    assert l1.contains(("a#1",), ("b#1",))
    assert l2.contains(("a#1",), ())
    assert l2.contains(("a",), ("b#1",))
    assert l2.contains(("b#1",), ("a#1",))
    assert not l2.contains(("a#1",), ("b#1",))
    # the original pairs survive unchanged
    assert l1.contains(("a",), ("a", "a"))


def test_lift_to_kprod_k4_cross_pairs():
    fc1, fc2 = rel.successor_relation(1), rel.successor_relation(2)
    l1, l2 = rc.lift_to_kprod(fc1, fc2, 4)
    assert l1.contains(("a#2",), ("b#2",))
    assert l2.contains(("a#1",), ("b#2",))
    assert l2.contains(("b#2",), ("a#1",))
    assert not l2.contains(("a#2",), ("b#2",))


def test_lift_separator_transfer():
    fc1, fc2 = rel.successor_relation(1), rel.successor_relation(2)
    k = 4
    l1, l2 = rc.lift_to_kprod(fc1, fc2, k)
    alpha = l1.alphabet
    base = rc.parity_separator()
    products = tuple(
        (au.extend_alphabet(l, alpha), au.extend_alphabet(r, alpha))
        for l, r in base.products)
    for i in range(1, k - 1):
        products += ((au.word_language((f"a#{i}",), alpha),
                      au.word_language((f"b#{i}",), alpha)),)
    lifted = rc.RecognizableRelation(alphabet=alpha, products=products)
    assert rc.verify_separator(lifted, l1, l2).ok


def test_lift_matches_the_product_oracle():
    # a 2-state and a 4-state DFA give the bytes of the O(k^2) products
    rng = random.Random(3131)
    pairs = [(rel.successor_relation(1), rel.successor_relation(2)),
             (rel.equal_length_relation(AB), rel.append_one_relation(AB)),
             (rel.tree_relation(), rel.make_identity(AB))]
    for _ in range(20):
        alpha = rng.choice((A, AB, ("a", "b", "c")))
        pairs.append((random_relation(rng, alpha, rng.randint(1, 3)),
                      random_relation(rng, alpha, rng.randint(1, 3))))
    for r1, r2 in pairs:
        for k in range(3, 9):
            (l1, l2), (o1, o2) = rc.lift_to_kprod(r1, r2, k), lift_to_kprod_oracle(r1, r2, k)
            assert au.dumps(au.determinize_minimize(l1.base)) == \
                au.dumps(au.determinize_minimize(o1.base)), (r1, r2, k)
            assert au.dumps(l2.base) == au.dumps(o2.base), (r1, r2, k)


def test_lift_charges_its_fresh_pair_columns_before_writing_them():
    # the fresh pairs are two DFAs of 2 and 4 states, so only the charge for
    # the 2(k-2)^2 columns between two fresh letters exhausts the budget
    fc1, fc2 = rel.successor_relation(1), rel.successor_relation(2)
    with au.state_budget(1000), pytest.raises(au.BudgetExceededError):
        rc.lift_to_kprod(fc1, fc2, 100)
    with au.state_budget():
        rc.lift_to_kprod(fc1, fc2, 100)
        assert 2 * 98 ** 2 < au._active_budget().used < 2 * 98 ** 2 + 20


def test_lift_symbol_clash():
    clash = rel.finite_relation([("a", "b")], ("a", "b", "a#1"))
    with pytest.raises(rc.SymbolClashError):
        rc.lift_to_kprod(clash, clash, 3)


def test_partitioned_witness_and_json():
    even, odd = rc.even_odd_languages()
    p = rc.PartitionedRecognizable(partition=(even, odd),
                                   pairs=frozenset({(0, 1), (1, 0)}))
    assert p.is_partition()
    s = p.to_recognizable()
    assert len(s.products) == 2
    text = rc.dumps_partitioned(p)
    assert rc.dumps_partitioned(rc.loads_partitioned(text)) == text
    text2 = rc.dumps_recognizable(s)
    assert rc.dumps_recognizable(rc.loads_recognizable(text2)) == text2


def test_partition_ok_reports_least_witness():
    even, odd = rc.even_odd_languages()
    assert rc.partition_ok((even, odd)) is None
    assert rc.partition_ok((even, even)) is not None
    gap = rc.partition_ok((even,))
    assert gap == ("a",)


def test_partition_ok_of_no_blocks_is_the_empty_word():
    # with no blocks, the empty word lies in none of them
    assert rc.partition_ok(()) == ()


def test_partition_ok_ranks_witnesses_in_alphabet_order():
    # Sigma* overlaps {a} and {b}; over the alphabet (b, a) the shortlex-least
    # overlap is b, though "a" sorts first as a string
    ba = ("b", "a")
    blocks = (au.full_language(ba), au.word_language(("a",), ba),
              au.word_language(("b",), ba))
    assert rc.partition_ok(blocks) == ("b",)
    verdict = co.verify_coloring(rel.make_identity(ba), co.RegularColoring(blocks))
    assert (verdict.kind, verdict.witness) == (co.NOT_PARTITION, ("b",))


def _state_partition(rng, alphabet, n):
    """The blocks {w | a complete random DFA ends in state i on w}."""
    trans = frozenset((q, (x,), rng.randrange(n)) for q in range(n) for x in alphabet)
    return tuple(au.MultiTrackAutomaton(1, alphabet, n, frozenset({0}),
                                        frozenset({i}), trans)
                 for i in range(n))


def test_partition_ok_matches_brute_force_on_random_blocks():
    # words_upto lists the words in shortlex order of the given alphabet
    rng = random.Random(7101)
    for i in range(400):
        alphabet = ("b", "a") if i % 3 == 2 else AB
        if i % 4 == 3:
            blocks = _state_partition(rng, alphabet, rng.randint(1, 4))
        else:
            blocks = tuple(random_language(rng, alphabet, states=rng.randint(2, 3))
                           for _ in range(rng.randint(1, 4)))
        got = rc.partition_ok(blocks)
        bad = [w for w in words_upto(alphabet, 5)
               if sum(b.accepts_columns([(x,) for x in w]) for b in blocks) != 1]
        if bad:
            assert got == bad[0]
        else:
            assert got is None or len(got) > 5
            assert i % 4 != 3 or got is None


def _coloring_blocks(rng, alphabet, k):
    """k blocks labeling the states of one random complete DFA, as the
    coloring search builds them: a partition, maybe with empty blocks."""
    n = rng.randint(1, 4)
    table = [rng.randrange(n) for _ in range(n * len(alphabet))]
    labels = [rng.randrange(k) for _ in range(n)]
    return co._dfa_color_languages(alphabet, n, table, labels, k)


def _relabeled(block, accepting):
    return au.MultiTrackAutomaton(1, block.alphabet, block.states, block.initial,
                                  frozenset(accepting), block.transitions)


def test_partition_ok_matches_the_composition_oracle_on_random_blocks():
    # true partitions, gaps (a block dropped or a state unlabeled), overlaps
    # (a state labeled twice) and random NFA blocks, k = 1..4, over ab and
    # (b, a); a witness lies in no block (a gap) or in two (an overlap)
    rng = random.Random(7102)
    seen = set()
    for i in range(800):
        alphabet = ("b", "a") if i % 3 == 2 else AB
        k = 1 + i % 4
        blocks = _coloring_blocks(rng, alphabet, k)
        kind = i // 4 % 4
        j = rng.randrange(k)
        if kind == 1 and k > 1 and rng.random() < 0.5:
            blocks = blocks[:j] + blocks[j + 1:]
        elif kind == 1:
            b = blocks[j]
            blocks[j] = _relabeled(b, rng.sample(sorted(b.accepting), max(len(b.accepting) - 1, 0)))
        elif kind == 2:
            b = blocks[j]
            blocks[j] = _relabeled(b, b.accepting | {rng.randrange(b.states)})
        elif kind == 3:
            for j in rng.sample(range(k), rng.randint(1, k)):
                blocks[j] = random_language(rng, alphabet, states=rng.randint(2, 4))
        got = rc.partition_ok(blocks)
        assert got == partition_ok_oracle(blocks), [au.dumps(b) for b in blocks]
        hits = None if got is None else sum(
            b.accepts_columns([(x,) for x in got]) for b in blocks)
        assert hits != 1
        seen.add((kind, alphabet, k, "partition" if got is None else
                  "gap" if hits == 0 else "overlap"))
    for alphabet in (AB, ("b", "a")):
        for k in range(1, 5):
            assert (0, alphabet, k, "partition") in seen
        assert {(1, alphabet, k, "gap") for k in (2, 3, 4)} <= seen
        assert {(2, alphabet, k, "overlap") for k in (2, 3, 4)} <= seen
        assert {(3, alphabet, k, verdict) for k in (2, 3, 4)
                for verdict in ("gap", "overlap")} <= seen


def test_partition_ok_rejects_blocks_of_mixed_shapes():
    ab, ba = au.full_language(AB), au.full_language(("b", "a"))
    pairs = rel.make_identity(AB).base
    for blocks in ((ab, ba), (ba, ab), (ab, pairs), (pairs, ab), (pairs,), (pairs, pairs),
                   (ab, au.word_language(("a",), ("a", "b", "c")))):
        with pytest.raises(au.ArityMismatchError):
            rc.partition_ok(blocks)
        with pytest.raises(au.ArityMismatchError):
            partition_ok_oracle(blocks)


def test_partition_ok_builds_no_automaton(monkeypatch):
    even, odd = rc.even_odd_languages()
    nfa_blocks = (random_language(random.Random(7103), AB), au.full_language(AB))
    cases = [(even, odd), (even,), (even, even, odd), nfa_blocks,
             tuple(_coloring_blocks(random.Random(7104), AB, 3))]
    expect = [partition_ok_oracle(blocks) for blocks in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("partition_ok built an automaton or ran a second search")

    for name in ("union", "intersect", "difference", "emptiness_shortest"):
        monkeypatch.setattr(au, name, refuse)
    assert [rc.partition_ok(blocks) for blocks in cases] == expect
    assert expect[0] is None and expect[1] == ("a",) and expect[2] == ()

