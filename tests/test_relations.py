import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from autorel import automata as au
from autorel import relations as rel

from conftest import (co_functional_oracle, equivalent_rel, from_word_list,
                      functional_oracle, pairs_upto, random_padded_relation,
                      random_relation, successor_words_oracle, words_upto)

A = ("a",)
AB = ("a", "b")


# pair-definition oracles, used to pin the fixtures to their definitions
def oracle_fc(c):
    return lambda u, v: set(u) <= {"a"} and set(v) <= {"a"} \
        and len(v) == len(u) + c


def oracle_tree(u, v):
    su, sv = "".join(u), "".join(v)
    if su == "" and sv and (set(sv) <= {"a"} or set(sv) <= {"b"}):
        return True
    # diagonal: a^p b^q -> a^{p+1} b^{q+1}
    if not ("ba" in su or "ba" in sv):
        p, q = su.count("a"), su.count("b")
        return sv == "a" * (p + 1) + "b" * (q + 1)
    return False


def oracle_append_one(u, v):
    return len(v) == len(u) + 1 and v[:len(u)] == u


def oracle_equal_length(u, v):
    return len(u) == len(v)


@pytest.mark.parametrize("fixture,oracle", [
    (rel.successor_relation(1), oracle_fc(1)),
    (rel.successor_relation(2), oracle_fc(2)),
    (rel.tree_relation(), oracle_tree),
    (rel.append_one_relation(AB), oracle_append_one),
    (rel.equal_length_relation(AB), oracle_equal_length),
])
def test_fixture_matches_pair_definition(fixture, oracle):
    ws = words_upto(fixture.alphabet, 4)
    for u in ws:
        for v in ws:
            assert fixture.contains(u, v) == oracle(u, v), (u, v)


def test_paper_membership_spot_checks():
    fc1 = rel.successor_relation(1)
    assert fc1.contains("aa", "aaa")
    tree = rel.tree_relation()
    assert tree.contains("", "a") and tree.contains("", "bb")
    assert tree.contains("ab", "aabb")
    ap = rel.append_one_relation(AB)
    assert ap.contains("ba", "baa") and ap.contains("ba", "bab")


def test_identity():
    ident = rel.make_identity(AB)
    assert ident.contains("ab", "ab")
    assert not ident.contains("a", "aa")
    assert au.equivalent(rel.project_first(ident), au.full_language(AB))


def test_inverse_and_symmetric_closure():
    fc1 = rel.successor_relation(1)
    inv = rel.inverse(fc1)
    assert inv.contains("aaa", "aa")
    assert equivalent_rel(rel.inverse(inv), fc1)
    sym = rel.symmetric_closure(fc1)
    assert sym.contains("a", "aa") and sym.contains("aa", "a")
    assert equivalent_rel(rel.symmetric_closure(sym), sym)
    assert equivalent_rel(sym, rel.union_rel(fc1, rel.inverse(fc1)))


def test_compose_examples():
    fc1, fc2 = rel.successor_relation(1), rel.successor_relation(2)
    assert equivalent_rel(rel.compose(fc1, fc1), fc2)
    ident = rel.make_identity(A)
    assert equivalent_rel(rel.compose(ident, fc1), fc1)
    empty = rel.empty_relation(A)
    assert au.is_empty(rel.compose(fc1, empty).base)


def test_image_preimage_examples():
    fc1 = rel.successor_relation(1)
    img = rel.image(fc1, au.word_language((), A))
    assert au.equivalent(img, au.word_language(("a",), A))
    eqlen = rel.equal_length_relation(AB)
    a_star = au.determinize_minimize(
        au.MultiTrackAutomaton(2 - 1, AB, 1, frozenset({0}), frozenset({0}),
                               frozenset({(0, ("a",), 0)})))
    assert au.equivalent(rel.image(eqlen, a_star), au.full_language(AB))
    lang = from_word_list([("a",), ("b", "b")], AB)
    assert au.equivalent(rel.preimage(rel.make_identity(AB), lang), lang)


def test_init_set_examples():
    fc1 = rel.successor_relation(1)
    assert au.equivalent(rel.init_set(fc1), au.word_language((), A))
    assert au.is_empty(rel.init_set(rel.make_identity(AB)))
    fc2ab = rel.successor_relation(2, AB)
    init = rel.init_set(fc2ab)
    for w in words_upto(AB, 4):
        expected = "b" in w or w in ((), ("a",))
        assert au.membership(init, (w,)) == expected


def test_init_set_partitions_against_second_projection():
    for r in (rel.successor_relation(1), rel.tree_relation()):
        init = rel.init_set(r)
        pi2 = rel.project_second(r)
        assert au.is_empty(au.intersect(init, pi2))
        assert au.equivalent(au.union(init, pi2), au.full_language(r.alphabet))


def test_functionality_examples():
    fc1 = rel.successor_relation(1)
    assert rel.functional(fc1) and rel.co_functional(fc1)
    branch = rel.finite_relation([("", "a"), ("", "b")], AB)
    assert not rel.functional(branch)
    assert rel.co_functional(branch)
    eqlen = rel.equal_length_relation(AB)
    assert not rel.functional(eqlen) and not rel.co_functional(eqlen)


def test_functionality_agrees_with_composition_oracle(rng):
    outcomes = set()
    for i in range(120):
        density = rng.choice((0.05, 0.1, 0.15, 0.25, 0.5))
        if i % 2:
            r = random_relation(rng, density=density)
        else:
            alphabet = rng.choice((AB, ("a", "b", "c")))
            r = random_padded_relation(rng, alphabet, density=density)
        got = (rel.functional(r), rel.co_functional(r))
        assert got == (functional_oracle(r), co_functional_oracle(r))
        outcomes.add((i % 2,) + got)
    # both outcomes of both checks, on minimal DFAs and on raw NFAs
    assert len(outcomes) == 8


def test_relation_requires_two_tracks_and_valid_padding():
    with pytest.raises(au.ArityMismatchError):
        rel.relation(au.full_language(AB))
    # a pad-then-letter automaton is rejected
    bad = au.MultiTrackAutomaton(
        2, AB, 2, frozenset({0}), frozenset({1}),
        frozenset({(0, (au.PAD, "a"), 1), (1, ("a", "a"), 1)}))
    with pytest.raises(au.AutomataError):
        rel.relation(bad)


def test_successor_and_predecessor_words():
    tree = rel.tree_relation()
    assert rel.successor_words(tree, ("a",), 4) == [("a", "a", "b")]
    assert rel.successor_words(rel.inverse(tree), ("a",), 2) == [()]
    fc1 = rel.successor_relation(1)
    assert rel.successor_words(fc1, (), 3) == [("a",)]


def test_successor_words_match_membership(rng):
    ws = words_upto(AB, 3)
    for _ in range(12):
        r = random_relation(rng, AB, rng.randint(1, 3))
        for u in words_upto(AB, 2):
            assert rel.successor_words(r, u, 3) == [v for v in ws if r.contains(u, v)]
            assert rel.successor_words(rel.inverse(r), u, 3) == \
                [v for v in ws if r.contains(v, u)]
    with pytest.raises(au.UnknownSymbolError):
        rel.successor_words(rel.successor_relation(1), ("z",), 3)


@pytest.mark.parametrize("alphabet", [AB, ("a", "b", "c")])
def test_words_beside_one_word_match_the_join(rng, alphabet):
    # canonical DFAs, NFAs with up to three initial states, and unions whose
    # two parts both read (x, x), so that one prefix reaches several pairs
    draws = [random_relation(rng, alphabet, rng.randint(1, 4)) for _ in range(8)]
    draws += [random_padded_relation(rng, alphabet, rng.randint(3, 5)) for _ in range(8)]
    draws += [rel.union_rel(rel.make_identity(alphabet), rel.equal_length_relation(alphabet)),
              rel.union_rel(rel.append_one_relation(alphabet), rel.make_identity(alphabet))]
    assert any(r.base.deterministic for r in draws)
    assert any(not r.base.deterministic for r in draws)
    for r in draws:
        inv = rel.inverse(r)
        for w in words_upto(alphabet, 3):
            succ, pred = successor_words_oracle(r, w, 4), successor_words_oracle(inv, w, 4)
            for m in range(5):
                assert rel.successor_words(r, w, m) == [v for v in succ if len(v) <= m]
                assert rel.predecessor_words(r, w, m) == [u for u in pred if len(u) <= m]


def test_words_beside_one_word_charge_each_pair():
    # a^50 beside fc1 walks at least the 51 pairs (i, 0), i <= 50
    fc1 = rel.successor_relation(1)
    with au.state_budget(20), pytest.raises(au.BudgetExceededError):
        rel.successor_words(fc1, ("a",) * 50, 60)
    with au.state_budget(60):
        assert rel.successor_words(fc1, ("a",) * 50, 60) == [("a",) * 51]
    with pytest.raises(au.UnknownSymbolError):
        rel.predecessor_words(fc1, ("a", "z"), 3)


def test_fixture_registry():
    assert rel.fixtures("fc", c=2).contains("a", "aaa")
    assert rel.fixtures("tree").contains("", "a")
    assert rel.fixtures("equal-length").contains("ab", "ba")
    assert rel.fixtures("append-one").contains("", "b")
    assert rel.fixtures("identity", alphabet=A).contains("a", "a")
    with pytest.raises(rel.FixtureError):
        rel.fixtures("nope")


def test_gadget_fixture_without_a_machine_names_the_parameter():
    with pytest.raises(rel.FixtureError, match="machine="):
        rel.fixtures("gadget")


def test_successor_relation_charges_its_states_before_building_them():
    with au.state_budget(10), pytest.raises(au.BudgetExceededError):
        rel.successor_relation(10)
    for c in (1, 2, 7):
        with au.state_budget(100):
            r = rel.successor_relation(c)
            assert au._active_budget().used == c + 1 == r.base.states


def test_relation_spec_parsing():
    fc1 = rel.successor_relation(1)
    got = rel.parse_relation_spec("(union (fc 1) (inverse (fc 1)))", A)
    assert equivalent_rel(got, rel.symmetric_closure(fc1))
    pairs = rel.parse_relation_spec('(pairs (a b) (b a))', AB)
    assert pairs.contains("a", "b") and pairs.contains("b", "a")
    assert not pairs.contains("a", "a")
    comp = rel.parse_relation_spec("(compose (fc 1) (fc 1))", A)
    assert equivalent_rel(comp, rel.successor_relation(2))
    with pytest.raises(au.AutomataError):
        rel.parse_relation_spec("(union (fc 1)", A)


@pytest.mark.parametrize("spec, message", [
    ("", "empty relation spec"),
    (")", "unexpected ) in relation spec"),
    ("(fc 1) )", "trailing input in relation spec: ')'"),
    ("(union (fc 1)", "unbalanced parenthesis in relation spec"),
    ("(fc 1) x (y) z w", "trailing input in relation spec: 'x (y) z w'"),
    ("(fc 1) ((fc 2)", "trailing input in relation spec: '((fc 2)'"),
    ("(inverse " * 2000, "relation spec nested too deeply"),
])
def test_relation_spec_parse_errors(spec, message):
    with pytest.raises(au.AutomataError) as info:
        rel.parse_relation_spec(spec, A)
    assert str(info.value) == message


def test_relation_spec_parses_in_linear_time():
    # 64,003 tokens in one list, refused only once parsed: a parse that
    # copies the tokens left at every token takes seconds on this input
    spec = "(no-such" + " a" * 64_000 + " \"a\")"
    start = time.perf_counter()
    with pytest.raises(au.AutomataError, match="unknown relation constructor 'no-such'"):
        rel.parse_relation_spec(spec, A)
    assert time.perf_counter() - start < 1.0


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_compose_is_associative_on_small_relations(seed):
    import random
    rng = random.Random(seed)
    r1 = random_relation(rng, states=2)
    r2 = random_relation(rng, states=2)
    r3 = random_relation(rng, states=2)
    left = rel.compose(rel.compose(r1, r2), r3)
    right = rel.compose(r1, rel.compose(r2, r3))
    assert equivalent_rel(left, right)


def test_fixture_membership_agrees_with_pair_enumeration(rng):
    r = random_relation(rng)
    pairs = pairs_upto(r, 3)
    enumerated = {p for p in rel.relation_pairs(r, 4)
                  if len(p[0]) <= 3 and len(p[1]) <= 3}
    assert pairs == enumerated


def _fresh_copy(r):
    """The same relation in a new object, with no join grouping kept yet."""
    b = r.base
    return rel._wrap(au._freeze(2, b.alphabet, b.states, b.initial, b.accepting,
                                b.transitions))


def test_joins_reuse_the_grouping_kept_on_their_operand(rng):
    # images and preimages through one relation, in turn, against the same
    # joins through fresh copies
    for _ in range(20):
        r = random_relation(rng, AB, rng.randint(1, 4))
        for w in words_upto(AB, 2):
            word = au.word_language(w, AB)
            for join in (rel.image, rel.preimage):
                assert au.dumps(join(r, word)) == au.dumps(join(_fresh_copy(r), word))
        assert set(r.base.__dict__[au._JOIN_GROUPS]) == {0, 1}


def test_joins_through_one_relation_from_many_threads(rng):
    # the grouping kept on the relation is filled by whichever thread
    # reaches a state first; every thread must still see whole groups
    r = random_relation(rng, AB, 4)
    words = [au.word_language(w, AB) for w in words_upto(AB, 3)]
    expect = [au.dumps(join(_fresh_copy(r), word))
              for word in words for join in (rel.image, rel.preimage)]
    got = [[] for _ in range(8)]

    def work(out):
        out.extend(au.dumps(join(r, word))
                   for word in words for join in (rel.image, rel.preimage))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(out == expect for out in got)
