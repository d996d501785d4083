import importlib
import json
import random
import sys
import threading
from functools import lru_cache
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from autorel import automata as au
from autorel import cli
from autorel import coloring as co
from autorel import definability as de
from autorel import recognizable as rc
from autorel import relations as rel
from autorel import tm
from autorel.automata import PAD

from conftest import (CONSTRUCTOR_FAULTS, JSON_REFUSED_FAULTS, accepts_by_subsets,
                      adj_oracle, automaton_json, complement_relative_oracle,
                      constructor_error, constructor_fields, cylindrify,
                      determinize_minimize_oracle, determinize_oracle,
                      deterministic_oracle, difference_oracle, difference_witness_oracle,
                      emptiness_shortest_oracle, epsilon_language,
                      intersection_witness_oracle, lang_upto, moore_minimize_oracle,
                      neq_relation, ODD_SYMBOLS, project_oracle, random_dfa,
                      random_language, random_machine,
                      random_nfa, random_padded_relation, random_relation, rank_oracle,
                      residual_signatures, satisfies_valid_pad_oracle, subset_column_words,
                      the_80_draws, words_upto)

A = ("a",)
AB = ("a", "b")


def nfa(tracks, alphabet, states, initial, accepting, transitions):
    return au.MultiTrackAutomaton(
        tracks=tracks, alphabet=tuple(alphabet), states=states,
        initial=frozenset(initial), accepting=frozenset(accepting),
        transitions=frozenset(transitions))


def fc_base(c, alphabet=A):
    trans = [(0, ("a", "a"), 0)] + [(i, (PAD, "a"), i + 1) for i in range(c)]
    return nfa(2, alphabet, c + 1, {0}, {c}, trans)


def a_star(alphabet=AB):
    return nfa(1, alphabet, 1, {0}, {0}, [(0, ("a",), 0)])


def aa_star(alphabet=A):
    return nfa(1, alphabet, 2, {0}, {0}, [(0, ("a",), 1), (1, ("a",), 0)])


# ---------------------------------------------------------------------------
# convolution / membership

def test_convolution_paper_example():
    assert au.convolve(("aaba", "aa")) == (
        ("a", "a"), ("a", "a"), ("b", PAD), ("a", PAD))


def test_membership_examples():
    fc1 = fc_base(1)
    assert au.membership(fc1, ("a", "aa"))
    assert not au.membership(fc1, ("aa", "a"))
    ident = nfa(2, AB, 1, {0}, {0}, [(0, (x, x), 0) for x in AB])
    assert au.membership(ident, ("ab", "ab"))
    with pytest.raises(au.UnknownSymbolError):
        au.membership(fc_base(1), ("c", "cc"))
    with pytest.raises(au.ArityMismatchError):
        au.membership(fc_base(1), ("a",))


# ---------------------------------------------------------------------------
# determinize_minimize

def test_minimize_a_star_with_redundant_states():
    # three redundant states collapse; the dead sink stays implicit
    redundant = nfa(1, AB, 4, {0}, {0, 1, 2, 3},
                    [(0, ("a",), 1), (1, ("a",), 2), (2, ("a",), 3),
                     (3, ("a",), 1)])
    m = au.determinize_minimize(redundant)
    assert m.states == 1
    assert au.equivalent(m, a_star())


def test_minimize_parity():
    m = au.determinize_minimize(aa_star())
    assert m.states == 2


def test_minimize_fc1_against_brute_force_refinement():
    # brute-force Myhill-Nerode refinement on words up to length 6:
    # three residuals, one of them empty (the implicit dead class)
    m = au.determinize_minimize(fc_base(1))
    sigs = residual_signatures(m, prefix_len=3, suffix_len=3)
    assert len(sigs) == 3
    assert frozenset() in sigs
    live = [s for s in sigs if s]
    assert m.states == len(live) == 2


def test_minimize_idempotent_and_canonical():
    x = fc_base(2)
    m1 = au.determinize_minimize(x)
    m2 = au.determinize_minimize(m1)
    assert m1 == m2
    assert au.equivalent(x, m1)


def _blocks(block):
    """The partition a state -> block map stands for, as a set of sets."""
    groups: dict = {}
    for q, b in block.items():
        groups.setdefault(b, set()).add(q)
    return {frozenset(g) for g in groups.values()}


def test_moore_minimize_matches_oracle_on_random_dfas():
    rng = random.Random(7001)
    cols = [(x, y) for x in AB + (PAD,) for y in AB + (PAD,)][:-1]
    key = nfa(2, AB, 1, {0}, (), ()).symbol_key
    for _ in range(200):
        n = rng.randint(1, 9)
        trans = {(q, c): rng.randrange(n) for q in range(n) for c in cols
                 if rng.random() < 0.4}
        accept = {q for q in range(n) if rng.random() < 0.4}
        assert _blocks(au._moore_minimize(set(range(n)), trans, accept)) == \
            _blocks(moore_minimize_oracle(set(range(n)), trans, accept, key))


def test_moore_minimize_matches_oracle_inside_determinize_minimize():
    rng = random.Random(7002)
    for i in range(60):
        a = (random_padded_relation(rng, states=rng.randint(3, 5)).base if i % 2
             else random_language(rng, states=rng.randint(2, 5)))
        _n, dtrans, daccept = determinize_oracle(a)
        keep, dtrans = au._trim(0, dtrans, daccept)
        args = (keep, dtrans, daccept & keep)
        assert _blocks(au._moore_minimize(*args)) == \
            _blocks(moore_minimize_oracle(*args, a.symbol_key))


def test_moore_minimize_matches_oracle_on_suffix_map_with_dead_node():
    # the map definability._same_rows refines: (PAD, y) moves of R's DFA
    # over its states plus a None node for "dead", total and with None targets
    rng = random.Random(7003)
    for _ in range(40):
        d = random_relation(rng, states=rng.randint(1, 4)).base
        delta = {(src, sym): dst for src, sym, dst in d.transitions}
        nodes = set(range(d.states)) | {None}
        suffix = {(p, (PAD, y)): delta.get((p, (PAD, y)))
                  for p in nodes for y in d.alphabet}
        args = (nodes, suffix, set(d.accepting))
        assert _blocks(au._moore_minimize(*args)) == \
            _blocks(moore_minimize_oracle(*args, d.symbol_key))


def test_minimize_returns_canonical_input_as_is():
    rng = random.Random(7004)
    for _ in range(30):
        x = random_padded_relation(rng, states=rng.randint(3, 5)).base
        c = au.determinize_minimize(x)
        assert au.determinize_minimize(c) is c
        # the same fields without the flag canonicalize to an equal value
        copy = au._freeze(c.tracks, c.alphabet, c.states, c.initial,
                          c.accepting, c.transitions)
        again = au.determinize_minimize(copy)
        assert again is not copy and again == c == copy
        # a loaded automaton carries no flag, so it is canonicalized anew
        loaded = au.from_json_dict(au.to_json_dict(c))
        assert loaded == c and au._CANONICAL not in vars(loaded)
        assert au.determinize_minimize(loaded) is not loaded


def _same_canonical_bytes(a):
    moves = {(src, sym) for src, sym, _dst in a.transitions}
    assert a.deterministic == (len(a.initial) == 1 and len(moves) == len(a.transitions))
    assert au.dumps(au.determinize_minimize(a)) == au.dumps(determinize_minimize_oracle(a))


def test_determinize_minimize_matches_renumbering_oracle_on_random_automata():
    rng = random.Random(7005)
    for i in range(1200):
        alphabet = ("a", "b", "c") if i % 4 == 3 else AB
        a = (random_padded_relation(rng, alphabet, states=rng.randint(3, 6)).base
             if i % 2 else random_language(rng, alphabet, states=rng.randint(2, 6)))
        _same_canonical_bytes(a)


@pytest.mark.parametrize("machine", [tm.halting_fixture(), tm.looping_fixture(),
                                     tm.mixed_fixture(), tm.two_cycle_fixture()])
def test_determinize_minimize_matches_renumbering_oracle_on_machine_graphs(machine):
    # the padded machines have alphabets of 179 to 545 symbols
    for t in (machine, tm.pad_transform(machine)):
        graph = tm.config_graph(t)
        for a in (graph.base, rel.project_first(graph), rel.project_second(graph),
                  tm.machine_init_configs(t)):
            _same_canonical_bytes(a)


def _random_dfa(rng, alphabet, n, tracks=None):
    """A random partial DFA over 1 or 2 tracks (drawn unless given); sparse
    moves and a random initial state leave some states unreachable and some
    dead."""
    tracks = rng.randint(1, 2) if tracks is None else tracks
    cols = list(nfa(tracks, alphabet, 1, {0}, (), ()).column_universe())
    trans = [(q, c, rng.randrange(n)) for q in range(n) for c in cols
             if rng.random() < 0.3]
    return nfa(tracks, alphabet, n, {rng.randrange(n)},
               rng.sample(range(n), rng.randint(0, n)), trans)


def test_determinize_minimize_matches_renumbering_oracle_on_random_dfas():
    rng = random.Random(7006)
    unreachable = dead = 0
    for i in range(400):
        a = _random_dfa(rng, ("a", "b", "c") if i % 4 == 3 else AB, rng.randint(1, 7))
        assert a.deterministic
        reach = au._reach(a.initial, {q: [d for _s, d in m] for q, m in a._adj.items()})
        live = au._reach(a.accepting, au._reverse((s, d) for s, _c, d in a.transitions))
        unreachable += len(reach) < a.states
        dead += not set(reach) <= set(live)
        _same_canonical_bytes(a)
    assert unreachable > 100 and dead > 100


def test_determinize_minimize_charges_a_dfa_like_the_subset_walk():
    rng = random.Random(7007)
    cases = [_random_dfa(rng, AB, rng.randint(1, 7)) for _ in range(100)]
    charged = []
    for a in cases:
        with au.state_budget():
            determinize_oracle(a)
            charged.append(au._active_budget().used)
    for a, n in zip(cases, charged):
        with au.state_budget(n):
            au.determinize_minimize(a)
        with pytest.raises(au.BudgetExceededError), au.state_budget(n - 1):
            au.determinize_minimize(a)


def test_explore_minimal_matches_minimizing_the_built_walk_on_dfa_products():
    # a deterministic walk minimized as it stands gives the bytes of
    # minimizing the built walk, and charges each state once, not twice
    rng = random.Random(7008)
    for i in range(300):
        alphabet = ("a", "b", "c") if i % 4 == 3 else AB
        tracks = rng.randint(1, 2)
        a, b = (_random_dfa(rng, alphabet, rng.randint(1, 7), tracks) for _ in range(2))
        walk = au._intersection_product(a, b)
        with au.state_budget():
            built = au._explore_automaton(tracks, alphabet, *walk)
            rewalked = au.determinize_minimize(built)
            assert au._active_budget().used == 2 * built.states
        with au.state_budget():
            direct = au._explore_minimal(tracks, alphabet, *walk)
            assert au._active_budget().used == built.states
        assert au.dumps(direct) == au.dumps(rewalked)


@pytest.mark.parametrize("fault, error", CONSTRUCTOR_FAULTS)
def test_constructor_rejects_each_fault(fault, error):
    with pytest.raises(error) as info:
        nfa(**constructor_fields(fault))
    assert type(info.value) is error


def test_constructor_accepts_the_fault_free_fields():
    f = constructor_fields()
    assert len(nfa(**f).transitions) == len(f["transitions"])


def _loaded_with(**changes):
    d = au.to_json_dict(fc_base(1, AB))
    d.update(changes)
    return au.from_json_dict(d)


# Each public constructor checks what its caller passes, as results built
# inside the package are not checked again.
@pytest.mark.parametrize("build, error", [
    (lambda: au.empty_language(0, AB), au.AutomataError),
    (lambda: rel.successor_relation(0), au.AutomataError),
    (lambda: au.valid_pad_automaton(0, AB), au.AutomataError),
    (lambda: au.empty_language(1, ("a", PAD)), au.AutomataError),
    (lambda: au.word_language(("a",), ("a", "a")), au.AutomataError),
    (lambda: au.valid_pad_automaton(2, ("a", "⊥")), au.AutomataError),
    (lambda: au.full_language(("a", "b", "a")), au.AutomataError),
    (lambda: au.full_language(()), au.AutomataError),
    (lambda: au.word_language(("a", "z"), AB), au.UnknownSymbolError),
    (lambda: au.word_language((PAD,), AB), au.UnknownSymbolError),
    (lambda: au.word_language(("a",), ("a", "")), au.AutomataError),
    (lambda: rel.finite_relation([("b", "a")], ("a",)), au.UnknownSymbolError),
    (lambda: au.valid_pad_automaton(1, ()), au.AutomataError),
    (lambda: au.extend_alphabet(a_star(), ("a", "b", PAD)), au.AutomataError),
    (lambda: au.extend_alphabet(a_star(), ("a",)), au.AutomataError),
    (lambda: _loaded_with(tracks=0), au.AutomataError),
    (lambda: _loaded_with(alphabet=["a", "a"]), au.AutomataError),
    (lambda: _loaded_with(alphabet=["b"]), au.UnknownSymbolError),
    (lambda: _loaded_with(states=-3, initial=[], accepting=[], transitions=[]),
     au.FormatError),
    (lambda: rel.make_identity(("a", PAD)), au.AutomataError),
    (lambda: rel.equal_length_relation(("a", "a")), au.AutomataError),
    (lambda: rel.successor_relation(1, ("a",), "z"), au.AutomataError),
    (lambda: rel.successor_relation(1, ("a", "a")), au.AutomataError),
    (lambda: rel.append_one_relation(("⊥",)), au.AutomataError),
    (lambda: rel.tree_relation(("a", "b", "b")), au.AutomataError),
    (lambda: rel.tree_relation(("a", "c")), au.AutomataError),
    (lambda: rel.finite_relation([("a", "z")], ("a",)), au.UnknownSymbolError),
    (lambda: rel.finite_relation([("a", "a")], ("a", "")), au.AutomataError),
    (lambda: rel.empty_relation(("a", "a")), au.AutomataError),
    (lambda: rel.full_relation((PAD,)), au.AutomataError),
    (lambda: rel.append_one_relation(("a", "a")), au.AutomataError),
    (lambda: rel.relation(a_star()), au.ArityMismatchError),
    (lambda: rc.even_odd_languages("z", ("a",)), au.UnknownSymbolError),
    (lambda: rc.even_odd_languages("a", ("a", "a")), au.AutomataError),
    (lambda: rc.parity_separator(("b",)), au.UnknownSymbolError),
    (lambda: rc.RecognizableRelation(alphabet=("a", PAD), products=()),
     au.AutomataError),
])
def test_public_constructors_reject_bad_input(build, error):
    with pytest.raises(error):
        build()


# ---------------------------------------------------------------------------
# the column order each alphabet shares

def _declared_key(alphabet, sym):
    """A column's symbol_key by its definition: each track's position in
    the declared alphabet, padding after every letter."""
    return tuple(len(alphabet) if x == PAD else alphabet.index(x) for x in sym)


def _shuffled_alphabet(rng, size):
    """``size`` symbols in a declared order that is not string order."""
    symbols = [f"s{i}" for i in range(size)]
    while True:
        rng.shuffle(symbols)
        if size == 1 or symbols != sorted(symbols):
            return tuple(symbols)


def _random_columns(rng, alphabet, tracks, count):
    pool = alphabet + (PAD,)
    cols = {tuple(rng.choice(pool) for _ in range(tracks)) for _ in range(count)}
    cols.discard((PAD,) * tracks)
    # the extremes of the order: first letter everywhere, padding on all but one track
    cols.add((alphabet[0],) * tracks)
    cols.add((PAD,) * (tracks - 1) + (alphabet[-1],))
    return sorted(cols)


def _over_columns(alphabet, tracks, cols):
    return au._freeze(tracks, alphabet, 1, {0}, {0}, [(0, sym, 0) for sym in cols])


def test_rank_orders_columns_as_symbol_key_on_random_alphabets():
    rng = random.Random(8101)
    alphabets = [("b", "a")] + [_shuffled_alphabet(rng, rng.randint(1, 300))
                                for _ in range(60)]
    for alphabet in alphabets:
        for tracks in (1, 2, 3):
            cols = _random_columns(rng, alphabet, tracks, rng.randint(1, 400))
            a = _over_columns(alphabet, tracks, cols)
            assert set(a._rank) == set(cols)  # the automaton's own columns
            by_rank = sorted(cols, key=a._rank.__getitem__)
            assert by_rank == sorted(cols, key=a.symbol_key)
            assert by_rank == sorted(cols, key=lambda c: _declared_key(alphabet, c))
            assert len(set(a._rank.values())) == len(cols)


def test_alphabets_with_the_same_symbols_in_other_orders_never_share_keys():
    ba = nfa(1, ("b", "a"), 2, {0}, {1}, [(0, ("a",), 1), (0, ("b",), 1)])
    ab = nfa(1, AB, 2, {0}, {1}, [(0, ("a",), 1), (0, ("b",), 1)])
    assert ba._rank == {("b",): 0, ("a",): 1} and ab._rank == {("a",): 0, ("b",): 1}
    assert au.emptiness_shortest(ba) == (("b",),) and au.emptiness_shortest(ab) == (("a",),)
    rng = random.Random(8102)
    for _ in range(40):
        first = _shuffled_alphabet(rng, rng.randint(2, 40))
        other = first[::-1]
        cols = _random_columns(rng, first, 2, 50)
        x, y = _over_columns(first, 2, cols), _over_columns(other, 2, cols)
        assert sorted(cols, key=x._rank.__getitem__) == \
            sorted(cols, key=lambda c: _declared_key(first, c))
        assert sorted(cols, key=y._rank.__getitem__) == \
            sorted(cols, key=lambda c: _declared_key(other, c))
        assert x._rank != y._rank


def test_more_alphabets_than_the_cache_holds_still_order_correctly():
    rng = random.Random(8103)
    limit = au._SHARED_ALPHABETS
    alphabets = [_shuffled_alphabet(rng, rng.randint(1, 30)) for _ in range(3 * limit)]
    for _round in range(2):  # the second round meets alphabets the first evicted
        for alphabet in alphabets:
            cols = _random_columns(rng, alphabet, 2, 30)
            a = _over_columns(alphabet, 2, cols)
            assert sorted(cols, key=a._rank.__getitem__) == \
                sorted(cols, key=lambda c: _declared_key(alphabet, c))
            assert au._hashed_index.cache_info().currsize <= limit
            assert len(au._by_identity) <= au._BY_IDENTITY


def test_threads_that_share_the_alphabet_cache_each_see_their_own_order(monkeypatch):
    # more alphabets than the caches hold and more threads than cores, with
    # a short switch interval, so misses, evictions and hits interleave, by
    # identity and by hashing alike
    rng = random.Random(8104)
    alphabets = [_shuffled_alphabet(rng, rng.randint(1, 30))
                 for _ in range(2 * au._SHARED_ALPHABETS)]
    columns = [_random_columns(rng, alphabet, 2, 20) for alphabet in alphabets]
    faults = []
    lookups, hashed = [], []  # list.append is atomic: one entry per call
    by_identity, by_hash = au._symbol_index, au._hashed_index
    monkeypatch.setattr(au, "_symbol_index",
                        lambda alphabet: lookups.append(1) or by_identity(alphabet))
    monkeypatch.setattr(au, "_hashed_index",
                        lambda alphabet: hashed.append(1) or by_hash(alphabet))

    def work(offset):
        for i in range(len(alphabets)):
            alphabet = alphabets[(i + offset) % len(alphabets)]
            cols = columns[(i + offset) % len(alphabets)]
            a = _over_columns(au.check_alphabet(alphabet), 2, cols)
            if sorted(cols, key=a._rank.__getitem__) != \
                    sorted(cols, key=lambda c: _declared_key(alphabet, c)):
                faults.append(alphabet)
            for _ in range(3):  # found again by identity, unless another thread emptied the map
                if dict(au._symbol_index(alphabet)) != {**{s: alphabet.index(s) for s in alphabet},
                                                        PAD: len(alphabet)}:
                    faults.append(alphabet)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(17 * n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert faults == []
    assert len(hashed) < len(lookups) == 6 * len(alphabets) * 4
    assert by_hash.cache_info().currsize <= au._SHARED_ALPHABETS
    # a miss may insert after other threads' misses checked the size
    assert len(au._by_identity) <= au._BY_IDENTITY + len(threads) - 1


def test_a_checked_alphabet_shares_one_index(monkeypatch):
    # equal alphabets built as separate tuples share one index, and a check
    # hands out one tuple for them, the first one indexed; only that tuple
    # is found by identity, so the identity map keeps no other one alive
    alphabet, other = ("q", "p", "r"), tuple(["q", "p", "r"])
    assert alphabet is not other
    hashed, by_hash = [], lru_cache(maxsize=au._SHARED_ALPHABETS)(au._hashed_index.__wrapped__)
    monkeypatch.setattr(au, "_by_identity", {})
    monkeypatch.setattr(au, "_hashed_index",
                        lambda alphabet: hashed.append(alphabet) or by_hash(alphabet))
    index = au._symbol_index(alphabet)
    assert index == {"q": 0, "p": 1, "r": 2, PAD: 3}
    assert au._symbol_index(other) is index and id(other) not in au._by_identity
    for symbols in (list(alphabet), other, alphabet, tuple(alphabet)):
        assert au.check_alphabet(symbols) is alphabet
    assert au._symbol_index(alphabet) is index
    assert len(hashed) == 4 and hashed[0] is alphabet and hashed[1] is other is hashed[3]
    a, b = au.full_language(other), au.word_language(("r", "q"), other)
    assert a.alphabet is alphabet and b.alphabet is alphabet
    assert a._rank == {("q",): 0, ("p",): 1, ("r",): 2}
    assert b._rank == {("r",): 2, ("q",): 0}
    assert len(hashed) == 6  # the two checks of other; automata over alphabet hash nothing


@pytest.mark.parametrize("alphabet", [
    (), ("a", "a"), ("a", PAD), ("a", ""), ("⊥",), ("a", 1), ("a", None),
    ("a", ["b"]), ("a", ("b",)),
])
def test_a_malformed_alphabet_raises_the_same_error_on_every_call(alphabet):
    calls = [lambda: au.check_alphabet(alphabet),
             lambda: au.full_language(alphabet),
             lambda: au.word_language(("a",), alphabet),
             lambda: au.extend_alphabet(a_star(A), alphabet),
             lambda: au.empty_language(1, alphabet)]
    for call in calls:
        messages = []
        for _ in range(2):
            with pytest.raises(au.AutomataError) as err:
                call()
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert id(alphabet) not in au._by_identity


# ---------------------------------------------------------------------------
# intersect / union / difference

def test_boolean_intersect_examples():
    inter = au.intersect(a_star(A), aa_star())
    assert au.equivalent(inter, aa_star())
    assert au.is_empty(au.intersect(fc_base(1), fc_base(2)))


def test_boolean_union_identity_in_equal_length():
    ident = nfa(2, A, 1, {0}, {0}, [(0, ("a", "a"), 0)])
    eqlen = nfa(2, A, 1, {0}, {0}, [(0, ("a", "a"), 0)])
    got = au.union(eqlen, ident)
    # Id over a one-letter alphabet IS equal-length; checked on words <= 5
    ws = words_upto(A, 5)
    for u in ws:
        for v in ws:
            assert au.membership(got, (u, v)) == (len(u) == len(v))
    assert au.equivalent(got, eqlen)


def test_boolean_difference_and_mode_error():
    aplus = au.difference(a_star(A), nfa(1, A, 1, {0}, {0}, ()))
    assert lang_upto(aplus, 3) == {("a",), ("a", "a"), ("a", "a", "a")}
    with pytest.raises(au.ArityMismatchError):
        au.union(a_star(A), a_star(AB))


# ---------------------------------------------------------------------------
# complement_relative

def test_complement_of_empty_is_all_valid_convolutions():
    empty = au.empty_language(2, AB)
    comp = au.complement_relative(empty)
    assert au.equivalent(comp, au.valid_pad_automaton(2, AB))


def test_complement_of_identity_is_inequality():
    ident = rel.make_identity(AB)
    comp = au.complement_relative(ident.base)
    assert au.equivalent(comp, neq_relation(AB).base)


def test_satisfies_valid_pad_matches_inclusion(rng):
    """The pad-mask walk against inclusion in the ValidPad DFA, on random
    1-3 track NFAs whose columns may break the padding rule."""
    verdicts = set()
    for _ in range(900):
        tracks = rng.randint(1, 3)
        alphabet = AB if tracks < 3 else A
        cols = list(au.valid_pad_automaton(tracks, alphabet).column_universe())
        n = rng.randint(1, 4)
        trans = [(q, c, rng.randrange(n)) for q in range(n) for c in cols
                 if rng.random() < 2 / len(cols)]
        a = nfa(tracks, alphabet, n, rng.sample(range(n), rng.randint(1, min(n, 2))),
                rng.sample(range(n), rng.randint(0, n)), trans)
        expect = au.included(a, au.valid_pad_automaton(tracks, alphabet))
        assert au.satisfies_valid_pad(a) == expect
        verdicts.add(expect)
    assert verdicts == {True, False}


def test_double_complement_is_identity():
    x = fc_base(1)
    assert au.equivalent(au.complement_relative(au.complement_relative(x)), x)


def _difference_cases(tracks, alphabet, rng):
    """Edge languages and seeded random automata on `tracks` tracks."""
    cases = [au.empty_language(tracks, alphabet),
             epsilon_language(tracks, alphabet),
             au.valid_pad_automaton(tracks, alphabet)]
    if tracks == 1:
        cases.append(au.full_language(alphabet))
        cases += [random_language(rng, alphabet) for _ in range(6)]
    else:
        cases += [random_relation(rng, alphabet, rng.randint(1, 3)).base
                  for _ in range(3)]
        raw = []  # straight out of restrict_valid_pad: several initial states
        while len(raw) < 3:
            r = random_padded_relation(rng, alphabet)
            if len(r.base.initial) > 1:
                raw.append(r.base)
        cases += raw
    return cases


def test_difference_matches_complement_composition():
    for tracks, alphabet, seed in ((1, AB, 9091), (1, ("b", "a"), 9092),
                                   (2, AB, 9093), (2, ("b", "a"), 9094)):
        cases = _difference_cases(tracks, alphabet, random.Random(seed))
        for b in cases:
            assert au.dumps(au.complement_relative(b)) == \
                au.dumps(complement_relative_oracle(b))
            for a in cases:
                expect = difference_oracle(a, b)
                assert au.determinize_minimize(au.difference(a, b)) == \
                    au.determinize_minimize(expect)
                assert au.difference_witness(a, b) == au.emptiness_shortest(expect)


def test_complement_relative_charges_each_product_state_once():
    # the ValidPad product is deterministic and minimized as it is walked,
    # not walked once more by determinize_minimize
    rng = random.Random(9095)
    for tracks, alphabet in ((1, AB), (1, ("b", "a", "c")), (2, AB), (2, ("b", "a"))):
        for _ in range(10):
            a = random_nfa(rng, tracks, alphabet, rng.randint(1, 4))
            with au.state_budget():
                au.complement_relative(a)
                charged = au._active_budget().used
            vp = au.valid_pad_automaton(tracks, alphabet)
            assert charged == au.difference(vp, a).states, a


def _random_pairs(seed, count):
    """``count`` pairs of random NFAs of 1 to 4 states sharing a shape: 1
    track over two or three letters, or 2 tracks over two, in both orders."""
    rng = random.Random(seed)
    for _ in range(count):
        tracks = rng.choice((1, 2))
        alphabet = rng.choice((AB, ("b", "a")) + ((("a", "b", "c"),) if tracks == 1 else ()))
        yield (random_nfa(rng, tracks, alphabet, rng.randint(1, 4)),
               random_nfa(rng, tracks, alphabet, rng.randint(1, 4)))


def test_witness_search_matches_product_oracles():
    found = set()
    per_state_misses = 0
    for a, b in _random_pairs(4401, 3000):
        for search, oracle, product in (
                (au.intersection_witness, intersection_witness_oracle, au._intersection_product),
                (au.difference_witness, difference_witness_oracle, au._difference_product)):
            w = search(a, b)
            assert w == oracle(a, b), (au.dumps(a), au.dumps(b), search.__name__)
            found.add((a.tracks, w is None, bool(w)))
            per_state_misses += _per_state_shortest_word(*product(a, b)) != w
    # both shapes, with empty, nonempty and empty-word answers
    assert found >= {(t, e, n) for t in (1, 2) for e, n in ((True, False), (False, True))}
    assert any(not e and not n for _t, e, n in found)
    # the draws hold pairs on which merging the moves of a group matters
    assert per_state_misses > 0


def _per_state_shortest_word(start, successors, accepts):
    """A breadth-first walk with a parent pointer per state, visiting each
    state's moves on its own: the recipe that misses shortlex order."""
    parent = dict.fromkeys(start)
    if any(map(accepts, parent)):
        return ()
    order = list(parent)
    for state in order:
        for col, nxt in successors(state):
            if nxt not in parent:
                parent[nxt] = (state, col)
                order.append(nxt)
                if accepts(nxt):
                    word = []
                    while parent[nxt] is not None:
                        nxt, col = parent[nxt]
                        word.append(col)
                    return tuple(reversed(word))
    return None


def test_witness_search_merges_the_moves_of_states_with_one_word():
    # the start states (0, {1, 2}) and (1, {1, 2}) share the empty word; the
    # first reads "a", the second "b", which comes first in this alphabet
    ba = ("b", "a")
    a = nfa(1, ba, 2, {0, 1}, {0, 1}, [(0, ("a",), 1), (1, ("b",), 1)])
    b = nfa(1, ba, 3, {1, 2}, {2}, [(0, ("a",), 2), (1, ("b",), 1)])
    assert au.difference_witness(a, b) == difference_witness_oracle(a, b) == (("b",),)
    assert _per_state_shortest_word(*au._difference_product(a, b)) == (("a",),)


def test_witness_search_charges_the_product_walk_when_there_is_no_witness():
    empty = 0
    for a, b in _random_pairs(4402, 300):
        for search, build in ((au.intersection_witness, au.intersect),
                              (au.difference_witness, au.difference)):
            with au.state_budget():
                built = build(a, b)
                whole = au._active_budget().used
            with au.state_budget():
                w = search(a, b)
                used = au._active_budget().used
            if w is None:
                empty += 1
                assert used == whole == built.states
            else:
                assert used <= whole
    assert empty > 100


def test_valid_pad_walk_matches_edge_recording_oracle():
    rng = random.Random(4403)
    verdicts = set()
    for _ in range(1500):
        tracks = rng.randint(1, 3)
        a = random_nfa(rng, tracks, AB if tracks < 3 else A, rng.randint(1, 4))
        expect = satisfies_valid_pad_oracle(a)
        with au.state_budget():
            assert au.satisfies_valid_pad(a) == expect
            used = au._active_budget().used
        with au.state_budget():
            satisfies_valid_pad_oracle(a)
            assert used <= au._active_budget().used
            if expect:
                assert used == au._active_budget().used
        verdicts.add(expect)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# project / permute

def test_project_components():
    fc1 = fc_base(1)
    firsts = au.project(fc1, 1)
    assert au.equivalent(firsts, a_star(A))
    seconds = au.project(fc1, 0)
    # enumerate pairs (a^n, a^{n+1}) with n <= 5: the seconds are a+
    expect = {("a",) * (n + 1) for n in range(6)}
    assert set(au.iter_words(seconds, 6)) == expect
    aplus = nfa(1, A, 2, {0}, {1}, [(0, ("a",), 1), (1, ("a",), 1)])
    assert au.equivalent(seconds, aplus)


def test_project_identity_second_track_is_full():
    ident = nfa(2, AB, 1, {0}, {0}, [(0, (x, x), 0) for x in AB])
    assert au.equivalent(au.project(ident, 0), au.full_language(AB))
    with pytest.raises(au.AutomataError):
        au.project(ident, 5)
    with pytest.raises(au.ArityMismatchError):
        au.project(a_star(), 0)


def _random_padded_automaton(rng, tracks):
    """A random NFA with one to three initial states, restricted to
    ValidPad(tracks)."""
    alphabet = AB if tracks < 3 else rng.choice((A, AB))
    cols = list(au.valid_pad_automaton(tracks, alphabet).column_universe())
    n = rng.randint(1, 5)
    trans = [(q, c, rng.randrange(n)) for q in range(n) for c in cols
             if rng.random() < 3 / len(cols)]
    raw = nfa(tracks, alphabet, n, rng.sample(range(n), rng.randint(1, min(n, 3))),
              rng.sample(range(n), rng.randint(0, n)), trans)
    return au.restrict_valid_pad(raw)


def _assert_project_matches_oracle(a, drop):
    got, expect = au.project(a, drop), project_oracle(a, drop)
    assert au.satisfies_valid_pad(got)
    assert au.determinize_minimize(got) == au.determinize_minimize(expect)
    assert au.emptiness_shortest(got) == au.emptiness_shortest(expect)


def test_project_matches_epsilon_elimination_oracle():
    rng = random.Random(4411)
    nonempty = 0
    for i in range(320):
        a = _random_padded_automaton(rng, 2 + i % 2)
        for drop in range(a.tracks):
            _assert_project_matches_oracle(a, drop)
        nonempty += not au.is_empty(a)
    assert nonempty > 100


@pytest.mark.parametrize("machine, symbols", [
    (tm.halting_fixture, 289), (tm.mixed_fixture, 545)])
def test_project_matches_oracle_on_machine_graphs(machine, symbols):
    g = tm.config_graph(tm.pad_transform(machine())).base
    assert len(g.alphabet) == symbols
    for drop in (0, 1):
        _assert_project_matches_oracle(g, drop)


def test_cylindrify_pairs_with_free_track():
    cyl = cylindrify(a_star(A), 1)
    for n in range(3):
        for m in range(3):
            assert au.membership(cyl, (("a",) * n, ("a",) * m))


def test_permute_is_relation_inverse():
    fc1 = fc_base(1)
    inv = au.permute_tracks(fc1, (1, 0))
    assert au.membership(inv, ("aa", "a"))
    assert not au.membership(inv, ("a", "aa"))
    assert au.equivalent(au.permute_tracks(fc1, (0, 1)), fc1)
    with pytest.raises(au.AutomataError):
        au.permute_tracks(fc1, (0, 0))
    with pytest.raises(au.AutomataError):
        au.permute_tracks(fc1, (1.0, 0.0))


# ---------------------------------------------------------------------------
# emptiness / witnesses / equivalence

def test_emptiness_shortest_examples():
    assert au.emptiness_shortest(au.empty_language(2, A)) is None
    assert au.emptiness_shortest(fc_base(1)) == ((PAD, "a"),)
    nonempty = au.difference(aa_star(), epsilon_language(1, A))
    assert au.emptiness_shortest(nonempty) == (("a",), ("a",))


def test_emptiness_shortest_matches_the_distance_oracle_on_random_nfas():
    # 1 and 2 tracks over ab, abc and (b, a), up to three initial states,
    # with unreachable and dead states; half the draws accept in no initial
    # state.  A search that finds nothing charges every state it can reach,
    # and one that finds a word no more.
    rng = random.Random(4404)
    found = set()
    unreachable = dead = merged = longer = 0
    for i in range(1200):
        tracks = 1 + i % 2
        alphabet = (AB, ("a", "b", "c"), ("b", "a"))[i // 2 % 3]
        a = random_nfa(rng, tracks, alphabet, rng.randint(1, 8))
        if i % 4 >= 2:
            a = nfa(tracks, alphabet, a.states, a.initial, a.accepting - a.initial,
                    a.transitions)
        with au.state_budget():
            w = au.emptiness_shortest(a)
            used = au._active_budget().used
        assert w == emptiness_shortest_oracle(a), au.dumps(a)
        reach = au._reach(a.initial, {q: [d for _s, d in m] for q, m in a._adj.items()})
        live = au._reach(a.accepting, au._reverse((s, d) for s, _c, d in a.transitions))
        assert used == len(reach) if w is None else used <= len(reach)
        unreachable += len(reach) < a.states
        dead += not set(reach) <= set(live)
        found.add((tracks, alphabet, w is None, w == ()))
        longer += w is not None and len(w) > 1
        merged += _per_state_shortest_word(
            sorted(a.initial), a._adj.__getitem__, a.accepting.__contains__) != w
    assert found >= {(t, x, e, False) for t in (1, 2) for x in (AB, ("a", "b", "c"), ("b", "a"))
                     for e in (True, False)}
    assert any(n for _t, _x, _e, n in found)
    assert unreachable > 100 and dead > 100 and longer > 30
    # the draws hold automata on which merging the moves of a group matters
    assert merged > 0


def test_shortlex_prefers_alphabet_order_and_pads_last():
    # language {(b), (a)}: least is (a); padding ranks after all letters
    x = nfa(1, AB, 2, {0}, {1}, [(0, ("a",), 1), (0, ("b",), 1)])
    assert au.emptiness_shortest(x) == (("a",),)
    y = nfa(2, AB, 2, {0}, {1}, [(0, ("a", PAD), 1), (0, (PAD, "a"), 1)])
    assert au.emptiness_shortest(y) == (("a", PAD),)


def test_equivalent_examples():
    assert au.equivalent(a_star(A), au.determinize_minimize(a_star(A)))
    aplus = nfa(1, A, 2, {0}, {1}, [(0, ("a",), 1), (1, ("a",), 1)])
    assert not au.equivalent(a_star(A), aplus)
    with pytest.raises(au.ArityMismatchError):
        au.equivalent(a_star(A), fc_base(1))


def _same_language_partner(rng, a):
    """An automaton of a's language: its subset construction, its union
    with itself, or a with its states renumbered."""
    kind = rng.randrange(3)
    if kind == 0:
        n, trans, accept = determinize_oracle(a)
        return nfa(a.tracks, a.alphabet, n, {0}, accept,
                   [(src, sym, dst) for (src, sym), dst in trans.items()])
    if kind == 1:
        return au.union(a, a)
    perm = list(range(a.states))
    rng.shuffle(perm)
    return nfa(a.tracks, a.alphabet, a.states, {perm[q] for q in a.initial},
               {perm[q] for q in a.accepting},
               [(perm[src], sym, perm[dst]) for src, sym, dst in a.transitions])


def test_equivalent_agrees_with_mutual_inclusion_on_random_pairs():
    # equal canonical forms decide equality; half of the pairs have equal
    # languages by construction, the others are drawn independently
    rng = random.Random(7801)
    verdicts = []
    for i in range(540):
        tracks = 1 + i % 2
        alphabet = (AB, ("a", "b", "c"), ("b", "a"))[i // 2 % 3]
        a = random_nfa(rng, tracks, alphabet, rng.randint(1, 4))
        b = _same_language_partner(rng, a) if i % 4 < 2 else \
            random_nfa(rng, tracks, alphabet, rng.randint(1, 4))
        got = au.equivalent(a, b)
        assert got == (au.included(a, b) and au.included(b, a)), (a, b)
        verdicts.append(got)
    assert verdicts.count(True) >= 270 and verdicts.count(False) >= 200


def test_budget_error_is_distinct():
    # "12th letter from the end is an a": determinizing needs 2^12 subsets
    n = 12
    trans = [(0, ("a",), 0), (0, ("b",), 0), (0, ("a",), 1)]
    for i in range(1, n):
        trans.append((i, ("a",), i + 1))
        trans.append((i, ("b",), i + 1))
    blow = nfa(1, AB, n + 1, {0}, {n}, trans)
    with pytest.raises(au.BudgetExceededError), au.state_budget(64):
        au.determinize_minimize(blow)


def _kernel_cases():
    raw = nfa(2, AB, 3, {0, 1}, {2},
              [(0, ("a", "b"), 1), (1, (PAD, "a"), 2), (0, ("b", PAD), 2),
               (2, ("a", "a"), 0), (2, (PAD, "b"), 2), (1, ("a", "b"), 0)])
    fc1 = rel.successor_relation(1, AB).base
    sym = rel.symmetric_closure(rel.successor_relation(2, AB)).base
    left, right = aa_star(AB), a_star()
    return {
        "restrict_valid_pad": lambda: au.restrict_valid_pad(raw),
        "intersect": lambda: au.intersect(sym, fc1),
        "relational_join": lambda: au.relational_join(sym, fc1, 1, 0),
        "product_relation": lambda: rc.product_relation(left, right).base,
    }


@pytest.mark.parametrize("op", ["restrict_valid_pad", "intersect",
                                "relational_join", "product_relation"])
def test_kernel_charges_one_per_discovered_state(op):
    build = _kernel_cases()[op]
    out = build()
    assert out.states > 1
    with au.state_budget(out.states):
        assert build() == out
    with pytest.raises(au.BudgetExceededError), au.state_budget(out.states - 1):
        build()


def test_a_walk_on_a_kept_index_walks_and_charges_only_the_states_it_adds():
    # the chain 0 -> 1 -> ... -> 5, walked from 3 and then from 0
    walked = []

    def successors(n):
        walked.append(n)
        return [("x", n + 1)] if n < 5 else []

    index: dict = {}
    with au.state_budget(6):
        assert list(au._walk([3], successors, index)) == [(0, "x", 1), (1, "x", 2)]
        assert au._active_budget().used == 3
        assert list(au._walk([0], successors, index)) == [
            (3, "x", 4), (4, "x", 5), (5, "x", 0)]
        assert au._active_budget().used == 6
        assert list(au._walk([4, 2], successors, index)) == []
    assert index == {3: 0, 4: 1, 5: 2, 0: 3, 1: 4, 2: 5}
    assert walked == [3, 4, 5, 0, 1, 2]


def test_state_budget_bounds_constructions_together():
    cases = _kernel_cases()
    first, second = cases["intersect"], cases["relational_join"]
    n = max(first().states, second().states)
    for build in (first, second):
        with au.state_budget(n):
            build()
    with pytest.raises(au.BudgetExceededError), au.state_budget(n):
        first()
        second()
    # outside a scope each construction has a budget of its own
    first()
    second()


# ---------------------------------------------------------------------------
# JSON

def test_iter_column_words_is_shortlex():
    x = nfa(1, AB, 2, {0}, {0, 1},
            [(0, ("b",), 1), (0, ("a",), 1), (1, ("a",), 0)])
    got = list(au.iter_column_words(x, 3))
    keys = [(len(w), [x.symbol_key(s) for s in w]) for w in got]
    assert keys == sorted(keys)
    assert got[0] == ()


def test_iter_words_follows_the_alphabet_order():
    ba = au.full_language(("b", "a"))
    assert list(au.iter_words(ba, 2)) == [
        (), ("b",), ("a",), ("b", "b"), ("b", "a"), ("a", "b"), ("a", "a")]


def test_iter_words_without_a_length_bound():
    # a finite language ends; an infinite one yields lazily
    finite = au.union(au.word_language(("a", "b", "b"), AB), au.word_language(("b",), AB))
    assert list(au.iter_words(finite)) == [("b",), ("a", "b", "b")]
    # a dead cycle and an unreachable accepting cycle do not keep it going
    cycles = nfa(1, AB, 4, {0}, {1, 2}, [(0, ("a",), 1), (0, ("b",), 3), (3, ("b",), 3),
                                          (2, ("a",), 2)])
    assert list(au.iter_words(cycles)) == [("a",)]
    gaps = nfa(1, AB, 3, {0}, {0}, [(0, ("a",), 1), (1, ("b",), 2), (2, ("a",), 0)])
    assert list(islice(au.iter_words(gaps), 3)) == [(), ("a", "b", "a"), ("a", "b", "a") * 2]


def _dfa_cases(rng):
    """Random 1- and 2-track DFAs, finite and infinite languages, with
    unreachable and dead states."""
    for tracks, alphabet in ((1, AB), (1, ("b", "a", "c")), (2, AB), (2, ("b", "a"))):
        for acyclic in (False, True):
            for _ in range(15):
                yield random_dfa(rng, tracks, alphabet, rng.randint(1, 6), acyclic)


def test_iter_words_on_dfas_match_the_subset_enumerator():
    rng = random.Random(7600)
    dfas = list(_dfa_cases(rng))
    assert all(a.deterministic for a in dfas)
    nfas = [random_nfa(rng, tracks, alphabet, rng.randint(2, 5))
            for tracks, alphabet in ((1, AB), (1, ("b", "a", "c")), (2, AB), (2, ("b", "a")))
            for _ in range(15)]
    infinite = finite = 0
    for a in dfas + nfas:
        for max_len in (None, 0, 1, 3):
            got = list(islice(au.iter_column_words(a, max_len), 65))
            assert got == list(islice(subset_column_words(a, max_len), 65)), (a, max_len)
        if a.tracks == 1:
            assert list(islice(au.iter_words(a), 65)) == \
                [tuple(c[0] for c in w) for w in islice(subset_column_words(a, None), 65)]
        whole = list(islice(subset_column_words(a, None), 200))
        infinite += len(whole) == 200
        finite += 0 < len(whole) < 200
    assert infinite >= 20 and finite >= 20
    # NFAs with several initial states, with two moves on one column, and
    # with states that are unreachable or, reachable, cannot accept
    several = two_moves = unreachable = dead = 0
    for a in nfas:
        reach = au._reach(a.initial, {q: [d for _sym, d in out] for q, out in a._adj.items()})
        live = au._reach(a.accepting, au._reverse((s, d) for s, _sym, d in a.transitions))
        several += len(a.initial) > 1
        two_moves += any(len(dsts) > 1 for dsts in a._step_map.values())
        unreachable += len(reach) < a.states
        dead += any(q not in live for q in reach)
    assert min(several, two_moves, unreachable, dead) >= 5
    # the draws of the NFA listing timing in CHANGES.md, to 200 words each
    rng = random.Random(6800)
    listed = 0
    for tracks in (1, 2):
        for _ in range(60):
            a = random_nfa(rng, tracks, AB, rng.randint(2, 6))
            got = list(islice(au.iter_column_words(a), 200))
            assert got == list(islice(subset_column_words(a, None), 200)), a
            listed += len(got)
    assert listed == 14404


def test_accepts_columns_on_dfas_and_nfas_match_subset_stepping():
    rng = random.Random(7601)
    cases = list(_dfa_cases(rng))
    cases += [random_nfa(rng, tracks, AB, rng.randint(1, 5))
              for tracks in (1, 2) for _ in range(30)]
    dfas = 0
    for a in cases:
        dfas += a.deterministic
        cols = list(a.column_universe())
        words = list(islice(subset_column_words(a, None), 10))
        words += [tuple(rng.choice(cols) for _ in range(rng.randint(0, 5)))
                  for _ in range(30)]
        for w in words:
            assert a.accepts_columns(w) == accepts_by_subsets(a, w), (a, w)
    assert dfas >= 120


def test_json_round_trip_object_and_bytes():
    m = au.determinize_minimize(fc_base(2))
    text = au.dumps(m)
    back = au.loads(text)
    assert back == m
    assert au.dumps(back) == text


def _random_emittable(rng, tracks, alphabet):
    """A random automaton that may have no states, no initial or accepting
    states and no transitions."""
    n = rng.choice([0, 1, 2, 3, 5])
    cols = list(nfa(tracks, alphabet, 0, (), (), ()).column_universe())
    trans = [(rng.randrange(n), rng.choice(cols), rng.randrange(n))
             for _ in range(rng.randint(0, 12) if n else 0)]
    return nfa(tracks, alphabet, n, rng.sample(range(n), rng.randint(0, n)),
               rng.sample(range(n), rng.randint(0, n)), trans)


def _json_dumps(doc):
    return json.dumps(doc, indent=2) + "\n"


def test_dumps_match_json_dumps_on_random_automata():
    rng = random.Random(1515)
    seen = set()
    for _ in range(400):
        alphabet = tuple(rng.sample(AB + ODD_SYMBOLS, rng.randint(1, 4)))
        a = _random_emittable(rng, rng.randint(1, 3), alphabet)
        seen.update(field for field in ("states", "initial", "accepting", "transitions")
                    if not getattr(a, field))
        assert au.dumps(a) == _json_dumps(au.to_json_dict(a))
        # the nested formats, each automaton opened deeper
        langs = tuple(_random_emittable(rng, 1, alphabet) for _ in range(rng.randint(1, 3)))
        k = len(langs)
        products = tuple(zip(langs, reversed(langs)))[:rng.randint(0, k)]
        s = rc.RecognizableRelation(alphabet, products)
        assert rc.dumps_recognizable(s) == _json_dumps(rc.recognizable_to_json_dict(s))
        p = rc.PartitionedRecognizable(langs, frozenset(
            (rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(0, 3))))
        assert rc.dumps_partitioned(p) == _json_dumps(rc.partitioned_to_json_dict(p))
        c = co.RegularColoring(langs)
        assert co.dumps_coloring(c) == _json_dumps(co.coloring_to_json_dict(c))
    assert seen == {"states", "initial", "accepting", "transitions"}


@pytest.mark.parametrize("machine", [tm.halting_fixture(), tm.looping_fixture(),
                                     tm.mixed_fixture(), tm.two_cycle_fixture()])
def test_dumps_match_json_dumps_on_machine_graphs(machine):
    # the padded machines have alphabets of 179 to 545 symbols
    for t in (machine, tm.pad_transform(machine)):
        graph = tm.config_graph(t).base
        for a in (graph, au.determinize_minimize(graph)):
            assert au.dumps(a) == _json_dumps(au.to_json_dict(a))


def test_dumps_match_json_dumps_on_machines():
    # the fixtures, their padded machines (alphabets of 179 to 545 symbols)
    # and random machines
    fixtures = [tm.halting_fixture(), tm.looping_fixture(), tm.mixed_fixture(),
                tm.two_cycle_fixture()]
    rng = random.Random(2727)
    machines = (fixtures + [tm.pad_transform(t) for t in fixtures]
                + [random_machine(rng) for _ in range(200)])
    assert any(not t.delta for t in machines) and any(not t.finals for t in machines)
    for t in machines:
        assert tm.dumps_machine(t) == _json_dumps(tm.machine_to_json_dict(t))


# ---------------------------------------------------------------------------
# what a load and the minimizer leave precomputed

def _assert_as_oracles(a):
    """``_adj``, ``_rank`` and ``deterministic``, as a load or the minimizer
    set them or as built on first read, equal the oracles', and ``dumps``
    lists the transitions in the oracle's order."""
    assert a._adj == adj_oracle(a)
    assert a._rank == rank_oracle(a)
    assert a.deterministic == deterministic_oracle(a)
    listed = [[q, list(sym), d] for q, moves in adj_oracle(a).items() for sym, d in moves]
    assert json.loads(au.dumps(a))["transitions"] == listed


def _assert_loads(text, rng):
    """``text``, an emitted automaton, loads with its transitions kept in
    their order and emits the same bytes.  Copies with the transitions
    shuffled or with duplicates load out of order to the same automaton.
    Returns the automaton loaded from ``text``."""
    d = json.loads(text)
    moves = d["transitions"]
    copies = [moves, rng.sample(moves, len(moves)),
              [t for t in moves for _ in range(2)],  # each one twice, side by side
              moves + rng.sample(moves, min(3, len(moves)))]  # repeats at the end
    first = None
    for raw in copies:
        a = au.from_json_dict(dict(d, transitions=raw))
        kept = raw == moves  # the load kept them only if they rise strictly
        assert (au._IN_ORDER in vars(a), "deterministic" in vars(a)) == (kept, kept)
        assert "_rank" in vars(a)
        _assert_as_oracles(a)
        assert au.dumps(a) == text
        first = a if first is None else first
        assert a == first
    return first


def _assert_minimized(a):
    """The canonical form of ``a``, fresh from the minimizer, kept its moves
    in order for ``_adj``; returns it."""
    c = au.determinize_minimize(a)
    assert au._IN_ORDER in vars(c) and vars(c)["deterministic"] is True
    _assert_as_oracles(c)
    return c


def _automaton_docs(doc):
    """The automata of a JSON document: its objects with transitions."""
    if isinstance(doc, dict):
        if "transitions" in doc:
            yield doc
        else:
            for v in doc.values():
                yield from _automaton_docs(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _automaton_docs(v)


def test_loads_and_minimizer_keep_the_order_on_every_fixture(tmp_path):
    assert cli.main(["fixtures", "--outdir", str(tmp_path)]) == 0
    rng = random.Random(2601)
    docs = [doc for path in sorted(tmp_path.glob("*.json"))
            for doc in _automaton_docs(json.loads(path.read_text()))]
    assert len(docs) == 10  # six relations and the separator's four languages
    for doc in docs:
        text = _json_dumps(doc)
        a = _assert_loads(text, rng)
        assert au.dumps(_assert_minimized(a)) == text  # every fixture is canonical


def test_loads_and_minimizer_keep_the_order_on_the_80_draws():
    rng = random.Random(2602)
    for r in the_80_draws():
        _assert_as_oracles(r.base)
        text = au.dumps(r.base)
        a = _assert_loads(text, rng)
        assert au.dumps(_assert_minimized(a)) == text
        # the inverse, a DFA numbered otherwise, and an NFA, each minimized afresh
        inverse = au.permute_tracks(a, (1, 0))
        for raw in (inverse, au.union(a, inverse)):
            _assert_loads(au.dumps(_assert_minimized(raw)), rng)
        # minimized from walks over classes of letters: no moves are kept
        for c in de._side_classes(r.base, 8) or ():
            assert au._IN_ORDER not in vars(c)
            _assert_as_oracles(c)


def test_loads_keep_the_order_on_random_nfas():
    rng = random.Random(2604)
    one_initial = 0
    for _ in range(60):
        a = random_nfa(rng, rng.randint(1, 2), AB, rng.randint(1, 5))
        one_initial += len(a.initial) == 1 and not deterministic_oracle(a)
        _assert_loads(au.dumps(a), rng)
        _assert_loads(au.dumps(_assert_minimized(a)), rng)
    assert one_initial >= 5


def test_loads_and_minimizer_keep_the_order_on_the_separation_graph(tmp_path, monkeypatch):
    # G: the largest incompatibility graph of the benchmark's separation round
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    texts = []
    for q in workloads.separation(41, tmp_path):
        if q.argv[0] == "incomp":
            assert cli.main(q.argv) == 0
            texts.append(Path(q.argv[q.argv.index("--out") + 1]).read_text())
    text = max(texts, key=len)
    g = _assert_loads(text, random.Random(2603))
    assert (g.states, len(g.transitions)) == (2115, 11554)
    assert au.dumps(_assert_minimized(g)) == text


def _outcome(build):
    """None if ``build()`` returns, else the class and message it raises."""
    try:
        build()
    except au.AutomataError as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("fault", [fault for fault, _error in CONSTRUCTOR_FAULTS])
def test_a_load_raises_the_constructors_error_for_each_fault(fault):
    fields = constructor_fields(fault)
    moves = list(fields["transitions"])
    assert _outcome(lambda: nfa(**fields)) == constructor_error(fault)
    # the moves in other orders, and none: a fault on the moves is then gone
    for order in (moves, moves[::-1], sorted(moves, key=repr), []):
        loaded = _outcome(lambda: au.from_json_dict(
            automaton_json(**dict(fields, transitions=order))))
        if fault in JSON_REFUSED_FAULTS:
            assert loaded[0] is au.FormatError
        else:
            assert loaded == _outcome(lambda: nfa(**dict(fields, transitions=order)))


def test_json_pad_encoding_and_errors():
    d = au.to_json_dict(fc_base(1))
    assert any(PAD in sym for _, sym, _ in
               [(t[0], t[1], t[2]) for t in d["transitions"]])
    with pytest.raises(au.AutomataError):
        au.from_json_dict({"tracks": 1})


# ---------------------------------------------------------------------------
# property tests on random small automata

def small_automaton(tracks):
    syms = []
    pool = ("a", "b", PAD)
    for sym in product(pool, repeat=tracks):
        if any(x != PAD for x in sym):
            syms.append(sym)

    @st.composite
    def build(draw):
        n = draw(st.integers(1, 5))
        ntrans = draw(st.integers(0, 12))
        trans = [
            (draw(st.integers(0, n - 1)),
             syms[draw(st.integers(0, len(syms) - 1))],
             draw(st.integers(0, n - 1)))
            for _ in range(ntrans)
        ]
        initial = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        accepting = draw(st.sets(st.integers(0, n - 1), max_size=n))
        raw = au.MultiTrackAutomaton(
            tracks=tracks, alphabet=AB, states=n,
            initial=frozenset(initial), accepting=frozenset(accepting),
            transitions=frozenset(trans))
        return au.restrict_valid_pad(raw)

    return build()


@settings(max_examples=30, deadline=None)
@given(small_automaton(2), small_automaton(2))
def test_de_morgan_on_random_automata(x, y):
    lhs = au.complement_relative(au.union(x, y))
    rhs = au.intersect(au.complement_relative(x), au.complement_relative(y))
    assert au.equivalent(lhs, rhs)


@settings(max_examples=30, deadline=None)
@given(small_automaton(1))
def test_project_after_cylindrify_is_identity(x):
    assert au.equivalent(au.project(cylindrify(x, 1), 1), x)
    assert au.equivalent(au.project(cylindrify(x, 0), 0), x)


@settings(max_examples=30, deadline=None)
@given(small_automaton(2))
def test_double_complement_and_validpad_closure(x):
    comp = au.complement_relative(x)
    assert au.satisfies_valid_pad(comp)
    assert au.equivalent(au.complement_relative(comp), x)


@settings(max_examples=30, deadline=None)
@given(small_automaton(2))
def test_operations_stay_inside_validpad(x):
    assert au.satisfies_valid_pad(x)
    assert au.satisfies_valid_pad(au.determinize_minimize(x))
    assert au.satisfies_valid_pad(au.project(x, 0))
    assert au.satisfies_valid_pad(cylindrify(x, 2))
    assert au.satisfies_valid_pad(au.permute_tracks(x, (1, 0)))


@settings(max_examples=10, deadline=None)
@given(small_automaton(2))
def test_membership_agrees_with_canonical_dfa_run(x):
    m = au.determinize_minimize(x)
    for u in words_upto(AB, 4):
        for v in words_upto(AB, 4):
            assert au.membership(x, (u, v)) == au.membership(m, (u, v))
