import hashlib
import importlib
import random
from itertools import islice, product
from pathlib import Path

import pytest

from autorel import automata as au
from autorel import definability as de
from autorel import recognizable as rc
from autorel import relations as rel

from conftest import (build_equiv_oracle, class_oracle, decompose_oracle,
                      decompose_peel_oracle, equiv_oracle, equivalent_rel,
                      kprod_definability_oracle, krec_definability_oracle,
                      least_representatives_oracle, min_cover_oracle, min_prod_oracle,
                      random_dfa, random_language,
                      random_padded_relation, random_relation, recognizable_oracle,
                      same_rows_oracle, side_classes_oracle, subset_column_words,
                      the_80_draws, union_of_classes_oracle, words_upto)

A = ("a",)
AB = ("a", "b")


def lang_star(letter, alphabet=AB):
    return au.determinize_minimize(au.MultiTrackAutomaton(
        1, alphabet, 1, frozenset({0}), frozenset({0}),
        frozenset({(0, (letter,), 0)})))


def axb():
    return rc.to_automatic(rc.RecognizableRelation(
        alphabet=AB, products=((lang_star("a"), lang_star("b")),)))


def sym_axb():
    return rc.to_automatic(rc.RecognizableRelation(
        alphabet=AB, products=((lang_star("a"), lang_star("b")),
                               (lang_star("b"), lang_star("a")))))


# ---------------------------------------------------------------------------
# the congruence

def test_equiv_of_identity_is_identity():
    ident = rel.make_identity(AB)
    eq = de.build_equiv(ident)
    assert equivalent_rel(eq, ident)
    # brute-force cross-check on words up to 3
    classes = equiv_oracle(ident, 3)
    assert all(len(c) == 1 for c in classes)


def test_equiv_of_full_is_total():
    full = rel.full_relation(AB)
    assert equivalent_rel(de.build_equiv(full), full)


def test_equiv_of_product_matches_brute_force():
    r = axb()
    eq = de.build_equiv(r)
    oracle_classes = equiv_oracle(r, 3)
    # oracle classes on words <= 3: {eps}, a+, b+, junk
    assert len(oracle_classes) == 4
    for cls in oracle_classes:
        for w in cls:
            assert eq.contains(cls[0], w)
    for c1 in oracle_classes:
        for c2 in oracle_classes:
            if c1 is not c2:
                assert not eq.contains(c1[0], c2[0])


@pytest.mark.parametrize("make", [
    lambda: rel.successor_relation(1),
    lambda: rel.successor_relation(2),
    lambda: rel.make_identity(AB),
    lambda: rel.equal_length_relation(AB),
    lambda: rel.tree_relation(),
    lambda: rel.append_one_relation(AB),
])
def test_equiv_is_an_equivalence(make):
    r = make()
    eq = de.build_equiv(r)
    ident = rel.make_identity(r.alphabet)
    assert au.included(ident.base, eq.base)                     # reflexive
    assert equivalent_rel(eq, rel.inverse(eq))              # symmetric
    assert au.included(rel.compose(eq, eq).base, eq.base)       # transitive


def test_congruence_property_sampled():
    r = axb()
    eq = de.build_equiv(r)
    ws = words_upto(AB, 3)
    for w1 in ws:
        for w2 in ws:
            if not eq.contains(w1, w2):
                continue
            for v in words_upto(AB, 3):
                assert r.contains(w1, v) == r.contains(w2, v)
                assert r.contains(v, w1) == r.contains(v, w2)


def test_build_equiv_matches_composition_oracle():
    cases = [rel.make_identity(AB), rel.equal_length_relation(AB),
             rel.successor_relation(1), rel.successor_relation(2),
             rel.tree_relation(AB), rel.append_one_relation(AB),
             rel.full_relation(AB), rel.empty_relation(AB)]
    # canonical numbering follows the alphabet's order, so ("b", "a") too
    for alphabet, count in ((AB, 16), (("a", "b", "c"), 6), (("b", "a"), 6)):
        rng = random.Random(7070 + len(alphabet))
        drawn = []
        while len(drawn) < count:
            r = random_relation(rng, alphabet, rng.randint(1, 3))
            if r.base.states <= 4:
                drawn.append(r)
        cases += drawn
    rng = random.Random(7073)
    drawn = []
    while len(drawn) < 10:  # raw NFAs: several initial states, not minimized
        r = random_padded_relation(rng, AB)
        if len(r.base.initial) > 1:
            drawn.append(r)
    cases += drawn
    for r in cases:
        assert de.build_equiv(r).base == build_equiv_oracle(r).base


def test_build_equiv_stays_small_on_a_five_state_relation():
    # the composition built about 324,000 states here before its complement
    # finished; the direct walks charge about 3,900, each walk state once
    rng = random.Random(6063)
    r = random_relation(rng, ("a", "b", "c"), rng.randint(1, 2))
    with au.state_budget(100_000):
        assert de.build_equiv(r).base.states == 206


def test_build_equiv_stays_small_on_an_eight_state_relation():
    # E is the identity; walking raw triples charged about 55,000 states
    # here, merging equivalent sides of the triples about 2,100, each walk
    # state once
    rng = random.Random(6062)
    for _ in range(2):
        r = random_relation(rng, AB, rng.randint(1, 3))
    assert r.base.states == 8
    with au.state_budget(10_000):
        eq = de.build_equiv(r)
    assert equivalent_rel(eq, rel.make_identity(AB))


def _same_rows_agree(d):
    """The walk and the raw-triple oracle have the same language, on d and
    on its inverse: their canonical bytes are equal."""
    for side in (d, au.permute_tracks(d, (1, 0))):
        assert au.dumps(au.determinize_minimize(de._same_rows(side))) == \
            au.dumps(au.determinize_minimize(same_rows_oracle(side)))


def _workload_relations(tmp_path, monkeypatch) -> list:
    """The relations of the benchmark's definability workload, seed 41."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    paths = {q.argv[q.argv.index("--r") + 1] for q in workloads.definability(41, tmp_path)}
    assert len(paths) == 12
    return [rel.relation(au.loads(Path(path).read_text())) for path in sorted(paths)]


def test_same_rows_matches_raw_triple_oracle_on_workload_relations(tmp_path, monkeypatch):
    for r in _workload_relations(tmp_path, monkeypatch):
        _same_rows_agree(au.determinize_minimize(r.base))


@pytest.mark.parametrize("alphabet", [AB, ("a", "b", "c"), ("b", "a")])
def test_same_rows_matches_raw_triple_oracle_on_random_relations(alphabet):
    rng = random.Random(7400 + len(alphabet) + (alphabet[0] == "b"))
    most = 6 - len(alphabet)  # the raw walk grows fast past that many states
    drawn = 0
    while drawn < 100:
        r = random_relation(rng, alphabet, rng.randint(1, 3))
        if r.base.states <= most:
            _same_rows_agree(r.base)
            drawn += 1


def _columns(members, col):
    """The columns that a column the same-rows walk reads stands for."""
    return product(members[col[0]], members[col[1]])


def test_same_rows_walk_minimize_directly_matches_minimizing_the_built_walk():
    # the same bytes, and each walk state charged once instead of twice
    rng = random.Random(7404)
    for alphabet in (AB, ("a", "b", "c"), ("b", "a")):
        drawn = 0
        while drawn < 20:
            d = random_relation(rng, alphabet, rng.randint(1, 3)).base
            if d.states > 5:
                continue
            drawn += 1
            for side in (d, au.permute_tracks(d, (1, 0))):
                start, successors, accepts, members, _doomed = de._same_rows_walk(side)
                with au.state_budget():
                    built = au._explore_automaton(
                        2, alphabet, start,
                        lambda s: ((c, n) for col, n in successors(s)
                                   for c in _columns(members, col)),
                        accepts)
                    rewalked = au.determinize_minimize(built)
                    assert au._active_budget().used == 2 * built.states
                with au.state_budget():
                    direct = de._same_rows(side)
                    assert au._active_budget().used == built.states
                assert au.dumps(direct) == au.dumps(rewalked)


def _with_copied_letter(r, letter, copy):
    """R over its alphabet and ``copy``, a new letter that R reads as
    ``letter`` on either track."""
    def images(x):
        return (x, copy) if x == letter else (x,)
    d = r.base
    trans = {(s, (x2, y2), t) for s, (x, y), t in d.transitions
             for x2 in images(x) for y2 in images(y)}
    return rel.relation(au.determinize_minimize(au.MultiTrackAutomaton(
        2, d.alphabet + (copy,), d.states, d.initial, d.accepting, frozenset(trans))))


def test_same_rows_reads_one_column_per_class_of_alike_letters():
    # c moves as b does from every state, so the walk reads no column with
    # a c in it, and the minimal DFA still has every column
    rng = random.Random(7405)
    drawn = 0
    while drawn < 40:
        r = random_relation(rng, AB, rng.randint(1, 3))
        if r.base.states > 3:
            continue
        drawn += 1
        d = _with_copied_letter(r, "b", "c").base
        _same_rows_agree(d)
        for side in (d, au.permute_tracks(d, (1, 0))):
            start, successors, accepts, members, _doomed = de._same_rows_walk(side)
            read = [col for col, _nxt in successors(start[0])]
            assert all("c" not in col for col in read)
            assert sorted(c for col in read for c in _columns(members, col)) == \
                sorted(au.valid_pad_automaton(2, d.alphabet).column_universe())
            with au.state_budget():
                built = au._explore_automaton(
                    2, d.alphabet, start,
                    lambda s: ((c, n) for col, n in successors(s)
                               for c in _columns(members, col)),
                    accepts)
            assert au.dumps(de._same_rows(side)) == \
                au.dumps(au.determinize_minimize(built))


def test_same_rows_least_members_put_dead_first():
    block = {3: 0, None: 1, 1: 0, 2: 1, 0: 2}
    assert de._least_members(block, None) == {0: 0, 1: 1, 2: None, 3: 1, None: None}


# ---------------------------------------------------------------------------
# decomposition

def test_decompose_full_single_class():
    dec = de.decompose(rel.full_relation(AB), 3)
    assert dec.representatives == ((),)
    assert not dec.truncated


def test_decompose_product_reps_in_shortlex_order():
    dec = de.decompose(axb(), 8)
    assert dec.representatives == ((), ("a",), ("b",), ("a", "b"))
    assert not dec.truncated
    # classes partition the words
    assert rc.partition_ok(dec.classes) is None


def test_decompose_truncates_on_infinite_index():
    dec = de.decompose(rel.make_identity(AB), 3)
    assert dec.truncated
    assert dec.representatives == ((), ("a",), ("b",), ("a", "a"))


def test_shortlex_order_matches_brute_force():
    abc = ("a", "b", "c")
    order = rel.relation(de._shortlex_order(abc))
    ws = words_upto(abc, 3)
    rank = {w: i for i, w in enumerate(ws)}  # words_upto lists them shortlex
    for u in ws:
        for v in ws:
            assert order.contains(u, v) == (rank[u] < rank[v]), (u, v)


@pytest.mark.parametrize("alphabet, count", [
    (AB, 40), (("a", "b", "c"), 20), (("b", "a"), 8)], ids=["ab", "abc", "ba"])
def test_decompose_agrees_with_the_peel(alphabet, count):
    # shortlex follows the alphabet's order, so ("b", "a") puts b first.
    # Relations of at most 4 states keep this fast: the peel builds one class
    # at a time, and on some larger relations the walks of build_equiv still
    # build tens of thousands of states
    rng = random.Random(6060 + len(alphabet))
    cases = []
    while len(cases) < count:
        r = random_relation(rng, alphabet, rng.randint(1, 3))
        if r.base.states <= 4:
            cases.append(r)
    if alphabet == AB:
        cases += [rel.make_identity(AB), rel.equal_length_relation(AB),
                  rel.successor_relation(1)]
    for r in cases:
        eq = de.build_equiv(r)
        for bound in (1, 3, 8, 64):
            reps, classes, truncated = decompose_peel_oracle(r, bound, eq)
            dec = de.decompose(r, bound)
            assert dec.representatives == reps
            assert dec.truncated == truncated
            assert dec.index == len(reps)
            assert [au.determinize_minimize(c) for c in dec.classes] == list(classes)


def _prefixes_agree(r):
    """decompose(r, b) lists the first b + 1 representatives of a larger
    bound, truncated exactly when that one lists more than b + 1."""
    bounds = (1, 3, 8, 64)
    top = de.decompose(r, bounds[-1])
    for bound in bounds[:-1]:
        dec = de.decompose(r, bound)
        assert dec.representatives == top.representatives[:bound + 1]
        assert dec.truncated == (top.index > bound)


def test_decompose_at_a_smaller_bound_is_a_prefix_on_workload_relations(tmp_path, monkeypatch):
    for r in _workload_relations(tmp_path, monkeypatch):
        _prefixes_agree(r)


@pytest.mark.parametrize("alphabet", [AB, ("a", "b", "c"), ("b", "a")],
                         ids=["ab", "abc", "ba"])
def test_decompose_at_a_smaller_bound_is_a_prefix_on_random_relations(alphabet):
    rng = random.Random(7803 + len(alphabet) + (alphabet[0] == "b"))
    drawn = 0
    while drawn < 30:
        r = random_relation(rng, alphabet, rng.randint(1, 3))
        if r.base.states <= 4:
            _prefixes_agree(r)
            drawn += 1


def test_least_representatives_keep_their_subsets_small():
    # a 7-state relation with a 150-state congruence: projecting E and <sl
    # and then determinizing built about 38,600 states; pruning dominated
    # runs charges about 4,300, each walk state once
    rng = random.Random(6062)
    for _ in range(31):
        r = random_relation(rng, AB, rng.randint(1, 3))
    eq = de.build_equiv(r)
    with au.state_budget(12_000):
        de.least_representatives(eq)
    dec = de.decompose(r, 64)
    assert dec.truncated
    assert dec.representatives == decompose_peel_oracle(r, 64, eq)[0]


def _reps_agree(eq):
    """The bit-set walk and the frozenset walk give the same canonical bytes."""
    assert au.dumps(de.least_representatives(eq)) == \
        au.dumps(least_representatives_oracle(eq))


def test_least_representatives_match_frozenset_oracle_on_workload_relations(
        tmp_path, monkeypatch):
    for r in _workload_relations(tmp_path, monkeypatch):
        _reps_agree(de.build_equiv(r))


@pytest.mark.parametrize("alphabet", [AB, ("a", "b", "c"), ("b", "a")],
                         ids=["ab", "abc", "ba"])
def test_least_representatives_match_frozenset_oracle_on_random_relations(alphabet):
    # relations of at most 4 states keep E, and so the frozenset walk, small
    rng = random.Random(7500 + len(alphabet) + (alphabet[0] == "b"))
    drawn = 0
    while drawn < 30:
        r = random_relation(rng, alphabet, rng.randint(1, 3))
        if r.base.states <= 4:
            _reps_agree(de.build_equiv(r))
            drawn += 1


def test_least_representatives_match_frozenset_oracle_on_the_80_draws():
    # The 80 draws on which the size of the congruence is measured.  A draw
    # is compared where E takes at most 5,000 units and 300 states and both
    # walks finish under 100,000 units each.  Past that a walk state is a
    # set of thousands of runs: at 100,000 units for E, draws 1, 11 and 40
    # take 20 to 150 s each.
    compared = 0
    for r in the_80_draws():
        try:
            with au.state_budget(5_000):
                eq = de.build_equiv(r)
            if eq.base.states > 300:
                continue
            with au.state_budget(100_000):
                reps = de.least_representatives(eq)
            with au.state_budget(100_000):
                oracle = least_representatives_oracle(eq)
        except au.BudgetExceededError:
            continue
        assert au.dumps(reps) == au.dumps(oracle)
        compared += 1
    assert compared >= 60


def test_truncated_decomposition_builds_classes_on_first_read(monkeypatch):
    # a class is a 1-track DFA minimized straight from its walk
    calls = []
    real = au._explore_minimal
    monkeypatch.setattr(au, "_explore_minimal",
                        lambda tracks, *a: (tracks == 1 and calls.append(1)) or real(tracks, *a))
    dec = de.decompose(rel.successor_relation(1), 64)
    assert dec.truncated and dec.index == 65 and not calls
    assert len(dec.classes) == 65 and len(calls) == 65
    assert list(au.iter_words(dec.classes[3], 5)) == [("a",) * 3]


def _decompositions_agree(r, eq, bounds, rng):
    """Reps listed on the DFA as the set-based enumerator lists them, each
    class as its composition oracle, and unions of classes as the subset
    construction of their disjoint union, byte for byte."""
    reps = de.least_representatives(eq)
    oracle: dict = {}  # representative -> class_oracle bytes
    for bound in bounds:
        dec = de.decompose(r, bound)
        listed = islice(subset_column_words(reps, None), bound + 1)
        assert dec.representatives == tuple(tuple(c[0] for c in w) for w in listed)
        for w, c in zip(dec.representatives, dec.classes):
            if w not in oracle:
                oracle[w] = au.dumps(class_oracle(eq, w))
            assert au.dumps(c) == oracle[w]
        every = range(dec.index)
        picks = [[i] for i in every] + [list(every)]
        picks += [rng.sample(every, rng.randint(2, dec.index)) for _ in range(6)
                  if dec.index >= 2]
        if not dec.truncated:
            matrix = de.QuotientMatrix.from_decomposition(dec)
            for rows, cols in de.maximal_rectangles(matrix.ones()):
                picks += [rows, cols]
        for idxs in picks:
            assert au.dumps(de._union_of_classes(dec, idxs)) == au.dumps(
                union_of_classes_oracle(r.alphabet, [dec.classes[i] for i in sorted(idxs)]))


def test_classes_and_unions_match_the_oracles_on_workload_relations(tmp_path, monkeypatch):
    # the class bounds of the workload: 4 for kREC and 1PROD, 16 and 64 for
    # 2PROD and 3PROD (and min-prod --kmax 3)
    rng = random.Random(7700)
    for r in _workload_relations(tmp_path, monkeypatch):
        _decompositions_agree(r, de.build_equiv(r), (4, 16, 64), rng)


@pytest.mark.parametrize("alphabet", [AB, ("a", "b", "c"), ("b", "a")],
                         ids=["ab", "abc", "ba"])
def test_classes_and_unions_match_the_oracles_on_random_relations(alphabet):
    # Relations of at most 4 states whose congruence has at most 300: on
    # larger ones the Reps walk, listed three times here, takes seconds
    rng = random.Random(7710 + len(alphabet) + (alphabet[0] == "b"))
    drawn = 0
    while drawn < 40:
        r = random_relation(rng, alphabet, rng.randint(1, 3))
        if r.base.states > 4:
            continue
        eq = de.build_equiv(r)
        if eq.base.states <= 300:
            _decompositions_agree(r, eq, (1, 4, 16), rng)
            drawn += 1


def test_quotient_matrix_entries_mean_block_products():
    dec = de.decompose(axb(), 8)
    m = de.QuotientMatrix.from_decomposition(dec)
    for i, u in enumerate(dec.representatives):
        for j, v in enumerate(dec.representatives):
            assert m.entries[i][j] == dec.relation.contains(u, v)
    # spot-check the block-product reading on sampled members
    members = [sorted(au.iter_words(c, 3))[:2] for c in dec.classes]
    for i in range(m.size):
        for j in range(m.size):
            for u in members[i]:
                for v in members[j]:
                    assert dec.relation.contains(u, v) == m.entries[i][j]


# ---------------------------------------------------------------------------
# recognizability

@pytest.mark.parametrize("make", [
    lambda: rel.successor_relation(1),
    lambda: rel.make_identity(AB),
    lambda: rel.equal_length_relation(AB),
], ids=["fc1", "identity", "equal-length"])
def test_not_recognizable(make):
    assert de.recognizable(make()) is False


def test_recognizable_products_and_planted_unions(rng):
    assert de.recognizable(axb()) is True
    assert de.recognizable(sym_axb()) is True
    assert de.recognizable(rel.full_relation(AB)) is True
    for _ in range(6):
        products = tuple((random_language(rng, AB), random_language(rng, AB))
                         for _ in range(rng.randint(1, 3)))
        r = rc.to_automatic(rc.RecognizableRelation(alphabet=AB, products=products))
        assert de.recognizable(r) is True


# ---------------------------------------------------------------------------
# kREC definability

def test_krec_product_witness():
    w = de.krec_definability(axb(), 4)
    assert w is not None
    assert len(w.partition) == 4
    # exactly the pairs whose row rep is in a* and column rep is in b*
    assert w.pairs == frozenset({(0, 0), (0, 2), (1, 0), (1, 2)})


def test_krec_fc1_absent_up_to_six():
    fc1 = rel.successor_relation(1)
    for k in range(1, 7):
        assert de.krec_definability(fc1, k) is None


def test_krec_full_single_block():
    w = de.krec_definability(rel.full_relation(AB), 1)
    assert w is not None and len(w.partition) == 1


def test_krec_monotone_in_k():
    r = axb()
    present = [de.krec_definability(r, k) is not None for k in range(1, 7)]
    assert present == [False, False, False, True, True, True]


# ---------------------------------------------------------------------------
# rectangle covers

def test_maximal_rectangles_galois():
    ones = frozenset({(0, 0), (0, 1), (1, 0)})
    rects = de.maximal_rectangles(ones)
    assert (frozenset({0}), frozenset({0, 1})) in rects
    assert (frozenset({0, 1}), frozenset({0})) in rects
    assert all(all((i, j) in ones for i in I for j in J) for I, J in rects)


def test_rectangle_cover_small_cases():
    ones = frozenset({(0, 0), (0, 1), (1, 0)})
    assert de.rectangle_cover(ones, 1) is None
    cover = de.rectangle_cover(ones, 2)
    assert cover is not None and len(cover) == 2
    assert de.rectangle_cover(frozenset(), 0) == []


def test_rectangle_cover_agrees_with_exhaustive_oracle(rng):
    for trial in range(60):
        m = rng.randint(1, 6)
        ones = frozenset((i, j) for i in range(m) for j in range(m)
                         if rng.random() < 0.5)
        expect = min_cover_oracle(ones, 4)
        got = None
        for k in range(0, 5):
            if de.rectangle_cover(ones, k) is not None:
                got = k
                break
        assert got == expect, (ones, got, expect)


def test_rectangle_cover_budget_is_distinct_from_no():
    # each search step charges one unit: the whole search says no, and one
    # unit less raises instead of answering
    ones = frozenset((i, j) for i in range(5) for j in range(5) if i != j)
    with au.state_budget():
        assert de.rectangle_cover(ones, 3) is None
        steps = au._active_budget().used
    with pytest.raises(au.BudgetExceededError), au.state_budget(steps - 1):
        de.rectangle_cover(ones, 3)


# ---------------------------------------------------------------------------
# kPROD definability

def test_kprod_product_is_one():
    w = de.kprod_definability(axb(), 1)
    assert w is not None and len(w.products) == 1


def test_kprod_symmetric_needs_two():
    r = sym_axb()
    assert de.kprod_definability(r, 1) is None
    w = de.kprod_definability(r, 2)
    assert w is not None and len(w.products) == 2


def test_kprod_identity_always_absent():
    ident = rel.make_identity(AB)
    for k in (1, 2, 3):
        assert de.kprod_definability(ident, k) is None


def test_min_prod_examples():
    assert de.min_prod(rel.finite_relation([], AB), 1) == 0
    assert de.min_prod(axb(), 3) == 1
    assert de.min_prod(sym_axb(), 3) == 2
    assert de.min_prod(rel.make_identity(AB), 3) is None


def test_kprod_monotone_in_k():
    r = sym_axb()
    present = [de.kprod_definability(r, k) is not None for k in (1, 2, 3)]
    assert present == [False, True, True]


def test_kprod_witness_certified_by_krec():
    r = sym_axb()
    w = de.kprod_definability(r, 2)
    dec = de.decompose(r, 16)
    assert not dec.truncated
    krec_w = de.krec_definability(r, dec.index)
    assert krec_w is not None
    assert equivalent_rel(
        rc.to_automatic(w), rc.to_automatic(krec_w.to_recognizable()))


def test_random_recognizable_roundtrip(rng):
    # build random unions of block products, then re-derive them
    for trial in range(8):
        n_states = rng.randint(1, 2)
        table = {}
        for q in range(n_states):
            for x in AB:
                table[(q, x)] = rng.randrange(n_states)
        langs = []
        for color in range(n_states):
            trans = [(q, (x,), table[(q, x)]) for q in range(n_states) for x in AB]
            langs.append(au.MultiTrackAutomaton(
                1, AB, n_states, frozenset({0}), frozenset({color}),
                frozenset(trans)))
        pairs = [(i, j) for i in range(n_states) for j in range(n_states)
                 if rng.random() < 0.6]
        if not pairs:
            continue
        s = rc.RecognizableRelation(
            alphabet=AB, products=tuple((langs[i], langs[j]) for i, j in pairs))
        r = rc.to_automatic(s)
        k = de.min_prod(r, 4)
        assert k is not None
        w = de.kprod_definability(r, k)
        assert equivalent_rel(rc.to_automatic(w), r)


def test_min_prod_builds_the_congruence_once(monkeypatch):
    cases = [axb(), sym_axb(), rel.make_identity(AB), rel.successor_relation(1),
             rel.finite_relation([("a", "b"), ("aa", "b"), ("a", "bb")], AB)]
    # reference answers: the least k whose own kPROD decision says yes
    expected = [next((k for k in (1, 2, 3)
                      if de.kprod_definability(r, k) is not None), None)
                for r in cases]
    # each side's classes are listed once, by search, and neither a side's
    # same-rows DFA, nor its Reps, nor E is built: the row side of the
    # identity and of fc1 has infinitely many classes and settles it
    calls = []
    real = de._side_classes
    monkeypatch.setattr(de, "_side_classes", lambda *a: calls.append(1) or real(*a))
    for name in ("_same_rows", "least_representatives", "build_equiv", "decompose"):
        monkeypatch.setattr(de, name, None)
    for r, want, walks in zip(cases, expected, [2, 2, 1, 1, 2]):
        calls.clear()
        assert de.min_prod(r, 3) == want
        assert len(calls) == walks
    assert expected[:3] == [1, 2, None]


# ---------------------------------------------------------------------------
# the side route: row and column classes, and their meets, against E

def _planted_relation(rng, alphabet):
    """A union of 1-3 products of partial DFAs with 1-3 states each."""
    products = tuple((random_dfa(rng, 1, alphabet, rng.randint(1, 3)),
                      random_dfa(rng, 1, alphabet, rng.randint(1, 3)))
                     for _ in range(rng.randint(1, 3)))
    return rc.to_automatic(rc.RecognizableRelation(alphabet=alphabet, products=products))


def _dumped(witness, dumps):
    return None if witness is None else dumps(witness)


def _verbs_agree_with_the_oracles(r):
    """Verdicts and witness bytes of the side route equal the E route's."""
    assert de.recognizable(r) == recognizable_oracle(r)
    assert de.min_prod(r, 3) == min_prod_oracle(r, 3)
    for k in (1, 2, 3):
        assert _dumped(de.kprod_definability(r, k), rc.dumps_recognizable) == \
            _dumped(kprod_definability_oracle(r, k), rc.dumps_recognizable)
    for k in (1, 2, 4, 6):
        assert _dumped(de.krec_definability(r, k), rc.dumps_partitioned) == \
            _dumped(krec_definability_oracle(r, k), rc.dumps_partitioned)


def _meets_agree_with_decompose(r):
    """At side bound b, the meets are E's classes (E has at most b * b), and
    a side with more than b classes means E has more than b too."""
    dec = decompose_oracle(r, 64)
    classes = None
    for bound in (1, 2, 4, 8):
        meets = de._meets(r, bound)
        if meets is None:
            assert dec.index > bound
            continue
        assert not dec.truncated and meets.representatives == dec.representatives
        if classes is None:
            classes = [au.dumps(c) for c in dec.classes]
            assert [au.dumps(c) for c in meets.classes] == classes


def test_side_route_matches_the_congruence_on_workload_relations(tmp_path, monkeypatch):
    for r in _workload_relations(tmp_path, monkeypatch):
        _verbs_agree_with_the_oracles(r)
        _meets_agree_with_decompose(r)


@pytest.mark.parametrize("alphabet", [AB, ("a", "b", "c"), ("b", "a")],
                         ids=["ab", "abc", "ba"])
def test_side_route_matches_the_congruence_on_random_relations(alphabet):
    # every other draw a planted union of products; relations of at most 5
    # states whose congruence has at most 300, as the E route lists up to
    # 65 of its representatives here
    rng = random.Random(7750 + len(alphabet) + (alphabet[0] == "b"))
    drawn = recognizable = 0
    while drawn < 50:
        r = (_planted_relation(rng, alphabet) if drawn % 2
             else random_relation(rng, alphabet, rng.randint(1, 3)))
        if r.base.states > 5 or de.build_equiv(r).base.states > 300:
            continue
        _verbs_agree_with_the_oracles(r)
        _meets_agree_with_decompose(r)
        recognizable += de.recognizable(r)
        drawn += 1
    assert 20 <= recognizable < 50


@pytest.mark.parametrize("make", [
    lambda: rel.successor_relation(1),
    lambda: rel.make_identity(AB),
    lambda: rel.finite_relation([(w, w) for w in ("a", "aa", "aaa", "b", "bb")], AB),
], ids=["fc1", "identity", "six-row-classes"])
def test_krec_walks_one_side_when_the_rows_refute(monkeypatch, make):
    r = make()
    calls = []
    real = de._side_classes
    monkeypatch.setattr(de, "_side_classes", lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(de, "_same_rows", None)
    assert de.krec_definability(r, 4) is None
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# each side's classes by search, against the same-rows DFA and its Reps

_SIDE_BOUNDS = (1, 2, 4, 8, 16, 64)


def _dumps_all(classes):
    return None if classes is None else [au.dumps(c) for c in classes]


def _side_classes_agree(d, bounds=_SIDE_BOUNDS):
    """On both sides of d, the search route gives the oracle's verdict and
    class bytes at every bound."""
    for side in (d, au.permute_tracks(d, (1, 0))):
        for bound in bounds:
            assert _dumps_all(de._side_classes(side, bound)) == \
                _dumps_all(side_classes_oracle(side, bound))


def test_side_classes_match_the_oracle_on_workload_relations(tmp_path, monkeypatch):
    for r in _workload_relations(tmp_path, monkeypatch):
        _side_classes_agree(au.determinize_minimize(r.base))


@pytest.mark.parametrize("alphabet", [AB, ("a", "b", "c"), ("b", "a")],
                         ids=["ab", "abc", "ba"])
def test_side_classes_match_the_oracle_on_random_relations(alphabet):
    # A random relation of at most 4 states, which keeps the oracle's
    # same-rows DFA and Reps small, a planted union of products, and a
    # finite relation, whose sides have up to a dozen classes in turn
    rng = random.Random(7900 + len(alphabet) + (alphabet[0] == "b"))
    drawn = several = 0
    while drawn < 24:
        if drawn % 3 == 0:
            r = random_relation(rng, alphabet, rng.randint(1, 3))
            if r.base.states > 4:
                continue
        elif drawn % 3 == 1:
            r = _planted_relation(rng, alphabet)
        else:
            words = words_upto(alphabet, 3)
            r = rel.finite_relation([("".join(rng.choice(words)), "".join(rng.choice(words)))
                                     for _ in range(rng.randint(1, 4))], alphabet)
        d = au.determinize_minimize(r.base)
        _side_classes_agree(d)
        several += len(de._side_classes(d, 64) or ()) > 2
        drawn += 1
    assert several >= 4


def test_side_classes_match_the_oracle_with_alike_letters():
    # c moves as b does from every state, so the walks read no c, and each
    # class gets its moves on c back from those on b
    rng = random.Random(7906)
    drawn = 0
    while drawn < 20:
        r = random_relation(rng, AB, rng.randint(1, 3))
        if r.base.states > 3:
            continue
        drawn += 1
        d = _with_copied_letter(r, "b", "c").base
        _side_classes_agree(d)
        for c in de._side_classes(d, 64) or ():
            on = {x: {(src, dst) for src, (y,), dst in c.transitions if y == x} for x in "bc"}
            assert on["b"] == on["c"]


def test_side_classes_match_the_oracle_on_the_80_draws():
    # A side is compared where the oracle lists it within 1,000 units at
    # bound 64, which answers the smaller bounds too; past that its
    # same-rows walk grows to thousands of states
    compared = 0
    for r in the_80_draws():
        d = au.determinize_minimize(r.base)
        for side in (d, au.permute_tracks(d, (1, 0))):
            try:
                with au.state_budget(1_000):
                    oracle = _dumps_all(side_classes_oracle(side, 64))
            except au.BudgetExceededError:
                continue
            for bound in (8, 16, 64):
                with au.state_budget(100_000):
                    got = _dumps_all(de._side_classes(side, bound))
                assert got == (None if oracle is None or len(oracle) > bound else oracle)
            compared += 1
    assert compared >= 80


def test_verbs_decide_the_draws_where_a_same_rows_walk_runs_out():
    # On draws 14 and 45 the row side's same-rows walk exhausted 100,000
    # units, and on draw 16 the column side's.  Listed by search, the row
    # side has more classes than the bound on each: the three verbs charge
    # 160 to 267 units together, and 1,227 to 6,687 if the walks went on
    # past the states that the rest of a representative dooms.
    draws = the_80_draws()
    for i in (14, 16, 45):
        with au.state_budget(100_000):
            assert de.min_prod(draws[i], 3) is None
            assert de.kprod_definability(draws[i], 2) is None
            assert de.krec_definability(draws[i], 4) is None
            assert au._active_budget().used < 500


@pytest.mark.parametrize("c", [1, 2], ids=["fc1", "fc2"])
def test_min_prod_lists_a_thin_alphabet_within_a_quadratic_charge(c):
    # fc(c) over {a} has the classes {a^n}, one per n.  At kmax 8 the
    # search for a^i charges the i + 1 subsets of a^0 .. a^i, 2 + ... +
    # 257 = 33,152 for a^1 .. a^256, and the class walks about one state
    # per rest of a representative; the charge measured is 33,412 for fc1
    # and 33,414 for fc2.  34,000 units leave no room for a walk or search
    # per class that grows with the length of the representatives.
    with au.state_budget(34_000):
        assert de.min_prod(rel.successor_relation(c), 8) is None


# ---------------------------------------------------------------------------
# decompose by one lockstep search, against the congruence E and its Reps

def test_decompose_matches_the_congruence_when_the_tracks_class_letters_apart():
    # c moves as b on the first track only, so the row side reads no c and
    # the column side does: the lockstep walk reads the common refinement
    rng = random.Random(8110)
    drawn = split = 0
    while drawn < 20:
        r = random_relation(rng, AB, rng.randint(1, 3))
        if r.base.states > 3:
            continue
        d = r.base
        trans = {(s, (x2, y), t) for s, (x, y), t in d.transitions
                 for x2 in ((x, "c") if x == "b" else (x,))}
        copied = rel.relation(au.determinize_minimize(au.MultiTrackAutomaton(
            2, ("a", "b", "c"), d.states, d.initial, d.accepting, frozenset(trans))))
        split += (de._letter_classes(copied.base)
                  != de._letter_classes(au.permute_tracks(copied.base, (1, 0))))
        for bound in (1, 4, 16):
            dec, oracle = de.decompose(copied, bound), decompose_oracle(copied, bound)
            assert dec.representatives == oracle.representatives
            assert dec.truncated == oracle.truncated
            assert [au.dumps(c) for c in dec.classes] == [au.dumps(c) for c in oracle.classes]
        drawn += 1
    assert split >= 10


def test_decompose_matches_the_congruence_on_the_80_draws():
    # A draw is compared where the E route lists it within 5,000 units at
    # bound 64, which answers bound 16 too; past that its Reps walk takes
    # up to minutes per draw
    compared = 0
    for r in the_80_draws():
        try:
            with au.state_budget(5_000):
                oracle = decompose_oracle(r, 64)
                oracle_classes = [au.dumps(c) for c in oracle.classes]
        except au.BudgetExceededError:
            continue
        for bound in (16, 64):
            with au.state_budget(100_000):
                dec = de.decompose(r, bound)
                classes = [au.dumps(c) for c in dec.classes]
            assert dec.representatives == oracle.representatives[:bound + 1]
            assert dec.truncated == (oracle.index > bound)
            assert classes == oracle_classes[:bound + 1]
        compared += 1
    assert compared >= 50


def test_decompose_builds_neither_the_congruence_nor_a_reps(monkeypatch):
    for name in ("build_equiv", "least_representatives", "_same_rows"):
        monkeypatch.setattr(de, name, None)
    dec = de.decompose(axb(), 8)
    assert dec.representatives == ((), ("a",), ("b",), ("a", "b"))
    assert rc.partition_ok(dec.classes) is None
    dec = de.decompose(rel.make_identity(AB), 3)
    assert dec.truncated and len(dec.classes) == 4


def test_decompose_lists_the_draws_where_the_reps_walk_runs_out():
    # On these draws E or the Reps walk of E exhausts 100,000 units after
    # 2 to 50 s each; the lockstep search lists 65 classes on each
    draws = the_80_draws()
    for i in (1, 11, 14, 16, 40, 41, 42, 45, 75):
        with au.state_budget(100_000):
            top = de.decompose(draws[i], 64)
            dec = de.decompose(draws[i], 16)
        assert top.truncated and top.index == 65
        assert dec.representatives == top.representatives[:17]
        assert dec.truncated == (top.index > 16)


# ---------------------------------------------------------------------------
# What the class searches list and charge, pinned

def _class_search_records():
    """Per draw, fc1, fc2 and the identity: what each side's class search
    lists at bounds 8 and 64 and decompose at bounds 16 and 64, with the
    units each call charges, building the classes included."""
    def used() -> int:
        return au._active_budget().used

    records = []
    for r in the_80_draws() + [rel.successor_relation(1), rel.successor_relation(2),
                               rel.make_identity(AB)]:
        d = au.determinize_minimize(r.base)
        for side in (d, au.permute_tracks(d, (1, 0))):
            for bound in (8, 64):
                with au.state_budget(100_000):
                    words, _classes = de._class_search((side,), bound)
                    records.append((words, used()))
                with au.state_budget(100_000):
                    records.append((_dumps_all(de._side_classes(side, bound)), used()))
        for bound in (16, 64):
            with au.state_budget(100_000):
                dec = de.decompose(r, bound)
                listed = used()
                records.append((dec.representatives, dec.truncated, _dumps_all(dec.classes),
                                listed, used()))
    return records


def test_class_searches_list_and_charge_what_they_did():
    # Any change to what the searches list or charge moves the digest; they
    # charge 848,628 units in all
    records = _class_search_records()
    assert sum(r[-1] for r in records) == 848_628
    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    assert digest == "69945d1dd78d1115"
