import random
import re
from itertools import islice, product

import pytest

from autorel import automata as au
from autorel import coloring as co
from autorel import relations as rel
from autorel import tm

from conftest import (ODD_SYMBOLS, coloring_gadget_oracle, decode_config, encode_config,
                      from_word_list, random_machine, split_head_token,
                      successor_words_oracle)

AB = ("a", "b")


# ---------------------------------------------------------------------------
# independent step simulator (the oracle): works on decoded configurations
# and re-implements the tape semantics from scratch

def step_oracle(t, word):
    parsed = decode_config(word)
    if parsed is None:
        return None
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
        return None  # falling off the left end: no successor
    return encode_config(left[:-1], left[-1], q2, (y,) + right)


def configs_upto(t, n):
    alpha = tm.config_alphabet(t)
    out = []
    for length in range(1, n + 1):
        for w in product(alpha, repeat=length):
            if decode_config(w) is not None:
                # exactly one head token, blank head only at the end
                sym, _ = split_head_token(
                    next(tok for tok in w if "|" in tok))
                if sym == t.blank and "|" not in w[-1]:
                    continue
                out.append(w)
    return out


def graph_pairs(g, max_conv_len):
    return set(rel.relation_pairs(g, max_conv_len))


# ---------------------------------------------------------------------------

def test_machine_validation():
    with pytest.raises(tm.MachineError):
        tm.make_machine(("q",), ("x",), "x", "q", (), {})  # blank in tape
    with pytest.raises(tm.MachineError):
        tm.make_machine(("q",), ("x|y",), "_", "q", (), {})  # '|' reserved
    with pytest.raises(tm.MachineError):
        tm.make_machine(("q",), ("x",), "_", "q", ("q",),
                        {("q", "x"): ("q", "x", "R")})  # rule on a final state
    with pytest.raises(tm.MachineError):
        tm.make_machine(("q",), ("x",), "_", "q", (),
                        {("q", "x"): ("q", "_", "R")})  # writing the blank


def test_config_alphabet_is_built_once_per_machine():
    t = tm.halting_fixture()
    alpha = tm.config_alphabet(t)
    heads = [tm.head_token(s, q) for s in t.tape + (t.blank,) for q in t.states]
    assert alpha == t.tape + tuple(heads)
    assert tm.config_alphabet(t) is alpha
    # kept beside the fields: an equal machine is equal and hashes alike
    twin = tm.halting_fixture()
    assert twin == t and hash(twin) == hash(t)
    assert tm.config_alphabet(twin) == alpha


def test_single_step_machine_edge():
    t = tm.make_machine(("q0", "qf"), ("x",), "_", "q0", ("qf",),
                        {("q0", "_"): ("qf", "x", "R")})
    g = tm.config_graph(t)
    assert g.contains(("_|q0",), ("x", "_|qf"))
    assert rel.successor_words(g, ("_|q0",), 3) == [("x", "_|qf")]


def test_empty_delta_machine():
    t = tm.make_machine(("q0",), ("x",), "_", "q0", (), {})
    g = tm.config_graph(t)
    assert au.is_empty(g.base)
    rep = tm.wf_checks(t, depth=4)
    assert rep.exact_ok and rep.backward_ok


@pytest.mark.parametrize("machine", [tm.halting_fixture(), tm.looping_fixture(),
                                     tm.mixed_fixture(), tm.two_cycle_fixture()])
def test_config_graph_matches_simulator(machine):
    g = tm.config_graph(machine)
    expected = set()
    for c in configs_upto(machine, 5):
        nxt = step_oracle(machine, c)
        if nxt is not None:
            expected.add((c, nxt))
    got = {p for p in graph_pairs(g, 6)
           if len(p[0]) <= 5}
    assert got == expected


def test_wf_checks_halting_fixture():
    rep = tm.wf_checks(tm.halting_fixture(), depth=8)
    assert rep.initial_no_predecessor
    assert rep.functional and rep.co_functional


@pytest.mark.parametrize("machine", [tm.halting_fixture(), tm.looping_fixture(),
                                     tm.mixed_fixture(), tm.two_cycle_fixture()])
def test_initial_configuration_has_no_predecessor(machine):
    # wf_checks reports this without a join: every step leads to a word of
    # at least two letters, and the initial configuration has one
    for t in (machine, tm.pad_transform(machine)):
        graph = tm.config_graph(t)
        start = au.word_language(tm.initial_config(t), graph.alphabet)
        assert au.is_empty(rel.preimage(graph, start))
        assert not list(au.iter_words(rel.project_second(graph), 1))


def test_wf_checks_flags_backward_cycle():
    rep = tm.wf_checks(tm.two_cycle_fixture(), depth=4)
    assert rep.co_functional  # locally fine
    assert rep.backward_cycles  # but the sampled walk finds the 2-cycle


def test_wf_checks_builds_no_inverse_and_no_join(monkeypatch):
    # the backward walks read predecessors off the step relation's automaton:
    # no inverse, no join, and no automaton built or listed per sampled word
    calls = []
    for name in ("permute_tracks", "relational_join", "_freeze", "iter_words"):
        monkeypatch.setattr(au, name, lambda *args, _name=name, _fn=getattr(au, name):
                            calls.append(_name) or _fn(*args))
    tm.wf_checks(tm.two_cycle_fixture(), depth=0)  # samples, with no backward step
    unwalked = sorted(calls)
    calls.clear()
    rep = tm.wf_checks(tm.two_cycle_fixture(), depth=4)
    assert "permute_tracks" not in calls and "relational_join" not in calls
    assert sorted(calls) == unwalked
    assert rep.sampled > 1
    assert rep.co_functional
    assert rep.backward_cycles


def test_machine_init_configs_contains_initial():
    t = tm.halting_fixture()
    inits = tm.machine_init_configs(t)
    assert au.membership(inits, (tm.initial_config(t),))


@pytest.mark.parametrize("machine", [tm.halting_fixture(), tm.looping_fixture(),
                                     tm.mixed_fixture(), tm.two_cycle_fixture()])
def test_empty_preimage_agrees_with_machine_init_configs(machine):
    # the test wf_checks makes of the initial configuration, made of every
    # configuration up to length 3; the padded machine has 179 to 545
    # symbols and up to 270,750 such words at one join each, so every 53rd
    for t, stride in ((machine, 1), (tm.pad_transform(machine), 53)):
        graph = tm.config_graph(t)
        inits = tm.machine_init_configs(t)
        verdicts = set()
        for w in islice(au.iter_words(tm.configs_language(t), 3), 0, None, stride):
            no_pred = au.is_empty(rel.preimage(graph, au.word_language(w, graph.alphabet)))
            assert no_pred == au.membership(inits, (w,)), w
            verdicts.add(no_pred)
        assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# tagged coloring gadget

def test_gadget_out_neighbors_of_blue_initial():
    t = tm.halting_fixture()
    e = tm.coloring_gadget(t, 2)
    c0 = tm.initial_config(t)
    succ = set(rel.successor_words(e, ("B",) + c0, 4))
    assert ("R",) + c0 in succ  # case 1: recolor edge
    # case 3: every other predecessor-free configuration, tagged blue
    inits = tm.machine_init_configs(t)
    for w in au.iter_words(inits, 3):
        if w != c0:
            assert ("B",) + w in succ
    # no blue-blue edge from non-initial configurations
    assert not e.contains(("B", "1", "_|q1"), ("B", "1", "1", "_|q1"))


def test_gadget_bounded_slice_is_bipartite_forest():
    t = tm.halting_fixture()
    e = tm.coloring_gadget(t, 2)
    edges = [p for p in rel.relation_pairs(e, 5)]
    adj = {}
    indeg = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        indeg[v] = indeg.get(v, 0) + 1
        indeg.setdefault(u, indeg.get(u, 0))
    # 2-colorable by BFS
    color = {}
    for s in adj:
        if s in color:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            cur = stack.pop()
            for nb in adj.get(cur, ()):
                if nb not in color:
                    color[nb] = 1 - color[cur]
                    stack.append(nb)
                else:
                    assert color[nb] != color[cur]
    # red vertices have out-degree <= 1
    for u, vs in adj.items():
        if u[0] == "R":
            assert len(vs) <= 1


def test_gadget_reach_coloring_proper_exact():
    t = tm.halting_fixture()
    e = tm.coloring_gadget(t, 2)
    alpha = e.alphabet
    reach = tm.reach_bfs(tm.config_graph(t), tm.initial_config(t), 8).words
    reach_lang = from_word_list(reach, alpha)
    configs = au.extend_alphabet(tm.configs_language(t), alpha)
    not_reach = au.determinize_minimize(au.difference(configs, reach_lang))

    def prepend(lang, letter):
        n = lang.states
        return au.MultiTrackAutomaton(
            1, lang.alphabet, n + 1, frozenset({n}), lang.accepting,
            frozenset(set(lang.transitions)
                      | {(n, (letter,), q) for q in lang.initial}))

    c1 = au.determinize_minimize(au.union(prepend(reach_lang, "B"),
                                          prepend(not_reach, "R")))
    c2 = au.complement_relative(c1)
    verdict = co.verify_coloring(e, co.RegularColoring(colors=(c1, c2)))
    assert verdict.ok


def test_gadget_clique_extension():
    t = tm.halting_fixture()
    e = tm.coloring_gadget(t, 4)
    assert e.contains(("K#1",), ("K#2",))
    assert e.contains(("K#2",), ("K#1",))
    assert not e.contains(("K#1",), ("K#1",))
    c0 = tm.initial_config(t)
    assert e.contains(("K#1",), ("B",) + c0)


# Units the gadget charges, for the machine and for its pad transform, at
# k = 2, 3, 4.  At k = 2: the states of the join for pi2(step), then those
# of the one walk over the tagged parts.  k = 3 adds the 3 states of the
# K.c part, which walks configs_language beside padding.  k = 4 adds the
# one accepting state that the (K#i, K#j) columns lead to, and the 2 units
# charged for those columns, n(n-1) with n = k - 2.  The (B,B) part leaves
# c_init out at its first column, so no state is reached by c_init's word.
GADGET_UNITS = {
    tm.halting_fixture(): ((21, 24, 27), (82, 85, 88)),
    tm.looping_fixture(): ((15, 18, 21), (59, 62, 65)),
    tm.mixed_fixture(): ((27, 30, 33), (109, 112, 115)),
    tm.two_cycle_fixture(): ((23, 26, 29), (73, 76, 79)),
}


@pytest.mark.parametrize("machine", list(GADGET_UNITS))
def test_gadget_matches_the_union_of_three_prepended_parts(machine):
    # one deterministic walk gives the bytes of the NFA of three prepended
    # parts, and charges fewer units than building those parts does
    for units, t in zip(GADGET_UNITS[machine], (machine, tm.pad_transform(machine))):
        for k, pinned in zip((2, 3, 4), units):
            with au.state_budget():
                got = au.dumps(tm.coloring_gadget(t, k).base)
                charged = au._active_budget().used
            with au.state_budget():
                want = au.dumps(coloring_gadget_oracle(t, k).base)
                oracle_charged = au._active_budget().used
            assert got == want, (t, k)
            assert charged == pinned < oracle_charged, (t, k, charged, oracle_charged)


def _random_machines():
    """40 seeded machines, every fourth drawn with the tag letters among its
    symbols, and the pad transform of each reversible one."""
    rng = random.Random(3030)
    tags = ("B", "R", "K#1")
    machines = [random_machine(rng, ("a", "b") + ODD_SYMBOLS + (tags if i % 4 == 0 else ()))
                for i in range(40)]
    padded = []
    for t in machines:
        try:
            padded.append(tm.pad_transform(t))
        except tm.PadTransformError:
            pass
    return machines, padded


def test_config_graph_is_deterministic():
    # the gadget's (R,B) part walks the step DFA one state at a time
    fixtures = [f() for f in (tm.halting_fixture, tm.looping_fixture,
                              tm.mixed_fixture, tm.two_cycle_fixture)]
    machines, padded = _random_machines()
    for t in fixtures + [tm.pad_transform(t) for t in fixtures] + machines + padded:
        assert tm.config_graph(t).base.deterministic, t


def test_gadget_matches_the_oracle_on_random_machines():
    machines, padded = _random_machines()
    clashes = 0
    for t in machines + padded:
        for k in (2, 3, 4):
            try:
                want = au.dumps(coloring_gadget_oracle(t, k).base)
            except tm.MachineError as e:
                clashes += 1
                with pytest.raises(tm.MachineError, match=re.escape(str(e))):
                    tm.coloring_gadget(t, k)
                continue
            assert au.dumps(tm.coloring_gadget(t, k).base) == want, (t, k)
    assert padded and clashes


def test_gadget_charges_its_clique_columns_before_writing_them():
    # (K#i, K#j) columns lead to one state, so only the charge for the
    # n(n-1) columns, n = k - 2, exhausts the budget
    t = tm.halting_fixture()
    with au.state_budget(1000), pytest.raises(au.BudgetExceededError):
        tm.coloring_gadget(t, 100)
    with au.state_budget():
        tm.coloring_gadget(t, 100)
        assert au._active_budget().used == GADGET_UNITS[t][0][0] + 3 + 1 + 98 * 97


def test_gadget_tag_clash_rejected():
    bad = tm.make_machine(("q0",), ("B",), "_", "q0", (), {})
    with pytest.raises(tm.MachineError):
        tm.coloring_gadget(bad, 2)
    # a clique letter collides only when k adds it
    clique_clash = tm.make_machine(("q0",), ("K#1",), "_", "q0", (), {})
    with pytest.raises(tm.MachineError, match="'K#1' collides"):
        tm.coloring_gadget(clique_clash, 3)
    c0 = tm.initial_config(clique_clash)
    assert tm.coloring_gadget(clique_clash, 2).contains(("B",) + c0, ("R",) + c0)


def test_gadget_available_through_the_fixture_registry():
    t = tm.halting_fixture()
    via_registry = rel.fixtures("gadget", machine=t, k=2)
    direct = tm.coloring_gadget(t, 2)
    assert au.equivalent(via_registry.base, direct.base)


def _machines_and_pads():
    """The fixture machines, their pad transforms, the 40 random machines
    and the pad transforms of the reversible ones."""
    fixtures = [f() for f in (tm.halting_fixture, tm.looping_fixture,
                              tm.mixed_fixture, tm.two_cycle_fixture)]
    machines, padded = _random_machines()
    return fixtures + [tm.pad_transform(t) for t in fixtures] + machines + padded


def test_configurations_beside_one_word_match_the_join():
    # the successors and predecessors of the first 60 configurations of
    # length <= 4, as tm-check's backward walks ask for them
    found = set()
    for t in _machines_and_pads():
        graph = tm.config_graph(t)
        inv = rel.inverse(graph)
        for w in islice(au.iter_words(tm.configs_language(t), 4), 60):
            m = len(w) + 2
            succ = rel.successor_words(graph, w, m)
            pred = rel.predecessor_words(graph, w, m)
            assert succ == successor_words_oracle(graph, w, m), (t, w)
            assert pred == successor_words_oracle(inv, w, m), (t, w)
            found.update({"succ"} if succ else (), {"pred"} if pred else ())
    assert found == {"succ", "pred"}


def test_reach_matches_the_join_route(monkeypatch):
    for t in _machines_and_pads():
        graph, start = tm.config_graph(t), tm.initial_config(t)
        got = tm.reach_bfs(graph, start, 10, max_steps=200)
        with monkeypatch.context() as m:
            m.setattr(rel, "successor_words", successor_words_oracle)
            assert got == tm.reach_bfs(graph, start, 10, max_steps=200), t


# ---------------------------------------------------------------------------
# reach

def test_reach_examples():
    fc1 = rel.successor_relation(1)
    res = tm.reach_bfs(fc1, (), 4)
    assert [len(w) for w in res.words] == [0, 1, 2, 3, 4]
    assert res.truncated  # the chain continues past the cap
    ident = rel.make_identity(AB)
    assert tm.reach_bfs(ident, ("a",), 4).words == (("a",),)
    t = tm.halting_fixture()
    res = tm.reach_bfs(tm.config_graph(t), tm.initial_config(t), 6)
    assert len(res.words) == 3 and not res.truncated


# ---------------------------------------------------------------------------
# pad_transform

def proj_ab(word):
    return "".join(c for c in word if c in ("a", "b"))


def test_pad_transform_requires_reversibility():
    bad = tm.make_machine(
        ("p", "q"), ("x", "z"), "_", "p", (),
        {("p", "x"): ("q", "z", "R"), ("p", "z"): ("q", "z", "R")})
    with pytest.raises(tm.PadTransformError):
        tm.pad_transform(bad)


def test_pad_transform_rejects_symbol_clash():
    clash = tm.make_machine(("q0",), ("a",), "_", "q0", (), {})
    with pytest.raises(tm.PadTransformError):
        tm.pad_transform(clash)


def test_pad_transform_halting_reach_is_finite():
    t2 = tm.pad_transform(tm.halting_fixture())
    res = tm.reach_bfs(tm.config_graph(t2), tm.initial_config(t2), 16,
                       max_steps=500)
    assert not res.truncated
    final = res.words[-1]
    assert any("run:qf" in tok for tok in final)


def test_pad_transform_simulates_the_original():
    # run-state configurations, with the zone erased and twins unmarked,
    # are exactly the original machine's reachable configurations after its
    # first step (the bootstrap fuses step one into the zone seeding)
    t = tm.halting_fixture()
    t2 = tm.pad_transform(t)
    res = tm.reach_bfs(tm.config_graph(t2), tm.initial_config(t2), 16,
                       max_steps=500)
    orig = tm.reach_bfs(tm.config_graph(t), tm.initial_config(t), 8).words

    def shadow(word):
        out = []
        for tok in word:
            if "|" in tok:
                sym, state = split_head_token(tok)
                if not state.startswith("run:"):
                    return None
                if sym.endswith("~"):
                    sym = sym[:-1]
                elif sym not in t.tape:
                    sym = t.blank  # head parked on a zone letter
                out.append(tm.head_token(sym, state[4:]))
            elif tok in t.tape:
                out.append(tok)
            elif tok.endswith("~") and tok[:-1] in t.tape:
                out.append(tok[:-1])
        return tuple(out) if any("|" in tok for tok in out) else None

    shadows = {shadow(w) for w in res.words} - {None}
    assert shadows == set(orig) - {tm.initial_config(t)}


@pytest.mark.parametrize("fixture", [tm.halting_fixture(), tm.looping_fixture(),
                                     tm.mixed_fixture()])
def test_pad_transform_exact_reversibility(fixture):
    t2 = tm.pad_transform(fixture)
    g2 = tm.config_graph(t2)
    assert rel.functional(g2)
    assert rel.co_functional(g2)


def test_exact_reversibility_check_charges_the_budget():
    graph = tm.config_graph(tm.pad_transform(tm.halting_fixture()))
    with pytest.raises(au.BudgetExceededError), au.state_budget(5):
        rel.functional(graph)
    with pytest.raises(au.BudgetExceededError), au.state_budget(5):
        rel.co_functional(graph)


def test_pad_transform_zone_shape_on_diverging_machine():
    t2 = tm.pad_transform(tm.looping_fixture())
    res = tm.reach_bfs(tm.config_graph(t2), tm.initial_config(t2), 18,
                       max_steps=400)
    assert res.truncated  # diverges
    for w in res.words:
        p = proj_ab(w)
        assert re.fullmatch(r"a*b*", p)
        assert abs(p.count("a") - p.count("b")) <= 2


def test_pad_transform_initial_has_no_predecessor():
    t2 = tm.pad_transform(tm.halting_fixture())
    inits = tm.machine_init_configs(t2)
    assert au.membership(inits, (tm.initial_config(t2),))


# ---------------------------------------------------------------------------
# machine JSON

def test_machine_json_round_trip():
    for t in (tm.halting_fixture(), tm.looping_fixture(),
              tm.pad_transform(tm.looping_fixture())):
        text = tm.dumps_machine(t)
        assert tm.loads_machine(text) == t
        assert tm.dumps_machine(tm.loads_machine(text)) == text


def test_pad_transform_mixed_rules_zone_and_simulation():
    # a halting run that re-reads a written symbol drives the three-trip
    # thread and the cell-one twin triggers end to end
    t = tm.mixed_fixture()
    t2 = tm.pad_transform(t)
    g2 = tm.config_graph(t2)
    res = tm.reach_bfs(g2, tm.initial_config(t2), 18, max_steps=600)
    assert not res.truncated
    for w in res.words:
        p = proj_ab(w)
        assert re.fullmatch(r"a*b*", p)
        assert abs(p.count("a") - p.count("b")) <= 2
    final = [w for w in res.words if any("run:qf" in c for c in w)]
    assert final and final[-1][0] == "2~"
