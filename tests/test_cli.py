import contextlib
import copy
import gc
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from autorel import automata as au
from autorel import cli
from autorel import coloring as co
from autorel import definability as de
from autorel import dot
from autorel import recognizable as rc
from autorel import relations as rel
from autorel import tm

from conftest import (CONSTRUCTOR_FAULTS, JSON_REFUSED_FAULTS, automaton_json,
                      constructor_error, constructor_fields, valid_pad_walk_size)


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    assert cli.main(["fixtures", "--outdir", str(d)]) == 0
    return d


@pytest.fixture(scope="module")
def readers(fx, tmp_path_factory):
    """A file of each input kind but relations, and a verb that reads it
    with its other inputs fixed; "BAD" marks the file's place."""
    col = tmp_path_factory.mktemp("coloring") / "parity-coloring.json"
    col.write_text(co.dumps_coloring(co.RegularColoring(rc.even_odd_languages())))
    fc1, fc2 = str(fx / "fc1.json"), str(fx / "fc2.json")
    return {
        "parity-separator.json": (fx / "parity-separator.json",
                                  ("sep-verify", "--s", "BAD", "--r1", fc1, "--r2", fc2)),
        "parity-coloring.json": (col, ("color-verify", "--graph", fc1, "--coloring", "BAD")),
        "demo-machine.json": (fx / "demo-machine.json",
                              ("tm-check", "--tm", "BAD", "--depth", "4")),
    }


def run(*args):
    return cli.main(list(args))


def test_fixtures_are_deterministic(fx, tmp_path):
    again = tmp_path / "again"
    assert run("fixtures", "--outdir", str(again)) == 0
    for p in fx.iterdir():
        assert (again / p.name).read_bytes() == p.read_bytes()


def test_sep_verify_parity_separator(fx):
    assert run("sep-verify", "--s", str(fx / "parity-separator.json"),
               "--r1", str(fx / "fc1.json"), "--r2", str(fx / "fc2.json")) == 0
    # swapped instance fails
    assert run("sep-verify", "--s", str(fx / "parity-separator.json"),
               "--r1", str(fx / "fc2.json"), "--r2", str(fx / "fc1.json")) == 1


def test_definable_krec_exit_codes(fx, tmp_path):
    assert run("definable-krec", "--k", "2", "--r", str(fx / "fc1.json")) == 1
    out = tmp_path / "w.json"
    assert run("definable-krec", "--k", "1", "--r", str(fx / "equal-length.json"),
               "--out", str(out)) == 1
    # equal-length is recognizable? no: index is infinite, so stays 1


def test_definable_kprod_and_min_prod(fx, tmp_path):
    assert run("definable-kprod", "--k", "1", "--r", str(fx / "fc1.json")) == 1
    assert run("min-prod", "--kmax", "2", "--r", str(fx / "fc1.json")) == 1


def test_color_search_witness_reverifies(fx, tmp_path):
    col = tmp_path / "col.json"
    assert run("color-search", "--k", "2", "--states", "2",
               "--graph", str(fx / "length-incomp.json"),
               "--out", str(col)) == 0
    assert run("color-verify", "--graph", str(fx / "length-incomp.json"),
               "--coloring", str(col)) == 0


def test_incomp_and_separator_from_coloring(fx, tmp_path):
    g = tmp_path / "g.json"
    assert run("incomp", "--r1", str(fx / "equal-length.json"),
               "--r2", str(fx / "append-one.json"), "--out", str(g)) == 0
    assert g.read_bytes() == (fx / "length-incomp.json").read_bytes()
    col = tmp_path / "col.json"
    assert run("color-search", "--k", "2", "--states", "2",
               "--graph", str(g), "--out", str(col)) == 0
    sep = tmp_path / "sep.json"
    assert run("separator-from-coloring", "--r1", str(fx / "equal-length.json"),
               "--r2", str(fx / "append-one.json"),
               "--coloring", str(col), "--out", str(sep)) == 0
    assert run("sep-verify", "--s", str(sep),
               "--r1", str(fx / "equal-length.json"),
               "--r2", str(fx / "append-one.json")) == 0


def test_reduce_modes(fx, tmp_path):
    out = tmp_path / "e.json"
    assert run("reduce", "--mode", "sep-to-color",
               "--r1", str(fx / "fc1.json"), "--r2", str(fx / "fc2.json"),
               "--out", str(out)) == 0
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run("reduce", "--mode", "color-to-sep", "--graph", str(fx / "fc1.json"),
               "--out1", str(o1), "--out2", str(o2)) == 0
    assert run("reduce", "--mode", "def-to-sep", "--r", str(fx / "fc1.json"),
               "--out1", str(o1), "--out2", str(o2)) == 0


@pytest.mark.parametrize("argv, missing", [
    (("--mode", "sep-to-color", "--out", "OUT"), "--r1, --r2"),
    (("--mode", "sep-to-color", "--r1", "FC1", "--r2", "FC1"), "--out"),
    (("--mode", "def-to-sep", "--out1", "OUT", "--out2", "OUT"), "--r"),
    (("--mode", "color-to-sep", "--graph", "FC1"), "--out1, --out2"),
    (("--mode", "color-to-sep", "--graph", "FC1", "--out1", "OUT"), "--out2"),
], ids=["sep-to-color-inputs", "sep-to-color-output", "def-to-sep-input",
        "color-to-sep-outputs", "color-to-sep-out2"])
def test_reduce_needs_each_input_and_output_of_its_mode(fx, tmp_path, capsys,
                                                        argv, missing):
    paths = {"FC1": str(fx / "fc1.json"), "OUT": str(tmp_path / "out.json")}
    assert run("reduce", *(paths.get(a, a) for a in argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.rstrip().endswith(missing)
    assert not (tmp_path / "out.json").exists()


def test_sep_1prod(fx, tmp_path):
    assert run("sep-1prod", "--r1", str(fx / "fc1.json"),
               "--r2", str(fx / "fc2.json")) == 1


def test_lift_kprod(fx, tmp_path):
    o1, o2 = tmp_path / "l1.json", tmp_path / "l2.json"
    assert run("lift-kprod", "--r1", str(fx / "fc1.json"),
               "--r2", str(fx / "fc2.json"), "--k", "3",
               "--out1", str(o1), "--out2", str(o2)) == 0
    d = json.loads(o1.read_text())
    assert "a#1" in d["alphabet"]


def test_tm_pipeline(fx, tmp_path):
    g = tmp_path / "g.json"
    assert run("tm-compile", "--tm", str(fx / "demo-machine.json"),
               "--out", str(g)) == 0
    assert run("tm-check", "--tm", str(fx / "demo-machine.json"),
               "--depth", "6") == 0
    t4 = tmp_path / "t4.json"
    assert run("tm-gadget", "--tm", str(fx / "demo-machine.json"),
               "--k", "2", "--out", str(t4)) == 0
    padded = tmp_path / "padded.json"
    assert run("tm-pad", "--tm", str(fx / "demo-machine.json"),
               "--out", str(padded)) == 0
    assert run("tm-check", "--tm", str(padded), "--depth", "4") == 0


_IRREVERSIBLE = tm.make_machine(
    ("p", "q"), ("x", "z"), "_", "p", (),
    {("p", "x"): ("q", "z", "R"), ("p", "z"): ("q", "z", "R")})


def test_tm_pad_rejects_irreversible(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(tm.dumps_machine(_IRREVERSIBLE))
    assert run("tm-pad", "--tm", str(path)) == 1


def test_reach_and_dot(fx, tmp_path, capsys):
    assert run("reach", "--rel", str(fx / "fc1.json"), "--start", "",
               "--max-len", "3") == 0
    out = capsys.readouterr().out
    assert "aaa" in out
    dotfile = tmp_path / "g.dot"
    assert run("export-dot", "--graph", str(fx / "fc1.json"),
               "--max-len", "3", "--out", str(dotfile)) == 0
    text = dotfile.read_text()
    assert "digraph" in text and '"aa" -> "aaa"' in text


def test_reach_rejects_a_start_word_outside_the_alphabet(fx, capsys):
    assert run("reach", "--rel", str(fx / "fc1.json"), "--start", "zz") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'z'" in captured.err


@pytest.mark.parametrize("max_steps", ["0", "1"])
def test_reach_checks_the_start_word_before_any_step(fx, capsys, max_steps):
    assert run("reach", "--rel", str(fx / "fc1.json"), "--start", "zz",
               "--max-steps", max_steps) == 2
    assert capsys.readouterr() == ("", "error: symbol 'z' outside alphabet\n")


def _in_process(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _in_own_process(argv, cwd) -> tuple:
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-m", "autorel.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, encoding="utf-8")
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("edit, message", [
    # fc1's columns ("a", "a") and ("_", "a") both have the wrong arity
    ({"tracks": 3}, "column ('_', 'a') has wrong arity"),
    # both transitions lead to state 1 of 1
    ({"states": 1, "accepting": [0], "transitions": [[0, ["b", "b"], 1], [0, ["a", "a"], 1]]},
     "transition state out of range: (0, ('a', 'a'), 1)"),
    # every constructor fault a JSON file can carry: a load reports it as the constructor does
    *[(automaton_json(**constructor_fields(fault)), constructor_error(fault)[1])
      for fault, _error in CONSTRUCTOR_FAULTS if fault not in JSON_REFUSED_FAULTS],
])
def test_bad_column_or_transition_error_is_the_same_under_two_hash_seeds(
        fx, tmp_path, edit, message):
    # of several faults, the one reported is the first in repr order
    d = json.loads((fx / "fc1.json").read_text())
    d["alphabet"] = ["a", "b"]
    d.update(edit)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for seed in ("0", "1"):
        done = subprocess.run([sys.executable, "-m", "autorel.cli", "recognizable",
                               "--r", str(bad)], env=dict(env, PYTHONHASHSEED=seed),
                              capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (2, f"error: {message}\n")


def test_verbs_back_to_back_match_each_run_alone(fx, tmp_path, monkeypatch):
    fc1, fc2 = str(fx / "fc1.json"), str(fx / "fc2.json")
    sep = ("sep-verify", "--s", str(fx / "parity-separator.json"),
           "--r1", fc1, "--r2", fc2)
    calls = [
        sep,
        ("min-prod", "--r", fc1, "--kmax", "2"),
        ("reach", "--rel", fc1, "--start", "", "--max-len", "3"),
        ("no-such-verb",),
        ("tm-check", "--tm", str(fx / "demo-machine.json"), "--depth", "4"),
        ("make-rel", "--spec", "(union (fc 1) (fc 2))", "--out", "u.json"),
        ("make-rel", "--spec", "(fc", "--out", "bad.json"),
        ("sep-verify", "--s", str(fx / "parity-separator.json")),
        ("reach", "--rel", fc1, "--start", "zz"),
        ("--budget", "30", *sep),
        sep,
    ]
    together, alone = tmp_path / "together", tmp_path / "alone"
    together.mkdir()
    alone.mkdir()
    monkeypatch.chdir(together)
    got = [_in_process(argv) for argv in calls]
    want = [_in_own_process(argv, alone) for argv in calls]
    assert got == want
    assert [code for code, _out, _err in got] == [0, 1, 0, 2, 0, 0, 2, 2, 2, 2, 0]
    assert sorted(os.listdir(together)) == sorted(os.listdir(alone)) == ["u.json"]
    assert (together / "u.json").read_bytes() == (alone / "u.json").read_bytes()


def test_export_dot_with_coloring_and_secondary(fx, tmp_path):
    col = tmp_path / "col.json"
    run("color-search", "--k", "2", "--states", "2",
        "--graph", str(fx / "length-incomp.json"), "--out", str(col))
    dotfile = tmp_path / "c.dot"
    assert run("export-dot", "--graph", str(fx / "equal-length.json"),
               "--r2", str(fx / "append-one.json"),
               "--coloring", str(col), "--max-len", "2",
               "--out", str(dotfile)) == 0
    text = dotfile.read_text()
    assert "fillcolor" in text and "style=dashed" in text


@pytest.mark.parametrize("graph, secondary", [("fc1.json", "equal-length.json"),
                                               ("equal-length.json", "fc1.json")])
def test_export_dot_refuses_a_secondary_over_another_alphabet(fx, capsys, graph, secondary):
    assert run("export-dot", "--graph", str(fx / graph), "--r2", str(fx / secondary),
               "--max-len", "2") == 2
    assert capsys.readouterr() == (
        "", "error: graph and secondary relation must share the alphabet\n")


@pytest.mark.parametrize("colored, graph", [("length-incomp.json", "fc1.json"),
                                            ("fc1.json", "equal-length.json")])
def test_export_dot_refuses_a_coloring_over_another_alphabet(fx, tmp_path, capsys,
                                                             colored, graph):
    # a coloring over {a, b} on a graph over {a}, and one over {a} on {a, b}
    col = tmp_path / "col.json"
    assert run("color-search", "--k", "2", "--states", "2", "--graph", str(fx / colored),
               "--out", str(col)) == 0
    capsys.readouterr()
    assert run("export-dot", "--graph", str(fx / graph), "--coloring", str(col),
               "--max-len", "2") == 2
    assert capsys.readouterr() == ("", "error: graph and coloring must share the alphabet\n")


def test_export_dot_gives_words_that_spell_one_label_their_own_nodes():
    # ("a", "b") and ("ab",) both read "ab"
    r = rel.finite_relation([(("a", "b"), ("ab",))], ("a", "b", "ab"))
    lines = dot.export_dot(r, 2).splitlines()
    nodes = {line.split(" [")[0].strip(): line for line in lines if " [label=" in line}
    assert len(nodes) == 1 + 3 + 9
    [edge] = [line.strip(" ;") for line in lines if " -> " in line]
    u, v = edge.split(" -> ")
    assert u != v
    assert 'label="ab"' in nodes[u] and 'label="ab"' in nodes[v]


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run("sep-verify", "--s", str(bad), "--r1", str(bad),
               "--r2", str(bad)) == 2
    missing = tmp_path / "missing.json"
    assert run("tm-check", "--tm", str(missing)) == 2


@pytest.mark.parametrize("verb", [("recognizable", "--r"), ("tm-check", "--tm")])
def test_non_utf8_input_exits_2(tmp_path, capsys, verb):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00")
    assert run(*verb, str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000],
                         ids=["open", "closed"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, text):
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    assert run("recognizable", "--r", str(deep)) == 2
    assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"
    # loaded by a spec, the file is named, not the spec's own nesting
    assert run("make-rel", "--spec", f'(load "{deep}")', "--out", str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err == f"error: (load {str(deep)!r}): JSON nested too deeply\n"


def test_tm_check_budget_exhausted_exit_code(fx, tmp_path):
    padded = tmp_path / "padded.json"
    assert run("tm-pad", "--tm", str(fx / "demo-machine.json"),
               "--out", str(padded)) == 0
    assert run("--budget", "5", "tm-check", "--tm", str(padded)) == 2


@pytest.mark.parametrize("argv", [
    # loading fc1 charges 4, its canonical DFA 2, the row side's class
    # walks 6 and the searches for a, aa, aaa and aaaa, its representatives
    # past the first four at side bound 4, 2 + 3 + 4 + 5: 26 in all
    ("--budget", "20", "min-prod", "--r", "FC1", "--kmax", "2"),
    ("--budget", "30", "sep-verify", "--s", "PARITY", "--r1", "FC1", "--r2", "FC2"),
])
def test_budget_bounds_the_whole_command(fx, capsys, argv):
    # each construction fits alone; together they build more states
    paths = {"FC1": str(fx / "fc1.json"), "FC2": str(fx / "fc2.json"),
             "PARITY": str(fx / "parity-separator.json")}
    assert run(*(paths.get(a, a) for a in argv)) == 2
    assert capsys.readouterr().err.startswith("budget exhausted: ")


def test_definability_verbs_never_build_the_congruence(fx, tmp_path, monkeypatch, capsys):
    # kREC, kPROD and min-prod list each side's classes by search: they
    # build no same-rows DFA, no Reps and no E; recognizable walks the row
    # side's same-rows DFA and its Reps once
    fin = str(tmp_path / "fin.json")
    assert run("make-rel", "--spec", "(union (pairs (a b) (aa b)) (pairs (b a) (bb a)))",
               "--out", fin) == 0
    calls: dict = {}
    for name in ("_side_classes", "_same_rows", "least_representatives"):
        real = getattr(de, name)
        monkeypatch.setattr(de, name, lambda *a, name=name, real=real:
                            calls.setdefault(name, []).append(1) or real(*a))
    monkeypatch.setattr(de, "build_equiv", None)
    monkeypatch.setattr(de, "decompose", None)
    codes, sides = [], 0
    for r in (str(fx / "fc1.json"), str(fx / "equal-length.json"), fin):
        calls.clear()
        codes.append(run("recognizable", "--r", r))
        assert calls == {"_same_rows": [1], "least_representatives": [1]}
        for argv in (("min-prod", "--kmax", "2"), ("definable-kprod", "--k", "2"),
                     ("definable-krec", "--k", "5")):
            calls.clear()
            codes.append(run(*argv, "--r", r))
            assert list(calls) == ["_side_classes"]
            sides += len(calls["_side_classes"])
    assert codes == [1] * 8 + [0] * 4
    # one side for each verb on the first two, both sides on fin
    assert sides == 2 * 3 + 3 * 2


def test_min_prod_of_the_empty_relation_is_zero(tmp_path, capsys):
    empty = str(tmp_path / "empty.json")
    assert run("make-rel", "--spec", "(pairs)", "--alphabet", "a,b", "--out", empty) == 0
    capsys.readouterr()
    assert run("min-prod", "--kmax", "3", "--r", empty) == 0
    assert capsys.readouterr().out == "min products: 0\n"
    assert run("definable-kprod", "--k", "1", "--r", empty) == 0
    assert capsys.readouterr().out.startswith("definable with 0 products")


def test_representatives_charge_the_budget(fx, capsys):
    # fc1 has infinite index: --kmax 8 asks for its first 65537 classes
    assert run("--budget", "1000", "min-prod", "--r", str(fx / "fc1.json"),
               "--kmax", "8") == 2
    assert capsys.readouterr().err.startswith("budget exhausted: ")


def test_declared_states_charge_the_budget(fx, tmp_path, capsys):
    # two states in use, 400000 declared: loading alone exceeds the budget
    d = json.loads((fx / "fc1.json").read_text())
    d["states"] = 400_000
    big = tmp_path / "big.json"
    big.write_text(json.dumps(d))
    assert run("--budget", "1000", "sep-1prod", "--r1", str(big),
               "--r2", str(fx / "fc2.json")) == 2
    assert capsys.readouterr().err.startswith("budget exhausted: ")


def test_recognizable_exit_codes(fx, tmp_path, capsys):
    assert run("recognizable", "--r", str(fx / "fc1.json")) == 1
    assert capsys.readouterr().out.startswith("not recognizable")
    finite = tmp_path / "finite.json"
    assert run("make-rel", "--spec", "(pairs (a b) (aa b))", "--out", str(finite)) == 0
    capsys.readouterr()
    assert run("recognizable", "--r", str(finite)) == 0
    assert capsys.readouterr().out.startswith("recognizable")


def test_out_of_memory_exits_2_not_1(fx, monkeypatch, capsys):
    def exhausted(_r):
        raise MemoryError

    monkeypatch.setattr(cli.de, "recognizable", exhausted)
    assert run("recognizable", "--r", str(fx / "fc1.json")) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


# what the stand-in verdict below returns, or raises, and main's exit code;
# None: the exception propagates
_OUTCOMES = {
    "yes": (lambda: True, 0),
    "no": (lambda: False, 1),
    "error": (lambda: au.AutomataError("bad"), 2),
    "budget": (lambda: au.BudgetExceededError("spent"), 2),
    "out-of-memory": (MemoryError, 2),
    "unexpected": (lambda: RuntimeError("boom"), None),
}


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("outcome", list(_OUTCOMES))
def test_a_command_runs_with_the_collector_paused_and_restores_it(
        fx, monkeypatch, collecting, outcome):
    make, code = _OUTCOMES[outcome]
    during = []

    def verdict(_r):
        during.append(gc.isenabled())
        result = make()
        if isinstance(result, BaseException):
            raise result
        return result

    monkeypatch.setattr(cli.de, "recognizable", verdict)
    argv = ("recognizable", "--r", str(fx / "fc1.json"))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if code is None:
            with pytest.raises(RuntimeError, match="boom"):
                run(*argv)
        else:
            assert run(*argv) == code
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]
    assert after is collecting


def test_commands_leave_no_cyclic_garbage(tmp_path, monkeypatch):
    # a command runs with the collector paused, so anything it left in a
    # reference cycle would outlive it until the caller's next collection
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-file").write_text("")
    (tmp_path / "latin1.json").write_bytes(b"\xff\xfe\x00")
    (tmp_path / "deep.json").write_text("[" * 100_000)
    (tmp_path / "broken.json").write_text("{ not json")
    (tmp_path / "irreversible.json").write_text(tm.dumps_machine(_IRREVERSIBLE))
    errors = [
        ("--budget", "20", "min-prod", "--r", "fx/fc1.json", "--kmax", "2"),
        ("reach", "--rel", "fx/fc1.json", "--start", "zz"),
        ("reduce", "--mode", "def-to-sep", "--r", "fx/fc1.json"),
        ("definable-kprod", "--r", "fx/fc1.json", "--k", "0"),
        ("recognizable", "--r", "latin1.json"),
        ("tm-check", "--tm", "latin1.json"),
        ("sep-1prod", "--r1", "deep.json", "--r2", "fx/fc2.json"),
        ("color-verify", "--graph", "fx/fc1.json", "--coloring", "broken.json"),
        ("tm-gadget", "--tm", "missing.json", "--out", "g.json"),
        ("sep-verify", "--s", "fx/fc1.json", "--r1", "fx/fc1.json", "--r2", "fx/fc2.json"),
        ("separator-from-coloring", "--r1", "fx/fc1.json", "--r2", "fx/fc2.json",
         "--coloring", "fx/fc1.json"),
        ("definable-krec", "--r", "fx/demo-machine.json", "--k", "2"),
        ("make-rel", "--spec", "(fc", "--out", "x.json"),
        ("fixtures", "--outdir", "a-file"),
    ]
    rejected = ("recognizable", "--r")  # argparse: --r expects an argument
    calls = [*_PINNED_CALLS,
             ("recognizable", "--r", "fx/fc1.json"),
             ("make-rel", "--spec", "(pairs (a b) (aa b))", "--out", "finite.json"),
             ("recognizable", "--r", "finite.json"),
             ("lift-kprod", "--r1", "fx/equal-length.json", "--r2", "fx/append-one.json",
              "--k", "3", "--out1", "l1.json", "--out2", "l2.json"),
             ("tm-compile", "--tm", "fx/demo-machine.json", "--out", "step.json"),
             ("reach", "--rel", "fx/fc1.json", "--max-len", "3"),
             ("export-dot", "--graph", "incomp.json", "--coloring", "coloring.json",
              "--max-len", "2"),
             ("tm-check", "--tm", "irreversible.json", "--depth", "3"),
             ("tm-pad", "--tm", "irreversible.json"),
             ("color-search", "--graph", "fx/tree.json", "--k", "2", "--states", "3"),
             *errors, rejected]
    [verbs] = [a.choices for a in cli.build_parser()._actions if a.dest == "verb"]
    assert len(verbs) == 20 and {argv[0] for argv in calls} >= set(verbs)
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        left = {argv: (_in_process(argv)[0], gc.collect()) for argv in calls}
    finally:
        if was:
            gc.enable()
    assert {code for code, _n in left.values()} == {0, 1, 2}
    assert [left[argv][0] for argv in errors] == [2] * len(errors)
    # argparse rejects a command line before the pause begins, and leaves
    # cycles of its own (a HelpFormatter and its _Section refer to each
    # other), so what it leaves is not the command's
    assert left.pop(rejected)[0] == 2
    assert {argv: n for argv, (_code, n) in left.items() if n} == {}


@pytest.mark.parametrize("argv", [
    ("sep-verify", "--r1", "FC1", "--r2", "FC1", "--s", "BAD"),
    ("color-verify", "--graph", "FC1", "--coloring", "BAD"),
])
def test_empty_object_input_exits_2_with_error(fx, tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    paths = {"FC1": str(fx / "fc1.json"), "BAD": str(bad)}
    assert run(*(paths.get(a, a) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing key" in err


def test_empty_object_partition_names_the_missing_key(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(au.FormatError, match="'partition'"):
        cli.load_partitioned(str(bad))


def test_two_field_transition_exits_2(fx, tmp_path, capsys):
    d = json.loads((fx / "fc1.json").read_text())
    d["transitions"][0] = d["transitions"][0][:2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert run("sep-1prod", "--r1", str(bad), "--r2", str(fx / "fc2.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "triple" in err


@pytest.mark.parametrize("name, key, value, message", [
    ("fc1.json", "tracks", "2", "'tracks' is not an integer"),
    ("fc1.json", "initial", 5, "'initial' is not a list of integers"),
    ("fc1.json", "states", None, "'states' is not an integer"),
    ("fc1.json", "states", -3, "'states' is not an integer >= 0"),
    ("fc1.json", "alphabet", "a", "'alphabet' is not a list of strings"),
    ("fc1.json", "accepting", [True], "'accepting' is not a list of integers"),
    ("fc1.json", "transitions", {}, "'transitions' is not a list"),
    ("fc1.json", "transitions", [[0, [["a"]], 1]], "triple"),
    ("fc1.json", "transitions", [["0", ["a", "a"], 0]], "triple"),
    ("parity-separator.json", "products", 5, "'products' is not a list"),
    ("parity-coloring.json", "colors", 5, "'colors' is not a list"),
    ("demo-machine.json", "states", 5, "'states' is not a list of strings"),
    ("demo-machine.json", "tape", 5, "'tape' is not a list of strings"),
    ("demo-machine.json", "tape", "12", "'tape' is not a list of strings"),
    ("demo-machine.json", "final", 5, "'final' is not a list of strings"),
    ("demo-machine.json", "delta", 5, "'delta' is not a list"),
    ("demo-machine.json", "blank", 5, "'blank' is not a string"),
    ("demo-machine.json", "delta", [["q0", "_", "q1", 1, "R"]], "list of strings"),
], ids=["tracks-str", "initial-int", "states-null", "states-negative", "alphabet-str",
        "accepting-bool", "transitions-object", "symbol-list", "src-str", "products-int",
        "colors-int", "machine-states-int", "tape-int", "tape-str", "final-int",
        "delta-int", "blank-int", "delta-symbol-int"])
def test_wrongly_typed_field_exits_2(fx, readers, tmp_path, capsys, name, key,
                                     value, message):
    source, argv = readers.get(
        name, (fx / name, ("sep-1prod", "--r1", "BAD", "--r2", str(fx / "fc2.json"))))
    d = json.loads(source.read_text())
    d[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert run(*(str(bad) if a == "BAD" else a for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_partition_pairs_must_be_integer_pairs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"partition": [], "pairs": [[0]]}))
    with pytest.raises(au.FormatError, match="'pairs' is not a list of integer pairs"):
        cli.load_partitioned(str(bad))


_BAD_BOUNDS = [
    (("tm-check", "--tm", "fx/demo-machine.json", "--depth", "-1"), ">= 0, got '-1'"),
    (("reach", "--rel", "fx/fc1.json", "--max-len", "-1"), ">= 0, got '-1'"),
    (("reach", "--rel", "fx/fc1.json", "--max-steps", "-1"), ">= 0, got '-1'"),
    (("export-dot", "--graph", "fx/fc1.json", "--max-len", "-1"), ">= 0, got '-1'"),
    # a budget that can pay for nothing would pass for a real exhaustion
    (("--budget", "0", "recognizable", "--r", "fx/fc1.json"), ">= 1, got '0'"),
    (("--budget", "-5", "recognizable", "--r", "fx/fc1.json"), ">= 1, got '-5'"),
    (("--budget", "x", "recognizable", "--r", "fx/fc1.json"), ">= 1, got 'x'"),
]


@pytest.mark.parametrize("argv, message", _BAD_BOUNDS,
                         ids=[f"argv{i}" for i in range(len(_BAD_BOUNDS))])
def test_negative_bounds_are_rejected_by_the_parser(fx, capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        run(*(a.replace("fx", str(fx)) for a in argv))
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"expected an integer {message}" in captured.err


@pytest.mark.parametrize("bad", [
    [0, "aa", 0],  # a string column after the valid column ["a", "a"]
    [0, [["a"], "a"], 0],  # an unhashable symbol
    [0, ["a", 1], 0],
    [True, ["a", "a"], 0],
    [0, ["a", "a"], 1.0],
    [0, ["a", "a"]],
    [0, ["a", "a"], 0, 0],
], ids=["string-column", "unhashable-symbol", "int-symbol", "bool-src", "float-dst",
        "two-fields", "four-fields"])
def test_malformed_transition_loads_exit_2(fx, tmp_path, capsys, bad):
    d = json.loads((fx / "fc1.json").read_text())
    assert d["transitions"][0] == [0, ["a", "a"], 0]
    d["transitions"].append(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert run("sep-1prod", "--r1", str(path), "--r2", str(fx / "fc2.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"transition {bad!r} is not a" in err
    assert "triple" in err
    with pytest.raises(au.FormatError, match="triple"):
        au.loads(json.dumps(d))


@pytest.mark.parametrize("name, units", [
    ("fc1.json", 4), ("fc2.json", 6), ("tree.json", 16),
    ("equal-length.json", 2), ("append-one.json", 4), ("length-incomp.json", 5),
])
def test_load_relation_charges_declared_states_and_valid_pad_walk(fx, name, units):
    # loading charges the declared states, then the ValidPad check one unit
    # per (state, pad mask) pair it discovers; --budget counts on both
    a = au.loads((fx / name).read_text())
    assert a.states + valid_pad_walk_size(a) == units
    with au.state_budget():
        cli.load_relation(str(fx / name))
        assert au._active_budget().used == units
    with au.state_budget(units - 1), pytest.raises(au.BudgetExceededError):
        cli.load_relation(str(fx / name))


def test_budget_bounds_the_coloring_search(fx, capsys):
    # the bounded space holds 889 candidates and no coloring
    argv = ("color-search", "--graph", str(fx / "tree.json"), "--k", "2", "--states", "3")
    assert run("--budget", "100", *argv) == 2
    assert capsys.readouterr().err.startswith("budget exhausted: ")
    assert run(*argv) == 1


@pytest.mark.parametrize("argv", [
    ("make-rel", "--spec=(fc 1)", "--out", "TMP/no-such-dir/r.json"),
    ("fixtures", "--outdir", "TMP/a-file"),
])
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    (tmp_path / "a-file").write_text("")
    assert run(*(a.replace("TMP", str(tmp_path)) for a in argv)) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")


def test_malformed_machine_delta_entry_exits_2(fx, tmp_path, capsys):
    d = json.loads((fx / "demo-machine.json").read_text())
    entry = d["delta"][0] = d["delta"][0][:4]
    bad = tmp_path / "badm.json"
    bad.write_text(json.dumps(d))
    assert run("tm-check", "--tm", str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(entry) in err


# Cheap verbs on the `fixtures` outputs, run in order in an empty directory.
_PINNED_CALLS = [
    ("fixtures", "--outdir", "fx"),
    ("tm-gadget", "--tm", "fx/demo-machine.json", "--k", "2", "--out", "gadget2.json"),
    ("tm-gadget", "--tm", "fx/demo-machine.json", "--k", "3", "--out", "gadget3.json"),
    ("tm-pad", "--tm", "fx/demo-machine.json", "--out", "padded.json"),
    ("tm-check", "--tm", "padded.json", "--depth", "4"),
    ("tm-gadget", "--tm", "padded.json", "--k", "2", "--out", "gadget-padded.json"),
    ("tm-check", "--tm", "fx/looping-machine.json", "--depth", "6"),
    ("sep-verify", "--s", "fx/parity-separator.json", "--r1", "fx/fc1.json",
     "--r2", "fx/fc2.json"),
    ("sep-verify", "--s", "fx/parity-separator.json", "--r1", "fx/fc2.json",
     "--r2", "fx/fc1.json"),
    ("sep-1prod", "--r1", "fx/fc1.json", "--r2", "fx/fc2.json"),
    ("reduce", "--mode", "def-to-sep", "--r", "fx/fc1.json",
     "--out1", "def1.json", "--out2", "def2.json"),
    ("make-rel", "--spec", "(difference (equal-length) (identity))", "--out", "diff.json"),
    ("min-prod", "--r", "diff.json", "--kmax", "2"),
    ("incomp", "--r1", "fx/equal-length.json", "--r2", "fx/append-one.json",
     "--out", "incomp.json"),
    ("color-search", "--k", "2", "--states", "2", "--graph", "incomp.json",
     "--out", "coloring.json"),
    ("color-verify", "--graph", "incomp.json", "--coloring", "coloring.json"),
    ("separator-from-coloring", "--r1", "fx/equal-length.json",
     "--r2", "fx/append-one.json", "--coloring", "coloring.json",
     "--out", "separator.json"),
    ("make-rel", "--spec", "(union (pairs (a b) (aa b)) (pairs (b a) (bb a)))",
     "--out", "fin.json"),
    ("definable-kprod", "--r", "fin.json", "--k", "2", "--out", "kprod2.json"),
    ("definable-kprod", "--r", "fin.json", "--k", "1", "--out", "kprod1.json"),
    ("definable-krec", "--r", "diff.json", "--k", "4", "--out", "krec-diff.json"),
    ("definable-krec", "--r", "fin.json", "--k", "5", "--out", "krec5.json"),
    ("tm-compile", "--tm", "padded.json", "--out", "pstep.json"),
    ("reach", "--rel", "pstep.json", "--start", "_|boot:0", "--max-len", "12"),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _pinned_outputs() -> dict:
    """Run `_PINNED_CALLS` in the current directory: each call's exit code
    and stdout digest, then the digest of every file left behind."""
    out = {}
    for i, argv in enumerate(_PINNED_CALLS):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        out[f"{i:02d} {argv[0]}"] = (code, _digest(buf.getvalue().encode()))
    for root, _dirs, files in os.walk("."):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path)] = _digest(f.read())
    return out


# Exit codes and sha256 prefixes of the outputs above.  Emitted JSON is
# canonical, so a digest changes only when a verdict, a witness or an
# output language does.
_PINNED_DIGESTS = {
    '00 fixtures': (0, '639e1ea37819545a'),
    '01 tm-gadget': (0, '38bb5e2f9632399d'),
    '02 tm-gadget': (0, 'b8b644b2b073eb21'),
    '03 tm-pad': (0, 'e87fe1b3946c6d2d'),
    '04 tm-check': (0, 'c2404de1df1cd4b0'),
    '05 tm-gadget': (0, '7cfb4d92384cf7e2'),
    '06 tm-check': (0, '450b46067b956f09'),
    '07 sep-verify': (0, 'c16a9745c57ab49b'),
    '08 sep-verify': (1, 'c29f0b290e389058'),
    '09 sep-1prod': (1, 'a91804d344d41208'),
    '10 reduce': (0, 'c466f163dd1b90bd'),
    '11 make-rel': (0, 'f337cf04026d8a53'),
    '12 min-prod': (1, '4cdbfe6f75d38f94'),
    '13 incomp': (0, '5beb7fd2b1499b58'),
    '14 color-search': (0, 'e45f60e7b7eb0ac0'),
    '15 color-verify': (0, '445355ce080fa3e8'),
    '16 separator-from-coloring': (0, '1a33dd52c0feb30e'),
    '17 make-rel': (0, '8cac28f8f382cdd3'),
    '18 definable-kprod': (0, '7d869cf8044c975b'),
    '19 definable-kprod': (1, '8b64593a4b985507'),
    '20 definable-krec': (1, 'edddf94cb3f3f7bb'),
    '21 definable-krec': (0, '774fdf412f79c976'),
    '22 tm-compile': (0, '24e82884aecedd4b'),
    '23 reach': (0, 'cbd8000535a07251'),
    'coloring.json': '0fbe6969729f70ef',
    'def1.json': '927f04b5960ccfaf',
    'def2.json': 'a2db2be291584bee',
    'diff.json': '97a602f9f590d540',
    'fin.json': '3ccf544806e3985f',
    'fx/append-one.json': '0e0a4cb827908e8d',
    'fx/demo-machine.json': '0c6ec754fc580458',
    'fx/equal-length.json': '639d377796f012cc',
    'fx/fc1.json': '927f04b5960ccfaf',
    'fx/fc2.json': '67f00b48a951b9db',
    'fx/length-incomp.json': '4a0759b79118d973',
    'fx/looping-machine.json': 'a14b886a99280c25',
    'fx/parity-separator.json': 'e89fe2f5ccdeaa11',
    'fx/tree.json': 'bd0d49b6781c379f',
    'gadget-padded.json': '8dd2a27defd44ad1',
    'gadget2.json': '74364baa99518880',
    'gadget3.json': 'bd30da2fc5170af3',
    'incomp.json': '4a0759b79118d973',
    'kprod2.json': '8cb04d8ffe43dc56',
    'krec5.json': '6aeb5693df8866b3',
    'padded.json': '071b07766446828a',
    'pstep.json': '1b81375292972cd7',
    'separator.json': '068242a0e31782ca',
}


def test_cli_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _pinned_outputs() == _PINNED_DIGESTS


def _readme_commands() -> list:
    """The `autorel` lines of README's "Command line" block, continuations
    joined: (the arguments after `autorel`, whether the line says "exit 1")."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        block = f.read().split("## Command line", 1)[1].split("```", 2)[1]
    return [(shlex.split(line, comments=True)[1:], "# exit 1" in line)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("autorel ")]


def test_readme_command_line_block_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 17
    codes = [cli.main(argv) for argv, _exit_1 in commands]
    assert codes == [1 if exit_1 else 0 for _argv, exit_1 in commands]


@pytest.mark.parametrize("spec, message", [
    ("(fc)", "takes 1 argument"),
    ("(union (fc 1))", "takes 2 argument"),
    ('(pairs ("a b))', "unterminated string at position 8"),
    ("(fc x)", "needs an integer"),
    ('(load "no-such-file.json")', "no-such-file.json"),
    pytest.param("(" * 2000, "nested too deeply", id="deep-nesting"),
])
def test_malformed_spec_exits_2(tmp_path, capsys, spec, message):
    assert run("make-rel", f"--spec={spec}", "--out", str(tmp_path / "r.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


_SPEC_TOKENS = ["(", ")", "fc", "1", "2", "x", "union", "intersection",
                "difference", "compose", "inverse", "symmetric-closure",
                "identity", "equal-length", "append-one", "tree", "pairs",
                "load", '"ab"', '""', '"', "a", "b"]


def _spec_tree():
    leaf = st.sampled_from(["(fc 1)", "(fc 2)", "(identity)", "(equal-length)",
                            "(append-one)", "(tree)", '(pairs (a b) ("ab" ""))',
                            '(load "no-such-file.json")'])
    return st.recursive(leaf, lambda kids: st.one_of(
        st.tuples(st.sampled_from(["union", "intersection", "difference",
                                   "compose"]), kids, kids).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["inverse", "symmetric-closure"]), kids).map(
            lambda t: f"({t[0]} {t[1]})")), max_leaves=3)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(_spec_tree(),
                      st.lists(st.sampled_from(_SPEC_TOKENS), max_size=12).map(" ".join)),
       cut=st.integers(min_value=0, max_value=200))
def test_truncated_specs_never_raise(tmp_path, text, cut):
    code = cli.main(["make-rel", f"--spec={text[:cut]}", "--out", str(tmp_path / "r.json")])
    assert code in (0, 1, 2)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2, max_value=4)
    | st.sampled_from(["", "a", "b", "_", "ab"]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["tracks", "states", "a"]), kids, max_size=2),
    max_leaves=4)


def _positions(node, path=()):
    """Key/index paths of every value nested in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def _mutate(data, doc):
    """Delete, retype or truncate one to three nested values of ``doc``."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        paths = list(_positions(doc))
        if not paths:
            break
        *head, last = data.draw(st.sampled_from(paths))
        parent = doc
        for key in head:
            parent = parent[key]
        kind = data.draw(st.sampled_from(["delete", "retype", "truncate"]))
        if kind == "delete":
            del parent[last]
        elif kind == "truncate" and isinstance(parent[last], list):
            value = parent[last]
            parent[last] = value[:data.draw(st.integers(0, max(len(value) - 1, 0)))]
        else:
            parent[last] = data.draw(_JSON_VALUES)
    return doc


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_fixture_json_never_raises(fx, readers, tmp_path, data):
    name = data.draw(st.sampled_from(["fc1.json", "fc2.json", "tree.json",
                                      *sorted(readers)]))
    bad = tmp_path / "mutated.json"
    if name in readers:
        source, argv = readers[name]
        argv = [str(bad) if a == "BAD" else a for a in argv]
    else:
        source = fx / name
        first, second = data.draw(st.permutations([str(bad), str(source)]))
        argv = ["sep-1prod", "--r1", first, "--r2", second]
    bad.write_text(json.dumps(_mutate(data, json.loads(source.read_text()))))
    assert cli.main(argv) in (0, 1, 2)
