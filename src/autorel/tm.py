"""Turing machines as instance generators for automatic-graph problems.

Configurations are words: the tape up to the head, a fused head token
"symbol|state", and the rest of the written tape.  The one-step relation
of a machine is an automatic relation over that alphabet, compiled here
directly rather than simulated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from . import automata as au
from . import relations as rel
from .automata import AutomataError, MultiTrackAutomaton, PAD
from .relations import AutomaticRelation


class MachineError(AutomataError):
    """Ill-formed machine description."""


class PadTransformError(AutomataError):
    """Input machine failed the exact reversibility precondition."""


LEFT = "L"
RIGHT = "R"
WF_SAMPLE_LEN = 4
WF_SAMPLE_CAP = 60


@dataclass(frozen=True)
class TuringMachine:
    """Deterministic single-tape machine; writes never erase to blank."""

    states: tuple
    tape: tuple  # work alphabet, blank excluded
    blank: str
    initial: str
    finals: frozenset
    delta: tuple  # tuple[((q, sym), (q2, sym2, dir)), ...] sorted

    def __post_init__(self):
        if len(set(self.states)) != len(self.states) or not self.states:
            raise MachineError("states must be non-empty and duplicate-free")
        if len(set(self.tape)) != len(self.tape):
            raise MachineError("duplicate tape symbols")
        if self.blank in self.tape:
            raise MachineError("blank must not be a tape symbol")
        for s in self.tape + (self.blank,):
            if not s or "|" in s or s in ("⊥",):
                raise MachineError(f"illegal tape symbol {s!r} ('|' is reserved)")
        if PAD in self.tape:
            raise MachineError(f"tape symbol {PAD!r} collides with the padding token")
        if self.initial not in self.states:
            raise MachineError("initial state undeclared")
        if not self.finals <= set(self.states):
            raise MachineError("final states undeclared")
        seen = set()
        for (q, s), (q2, s2, d) in self.delta:
            if q in self.finals:
                raise MachineError(f"transition from final state {q}")
            if q not in self.states or q2 not in self.states:
                raise MachineError("transition uses undeclared state")
            if s not in self.tape and s != self.blank:
                raise MachineError(f"transition reads undeclared symbol {s!r}")
            if s2 not in self.tape:
                raise MachineError(f"machines write work symbols only, got {s2!r}")
            if d not in (LEFT, RIGHT):
                raise MachineError(f"bad direction {d!r}")
            if (q, s) in seen:
                raise MachineError(f"duplicate transition on {(q, s)}")
            seen.add((q, s))

    @property
    def rules(self) -> dict:
        return dict(self.delta)

    @cached_property
    def _config_alphabet(self) -> tuple:
        """:func:`config_alphabet`, kept beside the fields, so == and hash
        ignore it."""
        toks = list(self.tape)
        for sym in self.tape + (self.blank,):
            for q in self.states:
                toks.append(head_token(sym, q))
        return au.check_alphabet(toks)


def make_machine(states: Sequence[str], tape: Sequence[str], blank: str,
                 initial: str, finals: Iterable[str],
                 delta: dict) -> TuringMachine:
    return TuringMachine(
        states=tuple(states), tape=tuple(tape), blank=blank, initial=initial,
        finals=frozenset(finals),
        delta=tuple(sorted(delta.items())),
    )


# ---------------------------------------------------------------------------
# Configuration encoding

def head_token(sym: str, state: str) -> str:
    return f"{sym}|{state}"


def config_alphabet(t: TuringMachine) -> tuple:
    """Work symbols plus fused head tokens, in declaration order, as the
    alphabet's shared tuple; built once per machine and kept on it."""
    return t._config_alphabet


def initial_config(t: TuringMachine) -> tuple:
    return (head_token(t.blank, t.initial),)


def configs_language(t: TuringMachine) -> MultiTrackAutomaton:
    """All configuration words: written prefix, head token, written suffix;
    a blank under the head only at the very end."""
    trans = []
    for g in t.tape:
        trans.append((0, (g,), 0))
        trans.append((1, (g,), 1))
    for q in t.states:
        for g in t.tape:
            trans.append((0, (head_token(g, q),), 1))
        trans.append((0, (head_token(t.blank, q),), 2))
    return au._freeze(1, config_alphabet(t), 3, {0}, {1, 2}, trans)


# ---------------------------------------------------------------------------
# One-step relation

def config_graph(t: TuringMachine) -> AutomaticRelation:
    """Automatic relation holding exactly the one-step successor pairs.

    Head moves off the left end have no successor; a right move past the
    written region extends it with the blank head token.
    """
    alpha = config_alphabet(t)
    pre, copy, end = 0, 1, 2
    nstates = 3
    ids: dict = {}

    def state(key):
        nonlocal nstates
        if key not in ids:
            ids[key] = nstates
            nstates += 1
        return ids[key]

    trans = []
    for g in t.tape:
        trans.append((pre, (g, g), pre))
        trans.append((copy, (g, g), copy))
    for (q, x), (q2, y, d) in t.delta:
        if d == RIGHT:
            if x != t.blank:
                rs = state(("rs", q2))
                trans.append((pre, (head_token(x, q), y), rs))
                for g in t.tape:
                    trans.append((rs, (g, head_token(g, q2)), copy))
                trans.append((rs, (PAD, head_token(t.blank, q2)), end))
            else:
                rb = state(("rb", q2))
                trans.append((pre, (head_token(x, q), y), rb))
                trans.append((rb, (PAD, head_token(t.blank, q2)), end))
        else:
            lm = state(("lm", q2))
            for g in t.tape:
                trans.append((pre, (g, head_token(g, q2)), lm))
            if x != t.blank:
                trans.append((lm, (head_token(x, q), y), copy))
            else:
                trans.append((lm, (head_token(x, q), y), end))
    return rel._wrap(au._freeze(2, alpha, nstates, {pre}, {copy, end}, trans))


def machine_init_configs(t: TuringMachine) -> MultiTrackAutomaton:
    """Configurations with no predecessor (in-degree 0 in the step graph)."""
    return au.difference(configs_language(t), rel.project_second(config_graph(t)))


# ---------------------------------------------------------------------------
# Well-formedness report

@dataclass(frozen=True)
class WfReport:
    """Exact checks are decisive; the backward walk is bounded sampling only
    (absence of infinite backward paths is not decidable here)."""

    initial_no_predecessor: bool
    functional: bool
    co_functional: bool
    backward_cycles: tuple  # configs found on a backward cycle
    backward_deep: tuple  # configs whose backward chain hit the depth cap
    sampled: int
    depth: int

    @property
    def exact_ok(self) -> bool:
        return self.initial_no_predecessor and self.functional and self.co_functional

    @property
    def backward_ok(self) -> bool:
        return not self.backward_cycles and not self.backward_deep


def wf_checks(t: TuringMachine, depth: int = 32) -> WfReport:
    """Exact checks, and backward walks of at most ``depth`` steps from the
    first ``WF_SAMPLE_CAP`` configurations of length <= ``WF_SAMPLE_LEN``.

    Each backward step reads the configuration's predecessors off the step
    relation's automaton (:func:`~autorel.relations.predecessor_words`), so
    no inverse of the step relation is built, and no join or automaton per
    word."""
    graph = config_graph(t)
    # The initial configuration, a lone blank head token, never has a
    # predecessor: every step leads to a word of length >= 2.  A right move
    # writes a symbol and puts the head after it; a left move puts the head
    # on the written left neighbour, and the written symbol stays after it.
    # So the report needs no preimage join; the tests still run that join
    # on the fixture machines and their pad transforms.
    initial_ok = True
    func = rel.functional(graph)
    cofunc = rel.co_functional(graph)

    cycles = []
    deep = []
    sampled = 0
    for w in au.iter_words(configs_language(t), WF_SAMPLE_LEN):
        if sampled >= WF_SAMPLE_CAP:
            break
        sampled += 1
        seen = {w}
        cur = w
        for step in range(depth):
            preds = rel.predecessor_words(graph, cur, len(cur) + 2)
            if not preds:
                break
            cur = preds[0]
            if cur in seen:
                cycles.append(w)
                break
            seen.add(cur)
        else:
            deep.append(w)
    return WfReport(
        initial_no_predecessor=initial_ok,
        functional=func,
        co_functional=cofunc,
        backward_cycles=tuple(cycles),
        backward_deep=tuple(deep),
        sampled=sampled,
        depth=depth,
    )


# ---------------------------------------------------------------------------
# The tagged colorability gadget

def coloring_gadget(t: TuringMachine, k: int = 2) -> AutomaticRelation:
    """Tagged configuration graph whose 2-regular colorability encodes the
    regularity of the machine's reachable set.

    Vertices B.c / R.c; edges B.c -> R.c, R.c -> B.c' for steps c -> c',
    and B.c_init -> B.c' for every other predecessor-free configuration.
    For k > 2 a (k-2)-clique of fresh letters K#i is wired to every vertex
    incident to an edge: to every B.c and R.c, as B.c -> R.c is an edge
    for every configuration c.  At every k the edges are one deterministic
    walk, minimized as it stands.  From a fresh initial state, in column
    order, (B,B), (B,R) or (R,B) leads into its part, (K#i, B) and (K#i, R)
    into a part that reads c beside padding, and (K#i, K#j), i != j, into
    an accepting state with no moves.  The parts read the machine's own
    automata in place.  The walk's states, those of the join for the
    successor configurations and, before the walk, the n(n-1) columns
    (K#i, K#j), n = k - 2, are charged to the state budget.
    """
    if k < 2:
        raise AutomataError("k must be >= 2")
    base_alpha = config_alphabet(t)
    clique = tuple(f"K#{i}" for i in range(1, k - 1))
    for tag in ("B", "R", *clique):
        if tag in base_alpha:
            raise MachineError(f"tag symbol {tag!r} collides with the machine alphabet")
    au._active_budget().charge(len(clique) * (len(clique) - 1))
    alpha = au.check_alphabet(base_alpha + ("B", "R") + clique)

    configs = configs_language(t)
    graph = config_graph(t)
    step = graph.base
    (head,) = initial_config(t)
    # B.c_init -> B.c' for c' in configs \ (pi2(step) + {c_init}), walked
    # lazily: c_init's one letter beside the first of c', then padding beside
    # the rest (no configuration is empty; a blank head token ends one, so
    # only c_init starts with its own).  Each part is deterministic, so the
    # walk is.
    others, other_moves, other_accepts = au._difference_product(
        configs, rel.project_second(graph))

    def successors(state):
        part, s = state
        if part == "B.c'":  # c_init's letter, else padding, beside others' state
            x, r = s
            for (y,), d in other_moves(r):
                if y != x:  # x is PAD after the first column
                    yield (x, y), (part, (PAD, d))
        elif part in ("B.c", "K.c"):  # c beside itself, or beside padding
            for (x,), d in configs._adj[s]:
                yield (x if part == "B.c" else PAD, x), (part, d)
        elif part == "R.c":  # config_graph is deterministic
            for sym, d in step._adj[s]:
                yield sym, (part, d)
        elif part == "":  # the fresh initial state, columns in column order
            yield ("B", "B"), ("B.c'", (head, *others))
            yield ("B", "R"), ("B.c", *configs.initial)
            yield ("R", "B"), ("R.c", *step.initial)
            for ki in clique:
                yield (ki, "B"), ("K.c", *configs.initial)
                yield (ki, "R"), ("K.c", *configs.initial)
                yield from (((ki, kj), ("K.K", None)) for kj in clique if kj != ki)

    def accepts(state):
        part, s = state
        if part == "B.c'":
            return s[0] == PAD and other_accepts(s[1])
        if part in ("B.c", "K.c"):
            return s in configs.accepting
        return part == "K.K" or part == "R.c" and s in step.accepting

    return rel._wrap(au._explore_minimal(2, alpha, [("", None)], successors, accepts))


# ---------------------------------------------------------------------------
# Bounded reachability

@dataclass(frozen=True)
class ReachResult:
    words: tuple
    truncated: bool


def reach_bfs(r: AutomaticRelation, start: Sequence[str], max_len: int,
              max_steps: int = 10_000) -> ReachResult:
    """Forward closure from one word, capped by word length and step count."""
    from collections import deque
    start = tuple(start)
    order = {s: i for i, s in enumerate(r.alphabet)}
    for x in start:
        if x not in order:
            raise au.UnknownSymbolError(f"symbol {x!r} outside alphabet")
    seen = {start}
    queue = deque([start])
    truncated = False
    steps = 0
    while queue:
        cur = queue.popleft()
        steps += 1
        if steps > max_steps:
            truncated = True
            break
        for nxt in rel.successor_words(r, cur, max_len + 1):
            if len(nxt) > max_len:
                truncated = True
            elif nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    words = sorted(seen, key=lambda w: (len(w), [order[c] for c in w]))
    return ReachResult(words=tuple(words), truncated=truncated)


# ---------------------------------------------------------------------------
# The padding construction: simulate one step, then stretch the zone of
# fresh letters from a^n b^n to a^{n+1} b^{n+1}.
#
# Reversibility discipline: exact co-determinism over all configuration
# words (reachable or not) forces, for every state, that entering rules
# share one head direction and write pairwise distinct symbols.  The
# construction obeys this everywhere:
#   * each cycle ends with the simulated step itself, writing the input
#     machine's own output letter in its own direction, so the entries of
#     every run state inherit the input machine's injectivity;
#   * scans never rewrite a symbol they also scan over: sweep turning
#     points write the moving end marker '#', and the trigger cell holds a
#     marked letter until the final step consumes it;
#   * each sweep edits the zone at most once (append a b, or convert a b
#     into an a): blank-consuming steps run two sweeps, other steps three,
#     which keeps the visible a/b imbalance within 2 even though the cell
#     under the head never shows in the projection;
#   * the very first step is fused into the bootstrap that seeds the zone,
#     and writes a "cell-one twin" of the output letter.  Twins live only
#     in cell one and are rewritten as twins, so the boot entry can never
#     collide with the regular thread of the same rule.

def pad_transform(t: TuringMachine) -> TuringMachine:
    """Compile a reversible machine into one whose step also grows an
    a^n b^n zone; halting input gives a finite reachable set, diverging
    input a reachable set with a non-regular {a,b}-projection."""
    graph = config_graph(t)
    if not rel.functional(graph):
        raise PadTransformError("input machine is not deterministic on configurations")
    if not rel.co_functional(graph):
        raise PadTransformError("input machine is not reversible (exact check failed)")

    fresh = ("a", "b", "#")
    for s in fresh:
        if s in t.tape or s == t.blank:
            raise PadTransformError(f"fresh symbol {s!r} collides with the tape alphabet")
    mark = {x: f"{x}@" for x in list(t.tape) + ["a"]}
    twin = {x: f"{x}~" for x in t.tape}
    twin_mark = {x: f"{x}~@" for x in t.tape}
    boot_mark = "^@"
    extras = list(mark.values()) + list(twin.values()) \
        + list(twin_mark.values()) + [boot_mark]
    for m in extras:
        if m in t.tape or m == t.blank:
            raise PadTransformError(f"symbol {m!r} collides with the tape alphabet")

    tape2 = tuple(t.tape) + fresh + tuple(extras)

    def run(q):
        return f"run:{q}"

    states = [run(q) for q in t.states]
    delta: dict = {}

    def add(q, s, q2, s2, d):
        if (q, s) in delta:
            raise MachineError(f"internal: duplicate transition on {(q, s)}")
        delta[(q, s)] = (q2, s2, d)

    def new_state(name):
        states.append(name)
        return name

    def scan(q, letters, d):  # stay in q, moving over letters unchanged
        for g in letters:
            add(q, g, q, g, d)

    zone = (*t.tape, "a", "b")  # what a sweep crosses between the marked cell and "#"
    rules = sorted(t.delta)
    for rid, ((q, x), (q2, y, d)) in enumerate(rules):
        if x != t.blank:
            # three trips, one zone edit each (append b, convert b to a,
            # append b): any tighter schedule pushes the visible a/b
            # imbalance past 2 once the cell under the head is counted out
            out1 = new_state(f"out1:{rid}")
            ap1 = new_state(f"ap1:{rid}")
            bk1 = new_state(f"back1:{rid}")
            out2 = new_state(f"out2:{rid}")
            cv2 = new_state(f"conv2:{rid}")
            bk2 = new_state(f"back2:{rid}")
            out3 = new_state(f"out3:{rid}")
            ap3 = new_state(f"ap3:{rid}")
            bk3 = new_state(f"back3:{rid}")
            add(run(q), x, out1, mark[x], RIGHT)
            add(run(q), twin[x], out1, twin_mark[x], RIGHT)
            scan(out1, zone, RIGHT)
            add(out1, "#", ap1, "b", RIGHT)          # append over the marker
            add(ap1, t.blank, bk1, "#", LEFT)        # re-place the marker
            scan(bk1, zone, LEFT)
            add(bk1, mark[x], out2, mark[x], RIGHT)  # bounce
            add(bk1, twin_mark[x], out2, twin_mark[x], RIGHT)
            scan(out2, (*t.tape, "a"), RIGHT)
            add(out2, "b", cv2, "a", RIGHT)          # convert
            scan(cv2, "b", RIGHT)
            add(cv2, "#", bk2, "#", LEFT)            # turn at the marker
            scan(bk2, zone, LEFT)
            add(bk2, mark[x], out3, mark[x], RIGHT)  # bounce again
            add(bk2, twin_mark[x], out3, twin_mark[x], RIGHT)
            scan(out3, zone, RIGHT)
            add(out3, "#", ap3, "b", RIGHT)          # append over the marker
            add(ap3, t.blank, bk3, "#", LEFT)        # re-place the marker
            scan(bk3, zone, LEFT)
            add(bk3, mark[x], run(q2), y, d)         # the simulated step
            add(bk3, twin_mark[x], run(q2), twin[y], d)  # same step at cell one
        else:
            # two trips: each converts one b; appends 2 then 1
            out1 = new_state(f"out1:{rid}")
            out1b = new_state(f"out1B:{rid}")
            ap1 = new_state(f"ap1:{rid}")
            tn1 = new_state(f"tn1:{rid}")
            back1 = new_state(f"back1:{rid}")
            out2 = new_state(f"out2:{rid}")
            out2b = new_state(f"out2B:{rid}")
            tn2 = new_state(f"tn2:{rid}")
            back2 = new_state(f"back2:{rid}")
            add(run(q), "a", out1, mark["a"], RIGHT)
            scan(out1, "a", RIGHT)
            add(out1, "b", out1b, "a", RIGHT)        # convert #1
            scan(out1b, "b", RIGHT)
            add(out1b, "#", ap1, "b", RIGHT)
            add(ap1, t.blank, tn1, "b", RIGHT)
            add(tn1, t.blank, back1, "#", LEFT)
            scan(back1, "ab", LEFT)
            add(back1, mark["a"], out2, mark["a"], RIGHT)  # bounce
            scan(out2, "a", RIGHT)
            add(out2, "b", out2b, "a", RIGHT)        # convert #2
            scan(out2b, "b", RIGHT)
            add(out2b, "#", tn2, "b", RIGHT)
            add(tn2, t.blank, back2, "#", LEFT)
            scan(back2, "ab", LEFT)
            add(back2, mark["a"], run(q2), y, d)     # the simulated step

    # bootstrap: from a fresh initial state, lay out mark a a b b #, sweep
    # back, and take the machine's first step as the boot's last transition,
    # writing the cell-one twin of its output letter
    first = t.rules.get((t.initial, t.blank))
    init_state = run(t.initial)
    if first is not None and t.initial not in t.finals:
        q2, y, d = first
        init_state = new_state("boot:0")
        v = [new_state(f"boot:{i}") for i in range(1, 7)]
        add(init_state, t.blank, v[0], boot_mark, RIGHT)
        add(v[0], t.blank, v[1], "a", RIGHT)
        add(v[1], t.blank, v[2], "a", RIGHT)
        add(v[2], t.blank, v[3], "b", RIGHT)
        add(v[3], t.blank, v[4], "b", RIGHT)
        add(v[4], t.blank, v[5], "#", LEFT)
        scan(v[5], "ab", LEFT)
        add(v[5], boot_mark, run(q2), twin[y], d)    # the first step

    finals = frozenset(run(q) for q in t.finals)
    return make_machine(states, tape2, t.blank, init_state, finals, delta)


# ---------------------------------------------------------------------------
# Fixture machines

def halting_fixture() -> TuringMachine:
    """Three states, reversible, halts after two steps on the empty tape."""
    return make_machine(
        states=("q0", "q1", "qf"), tape=("1",), blank="_",
        initial="q0", finals=("qf",),
        delta={("q0", "_"): ("q1", "1", RIGHT),
               ("q1", "_"): ("qf", "1", LEFT)},
    )


def looping_fixture() -> TuringMachine:
    """One live state, reversible, writes 1s to the right forever."""
    return make_machine(
        states=("q0",), tape=("1",), blank="_",
        initial="q0", finals=(),
        delta={("q0", "_"): ("q0", "1", RIGHT)},
    )


def mixed_fixture() -> TuringMachine:
    """Reversible, halts in three steps, and re-reads a written symbol on
    the way (exercises non-blank steps)."""
    return make_machine(
        states=("q0", "q1", "q2", "qf"), tape=("1", "2"), blank="_",
        initial="q0", finals=("qf",),
        delta={("q0", "_"): ("q1", "1", RIGHT),
               ("q1", "_"): ("q2", "1", LEFT),
               ("q2", "1"): ("qf", "2", RIGHT)},
    )


def two_cycle_fixture() -> TuringMachine:
    """Contains a 2-cycle in its configuration graph (not well-founded)."""
    return make_machine(
        states=("p", "q"), tape=("x", "y"), blank="_",
        initial="p", finals=(),
        delta={("p", "x"): ("q", "x", RIGHT),
               ("q", "y"): ("p", "y", LEFT)},
    )


# ---------------------------------------------------------------------------
# JSON format

def machine_to_json_dict(t: TuringMachine) -> dict:
    return {
        "states": list(t.states),
        "tape": list(t.tape),
        "blank": t.blank,
        "initial": t.initial,
        "final": sorted(t.finals),
        "delta": [[q, s, q2, s2, d] for (q, s), (q2, s2, d) in t.delta],
    }


def machine_from_json_dict(d: dict) -> TuringMachine:
    states, tape, blank, initial, finals, raw = (
        au.json_field(d, key, "machine", kind) for key, kind in (
            ("states", "a list of strings"), ("tape", "a list of strings"),
            ("blank", "a string"), ("initial", "a string"),
            ("final", "a list of strings"), ("delta", "a list")))
    delta = {}
    for entry in raw:
        if not (au._is_list_of(entry, str) and len(entry) == 5):
            raise au.FormatError(f"machine JSON delta entry {entry!r} is not a "
                                 "[state, symbol, state, symbol, direction] "
                                 "list of strings")
        delta[entry[0], entry[1]] = tuple(entry[2:])
    return make_machine(states=states, tape=tape, blank=blank,
                        initial=initial, finals=finals, delta=delta)


def dumps_machine(t: TuringMachine) -> str:
    return au.dumps_json(machine_to_json_dict(t))


def loads_machine(text: str) -> TuringMachine:
    return machine_from_json_dict(json.loads(text))
