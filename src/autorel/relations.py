"""Automatic relations: 2-track automata as first-class binary relations.

Includes the relational operators (inverse, symmetric closure, composition,
image/preimage, projections, the no-predecessor set, functionality tests)
and the library of named relations used as fixtures throughout.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import automata as au
from .automata import (
    PAD,
    ArityMismatchError,
    AutomataError,
    MultiTrackAutomaton,
)


class FixtureError(AutomataError):
    """Unknown fixture name or bad fixture parameters."""


@dataclass(frozen=True)
class AutomaticRelation:
    """A binary relation R given by a 2-track automaton for its convolution.

    Doubles as an automatic graph: vertices are all words, edges are the
    pairs of R.
    """

    base: MultiTrackAutomaton

    def __post_init__(self):
        if self.base.tracks != 2:
            raise ArityMismatchError("a relation needs a 2-track automaton")
        if not au.satisfies_valid_pad(self.base):
            raise AutomataError("relation automaton leaks invalid padding")

    @property
    def alphabet(self) -> tuple:
        return self.base.alphabet

    def contains(self, left: Union[str, Sequence[str]],
                 right: Union[str, Sequence[str]]) -> bool:
        return au.membership(self.base, (left, right))


def relation(base: MultiTrackAutomaton) -> AutomaticRelation:
    return AutomaticRelation(base=base)


def _wrap(base: MultiTrackAutomaton) -> AutomaticRelation:
    # internal constructions are valid by construction; skip the pad check
    return au._trusted(AutomaticRelation, base=base)


# ---------------------------------------------------------------------------
# Constructors

def make_identity(alphabet: Sequence[str]) -> AutomaticRelation:
    """Id = {(w, w)}."""
    alphabet = au.check_alphabet(alphabet)
    trans = [(0, (x, x), 0) for x in alphabet]
    return _wrap(au._freeze(2, alphabet, 1, {0}, {0}, trans))


def equal_length_relation(alphabet: Sequence[str]) -> AutomaticRelation:
    """All pairs (u, v) with |u| = |v|."""
    alphabet = au.check_alphabet(alphabet)
    trans = [(0, (x, y), 0) for x in alphabet for y in alphabet]
    return _wrap(au._freeze(2, alphabet, 1, {0}, {0}, trans))


def successor_relation(c: int, alphabet: Sequence[str] = ("a",),
                       letter: str = "a") -> AutomaticRelation:
    """fc(c) = {(a^n, a^{n+c}) | n >= 0} for a fixed offset c >= 1."""
    if c < 1:
        raise FixtureError("offset must be >= 1")
    alphabet = au.check_alphabet(alphabet)
    if letter not in alphabet:
        raise FixtureError(f"letter {letter!r} not in alphabet")
    au._active_budget().charge(c + 1)  # before its c + 1 states are built, as a load does
    trans = [(0, (letter, letter), 0)]
    for i in range(c):
        trans.append((i, (PAD, letter), i + 1))
    return _wrap(au._freeze(2, alphabet, c + 1, {0}, {c}, trans))


def append_one_relation(alphabet: Sequence[str]) -> AutomaticRelation:
    """{(u, ux) | u a word, x a letter}: every word to its one-letter extensions."""
    alphabet = au.check_alphabet(alphabet)
    trans = [(0, (x, x), 0) for x in alphabet]
    trans += [(0, (PAD, x), 1) for x in alphabet]
    return _wrap(au._freeze(2, alphabet, 2, {0}, {1}, trans))


def tree_relation(alphabet: Sequence[str] = ("a", "b")) -> AutomaticRelation:
    """The tree on a*b*: root edges from the empty word to every nonempty
    a^p and b^q, plus diagonal edges (a^p b^q, a^{p+1} b^{q+1}).
    """
    alphabet = au.check_alphabet(alphabet)
    if "a" not in alphabet or "b" not in alphabet:
        raise FixtureError("tree fixture needs letters a and b")
    trans = [
        # diagonal (a^p b^q, a^{p+1} b^{q+1}) from initial state 0
        (0, ("a", "a"), 0),
        (0, ("b", "a"), 1),   # q >= 1: right still one 'a' behind
        (1, ("b", "b"), 1),
        (1, (PAD, "b"), 3),
        (0, (PAD, "a"), 2),   # q = 0: (a^p, a^{p+1} b)
        (2, (PAD, "b"), 4),
        (3, (PAD, "b"), 4),
        # root edges (eps, a^p) and (eps, b^q), p,q >= 1, from initial state 7
        (7, (PAD, "a"), 5),
        (5, (PAD, "a"), 5),
        (7, (PAD, "b"), 6),
        (6, (PAD, "b"), 6),
    ]
    return _wrap(au._freeze(2, alphabet, 8, {0, 7}, {4, 5, 6}, trans))


def finite_relation(pairs: Iterable[tuple],
                    alphabet: Sequence[str]) -> AutomaticRelation:
    """Relation given by an explicit finite list of word pairs."""
    alphabet = au.check_alphabet(alphabet)
    singles = []
    for left, right in pairs:
        word = au.convolve((left, right), alphabet)
        n = len(word)
        trans = [(i, sym, i + 1) for i, sym in enumerate(word)]
        singles.append(au._freeze(2, alphabet, n + 1, {0}, {n}, trans))
    return _wrap(au.determinize_minimize(
        au.union(au.empty_language(2, alphabet), *singles)))


def empty_relation(alphabet: Sequence[str]) -> AutomaticRelation:
    return _wrap(au.empty_language(2, au.check_alphabet(alphabet)))


def full_relation(alphabet: Sequence[str]) -> AutomaticRelation:
    """All pairs of words: the convolution form of Sigma* x Sigma*."""
    alphabet = au.check_alphabet(alphabet)
    return _wrap(au.valid_pad_automaton(2, alphabet))


# ---------------------------------------------------------------------------
# Relational operators

def inverse(r: AutomaticRelation) -> AutomaticRelation:
    return _wrap(au.permute_tracks(r.base, (1, 0)))


def symmetric_closure(r: AutomaticRelation) -> AutomaticRelation:
    return _wrap(au.union(r.base, inverse(r).base))


def union_rel(r1: AutomaticRelation, r2: AutomaticRelation) -> AutomaticRelation:
    return _wrap(au.union(r1.base, r2.base))


def intersect_rel(r1: AutomaticRelation, r2: AutomaticRelation) -> AutomaticRelation:
    return _wrap(au.intersect(r1.base, r2.base))


def difference_rel(r1: AutomaticRelation, r2: AutomaticRelation) -> AutomaticRelation:
    return _wrap(au.difference(r1.base, r2.base))


def complement_relation(r: AutomaticRelation) -> AutomaticRelation:
    """(Sigma* x Sigma*) minus R."""
    return _wrap(au.complement_relative(r.base))


def compose(r1: AutomaticRelation, r2: AutomaticRelation) -> AutomaticRelation:
    """{(u, w) | exists v: (u,v) in R1 and (v,w) in R2}."""
    if r1.alphabet != r2.alphabet:
        raise ArityMismatchError("compose needs a shared alphabet")
    return _wrap(au.relational_join(r1.base, r2.base, 1, 0))


def image(r: AutomaticRelation, lang: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """R[X] = {v | exists u in X with (u,v) in R}."""
    if lang.tracks != 1:
        raise ArityMismatchError("image takes a 1-track language")
    return au.relational_join(lang, r.base, 0, 0)


def preimage(r: AutomaticRelation, lang: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """R^{-1}[X] = {u | exists v in X with (u,v) in R}."""
    if lang.tracks != 1:
        raise ArityMismatchError("preimage takes a 1-track language")
    return au.relational_join(lang, r.base, 0, 1)


def project_first(r: AutomaticRelation) -> MultiTrackAutomaton:
    """pi1(R) = {u | exists v: (u,v) in R}."""
    return au.project(r.base, 1)


def project_second(r: AutomaticRelation) -> MultiTrackAutomaton:
    """pi2(R) = {v | exists u: (u,v) in R}."""
    return au.project(r.base, 0)


def init_set(r: AutomaticRelation) -> MultiTrackAutomaton:
    """Vertices with no predecessor in the graph of R: Sigma* \\ pi2(R)."""
    return au.complement_relative(project_second(r))


def common_image_pairs(ra: AutomaticRelation, rb: AutomaticRelation) -> AutomaticRelation:
    """{(u, u') | exists v: (u,v) in RA and (u',v) in RB}."""
    if ra.alphabet != rb.alphabet:
        raise ArityMismatchError("operands need a shared alphabet")
    return _wrap(au.relational_join(ra.base, rb.base, 1, 1))


def functional(r: AutomaticRelation) -> bool:
    """Out-degree <= 1 everywhere as a graph.

    Runs two copies of ``r.base`` in lockstep on one shared left word and
    looks for a pair of accepting runs whose right words differ, so the
    cost is O(|delta|^2) over at most 2(|Q|+1)^2 product states, not the
    |Sigma|^2 columns of an inequality relation.
    """
    return not _lockstep_clash(r, 0)


def co_functional(r: AutomaticRelation) -> bool:
    """In-degree <= 1 everywhere as a graph.

    The lockstep check of :func:`functional` with the right track shared.
    """
    return not _lockstep_clash(r, 1)


def _lockstep_clash(r: AutomaticRelation, shared: int) -> bool:
    """Whether R holds two pairs that agree on track ``shared`` and differ
    on the other track.

    Product states are (p, q, diverged) over the augmented adjacency, where
    a finished run keeps reading all-pad columns.  The walk charges the
    budget per product state it discovers, keeps no edges and stops at the
    first diverged state where both runs accept.
    """
    # 289-symbol padded demo graph: 2.0 ms vs 8.6 for included(join(r, r, 0, 0), identity)
    a = r.base
    other = 1 - shared
    accepting = set(a.accepting) | {a.states}
    by_shared: dict = {}
    for q, moves in au._augmented_adj(a).items():
        out = by_shared[q] = {}
        for sym, dst in moves:
            out.setdefault(sym[shared], []).append((sym[other], dst))

    bud = au._active_budget()
    seen = {(p, q, False) for p in a.initial for q in a.initial}
    bud.charge(len(seen))
    order = list(seen)
    for p, q, diverged in order:  # grows while iterated: a BFS queue
        moves_q = by_shared[q]
        for x, ends_p in by_shared[p].items():
            ends_q = moves_q.get(x, ())
            for y1, p2 in ends_p:
                for y2, q2 in ends_q:
                    if x == PAD and y1 == PAD and y2 == PAD:  # both finished
                        continue
                    nxt = (p2, q2, diverged or y1 != y2)
                    if nxt not in seen:
                        bud.charge()
                        if nxt[2] and p2 in accepting and q2 in accepting:
                            return True
                        seen.add(nxt)
                        order.append(nxt)
    return False


def relation_pairs(r: AutomaticRelation, max_conv_len: int) -> Iterator[tuple]:
    """Pairs of R whose convolution length is <= max_conv_len, shortlex."""
    for w in au.iter_column_words(r.base, max_conv_len):
        yield au.split_convolution(w, 2)


def successor_words(r: AutomaticRelation, word: Sequence[str],
                    max_len: int) -> list:
    """Words v with (word, v) in R and |v| <= max_len, in shortlex order:
    the image of {word}, read off R's automaton by :func:`_words_beside`
    with ``word`` on track 0."""
    return _words_beside(r, word, max_len, 0)


def predecessor_words(r: AutomaticRelation, word: Sequence[str],
                      max_len: int) -> list:
    """Words u with (u, word) in R and |u| <= max_len, in shortlex order:
    the preimage of {word}, read off R's automaton by :func:`_words_beside`
    with ``word`` on track 1.  No inverse of R is built."""
    return _words_beside(r, word, max_len, 1)


def _words_beside(r: AutomaticRelation, word: Sequence[str], max_len: int,
                  fixed: int) -> list:
    """The words v, |v| <= max_len, that R pairs with ``word`` on track
    ``fixed`` and v on the other, in shortlex order.

    A walk of (position in ``word``, state of ``r.base``) pairs: the states
    of the join of {word} with R, without the word's automaton.  A pair
    follows its state's moves whose symbol on track ``fixed`` is the word's
    next letter, or PAD once the word has ended, grouped once per state and
    track (:func:`automata._moves_by_track`).  A move with PAD on the other
    track ends v, so, as in :func:`automata.relational_join`, it only feeds
    acceptance: a pair accepts if such moves lead it to the word's end in an
    accepting state.  :func:`automata._walk` charges each pair once, and
    :func:`automata._shortlex_words` lists the walk, which is deterministic
    when ``r.base`` is; no automaton is built.
    """
    a = r.base
    w = tuple(word)
    known = au._symbol_index(a.alphabet)
    for x in w:
        if x not in known or x == PAD:
            raise au.UnknownSymbolError(f"symbol {x!r} outside alphabet")
    free, end = 1 - fixed, len(w)
    moves_of = au._moves_by_track(a, fixed)

    def successors(state):
        i, q = state
        key, nxt = (w[i], i + 1) if i < end else (PAD, end)
        for sym, dst in moves_of(q).get(key, ()):
            yield sym[free], (nxt, dst)

    index: dict = {}
    edges = list(au._walk([(0, q) for q in sorted(a.initial)], successors, index))
    done = [n for (i, q), n in index.items() if i == end and q in a.accepting]
    if not done:  # no pair reads the whole word into acceptance
        return []
    adj = defaultdict(list)
    ended = []  # moves with PAD on the free track: (src, dst)
    for src, y, dst in edges:
        if y == PAD:
            ended.append((src, dst))
        else:
            adj[src].append((y, dst))
    accepting = au._reach(done, au._reverse(ended))
    return list(au._shortlex_words(range(len(a.initial)), adj, accepting,
                                   a.deterministic, known, max_len))


# ---------------------------------------------------------------------------
# Fixture registry

def fixtures(name: str, **params) -> AutomaticRelation:
    """Named relations from the worked examples.

    fc(c): the offset-c successor chain on a^*.
    tree: the a*b* tree that is 2-colorable but not with regular colors.
    equal-length / append-one: the two relations of the incompatibility
    example whose graph is colored by word-length parity.
    gadget: forwarded to the Turing-machine kit (needs machine=..., k=...).
    """
    key = name.replace("_", "-").lower()
    if key == "identity":
        return make_identity(params.get("alphabet", ("a", "b")))
    if key == "equal-length":
        return equal_length_relation(params.get("alphabet", ("a", "b")))
    if key in ("fc", "offset-successor"):
        return successor_relation(params.get("c", 1),
                                  params.get("alphabet", ("a",)))
    if key == "append-one":
        return append_one_relation(params.get("alphabet", ("a", "b")))
    if key == "tree":
        return tree_relation(params.get("alphabet", ("a", "b")))
    if key == "gadget":
        if "machine" not in params:
            raise FixtureError("the gadget fixture needs machine=<a TuringMachine>")
        from . import tm
        return tm.coloring_gadget(params["machine"], params.get("k", 2))
    raise FixtureError(f"unknown fixture {name!r}")


# ---------------------------------------------------------------------------
# RelationSpec: s-expression input language for the CLI, e.g.
#   (union (fc 1) (inverse (fc 1)))

def parse_relation_spec(text: str,
                        alphabet: Optional[Sequence[str]] = None) -> AutomaticRelation:
    tokens, starts = _tokenize(text)
    try:  # parsing and evaluation both recurse once per nesting level
        expr, end = _parse_expr(tokens, 0)
        if end < len(tokens):
            raise AutomataError(
                f"trailing input in relation spec: {text[starts[end]:].rstrip()!r}")
        return _eval_spec(expr, tuple(alphabet) if alphabet else None)
    except RecursionError:
        raise AutomataError("relation spec nested too deeply") from None


def _tokenize(text: str) -> tuple:
    """The tokens of ``text``, and the position in it where each starts."""
    out, starts = [], []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        starts.append(i)
        if c in "()":
            out.append(c)
            i += 1
        elif c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise AutomataError(
                    f"unterminated string at position {i} of relation spec")
            out.append(("str", text[i + 1:j]))
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            out.append(("atom", text[i:j]))
            i = j
    return out, starts


def _parse_expr(tokens: list, i: int):
    """The expression that starts at token i, and the index after it."""
    if i == len(tokens):
        raise AutomataError("empty relation spec")
    head, i = tokens[i], i + 1
    if head == "(":
        items = []
        while i < len(tokens) and tokens[i] != ")":
            item, i = _parse_expr(tokens, i)
            items.append(item)
        if i == len(tokens):
            raise AutomataError("unbalanced parenthesis in relation spec")
        return items, i + 1
    if head == ")":
        raise AutomataError("unexpected ) in relation spec")
    return head, i


#: Argument count of each fixed-arity spec constructor; ``pairs`` takes any.
_SPEC_ARITY = {
    "identity": 0, "equal-length": 0, "append-one": 0, "tree": 0,
    "fc": 1, "offset-successor": 1, "load": 1, "inverse": 1,
    "symmetric-closure": 1, "union": 2, "intersection": 2, "difference": 2,
    "compose": 2,
}


def _spec_text(e) -> str:
    """The text of an atom or string argument."""
    if not isinstance(e, tuple):
        raise AutomataError(
            f"expected a word or number in relation spec, got {_spec_source(e)!r}")
    return e[1]


def _spec_source(e) -> str:
    """A parsed form written back as spec text, for error messages."""
    if isinstance(e, list):
        return "(" + " ".join(map(_spec_source, e)) + ")"
    kind, text = e
    return f'"{text}"' if kind == "str" else text


def _eval_spec(expr, alphabet):
    if not isinstance(expr, list) or not expr:
        raise AutomataError(f"bad relation spec form: {_spec_source(expr)!r}")
    op = expr[0][1] if isinstance(expr[0], tuple) else expr[0]
    args = expr[1:]
    arity = _SPEC_ARITY.get(op) if isinstance(op, str) else None
    if arity is not None and len(args) != arity:
        raise AutomataError(f"({op} ...) takes {arity} argument(s), got {len(args)}")

    def sub(e):
        return _eval_spec(e, alphabet)

    if op in ("identity", "equal-length", "append-one", "tree", "fc", "offset-successor"):
        params = {} if alphabet is None else {"alphabet": alphabet}
        if args:
            text = _spec_text(args[0])
            try:
                params["c"] = int(text)
            except ValueError:
                raise AutomataError(f"({op} c) needs an integer, got {text!r}") from None
        return fixtures(op, **params)
    if op == "pairs":
        pairs = []
        for item in args:
            if not isinstance(item, list) or len(item) != 2:
                raise AutomataError("(pairs (u v) ...) expects two-word lists")
            pairs.append((_spec_text(item[0]), _spec_text(item[1])))
        alpha = alphabet or tuple(sorted({c for p in pairs for w in p for c in w})) or ("a",)
        return finite_relation(pairs, alpha)
    if op == "load":
        path = _spec_text(args[0])
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.loads(fh.read())
        except (OSError, ValueError) as e:
            raise AutomataError(f"(load {path!r}): {e}") from None
        except RecursionError:  # else parse_relation_spec blames the spec's nesting
            raise AutomataError(f"(load {path!r}): JSON nested too deeply") from None
        return relation(au.from_json_dict(data))
    if op == "union":
        return union_rel(sub(args[0]), sub(args[1]))
    if op == "intersection":
        return intersect_rel(sub(args[0]), sub(args[1]))
    if op == "difference":
        return difference_rel(sub(args[0]), sub(args[1]))
    if op == "inverse":
        return inverse(sub(args[0]))
    if op == "symmetric-closure":
        return symmetric_closure(sub(args[0]))
    if op == "compose":
        return compose(sub(args[0]), sub(args[1]))
    raise AutomataError(f"unknown relation constructor {_spec_source(expr[0])!r}")
