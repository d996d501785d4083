"""Finite automata over multi-track padded alphabets.

A t-track automaton reads columns: t-tuples whose entries are alphabet
symbols or the padding token.  A tuple of words is encoded as one column
word by padding the shorter components, so a binary relation on words is a
language of 2-track columns.  Every language handled here lives inside
``ValidPad(t)``: on each track the padding, once started, runs to the end
of the word, and no column is padding on all tracks at once.

All automata are immutable values; the operations below are pure functions
and safe to call concurrently.  All automata over one alphabet share its
column order, a symbol -> position index (:func:`_symbol_index`) built
when the alphabet is first checked.  Checks and loads hand out one shared
tuple per alphabet, whose index is found by identity, else by hashing, in
process-wide caches; two callers that miss at once build equal indexes.

Work that can blow up charges a budget and raises
:class:`BudgetExceededError` instead of exhausting memory or time: see
:func:`state_budget` for what costs a unit.  Emptiness and witness
questions are searches, not constructions: :func:`emptiness_shortest`,
:func:`intersection_witness`, :func:`difference_witness` and the partition
check of :mod:`autorel.recognizable` build no automaton, charge one unit
per state they discover and stop at the first witness.
``with state_budget(n):`` shares one budget of ``n`` units among all the
work in its body; outside any scope each walk, load, decomposition and
search has its own budget of :data:`DEFAULT_STATE_BUDGET` units.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from itertools import pairwise, product as _cartesian
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, Optional, Sequence, Union

#: Padding token.  Reserved: never a member of any alphabet.
PAD = "_"

#: Names that cannot be used as alphabet symbols ("⊥" is the display form
#: of the padding token, "_" its machine form).
RESERVED_SYMBOLS = frozenset({"", PAD, "⊥"})

DEFAULT_STATE_BUDGET = 10**6

TrackSymbol = tuple  # tuple[str, ...] of length == tracks
Word = tuple  # tuple[str, ...], a word on a single track
Transition = tuple  # (src: int, symbol: TrackSymbol, dst: int)


class AutomataError(Exception):
    """Base error for this package."""


class BudgetExceededError(AutomataError):
    """Work exceeded its budget (see :func:`state_budget`)."""


class ArityMismatchError(AutomataError):
    """Operands disagree on track count or alphabet."""


class UnknownSymbolError(AutomataError):
    """A word uses a symbol outside the automaton's alphabet."""


class FormatError(AutomataError):
    """Malformed JSON input: a missing key or a wrongly typed or shaped entry."""


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: Optional[int]):
        self.limit = DEFAULT_STATE_BUDGET if limit is None else limit
        self.used = 0

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(
                f"state budget exceeded ({self.used} > {self.limit})")


# A context variable, not a module global, so concurrent callers each see
# the budget of their own scope.
_ACTIVE_BUDGET: ContextVar = ContextVar("autorel_state_budget", default=None)


@contextmanager
def state_budget(limit: Optional[int] = None):
    """Bound all the work in the body by one budget of ``limit`` units
    (default :data:`DEFAULT_STATE_BUDGET`); a nested scope installs its own.

    One unit is charged per state a construction discovers, per state
    declared by a loaded automaton, per rectangle cover search step and per
    candidate coloring; the offset successor ``(fc c)`` charges its c + 1
    states before it builds them.  A class search (of a definability verb
    or a decomposition) charges each state of its class walks once and each
    subset its searches for the representatives discover.
    :func:`determinize_minimize` walks its input again and charges the
    states it discovers; a deterministic walk minimized as it stands, as
    the congruence walks and the class walks of a decomposition are,
    charges each of its states once, as :func:`complement_relative` and
    the tagged gadget of :mod:`autorel.tm`, at every k, do.  The walk
    beside one word (:func:`autorel.relations.successor_words` and
    ``predecessor_words``) charges each (position, state) pair it discovers
    once.  The gadget and :func:`~autorel.recognizable.lift_to_kprod` also
    charge each column between two fresh letters before writing any: n(n-1)
    and 2n^2 units, n = k - 2.
    An emptiness, witness or partition check is a search: it charges one
    unit per state it discovers (a product state, a subset or a tuple of
    subsets) and stops at the first witness, so it charges at most what
    building the product would.  Exhaustion always raises
    :class:`BudgetExceededError`.
    """
    token = _ACTIVE_BUDGET.set(_Budget(limit))
    try:
        yield
    finally:
        _ACTIVE_BUDGET.reset(token)


def _active_budget() -> _Budget:
    """The budget of the enclosing :func:`state_budget` scope, else a fresh
    one for the caller alone."""
    return _ACTIVE_BUDGET.get() or _Budget(None)


def _walk(start, successors, index: dict):
    """Breadth-first closure of ``start`` under ``successors``, which yields
    ``(label, next_state)`` pairs: the ``(src, label, dst)`` edges between
    state numbers, yielded as they are found, while the states are numbered
    into ``index`` in discovery order, start states first (repeats dropped).
    Each new state is charged to the budget of the enclosing
    :func:`state_budget` scope, else to one for this walk.  A kept ``index``
    numbers on from its states, and only the states this call adds are
    walked and charged: a start it already holds is not walked again."""
    bud = _active_budget()
    first = len(index)
    order = []
    for s in start:
        if s not in index:
            index[s] = len(index)
            bud.charge()
            order.append(s)
    for src, state in enumerate(order, first):  # grows while iterated: a BFS queue
        for label, nxt in successors(state):
            dst = index.get(nxt)
            if dst is None:
                dst = index[nxt] = len(index)
                bud.charge()
                order.append(nxt)
            yield src, label, dst


def _shortest_word(start, successors, rank, accepts) -> Optional[tuple]:
    """The shortlex-least word on which :func:`_walk` would reach a state
    satisfying ``accepts`` from ``start``, or None if there is none.

    A breadth-first walk that keeps no edges and stops at the first
    accepting state it discovers.  ``successors(state)`` yields
    ``(column, next_state)`` pairs with columns in ``rank`` order (a column
    -> integer mapping) and the moves on one column adjacent, as ``_adj``
    gives them.  Each new state is charged to the budget as in
    :func:`_walk`, so a search that finds nothing charges what the full
    walk does.

    The states of a level are grouped by their least word, and a group's
    moves are merged by column before they are visited.  Visiting state by
    state would be wrong: of two states with one least word, the later one
    can read a lesser column than the earlier one, and what it reaches
    would be discovered after words that are greater.  A group of one state
    reads its moves as given.
    """
    bud = _active_budget()
    seen = set()
    level = []
    for s in start:
        if s not in seen:
            seen.add(s)
            bud.charge()
            if accepts(s):
                return ()
            level.append(s)
    links = [None]  # group -> (parent group, column); group 0 holds the start
    groups = [(0, level)] if level else []
    while groups:
        next_groups = []
        for g, states in groups:
            if len(states) == 1:
                moves = successors(states[0])
            else:
                merged: dict = {}
                for state in states:
                    for col, s in successors(state):
                        merged.setdefault(col, []).append(s)
                moves = [(col, s) for col in sorted(merged, key=rank.__getitem__)
                         for s in merged[col]]
            group = None
            for col, s in moves:
                if s in seen:
                    continue
                seen.add(s)
                bud.charge()
                if accepts(s):
                    word = [col]
                    while g:
                        g, col = links[g]
                        word.append(col)
                    return tuple(reversed(word))
                if group is None or col != group_col:
                    group, group_col = [], col
                    links.append((g, col))
                    next_groups.append((len(links) - 1, group))
                group.append(s)
        groups = next_groups
    return None


def _explore_automaton(tracks, alphabet, start, successors,
                       accepts) -> MultiTrackAutomaton:
    """The automaton :func:`_walk` spans from ``start``, accepting the
    walked states that satisfy ``accepts``."""
    index: dict = {}
    trans = list(_walk(start, successors, index))
    accepting = {i for s, i in index.items() if accepts(s)}
    return _freeze(tracks, alphabet, max(len(index), 1),
                   {index[s] for s in start}, accepting, trans)


def _reach(sources, adj: dict) -> dict:
    """Breadth-first distances from ``sources`` along ``adj`` (node -> nodes)."""
    dist = dict.fromkeys(sources, 0)
    order = list(dist)
    for u in order:
        d = dist[u] + 1
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = d
                order.append(v)
    return dist


def _reverse(pairs) -> dict:
    """Predecessor lists of the (src, dst) pairs."""
    back: dict = {}
    for src, dst in pairs:
        back.setdefault(dst, []).append(src)
    return back


def check_alphabet(symbols: Iterable[str]) -> tuple:
    """Validate and freeze an alphabet (ordered, duplicate-free) into the
    shared tuple of its index: checked once, when first indexed.  A
    refused alphabet is never stored, so it is refused on every call.
    """
    alphabet = tuple(symbols)
    try:
        return (_by_identity.get(id(alphabet)) or _hashed_index(alphabet))[0]
    except TypeError:  # an unhashable symbol: refused without the caches
        return _hashed_index.__wrapped__(alphabet)[0]


# How many alphabets _hashed_index keeps; the least recently used goes first.
_SHARED_ALPHABETS = 64
_BY_IDENTITY = 4  # shared tuples found by id
_by_identity: dict = {}  # id(alphabet) -> _hashed_index(alphabet); emptied when full


def _symbol_index(alphabet: tuple) -> Mapping:
    """Symbol -> its position in ``alphabet``, PAD last, for an alphabet
    that :func:`check_alphabet` accepts; raises as it does on any other.

    The column order of every automaton over ``alphabet``, shared by all
    of them.  A shared tuple is found by identity among the 4 looked up
    last, each entry holding it so that no other object takes its id;
    other tuples hash into :func:`_hashed_index`.  Each write to either map
    is one dict operation; callers that miss at once build equal mappings.
    """
    entry = _by_identity.get(id(alphabet))
    if entry is None:
        entry = _hashed_index(alphabet)
        if entry[0] is alphabet:
            if len(_by_identity) >= _BY_IDENTITY:
                _by_identity.clear()
            _by_identity[id(alphabet)] = entry
    return entry[1]


@lru_cache(maxsize=_SHARED_ALPHABETS)
def _hashed_index(alphabet: tuple) -> tuple:
    """(shared tuple, :func:`_symbol_index`): the first equal tuple indexed."""
    index: dict = {}
    for s in alphabet:
        if not isinstance(s, str) or s in RESERVED_SYMBOLS:
            raise AutomataError(f"illegal alphabet symbol: {s!r}")
        if s in index:
            raise AutomataError(f"duplicate alphabet symbol: {s!r}")
        index[s] = len(index)
    if not index:
        raise AutomataError("alphabet must be non-empty")
    index[PAD] = len(index)
    return alphabet, MappingProxyType(index)


def _check_tracks(tracks: int) -> None:
    if tracks < 1:
        raise AutomataError("tracks must be >= 1")


@dataclass(frozen=True)
class MultiTrackAutomaton:
    """NFA over t-track columns.

    States are ``0 .. states-1``.  Transitions are (src, column, dst)
    triples; a column is a t-tuple over ``alphabet + (PAD,)`` that is not
    padding on every track.  Missing transitions are implicitly dead, so a
    "deterministic" automaton here is a partial DFA.  The constructor checks
    every field; the constructions below, valid by construction, skip it.
    A JSON load checks each transition once and sets ``_rank``; a file in
    ``_adj``'s order, the emitted one, also gives ``deterministic`` and ``_adj``.
    """

    tracks: int
    alphabet: tuple
    states: int
    initial: frozenset
    accepting: frozenset
    transitions: frozenset

    def __post_init__(self):
        _check_tracks(self.tracks)
        ok = _symbol_index(check_alphabet(self.alphabet))  # the symbols and PAD
        n = self.states
        if n < 0:
            raise AutomataError("states must be >= 0")
        for q in self.initial | self.accepting:
            if not 0 <= q < n:
                raise AutomataError(f"state {q} out of range")
        # set order varies with the hash seed: report the first fault in
        # repr order, so that one input always gets one message
        bad = [(src, sym, dst) for src, sym, dst in self.transitions
               if not (0 <= src < n and 0 <= dst < n)]
        if bad:
            raise AutomataError(f"transition state out of range: {min(bad, key=repr)}")
        # a column is legal or not wherever it occurs: check each one once
        cols = {sym for _src, sym, _dst in self.transitions}
        bad = [sym for sym in cols if len(sym) != self.tracks
               or not all(x in ok for x in sym) or all(x == PAD for x in sym)]
        for sym in sorted(bad, key=repr):  # raises on the first
            if len(sym) != self.tracks:
                raise ArityMismatchError(f"column {sym!r} has wrong arity")
            if all(x == PAD for x in sym):
                raise AutomataError("all-padding column is illegal")
            for x in sym:
                if x not in ok:
                    raise UnknownSymbolError(f"column {sym!r} uses unknown symbol {x!r}")

    @cached_property
    def deterministic(self) -> bool:
        """One initial state and at most one move per column and state,
        read off ``_adj``, where the moves on one column are adjacent."""
        return len(self.initial) == 1 and all(
            s != t for moves in self._adj.values() for (s, _d), (t, _e) in pairwise(moves))

    @cached_property
    def _adj(self) -> dict:
        """Per state, its (column, dst) moves in (``_rank``, dst) order:
        the column order is the alphabet's, shared by every state.  Moves
        kept in that order (``_IN_ORDER``) are only grouped, not sorted."""
        out: dict = {q: [] for q in range(self.states)}
        moves = self.__dict__.pop(_IN_ORDER, None)
        if moves is not None:
            for src, sym, dst in moves:
                out[src].append((sym, dst))
            return out
        rank = self._rank
        for src, sym, dst in self.transitions:
            out[src].append((rank[sym], dst, sym))
        for q, moves in out.items():
            moves.sort()
            out[q] = [(sym, dst) for _r, dst, sym in moves]
        return out

    @cached_property
    def _rank(self) -> dict:
        """Each of this automaton's columns -> its integer sort key, in no
        particular order.

        The key reads the column as a number in base |alphabet| + 1 whose
        digits are its symbols' positions in the alphabet's shared
        :func:`_symbol_index`.  Columns all have ``tracks`` digits, so key
        order is ``symbol_key`` order, and every automaton over one
        alphabet gives a column the same key; no columns are sorted.
        """
        index = _symbol_index(self.alphabet)
        base = len(index)
        rank = {}
        for sym in {sym for _src, sym, _dst in self.transitions}:
            key = 0
            for x in sym:
                key = key * base + index[x]
            rank[sym] = key
        return rank

    @cached_property
    def _step_map(self) -> dict:
        out: dict = {}
        for src, sym, dst in self.transitions:
            out.setdefault((src, sym), set()).add(dst)
        return out

    def symbol_key(self, sym: TrackSymbol) -> tuple:
        """Order key for columns: track-wise alphabet order, padding last.
        It reads the alphabet's shared :func:`_symbol_index`; ``_rank`` is
        the same order as one integer per column."""
        index = _symbol_index(self.alphabet)
        return tuple(index[x] for x in sym)

    def step(self, states: frozenset, sym: TrackSymbol) -> frozenset:
        nxt: set = set()
        for q in states:
            nxt |= self._step_map.get((q, sym), _EMPTY_SET)
        return frozenset(nxt)

    @cached_property
    def _delta(self) -> dict:
        """(src, column) -> dst, for a deterministic automaton."""
        return {(src, sym): dst for src, sym, dst in self.transitions}

    def accepts_columns(self, word: Sequence[TrackSymbol]) -> bool:
        """Whether the column word is accepted, by stepping subsets."""
        # An NFA is not determinized first: its canonical DFA can be
        # exponentially larger, as for the listing in iter_column_words.
        cur = self.initial
        for sym in word:
            if not cur:
                return False
            cur = self.step(cur, tuple(sym))
        return bool(cur & self.accepting)

    def column_universe(self) -> Iterator[TrackSymbol]:
        """All legal columns, in symbol order (padding last per track)."""
        pool = tuple(self.alphabet) + (PAD,)
        for sym in _cartesian(pool, repeat=self.tracks):
            if any(x != PAD for x in sym):
                yield sym


_EMPTY_SET: frozenset = frozenset()


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``,
    built without ``__post_init__``: for results that are valid by
    construction.  Public constructors and JSON loads validate instead."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _freeze(tracks, alphabet, n, initial, accepting, transitions) -> MultiTrackAutomaton:
    return _trusted(
        MultiTrackAutomaton,
        tracks=tracks,
        alphabet=tuple(alphabet),
        states=n,
        initial=frozenset(initial),
        accepting=frozenset(accepting),
        transitions=frozenset(transitions),
    )


# ---------------------------------------------------------------------------
# Convolution

def convolve(components: Sequence[Union[str, Sequence[str]]],
             alphabet: Optional[Sequence[str]] = None) -> tuple:
    """Encode a tuple of words as one column word, padding the short ones.

    Each component is a tuple of symbol names; a plain ``str`` is split
    into characters.  E.g. ("aaba", "aa") becomes
    (a,a)(a,a)(b,_)(a,_).
    """
    words = [tuple(w) if not isinstance(w, tuple) else w for w in components]
    if alphabet is not None:
        ok = set(alphabet)
        for w in words:
            for x in w:
                if x not in ok:
                    raise UnknownSymbolError(f"symbol {x!r} outside alphabet")
    for w in words:
        if PAD in w:
            raise UnknownSymbolError("padding token is not a word symbol")
    n = max((len(w) for w in words), default=0)
    return tuple(
        tuple(w[i] if i < len(w) else PAD for w in words)
        for i in range(n)
    )


def split_convolution(word: Sequence[TrackSymbol], tracks: int) -> tuple:
    """Inverse of :func:`convolve` on a validly padded column word."""
    comps = []
    for i in range(tracks):
        out = []
        for sym in word:
            if sym[i] == PAD:
                break
            out.append(sym[i])
        comps.append(tuple(out))
    return tuple(comps)


def membership(a: MultiTrackAutomaton,
               components: Sequence[Union[str, Sequence[str]]]) -> bool:
    """Test whether the convolution of a word tuple is accepted."""
    if len(components) != a.tracks:
        raise ArityMismatchError(
            f"expected {a.tracks} components, got {len(components)}")
    return a.accepts_columns(convolve(components, a.alphabet))


# ---------------------------------------------------------------------------
# ValidPad

def valid_pad_automaton(tracks: int, alphabet: Sequence[str]) -> MultiTrackAutomaton:
    """DFA for ValidPad(t): padding only as a per-track suffix."""
    _check_tracks(tracks)
    alphabet = check_alphabet(alphabet)
    # the all-padding mask is unreachable, as no column is padding everywhere
    masks = list(range((1 << tracks) - 1))
    trans = []
    probe = _freeze(tracks, alphabet, 1, {0}, {0}, ())
    for m in masks:
        for sym in probe.column_universe():
            m2 = _pad_mask_step(m, sym)
            if m2 is not None:
                trans.append((m, sym, m2))
    return _freeze(tracks, alphabet, len(masks), {0}, set(masks), trans)


def _pad_bits(sym: TrackSymbol) -> tuple:
    """(pad, letters): the tracks on which column ``sym`` is padding and
    those on which it is a letter, as bit masks.  After pad mask m (the
    tracks whose word has ended) ``sym`` breaks ValidPad if m & letters,
    else the mask becomes m | pad."""
    pad = sum(1 << i for i, x in enumerate(sym) if x == PAD)
    return pad, ((1 << len(sym)) - 1) ^ pad


def _pad_mask_step(mask: int, sym: TrackSymbol) -> Optional[int]:
    """The pad mask after ``sym``, or None if ``sym`` breaks ValidPad."""
    pad, letters = _pad_bits(sym)
    return None if mask & letters else mask | pad


def restrict_valid_pad(a: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """Intersect with ValidPad(t) without materializing the pad DFA."""
    def successors(state):
        q, mask = state
        for sym, dst in a._adj[q]:
            m2 = _pad_mask_step(mask, sym)
            if m2 is not None:
                yield sym, (dst, m2)

    start = [(q, 0) for q in sorted(a.initial)]
    return _explore_automaton(a.tracks, a.alphabet, start, successors,
                              lambda s: s[0] in a.accepting)


def satisfies_valid_pad(a: MultiTrackAutomaton) -> bool:
    """Inclusion test L(a) <= ValidPad(t).

    ``included(a, valid_pad_automaton(...))`` without building the pad DFA:
    `a` in product with a pad mask, which a column breaking the padding rule
    sets to None for good; a violation is a broken run that accepts.  The
    walk charges one unit per (state, mask) pair it discovers, keeps no
    edges and stops at the first broken pair whose state accepts.
    """
    # own walk: a _shortest_word search was 1.4-1.5x slower, on every relation load
    adj, accepting = a._adj, a.accepting
    table = {sym: _pad_bits(sym) for sym in a._rank}  # a's own columns
    bud = _active_budget()
    seen = {(q, 0) for q in a.initial}
    bud.charge(len(seen))
    order = list(seen)
    for q, mask in order:  # grows while iterated: a BFS queue
        for sym, dst in adj[q]:
            if mask is None:
                nxt = (dst, None)
            else:
                pad, letters = table[sym]
                nxt = (dst, None if mask & letters else mask | pad)
            if nxt not in seen:
                bud.charge()
                if nxt[1] is None and dst in accepting:
                    return False
                seen.add(nxt)
                order.append(nxt)
    return True


# ---------------------------------------------------------------------------
# Determinization, minimization, canonical form

def _trim(initial: int, trans: dict, accept: set):
    """Keep states that can reach acceptance; the initial state always stays.
    Returns the kept states and ``trans``, trimmed in place to their moves
    into live states, so no second copy of the moves is held."""
    live = _reach(accept, _reverse((s, d) for (s, _sym), d in trans.items()))
    keep = set(live) | {initial}
    for key in [(s, sym) for (s, sym), d in trans.items() if s not in keep or d not in live]:
        del trans[key]
    return keep, trans


def _moore_minimize(states: Collection, trans: dict, accept: set) -> dict:
    """Partition refinement with an implicit dead state: state -> block.

    The initial blocks split by acceptance and by the set of columns with a
    move, so within a block every state has its moves on the same columns
    and a round compares only the blocks of their targets.  Blocks are
    numbered by the first appearance of a member in the order ``states``
    is given.
    """
    cols: dict = {}  # column -> position, in first-seen order
    at: dict = {q: [] for q in states}
    dsts: dict = {q: [] for q in states}
    for (q, sym), d in trans.items():
        at[q].append(cols.setdefault(sym, len(cols)))
        dsts[q].append(d)
    first: dict = {}
    block = {}
    for q, pos in at.items():
        ordered = sorted(pos)
        if ordered != pos:  # positions are distinct, so targets are never compared
            dsts[q] = [d for _c, d in sorted(zip(pos, dsts[q]))]
        block[q] = first.setdefault((q in accept, *ordered), len(first))
    del at
    count = len(first)
    while True:
        ids: dict = {}
        prev = block.__getitem__
        block = {q: ids.setdefault((prev(q), *map(prev, dsts[q])), len(ids))
                 for q in states}
        if len(ids) == count:
            return block
        count = len(ids)


# Instance flag marking a canonical result.  Only _explore_minimal, through
# which every result of determinize_minimize passes, sets it; an automaton
# loaded from JSON or built otherwise has none.  Per seed-41 round it cuts the
# determinize_minimize calls from 73 to 26 ms (definability), 143 to 85 (separation).
_CANONICAL = "_canonical"

# Instance key of the transitions listed in (src, _rank, dst) order, until _adj groups them.
_IN_ORDER = "_moves_in_order"


def determinize_minimize(a: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """Canonical form: minimal partial DFA, states numbered breadth-first.

    Equal languages over the same alphabet yield identical encodings, so
    dataclass equality of canonical forms decides language equality.  A
    canonical input, i.e. a result of this function, is returned as is.

    One deterministic walk, minimized as it stands by
    :func:`_explore_minimal`: the subset construction of an NFA, or, for a
    deterministic input, whose subsets would all be singletons, its own
    states along ``_adj``.  Either walk reads moves in ``_rank`` order, the
    alphabet's column order that every automaton over it shares, and the
    numbering is the walk's: the states of a block move on the same
    columns into the same blocks, so numbering blocks by least member
    numbers them breadth-first.  A construction whose own walk is
    deterministic calls :func:`_explore_minimal` itself, so each of its
    states is charged once, not once more by a second walk here.
    """
    if a.__dict__.get(_CANONICAL):
        return a
    # complement of a 289-symbol machine graph (2.52 M transitions): 17 s, not 46-51 s
    if a.deterministic:
        return _explore_minimal(a.tracks, a.alphabet, a.initial, a._adj.__getitem__,
                                a.accepting.__contains__)
    return _explore_minimal(a.tracks, a.alphabet, [frozenset(a.initial)],
                            partial(_subset_moves, a._adj, a._rank),
                            lambda cur: not a.accepting.isdisjoint(cur))


def _subset_moves(adj: dict, rank: Mapping, cur) -> Iterator[tuple]:
    """The subset construction's moves from the states ``cur``: each column
    on which one of them moves along ``adj``, in ``rank`` order, with the
    frozenset of its targets."""
    out: dict = {}
    for q in cur:
        for sym, dst in adj[q]:
            out.setdefault(sym, set()).add(dst)
    for sym in sorted(out, key=rank.__getitem__):
        yield sym, frozenset(out[sym])


def _explore_minimal(tracks, alphabet, start, successors, accepts,
                     expand=None) -> MultiTrackAutomaton:
    """``determinize_minimize(_explore_automaton(...))`` for a deterministic
    walk, without the second walk over its states.

    ``start`` holds one state, and ``successors`` yields each column at most
    once, in ``symbol_key`` order, which ``_rank`` gives every automaton
    over the alphabet, this result included.  The walk's breadth-first
    numbering is then the one a walk over the built automaton would give it
    again, so its edges go straight to the minimizer, and each state is
    charged once.
    The walk is trimmed, its Moore blocks merged, and the result, a block's
    moves being its first member's, is flagged as canonical.  A walk may
    read one column for each of a few classes of columns that move every
    state alike; ``expand(column)`` then yields the columns it stands for,
    and the first of them is the column read.
    """
    (s0,) = start
    index: dict = {}
    trans = {(src, sym): dst for src, sym, dst in _walk([s0], successors, index)}
    accept = {i for s, i in index.items() if accepts(s)}
    del index  # not held while the minimizer runs
    keep, trans = _trim(0, trans, accept)
    block = _moore_minimize(sorted(keep), trans, accept)
    first: dict = {}
    for q, b in block.items():
        first.setdefault(b, q)
    moves = [(block[q], sym, block[d]) for (q, sym), d in trans.items()
             if first[block[q]] == q]
    trans.clear()  # not held while the result is built
    c = _freeze(tracks, alphabet, max(block.values()) + 1, {0},
                {block[q] for q in accept},
                moves if expand is None else
                ((b, col, e) for b, sym, e in moves for col in expand(sym)))
    # kept beside the fields, like a cached_property, so == and hash ignore it
    c.__dict__.update({_CANONICAL: True, "deterministic": True})
    if expand is None:  # block by block, each block's moves in column order
        c.__dict__[_IN_ORDER] = moves
    return c


# ---------------------------------------------------------------------------
# Boolean operations

def _require_same_shape(a: MultiTrackAutomaton, b: MultiTrackAutomaton) -> None:
    if a.tracks != b.tracks or a.alphabet != b.alphabet:
        raise ArityMismatchError("operands must share track count and alphabet")


def _intersection_product(a: MultiTrackAutomaton, b: MultiTrackAutomaton):
    """(start, successors, accepts) of the product of a and b, whose states
    pair a state of each and whose moves follow a's ``_adj``."""
    _require_same_shape(a, b)
    b_index = b._step_map

    def successors(state):
        p, q = state
        for sym, p2 in a._adj[p]:
            for q2 in b_index.get((q, sym), ()):
                yield sym, (p2, q2)

    start = [(p, q) for p in sorted(a.initial) for q in sorted(b.initial)]
    return start, successors, lambda s: s[0] in a.accepting and s[1] in b.accepting


def intersect(a: MultiTrackAutomaton, b: MultiTrackAutomaton) -> MultiTrackAutomaton:
    return _explore_automaton(a.tracks, a.alphabet, *_intersection_product(a, b))


def union(first: MultiTrackAutomaton, *rest: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """The disjoint union of the operands' NFAs, states numbered operand by
    operand: the NFA of folding the binary union left to right."""
    initial, accepting = set(first.initial), set(first.accepting)
    trans = list(first.transitions)
    off = first.states
    for b in rest:
        _require_same_shape(first, b)
        initial.update(q + off for q in b.initial)
        accepting.update(q + off for q in b.accepting)
        trans += [(s + off, sym, d + off) for s, sym, d in b.transitions]
        off += b.states
    return _freeze(first.tracks, first.alphabet, off, initial, accepting, trans)


def complement_relative(a: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """ValidPad(t) minus L(a), canonical.

    The :func:`difference` of the ValidPad DFA and ``a``, a deterministic
    walk minimized as it stands.  It follows every legal column,
    (|alphabet|+1)^t - 1 of them, from each pad mask, so it is meant for
    the small alphabets where a true complement is needed.
    """
    return _explore_minimal(a.tracks, a.alphabet, *_difference_product(
        valid_pad_automaton(a.tracks, a.alphabet), a))


def difference(a: MultiTrackAutomaton, b: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """L(a) minus L(b), without complementing b: a's NFA in product with
    b's subset construction.  A state (p, S) pairs a state of a with b's
    states on the same word and accepts when p does and no state of S does.
    Only a's columns are followed."""
    return _explore_automaton(a.tracks, a.alphabet, *_difference_product(a, b))


def _difference_product(a: MultiTrackAutomaton, b: MultiTrackAutomaton):
    """(start, successors, accepts) of :func:`difference`'s product."""
    _require_same_shape(a, b)

    def successors(state):
        p, subset = state
        for sym, p2 in a._adj[p]:
            yield sym, (p2, b.step(subset, sym))

    start = [(p, frozenset(b.initial)) for p in sorted(a.initial)]
    return start, successors, lambda s: s[0] in a.accepting and not s[1] & b.accepting


# ---------------------------------------------------------------------------
# Track operations

def project(a: MultiTrackAutomaton, drop_track: int) -> MultiTrackAutomaton:
    """Drop one track (0-based index), i.e. quantify it existentially.

    The :func:`relational_join` of ``a`` with Sigma* on the dropped track:
    projection, image, preimage and composition are one join, which never
    materializes the joined track.  Like the other joins it assumes L(a)
    lies inside ValidPad(t); it does not restrict the result to
    ValidPad(t-1) again.
    """
    if a.tracks < 2:
        raise ArityMismatchError("projection needs at least 2 tracks")
    if not 0 <= drop_track < a.tracks:
        raise AutomataError(f"track index {drop_track} out of range")
    return relational_join(a, full_language(a.alphabet), drop_track, 0)


def permute_tracks(a: MultiTrackAutomaton, permutation: Sequence[int]) -> MultiTrackAutomaton:
    """Reorder tracks: output track i carries former track permutation[i]."""
    perm = tuple(permutation)
    if (not all(isinstance(i, int) for i in perm)
            or sorted(perm) != list(range(a.tracks))):
        raise AutomataError(f"malformed permutation {perm!r}")
    trans = [(src, tuple(sym[perm[i]] for i in range(a.tracks)), dst)
             for src, sym, dst in a.transitions]
    return _freeze(a.tracks, a.alphabet, a.states, a.initial, a.accepting, trans)


def extend_alphabet(a: MultiTrackAutomaton, alphabet: Sequence[str]) -> MultiTrackAutomaton:
    """Reinterpret over a larger alphabet (language unchanged)."""
    alphabet = check_alphabet(alphabet)
    known = _symbol_index(alphabet)
    if any(s not in known for s in a.alphabet):
        raise AutomataError("new alphabet must contain the old one")
    return _freeze(a.tracks, alphabet, a.states, a.initial, a.accepting, a.transitions)


# ---------------------------------------------------------------------------
# Emptiness, shortest witness, equivalence

def emptiness_shortest(a: MultiTrackAutomaton) -> Optional[tuple]:
    """None iff the language is empty, else the shortlex-least column word:
    a :func:`_shortest_word` search from the initial states, which charges
    one unit per state it discovers and stops at the first accepting one."""
    return _shortest_word(sorted(a.initial), a._adj.__getitem__, a._rank,
                          a.accepting.__contains__)


def is_empty(a: MultiTrackAutomaton) -> bool:
    return emptiness_shortest(a) is None


def difference_witness(a: MultiTrackAutomaton,
                       b: MultiTrackAutomaton) -> Optional[tuple]:
    """Shortlex-least column word in L(a) \\ L(b), if any: a search of
    :func:`difference`'s product, which is never built."""
    start, successors, accepts = _difference_product(a, b)
    return _shortest_word(start, successors, a._rank, accepts)


def intersection_witness(a: MultiTrackAutomaton,
                         b: MultiTrackAutomaton) -> Optional[tuple]:
    """Shortlex-least column word in L(a) and L(b), if any: a search of
    :func:`intersect`'s product, which is never built."""
    start, successors, accepts = _intersection_product(a, b)
    return _shortest_word(start, successors, a._rank, accepts)


def included(a: MultiTrackAutomaton, b: MultiTrackAutomaton) -> bool:
    return difference_witness(a, b) is None


def equivalent(a: MultiTrackAutomaton, b: MultiTrackAutomaton) -> bool:
    """Language equality: whether the canonical forms are equal."""
    _require_same_shape(a, b)
    return determinize_minimize(a) == determinize_minimize(b)


# ---------------------------------------------------------------------------
# Joins: the existential product behind projection, images, preimages,
# composition and the incompatibility conditions.
# relational_join(a, b, ja, jb) is the relation
#   { (x, y) | exists v: (x|v at ja) in L(a)  and  (y|v at jb) in L(b) }
# where x are a's non-join tracks and y are b's.  Projection is the join
# with Sigma*, images and preimages the join with a language, composition
# the join of two relations.  The join track is never materialized, which
# keeps large-alphabet products feasible.

def relational_join(a: MultiTrackAutomaton, b: MultiTrackAutomaton,
                    join_a: int, join_b: int) -> MultiTrackAutomaton:
    if a.alphabet != b.alphabet:
        raise ArityMismatchError("join operands must share the alphabet")
    if not 0 <= join_a < a.tracks or not 0 <= join_b < b.tracks:
        raise AutomataError("join track out of range")
    out_tracks = (a.tracks - 1) + (b.tracks - 1)
    if out_tracks < 1:
        raise ArityMismatchError("join result needs at least one track")

    adj_a = _augmented_adj(a)
    acc_a = set(a.accepting) | {a.states}
    acc_b = set(b.accepting) | {b.states}
    moves_of = _moves_by_track(b, join_b)

    def successors(state):
        p, q = state
        moves_b = moves_of(q)
        for syma, p2 in adj_a.get(p, ()):
            for symb, q2 in moves_b.get(syma[join_a], ()):
                yield (syma[:join_a] + syma[join_a + 1:]
                       + symb[:join_b] + symb[join_b + 1:]), (p2, q2)

    start = [(p, q) for p in sorted(a.initial) for q in sorted(b.initial)]
    index: dict = {}
    edges = list(_walk(start, successors, index))
    all_pad = (PAD,) * out_tracks
    trans = [e for e in edges if e[1] != all_pad]
    suffix = [(src, dst) for src, out, dst in edges if out == all_pad]
    # a state accepts if a run of pure join-suffix columns reaches acceptance
    base_accept = {i for (p, q), i in index.items() if p in acc_a and q in acc_b}
    accepting = set(_reach(base_accept, _reverse(suffix)))
    return _freeze(out_tracks, a.alphabet, max(len(index), 1),
                   {index[s] for s in start}, accepting, trans)


# Instance key of _moves_by_track's cached grouping of an automaton's moves.
# The median seed-41 tm-pipeline round took 57 ms with it and 60 ms without.
_JOIN_GROUPS = "_join_groups"


def _moves_by_track(a: MultiTrackAutomaton, track: int):
    """The function q -> {symbol: [(column, dst)]}: state q's moves in the
    adjacency of :func:`_augmented_adj`, grouped by their symbol on
    ``track`` in adjacency order.  Each state is grouped once and kept on
    ``a``, as ``_step_map`` is, for the next join or walk on this track: a
    walk of images or of the words beside one word steps through one graph
    many times."""
    groups = a.__dict__.setdefault(_JOIN_GROUPS, {}).setdefault(track, {})

    def moves(q: int) -> dict:
        out = groups.get(q)
        if out is None:  # stored once whole, for concurrent readers
            out = {}
            for sym, dst in _augmented_moves(a, q):
                out.setdefault(sym[track], []).append((sym, dst))
            groups[q] = out
        return out
    return moves


def _augmented_moves(a: MultiTrackAutomaton, q: int) -> list:
    """State q's moves in the adjacency of :func:`_augmented_adj`."""
    if q == a.states:
        return [((PAD,) * a.tracks, q)]
    if q in a.accepting:
        return a._adj[q] + [((PAD,) * a.tracks, a.states)]
    return a._adj[q]


def _augmented_adj(a: MultiTrackAutomaton) -> dict:
    """Adjacency with a synthetic finished state reading all-pad columns."""
    return {q: _augmented_moves(a, q) for q in range(a.states + 1)}


# ---------------------------------------------------------------------------
# Language enumeration

def iter_column_words(a: MultiTrackAutomaton,
                      max_len: Optional[int] = None) -> Iterator[tuple]:
    """Accepted column words of length <= max_len (of any length when None),
    in shortlex order: by length, then column by column in ``symbol_key``
    order.  Lazy, so the first words of an infinite language come cheaply.
    Listed by :func:`_shortlex_words` along ``_adj``."""
    yield from _shortlex_words(a.initial, a._adj, a.accepting, a.deterministic,
                               a._rank, max_len)


def _shortlex_words(start: Collection, adj: Mapping, accepting: Collection,
                    deterministic: bool, rank: Mapping,
                    max_len: Optional[int]) -> Iterator[tuple]:
    """The words of the walk from the states ``start`` along ``adj`` (state
    -> its (label, target) moves, in ``rank`` order) that end in
    ``accepting``, of length <= max_len (any when None), in shortlex order.

    DFAs and NFAs share one pass that finds the reachable states and their
    predecessors, the sets ``ends[r]`` of reachable states that accept a
    word of exactly r labels (``accepting``, then the predecessors of
    ``ends[r-1]``), and one :func:`_exact_length_words` walk per length.
    Only a move is read apart: a ``deterministic`` walk, one start state and
    at most one move per label, steps one state along ``adj``; any other
    steps subsets, merging their moves by label into the targets that
    accept in the labels left, and a subset meeting ``ends[r]`` is in it.
    """
    back = {q: [] for q in start}  # reachable state -> its predecessors, with repeats
    reach = list(back)
    for p in reach:  # grows while iterated
        for _sym, q in adj[p]:
            if q not in back:
                back[q] = []
                reach.append(q)
            back[q].append(p)
    # per seed-41 round: 6.8 vs 33.0 ms by subsets (definability), 6.7 vs 21.1 (separation)
    if deterministic:  # kind of ends[r]: holds a state in it
        (start,), kind = start, frozenset

        def moves(q, _live):
            return adj[q]
    else:  # kind of ends[r]: holds a subset meeting it; its below: ends[r-1]'s states
        # An NFA is not listed through its canonical DFA, which can be
        # exponentially larger: for (a|b)*a(a|b)^14 to length 15 (a DFA of 2^15
        # states) that took 0.7 s against 40 ms by subsets.
        start, shorter = frozenset(start), _EMPTY_SET

        def kind(states):
            nonlocal shorter
            level = _Meets(states)
            level.below, shorter = shorter, frozenset(states)
            return level

        def moves(cur, live):  # targets dropped before any label's set is built
            keep, out = live.below, {}
            for q in cur:
                for sym, dst in adj[q]:
                    if dst in keep:
                        out.setdefault(sym, set()).add(dst)
            return [(sym, frozenset(out[sym])) for sym in sorted(out, key=rank.__getitem__)]
    ends = [kind({q for q in back if q in accepting})]
    length = 0
    while (max_len is None or length <= max_len) and ends[length]:
        if start in ends[length]:
            yield from _exact_length_words(moves, start, ends, length)
        ends.append(kind({p for q in ends[length] for p in back[q]}))
        length += 1


class _Meets(frozenset):
    """States that hold, for ``in``, each set of states meeting them."""

    def __contains__(self, states) -> bool:
        return not self.isdisjoint(states)


def _exact_length_words(moves, start, ends: list, length: int) -> Iterator[tuple]:
    """The words of exactly ``length`` columns from ``start`` that end in
    ``ends[0]``, in column order: a depth-first walk that follows a move
    only to a target in ``ends[r]``, r being the columns left after it.
    ``moves(target, live)`` lists the (column, target) moves of a target in
    ``live``, in column order."""
    if length == 0:
        yield ()
        return
    path: list = []
    stack = [iter(moves(start, ends[length]))]
    while stack:
        rem = length - len(stack)  # columns left after the one chosen here
        live = ends[rem]
        for sym, nxt in stack[-1]:
            if nxt in live:
                break
        else:
            stack.pop()
            if path:
                path.pop()
            continue
        if rem == 0:
            yield (*path, sym)
        else:
            path.append(sym)
            stack.append(iter(moves(nxt, live)))


def iter_words(a: MultiTrackAutomaton,
               max_len: Optional[int] = None) -> Iterator[tuple]:
    """For 1-track automata: accepted words (tuples of symbols), shortlex."""
    if a.tracks != 1:
        raise ArityMismatchError("iter_words is for 1-track automata")
    for w in iter_column_words(a, max_len):
        yield tuple(sym[0] for sym in w)


# ---------------------------------------------------------------------------
# Small constructors

def empty_language(tracks: int, alphabet: Sequence[str]) -> MultiTrackAutomaton:
    _check_tracks(tracks)
    return _freeze(tracks, check_alphabet(alphabet), 1, {0}, (), ())


def full_language(alphabet: Sequence[str]) -> MultiTrackAutomaton:
    """1-track: all words over the alphabet."""
    alphabet = check_alphabet(alphabet)
    return _freeze(1, alphabet, 1, {0}, {0},
                   [(0, (x,), 0) for x in alphabet])


def word_language(word: Sequence[str], alphabet: Sequence[str]) -> MultiTrackAutomaton:
    """1-track singleton {word}."""
    alphabet = check_alphabet(alphabet)
    w = tuple(word)
    known = _symbol_index(alphabet)
    for x in w:
        if x not in known or x == PAD:
            raise UnknownSymbolError(f"symbol {x!r} outside alphabet")
    trans = [(i, (x,), i + 1) for i, x in enumerate(w)]
    return _freeze(1, alphabet, len(w) + 1, {0}, {len(w)}, trans)


# ---------------------------------------------------------------------------
# JSON format
#
#   { "tracks": t, "alphabet": [..], "states": n, "initial": [..],
#     "accepting": [..], "transitions": [[src, [sym per track], dst], ..] }
#
# "_" encodes the padding token.  Emitted files are canonical: transitions
# in (src, ``_rank``, dst) order, as ``_adj`` lists them, fixed key order,
# two-space indent, trailing newline.  :func:`dumps` and :func:`dumps_json`
# write that text themselves, byte for byte what ``json.dumps(..., indent=2)``
# writes for the same dict (the ``test_dumps_match_json_dumps_*`` tests pin
# it), each distinct column rendered once: with an indent, ``json.dumps``
# runs CPython's pure-Python encoder, which renders it for every transition.
# A load checks each transition once, in one pass that also keys each
# distinct column; a file in emitted order keeps that order for ``_adj``.

_encode_str = json.encoder.encode_basestring_ascii  # the C encoder json.dumps uses


def to_json_dict(a: MultiTrackAutomaton) -> dict:
    return {
        "tracks": a.tracks,
        "alphabet": list(a.alphabet),
        "states": a.states,
        "initial": sorted(a.initial),
        "accepting": sorted(a.accepting),
        "transitions": [[q, list(sym), d] for q, out in a._adj.items() for sym, d in out],
    }


def _json_block(brackets: str, items: list, level: int) -> str:
    """What ``json.dumps(..., indent=2)`` writes for a list (``brackets``
    "[]") or an object ("{}") of the already written ``items``, opened
    ``level`` deep."""
    if not items:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return (brackets[0] + inner + ("," + inner).join(items)
            + "\n" + "  " * level + brackets[1])


def _automaton_json(a: MultiTrackAutomaton, level: int) -> str:
    """The text of ``to_json_dict(a)``, opened ``level`` deep."""
    enc = _encode_str
    column = {sym: _json_block("[]", [enc(x) for x in sym], level + 3)
              for sym in a._rank}  # a's own columns
    row = _json_block("[]", ["%d", "%s", "%d"], level + 2)
    fields = (
        ("tracks", "%d" % a.tracks),
        ("alphabet", _json_block("[]", [enc(x) for x in a.alphabet], level + 1)),
        ("states", "%d" % a.states),
        ("initial", _json_block("[]", ["%d" % q for q in sorted(a.initial)], level + 1)),
        ("accepting", _json_block("[]", ["%d" % q for q in sorted(a.accepting)], level + 1)),
        ("transitions", _json_block(
            "[]", [row % (q, column[sym], d) for q, out in a._adj.items() for sym, d in out],
            level + 1)),
    )
    return _json_block("{}", [f"{enc(key)}: {text}" for key, text in fields], level)


def _json_text(node, level: int) -> str:
    if isinstance(node, MultiTrackAutomaton):
        return _automaton_json(node, level)
    if isinstance(node, dict):
        return _json_block("{}", [f"{_encode_str(k)}: {_json_text(v, level + 1)}"
                                  for k, v in node.items()], level)
    if isinstance(node, list):
        return _json_block("[]", [_json_text(v, level + 1) for v in node], level)
    return json.dumps(node)


def dumps_json(doc) -> str:
    """``json.dumps(doc, indent=2) + "\n"``, where ``doc`` nests dicts with
    string keys, lists, JSON scalars and automata, and an automaton stands
    for its :func:`to_json_dict`."""
    return _json_text(doc, 0) + "\n"


def _is_list_of(x, kind) -> bool:
    return isinstance(x, list) and all(type(v) is kind for v in x)


# type(...) is int and not isinstance, as JSON true and false are bools
_JSON_KINDS = {
    "an integer": lambda x: type(x) is int,
    "an integer >= 0": lambda x: type(x) is int and x >= 0,
    "a string": lambda x: type(x) is str,
    "a list": lambda x: isinstance(x, list),
    "a list of integers": lambda x: _is_list_of(x, int),
    "a list of strings": lambda x: _is_list_of(x, str),
    "a list of integer pairs": lambda x: isinstance(x, list) and all(
        _is_list_of(p, int) and len(p) == 2 for p in x),
}


def json_field(d, key: str, what: str, kind: Optional[str] = None):
    """``d[key]``, or a :class:`FormatError` naming the key if it is absent
    or, given a ``kind`` such as ``"a list of strings"``, not of that kind."""
    try:
        value = d[key]
    except (KeyError, TypeError, IndexError):
        raise FormatError(f"{what} JSON missing key {key!r}") from None
    if kind is not None and not _JSON_KINDS[kind](value):
        raise FormatError(f"{what} JSON field {key!r} is not {kind}")
    return value


def _bad_transition(t) -> FormatError:
    return FormatError(f"automaton JSON transition {t!r} is not a "
                       "[src, [symbols], dst] triple of integers and strings")


def from_json_dict(d: dict) -> MultiTrackAutomaton:
    tracks, alphabet, states, initial, accepting, raw = (
        json_field(d, key, "automaton", kind) for key, kind in (
            ("tracks", "an integer"), ("alphabet", "a list of strings"),
            ("states", "an integer >= 0"), ("initial", "a list of integers"),
            ("accepting", "a list of integers"), ("transitions", "a list")))
    # the declared states cost memory whether or not transitions use them
    _active_budget().charge(states)
    fields = dict(tracks=tracks, alphabet=tuple(alphabet), states=states,
                  initial=frozenset(initial), accepting=frozenset(accepting))
    try:
        fields["alphabet"], index = _hashed_index(fields["alphabet"])
    except AutomataError:  # the constructor raises it, after the shape checks
        index = {}
    ok = tracks >= 1 and bool(index) and all(
        0 <= q < states for q in fields["initial"] | fields["accepting"])
    in_order, deterministic, last = True, len(fields["initial"]) == 1, (-1, -1, -1)
    trans = []
    columns: dict = {}  # column -> (one shared tuple, its key or None if illegal)
    for t in raw:
        # a list, not a string: tuple("aa") == ("a", "a")
        if not (isinstance(t, list) and len(t) == 3 and type(t[0]) is int
                and isinstance(t[1], list) and type(t[2]) is int):
            raise _bad_transition(t)
        src, sym, dst = t[0], tuple(t[1]), t[2]
        try:
            sym, key = columns[sym]
        except KeyError:
            if not all(type(x) is str for x in sym):
                raise _bad_transition(t) from None
            legal = (len(sym) == tracks and all(x in index for x in sym)
                     and any(x != PAD for x in sym))
            key = reduce(lambda k, x: k * len(index) + index[x], sym, 0) if legal else None
            columns[sym] = sym, key
        except TypeError:  # an unhashable symbol
            raise _bad_transition(t) from None
        trans.append((src, sym, dst))
        if key is None or not (0 <= src < states and 0 <= dst < states):
            ok = False
        elif in_order:  # (src, key, dst) has risen strictly so far
            move = (src, key, dst)
            in_order = move > last
            deterministic &= src != last[0] or key != last[1]
            last = move
    if not ok:  # the constructor raises its error for these fields
        return MultiTrackAutomaton(**fields, transitions=frozenset(trans))
    a = _trusted(MultiTrackAutomaton, **fields, transitions=frozenset(trans))
    a.__dict__["_rank"] = dict(columns.values())
    if in_order:
        a.__dict__.update({_IN_ORDER: trans, "deterministic": deterministic})
    return a


def dumps(a: MultiTrackAutomaton) -> str:
    return dumps_json(a)


def loads(text: str) -> MultiTrackAutomaton:
    return from_json_dict(json.loads(text))
