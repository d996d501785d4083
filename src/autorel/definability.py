"""Definability of automatic relations inside the recognizable hierarchies.

The pivot is the equivalence relating words with identical rows and
columns in R; its index bounds decide membership in the k-block partition
class exactly, and a rectangle cover of the quotient matrix decides the
k-product class.  It is read directly off R's DFA: one subset walk over
triples of two R states and a flag finds the pairs with the same row, the
same walk on the inverse those with the same column, and the congruence is
their intersection.  The walk stays small because a side of a triple whose
word has ended, or whose witness has, reads only the columns of one pad
pattern from then on; it is kept as the least state of its class under
R's DFA restricted to those columns, which changes no walk state's
language.  The shortlex-least members of the congruence classes form a
regular set, Reps, built once per relation: its size is the index, and R is
recognizable exactly when Reps is finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Optional

from . import automata as au
from . import relations as rel
from .automata import PAD, AutomataError, MultiTrackAutomaton
from .recognizable import PartitionedRecognizable, RecognizableRelation, to_automatic
from .relations import AutomaticRelation


def build_equiv(r: AutomaticRelation) -> AutomaticRelation:
    """The congruence: w ~ w' iff w and w' have the same row and the same
    column in R, i.e. no witness v tells them apart on either side.

    The pairs with the same row, intersected with the pairs with the same
    column (the same rows of the inverse).  Each side is one subset walk on
    R's DFA (see :func:`_same_rows`), minimized before the intersection.
    """
    d = au.determinize_minimize(r.base)
    rows = au.determinize_minimize(_same_rows(d))
    cols = au.determinize_minimize(_same_rows(au.permute_tracks(d, (1, 0))))
    return rel._wrap(au.determinize_minimize(au.intersect(rows, cols)))


def _same_rows(d: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """{(u, u') | for every v, (u, v) in R iff (u', v) in R}, for the
    partial DFA ``d`` of R.

    One subset walk reads the columns (x, x') of (u, u').  Its states hold
    a triple (p, q, done) for every prefix of a witness v read alongside:
    d's states on (u, v) and on (u', v), None when dead, and whether v has
    ended.  A side that has read all of its pair stays put.  A walk state
    accepts unless one of its triples is bad: the rest of v, read as
    (PAD, y) columns once the pair has ended, leaves exactly one side
    accepting.

    Each side of a triple is kept as the least member of its class under
    the columns it can still read, which its pad pattern fixes: once its
    own word has ended it reads only (PAD, y) columns, once v has ended
    only (x, PAD) columns, and once both have ended none, so that only
    acceptance is left.  The classes are Moore partitions of d over those
    columns, with None as the dead state and the least member.  Each
    partition is stable under its columns and refines acceptance and the
    partition of every later pattern, and ``bad`` reads only acceptance or
    ``block``.  So every walk state is the raw walk's state with each side
    replaced, a replaced triple is bad exactly when the raw one is, and the
    language, hence the minimal DFA, is unchanged.  A triple with both
    sides dead can tell nothing apart and is dropped.
    """
    delta = {(src, sym): dst for src, sym, dst in d.transitions}
    nodes = set(range(d.states)) | {None}
    accept = set(d.accepting)

    def classes(cols) -> dict:
        return au._moore_minimize(
            nodes, {(p, col): delta.get((p, col)) for p in nodes for col in cols}, accept)

    # Once the pair has ended, an unfinished v tells p and q apart exactly
    # when they are inequivalent in d restricted to the (PAD, y) columns.
    block = classes([(PAD, y) for y in d.alphabet])
    # rep[ended][done]: a side's representative, by whether its own word
    # and v have ended
    rep = ((dict(zip(nodes, nodes)),
            _least_members(classes([(x, PAD) for x in d.alphabet]))),
           (_least_members(block),
            _least_members({p: p in accept for p in nodes})))

    def bad(t) -> bool:
        p, q, done = t
        return (p in accept) != (q in accept) if done else block[p] != block[q]

    v_symbols = d.alphabet + (PAD,)
    columns = list(d.column_universe())
    legal = {mask: [(col, m2) for col in columns
                    if (m2 := au._pad_mask_step(mask, col)) is not None]
             for mask in range(4)}
    moves: dict = {}  # (triple, pad mask) -> {column: successor triples}

    def move(t, mask) -> dict:
        p, q, done = t
        out = {}
        for (x, x2), m2 in legal[mask]:
            p_rep, q_rep = rep[m2 & 1], rep[m2 >> 1]
            nxt = []
            for y in (PAD,) if done else v_symbols:
                end = y == PAD
                p2 = p_rep[end][p if x == PAD == y else delta.get((p, (x, y)))]
                q2 = q_rep[end][q if x2 == PAD == y else delta.get((q, (x2, y)))]
                if p2 is not None or q2 is not None:
                    nxt.append((p2, q2, end))
            out[x, x2] = nxt
        return out

    def successors(state):
        triples, mask = state
        tables = []
        for t in triples:
            table = moves.get((t, mask))
            if table is None:
                table = moves[t, mask] = move(t, mask)
            tables.append(table)
        for col, m2 in legal[mask]:
            nxt: set = set()
            for table in tables:
                nxt.update(table[col])
            yield col, (frozenset(nxt), m2)

    q0 = next(iter(d.initial))
    return au._explore_automaton(
        2, d.alphabet, [(frozenset({(q0, q0, False)}), 0)], successors,
        lambda s: not any(map(bad, s[0])))


def _least_members(block: dict) -> dict:
    """Node -> the least node of its block, None (dead) below every state.
    Ties are settled by sorting, not by the iteration order of a set."""
    least: dict = {}
    for p in sorted(block, key=lambda p: -1 if p is None else p):
        least.setdefault(block[p], p)
    return {p: least[b] for p, b in block.items()}


# States of the shortlex-order DFA.  Every continuation accepted from one
# state is accepted from the states above it: greater < equal < less and
# shorter < less.
_EQUAL, _LESS, _GREATER, _SHORTER = range(4)
_BELOW = {_LESS: (_EQUAL, _GREATER, _SHORTER), _EQUAL: (_GREATER,)}


def _shortlex_order(alphabet) -> MultiTrackAutomaton:
    """{(u, v) | u <sl v}: u is shorter than v, or as long and
    lexicographically smaller in alphabet order."""
    trans = []
    for i, x in enumerate(alphabet):
        trans += [(q, (au.PAD, x), _SHORTER) for q in range(4)]
        for j, y in enumerate(alphabet):
            trans += [(_EQUAL, (x, y), _EQUAL if i == j else _LESS if i < j else _GREATER),
                      (_LESS, (x, y), _LESS), (_GREATER, (x, y), _GREATER)]
    return au._freeze(2, alphabet, 4, {_EQUAL}, {_LESS, _SHORTER}, trans)


def least_representatives(eq: AutomaticRelation) -> MultiTrackAutomaton:
    """Reps = Sigma* minus pi2(E and <sl): the shortlex-least word of every
    class of the equivalence E, as a canonical 1-track DFA.

    One subset construction reads w and tracks the runs of E and <sl on the
    pairs (w', w) over all candidate w'; it accepts when no run accepts.  A
    run whose order state lies below another run's on the same E state adds
    nothing and is dropped, which keeps the subsets small.
    """
    e, order = eq.base, _shortlex_order(eq.alphabet)
    o_next = {(src, sym): dst for src, sym, dst in order.transitions}
    firsts = eq.alphabet + (au.PAD,)

    def prune(runs: set) -> frozenset:
        return frozenset(runs.difference(
            [(q, low) for q, o in runs for low in _BELOW.get(o, ())]))

    moves: dict = {}  # (E state, order state) -> {y: successor runs}

    def move(run) -> dict:
        if run not in moves:
            q, o = run
            moves[run] = {y: [(d, o_next[o, (x, y)]) for x in firsts
                              if (o, (x, y)) in o_next
                              for d in e._step_map.get((q, (x, y)), ())]
                          for y in eq.alphabet}
        return moves[run]

    def successors(runs):
        steps = [move(run) for run in runs]
        for y in eq.alphabet:
            yield (y,), prune({run for step in steps for run in step[y]})

    def no_smaller_equivalent(runs) -> bool:
        return not any(q in e.accepting and o in order.accepting for q, o in runs)

    start = prune({(q, _EQUAL) for q in e.initial})
    return au.determinize_minimize(au._explore_automaton(
        1, eq.alphabet, [start], successors, no_smaller_equivalent))


def _finite(a: MultiTrackAutomaton) -> bool:
    """Whether L(a) is finite, for a canonical DFA: whether it has no cycle
    (every state of a canonical DFA is reachable and, unless the language
    is empty, co-reachable)."""
    indegree = [0] * a.states
    for _src, _sym, dst in a.transitions:
        indegree[dst] += 1
    order = [q for q in range(a.states) if indegree[q] == 0]
    for q in order:  # grows while iterated: Kahn's topological sort
        for _sym, dst in a._adj[q]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                order.append(dst)
    return len(order) == a.states


def recognizable(r: AutomaticRelation) -> bool:
    """Whether R is recognizable (a finite union of products), i.e. whether
    its congruence has finite index: exactly when Reps is finite."""
    return _finite(least_representatives(build_equiv(r)))


@dataclass(frozen=True)
class EquivalenceDecomposition:
    """The first classes of the congruence, by shortlex-least member.

    ``representatives`` lists the shortlex-least words of the classes in
    shortlex order: all of them, or, when ``truncated`` (more than the bound
    exist), the first bound + 1.  ``classes[i]`` is the class of
    ``representatives[i]`` as a canonical 1-track DFA; it is built from
    ``equiv`` on first read, so a decision that only needs the index or the
    quotient matrix never builds it.  That first read is a construction:
    it charges the :func:`~autorel.automata.state_budget` scope active at
    the read, not the one :func:`decompose` ran in, and can raise
    ``BudgetExceededError``.
    """

    relation: AutomaticRelation
    equiv: AutomaticRelation
    representatives: tuple  # tuple[Word, ...]
    truncated: bool

    @property
    def index(self) -> int:
        return len(self.representatives)

    @cached_property
    def classes(self) -> tuple:  # tuple[MultiTrackAutomaton, ...]
        alpha = self.relation.alphabet
        return tuple(
            au.determinize_minimize(rel.image(self.equiv, au.word_language(w, alpha)))
            for w in self.representatives)


def decompose(r: AutomaticRelation, bound: int,
              equiv: Optional[AutomaticRelation] = None) -> EquivalenceDecomposition:
    """The classes of the congruence E, read off the regular set Reps of
    their shortlex-least members (see :func:`least_representatives`).

    The index is |Reps|.  When Reps has more than ``bound`` words, infinitely
    many included, the decomposition is truncated and lists the first
    bound + 1 representatives in shortlex order; otherwise it lists all of
    them.  Each representative w is charged to the state budget as
    len(w) + 1 states, so a large bound on an infinite index exhausts the
    budget instead of memory.
    """
    if bound < 1:
        raise AutomataError("bound must be >= 1")
    eq = equiv if equiv is not None else build_equiv(r)
    budget = au._active_budget()
    words = []
    for w in islice(au.iter_words(least_representatives(eq)), bound + 1):
        budget.charge(len(w) + 1)  # as the len(w) + 1 states of its path
        words.append(w)
    return EquivalenceDecomposition(relation=r, equiv=eq, representatives=tuple(words),
                                    truncated=len(words) > bound)


@dataclass(frozen=True)
class QuotientMatrix:
    """Boolean matrix over class representatives: entry (i,j) says whether
    the whole block product E_i x E_j lies in R (tested on representatives,
    which the congruence makes sound)."""

    size: int
    entries: tuple  # tuple[tuple[bool, ...], ...]

    @classmethod
    def from_decomposition(cls, dec: EquivalenceDecomposition) -> "QuotientMatrix":
        reps = dec.representatives
        rows = tuple(
            tuple(dec.relation.contains(u, v) for v in reps)
            for u in reps
        )
        return cls(size=len(reps), entries=rows)

    def ones(self) -> frozenset:
        return frozenset((i, j)
                         for i in range(self.size)
                         for j in range(self.size)
                         if self.entries[i][j])


def krec_definability(r: AutomaticRelation, k: int) -> Optional[PartitionedRecognizable]:
    """Witness that R is a union of block products over a <= k partition,
    or None when the congruence has more than k classes (a definitive no).
    """
    if k < 1:
        raise AutomataError("k must be >= 1")
    dec = decompose(r, k)
    if dec.truncated:
        return None
    matrix = QuotientMatrix.from_decomposition(dec)
    witness = PartitionedRecognizable(
        partition=dec.classes, pairs=matrix.ones())
    rebuilt = to_automatic(witness.to_recognizable()) \
        if witness.pairs else rel.empty_relation(r.alphabet)
    if not au.equivalent(rebuilt.base, r.base):
        raise AutomataError("internal error: block union failed to rebuild R")
    return witness


# ---------------------------------------------------------------------------
# Rectangle covers of the quotient matrix

def maximal_rectangles(ones: frozenset) -> list:
    """All maximal all-ones combinatorial rectangles (rows x cols).

    Maximal rectangles are the Galois-closed pairs, so the column sets are
    exactly the intersections of row supports (closed under intersection).
    """
    rows: dict = {}
    for i, j in ones:
        rows.setdefault(i, set()).add(j)
    supports = [frozenset(v) for v in rows.values()]
    closed = set(supports)
    frontier = list(closed)
    while frontier:
        nxt = []
        for a in frontier:
            for b in supports:
                c = a & b
                if c and c not in closed:
                    closed.add(c)
                    nxt.append(c)
        frontier = nxt
    out = []
    for cols in closed:
        rws = frozenset(i for i, js in rows.items() if cols <= js)
        if rws:
            out.append((rws, cols))
    out.sort(key=lambda rc: (-len(rc[0]) * len(rc[1]), sorted(rc[0]), sorted(rc[1])))
    return out


def rectangle_cover(ones: frozenset, k: int) -> Optional[list]:
    """<= k maximal rectangles covering every 1-entry (0-entries are never
    inside a candidate), or None if impossible.

    Branches on the least uncovered entry; failed (uncovered, k) pairs are
    memoized.  Each step charges one unit to the state budget; running out
    raises ``BudgetExceededError``, never the definitive None.
    """
    if not ones:
        return []
    if k <= 0:
        return None
    budget = au._active_budget()
    rects = maximal_rectangles(ones)
    memo: set = set()

    def covers(rect, cell):
        return cell[0] in rect[0] and cell[1] in rect[1]

    def cells(rect):
        return {(i, j) for i in rect[0] for j in rect[1]}

    def search(uncovered: frozenset, budget_k: int):
        budget.charge()
        if not uncovered:
            return []
        if budget_k == 0:
            return None
        key = (uncovered, budget_k)
        if key in memo:
            return None
        pivot = min(uncovered)
        for rect in rects:
            if covers(rect, pivot):
                rest = search(uncovered - cells(rect), budget_k - 1)
                if rest is not None:
                    return [rect] + rest
        memo.add(key)
        return None

    return search(frozenset(ones), k)


def kprod_definability(r: AutomaticRelation, k: int) -> Optional[RecognizableRelation]:
    """Witness that R is a union of <= k products, or None (definitive).

    Any k-product presentation refines the congruence into at most 2^(2k)
    blocks, so exceeding that class bound already settles the answer; below
    it, the products must be unions of classes, which reduces the question
    to a rectangle cover of the quotient matrix.
    """
    if k < 1:
        raise AutomataError("k must be >= 1")
    dec = decompose(r, 2 ** (2 * k))
    if dec.truncated:
        return None
    return _kprod_witness(dec, QuotientMatrix.from_decomposition(dec), k)


def _kprod_witness(dec: EquivalenceDecomposition, matrix: QuotientMatrix,
                   k: int) -> Optional[RecognizableRelation]:
    """The k-product answer from a complete (untruncated) decomposition."""
    if dec.index > 2 ** (2 * k):
        return None
    cover = rectangle_cover(matrix.ones(), k)
    if cover is None:
        return None
    r = dec.relation
    products = []
    for rows, cols in cover:
        left = _union_of_classes(dec, rows)
        right = _union_of_classes(dec, cols)
        products.append((left, right))
    witness = RecognizableRelation(alphabet=r.alphabet, products=tuple(products))
    rebuilt = to_automatic(witness) if products else rel.empty_relation(r.alphabet)
    if not au.equivalent(rebuilt.base, r.base):
        raise AutomataError("internal error: cover products failed to rebuild R")
    return witness


def _union_of_classes(dec: EquivalenceDecomposition, idxs) -> MultiTrackAutomaton:
    return au.determinize_minimize(au.union(
        au.empty_language(1, dec.relation.alphabet),
        *(dec.classes[i] for i in sorted(idxs))))


def min_prod(r: AutomaticRelation, kmax: int) -> Optional[int]:
    """Least k <= kmax admitting a k-product presentation, or None.

    The congruence is decomposed once, with the class bound of kmax, and
    that decomposition answers every k.
    """
    if kmax < 1:
        raise AutomataError("kmax must be >= 1")
    dec = decompose(r, 2 ** (2 * kmax))
    if dec.truncated:
        return None
    matrix = QuotientMatrix.from_decomposition(dec)
    for k in range(1, kmax + 1):
        if _kprod_witness(dec, matrix, k) is not None:
            return k
    return None
