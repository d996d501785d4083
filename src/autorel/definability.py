"""Definability of automatic relations inside the recognizable hierarchies.

The decisions rest on the congruence E relating words with identical rows
and columns in R: its index bounds decide membership in the k-block
partition class exactly, and a rectangle cover of the quotient matrix
decides the k-product class.  Two words have the same rows when one subset
walk over triples of two R states and a flag, reading the pair, leaves no
triple that a witness tells apart; the same walk on the inverse compares
columns.  The walk stays small because a side of a triple whose word has
ended, or whose witness has, reads only the columns of one pad pattern from
then on; it is kept as the least state of its class under R's DFA
restricted to those columns, which changes no walk state's language.

Classes are listed by search, never from a built equivalence: the next
class is that of the shortlex-least word in none of the classes found so
far, and the class of a word is the walk with its second word pinned to it
(see :func:`_class_search`).  One search serves a side and E: a side's
classes pin the walk on R or on its inverse, and E's classes pin both walks
in lockstep, which is how :func:`decompose` lists them.  The definability
verbs list the row classes first and the column classes second, and stop as
soon as a side has more classes than a bound that E's index would exceed
anyway: k for a k-block partition, since E has at least as many classes as
either side; 2^k for k products, since in a union of k products the row of
a word depends only on which of the k left factors contain it, and the
column likewise.  Within the bounds, E's classes are the non-empty meets of
a row class and a column class, each found by a shortlex witness search of
the two class DFAs' product.

:func:`build_equiv` builds E as a DFA, for library callers.  R is
recognizable exactly when its rows alone have finitely many classes, i.e.
when the Reps of the same-rows equivalence, the regular set of the
shortlex-least members of its classes, is finite.  Both build an
equivalence and walk it; nothing else does.

The walks keep their states as Python ints: a set of triples, or of runs of
an equivalence and the shortlex order, is a bit set, so a step is a few
big-int ORs and acceptance is one AND.  The same-rows walk reads one letter
of each class of letters that R's DFA moves alike, and so do the pinned
walks.  The walks are deterministic, and so is the intersection of two
DFAs; each is minimized straight from its own walk, which charges each of
its states to the budget once.  A union of classes is the subset walk of
their disjoint union, whose subsets hold at most one state of each class.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Optional

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
    R's DFA (see :func:`_same_rows`), minimized straight from the walk; the
    intersection of the two canonical DFAs is deterministic too, and is
    minimized the same way.
    """
    d = au.determinize_minimize(r.base)
    rows = _same_rows(d)
    cols = _same_rows(au.permute_tracks(d, (1, 0)))
    return rel._wrap(au._explore_minimal(2, d.alphabet, *au._intersection_product(rows, cols)))


def _same_rows(d: MultiTrackAutomaton) -> MultiTrackAutomaton:
    """{(u, u') | for every v, (u, v) in R iff (u', v) in R}, for the
    partial DFA ``d`` of R, as a canonical DFA.

    One subset walk reads the columns (x, x') of (u, u').  Its states hold
    a triple (p, q, done) for every prefix of a witness v read alongside:
    d's states on (u, v) and on (u', v), the node n = ``d.states`` when
    dead, and whether v has ended.  A side that has read all of its pair
    stays put.  A walk state accepts unless one of its triples is bad: the
    rest of v, read as (PAD, y) columns once the pair has ended, leaves
    exactly one side accepting.

    A walk state is a pair of ints: a bit set over triple ids
    (p * (n + 1) + q) * 2 + done, and the pad mask of (u, u').  The bad
    triples form one bit set, so a state accepts when it shares no bit with
    it.  A triple's moves are built once per pad mask, from d's edges
    grouped by witness letter y: the moves of p and of q on y, each paired
    with every move of the other side on the legal columns, dead included.
    A column on which both sides die adds no triple and is not visited.
    Letters on which d moves alike from every state move every walk state
    alike, on either track, so the walk reads one column per pair of letter
    classes and the minimal DFA gets all columns of the pair.  On a machine
    alphabet that is a few thousand columns per walk state, not |Σ+1|².
    The walk is deterministic, so it is minimized as it stands (see
    :func:`~autorel.automata._explore_minimal`), and each of its states is
    charged once.

    Each side of a triple is kept as the least member of its class under
    the columns it can still read, which its pad pattern fixes: once its
    own word has ended it reads only (PAD, y) columns, once v has ended
    only (x, PAD) columns, and once both have ended none, so that only
    acceptance is left.  The classes are Moore partitions of d over those
    columns, with the dead node as the least member.  Each partition is
    stable under its columns and refines acceptance and the partition of
    every later pattern, and a triple's badness reads only acceptance or
    ``block``.  So every walk state is the raw walk's state with each side
    replaced, a replaced triple is bad exactly when the raw one is, and the
    language, hence the minimal DFA, is unchanged.  A triple with both
    sides dead can tell nothing apart and is dropped.
    """
    start, successors, accepts, members, _doomed = _same_rows_walk(d)
    return au._explore_minimal(2, d.alphabet, start, successors, accepts,
                               lambda col: product(members[col[0]], members[col[1]]))


def _same_rows_walk(*ds: MultiTrackAutomaton):
    """(start, successors, accepts, members, doomed) of :func:`_same_rows`'
    walk on one DFA ``d``: the walk reads one column of each class product,
    ``members`` maps each letter it reads to the class of letters it stands
    for, PAD to itself, and ``doomed`` serves walks that pin the second
    word (see :func:`_class_search`).

    Given several DFAs of one alphabet, it is their walks in lockstep, which
    relate (u, u') when u and u' have the same rows in each DFA's relation.
    A walk state holds one walk state per DFA: their bit sets side by side
    in one int, each DFA's triples from its own offset, and the pad mask,
    which they share.  It accepts when no DFA's triple is bad, and it reads
    one letter of each class of letters that every DFA moves alike.
    """
    # Letters on which every DFA moves alike from every state are alike to
    # the walk on either track.  It reads the first letter of each class, in
    # alphabet order, so a column it reads stands for the product of two
    # classes.  PAD comes last, so the pairs of firsts are in column order.
    members = _letter_classes(*ds)
    members[PAD] = [PAD]
    legal = {mask: [(col, m2) for col in product(members, repeat=2) if col != (PAD, PAD)
                    if (m2 := au._pad_mask_step(mask, col)) is not None]
             for mask in range(4)}
    # by_first[mask][x]: {x2: index of the column (x, x2) in legal[mask]};
    # by_second[mask][x2]: {x: the same index}
    by_first: dict = {mask: {} for mask in legal}
    by_second: dict = {mask: {} for mask in legal}
    for mask, cols in legal.items():
        for i, ((x, x2), _m2) in enumerate(cols):
            by_first[mask].setdefault(x, {})[x2] = i
            by_second[mask].setdefault(x2, {})[x] = i

    offsets, moves, dooms = [], [], []  # per DFA
    offset = start = bad = 0
    for d in ds:
        offsets.append(offset)
        offset, start_d, bad_d, move_d, doomed_d = _pair_walk(d, offset, members,
                                                              by_first, by_second)
        start |= start_d
        bad |= bad_d
        moves.append(move_d)
        dooms.append(doomed_d)

    def doomed(y=None, later=0) -> int:
        """The triples of every DFA that a second word with y and then a rest
        left dooms, ``later`` being those of that rest (see
        :func:`_pair_walk`); with no y, those of the empty rest."""
        return sum(doomed_d(y, later) for doomed_d in dooms)

    tables: dict = {}  # (triple, pad mask) -> its moves

    def successors(state):
        bits, mask = state
        cols = legal[mask]
        out = [0] * len(cols)
        while bits:
            low = bits & -bits
            bits ^= low
            key = (low.bit_length() - 1, mask)
            table = tables.get(key)
            if table is None:
                table = tables[key] = moves[bisect_right(offsets, key[0]) - 1](*key)
            for i, b in zip(*table):
                out[i] |= b
        for (col, m2), b in zip(cols, out):
            yield col, (b, m2)

    return [(start, 0)], successors, lambda s: not s[0] & bad, members, doomed


def _pair_walk(d: MultiTrackAutomaton, offset: int, members: dict, by_first: dict,
               by_second: dict):
    """(end, start, bad, move, doomed) of the walk of :func:`_same_rows` on
    one DFA ``d``, its triples numbered from ``offset`` to before ``end``,
    reading the letters ``members`` and the columns that ``by_first`` and
    ``by_second`` index (see :func:`_same_rows_walk`): the start triple and
    the bad triples as bits, the moves of a triple, and the triples a rest
    of the second word dooms."""
    n1 = d.states + 1
    dead = d.states
    nodes = range(n1)
    delta = d._delta
    accept = [p in d.accepting for p in nodes]

    def classes(cols) -> dict:
        return au._moore_minimize(
            nodes, {(p, col): delta.get((p, col), dead) for p in nodes for col in cols},
            d.accepting)

    def least(block) -> list:
        least_of = _least_members(block, dead)
        return [least_of[p] for p in nodes]

    # Once the pair has ended, an unfinished v tells p and q apart exactly
    # when they are inequivalent in d restricted to the (PAD, y) columns.
    block = classes([(PAD, y) for y in d.alphabet])
    # rep[ended][end]: node -> a side's representative, by whether its own
    # word and v have ended
    rep = ((list(nodes), least(classes([(x, PAD) for x in d.alphabet]))),
           (least(block), least(dict(zip(nodes, accept)))))
    # The bad triples as one bit set, built a row of q's per p: the q's in
    # another block (done = 0) or of the other acceptance (done = 1).
    same: dict = {}
    for q in nodes:
        for key, bit in (((0, block[q]), 1 << 2 * q), ((1, accept[q]), 2 << 2 * q)):
            same[key] = same.get(key, 0) | bit
    every = sum(same.values())
    bad = sum((every ^ same[0, block[p]] ^ same[1, accept[p]]) << offset + 2 * n1 * p
              for p in nodes)
    row = offset + 2 * n1 * dead  # the bit of triple (dead, 0, 0)

    def doomed(y, later) -> int:
        """The triples (dead, q, done), as bits, in which q can still
        accept when the second word has y and then a rest left, ``later``
        being those of that rest; with no y, those of the empty rest, the
        bad ones.  u is dead on such a triple's v, so a walk state that
        holds one, with u going on, accepts after no continuation of u."""
        if y is None:
            return bad & ((1 << 2 * n1) - 1) << row
        out = 0
        for q in range(dead):  # v ends alongside y, or reads a letter z
            ended = later >> row + 2 * delta.get((q, (y, PAD)), dead) + 1 & 1
            going = ended or any(later >> row + 2 * delta.get((q, (y, z)), dead) & 1
                                 for z in d.alphabet)
            out |= (going | ended << 1) << row + 2 * q
        return out

    # by_y[p][y]: {x: d's state after (x, y) from p}, for the letters read
    by_y: list = [{} for _ in nodes]
    for src, (x, y), dst in d.transitions:
        if x in members:
            by_y[src].setdefault(y, {})[x] = dst
    sides: dict = {}  # (node, ended) -> side(node, ended)

    def side(p, ended) -> dict:
        """The live moves of a side at node p, by whether its own word has
        ended: {y: {x: representative after (x, y)}}."""
        out = {}
        for y, step in by_y[p].items():
            end = y == PAD
            live = {x: r for x, dst in step.items() if not ended or x == PAD
                    if (r := rep[ended or x == PAD][end][dst]) != dead}
            if live:
                out[y] = live
        if p != dead and (r := rep[1][1][p]) != dead:  # the pair and v have ended
            out.setdefault(PAD, {})[PAD] = r
        return out

    def move(t, mask) -> tuple:
        """The moves of triple t after pad mask ``mask``: pairs of the
        position in ``legal[mask]`` of a column it has moves on and the
        successor triples on it, as bits."""
        p, q = divmod(t - offset >> 1, n1)
        p_moves = sides.get((p, mask & 1))
        if p_moves is None:
            p_moves = sides[p, mask & 1] = side(p, mask & 1)
        q_moves = sides.get((q, mask >> 1))
        if q_moves is None:
            q_moves = sides[q, mask >> 1] = side(q, mask >> 1)
        firsts, seconds = by_first[mask], by_second[mask]
        # a column with one successor triple shares that triple's int
        table: dict = {}
        for y in (PAD,) if t & 1 else p_moves.keys() | q_moves.keys():
            end = y == PAD
            ps, qs = p_moves.get(y, _NO_MOVES), q_moves.get(y, _NO_MOVES)
            for x, p2 in ps.items():  # p lives: q on every legal letter
                row = offset + p2 * n1 * 2 + end
                alone = 1 << row + 2 * dead
                for x2, i in firsts.get(x, _NO_MOVES).items():
                    q2 = qs.get(x2)
                    bit = alone if q2 is None else 1 << row + 2 * q2
                    old = table.get(i)
                    table[i] = bit if old is None else old | bit
            for x2, q2 in qs.items():  # q lives and p is dead
                bit = 1 << offset + (dead * n1 + q2) * 2 + end
                for x, i in seconds.get(x2, _NO_MOVES).items():
                    if x not in ps:
                        old = table.get(i)
                        table[i] = bit if old is None else old | bit
        return tuple(table), tuple(table.values())

    q0 = next(iter(d.initial))
    return offset + 2 * n1 * n1, 1 << offset + (q0 * n1 + q0) * 2, bad, move, doomed


_NO_MOVES: dict = {}  # a side's moves on a letter it dies on


def _letter_classes(*ds: MultiTrackAutomaton) -> dict:
    """The classes of letters x on which every DFA of ``ds`` moves alike on
    the columns (x, y) from every state, each keyed by its first letter:
    first letter -> the class in alphabet order, the keys in alphabet order
    too."""
    alike: dict = {}
    for i, d in enumerate(ds):
        for src, (x, y), dst in d.transitions:
            alike.setdefault(x, set()).add((i, src, y, dst))
    classes_of: dict = {}
    for x in ds[0].alphabet:
        classes_of.setdefault(frozenset(alike.get(x, ())), []).append(x)
    return {xs[0]: xs for xs in classes_of.values()}


def _least_members(block: dict, dead) -> dict:
    """Node -> the least node of its block, the dead node below every state.
    Ties are settled by sorting, not by the iteration order of a set."""
    least: dict = {}
    for p in sorted(block, key=lambda p: (p != dead, p)):
        least.setdefault(block[p], p)
    return {p: least[b] for p, b in block.items()}


# States of the shortlex-order DFA.  Every continuation accepted from one
# state is accepted from the states above it: greater < equal < less and
# shorter < less.
_EQUAL, _LESS, _GREATER, _SHORTER = range(4)


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
    run (q, o) of E's state q and the order state o is bit 4q + o of an int,
    so a walk state is one int.  A run whose order state lies below another
    run's on the same E state adds nothing and is dropped, which keeps the
    subsets small: a few shifts and masks of the whole set.  The walk is
    deterministic, so it is minimized as it stands (see
    :func:`~autorel.automata._explore_minimal`), and each of its states is
    charged once.
    """
    e, order = eq.base, _shortlex_order(eq.alphabet)
    o_next = order._delta
    firsts = eq.alphabet + (au.PAD,)

    def runs(pairs) -> int:
        return sum({1 << 4 * q + o for q, o in pairs})

    equal, less = (runs((q, o) for q in range(e.states)) for o in (_EQUAL, _LESS))
    accepting = runs((q, o) for q in e.accepting for o in order.accepting)

    def prune(m: int) -> int:
        lo, eq_ = m & less, m & equal
        return m & ~(lo >> 1 | lo << 1 | lo << 2 | eq_ << 2)

    # The successors of a run on all letters are one int: those on the i-th
    # letter sit at byte i * width, width bytes holding 4 bits per E state.
    width = -(-e.states // 2)
    columns = [(y,) for y in eq.alphabet]

    def move(r) -> int:
        q, o = divmod(r, 4)
        return sum(runs((d, o_next[o, (x, y)]) for x in firsts if (o, (x, y)) in o_next
                        for d in e._step_map.get((q, (x, y)), ())) << 8 * width * i
                   for i, y in enumerate(eq.alphabet))

    moves: dict = {}  # run -> move(run)

    def successors(m):
        out = 0
        while m:
            low = m & -m
            m ^= low
            r = low.bit_length() - 1
            step = moves.get(r)
            if step is None:
                step = moves[r] = move(r)
            out |= step
        raw = out.to_bytes(width * len(columns), "little")
        for i, col in enumerate(columns):
            yield col, prune(int.from_bytes(raw[i * width:(i + 1) * width], "little"))

    start = prune(runs((q, _EQUAL) for q in e.initial))
    return au._explore_minimal(1, eq.alphabet, [start], successors,
                               lambda m: not m & accepting)


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
    """Whether R is recognizable (a finite union of products): whether its
    rows alone have finitely many classes, i.e. whether the Reps of the
    same-rows equivalence is finite.  R is automatic, so each row class
    {u | R_u = L} is regular and R is the union of the products class x L."""
    rows = _same_rows(au.determinize_minimize(r.base))
    return _finite(least_representatives(rel._wrap(rows)))


def _class_search(ds: tuple, bound: int) -> tuple:
    """The classes of the equivalence that relates two words when they have
    the same rows in the relation of each DFA of ``ds``, found by search:
    (their least members, a function building their DFAs).

    The least members r_1 = ε, r_2, ... are listed in shortlex order, the
    first bound + 1 or, when there are no more, all of them; the function
    builds the classes of the first min(index, bound) as canonical 1-track
    DFAs.  Neither the same-rows DFA of the pairs nor its Reps is built.
    r_(i+1) is the shortlex-least word in none of the classes of r_1, ...,
    r_i.  The class of r is one deterministic walk: the lockstep walk of
    :func:`_same_rows_walk` on ``ds`` with its second word pinned to r.
    Its state after u is (t, s): t the rest of r not yet read against u,
    and s the pair walk's state, one per DFA.  It accepts when t, read as
    (PAD, y) columns, leaves s with no bad triple.  Neither its moves nor
    its acceptance depend on the part of r already read, so the class walks
    are walks of one automaton from different starts, and share their
    states.  A state whose s holds a triple that t dooms accepts after no
    continuation, and is not walked on.  Like the pair walk, the class
    walks read one letter of each class of letters that every DFA moves
    alike, so the least word outside some classes is spelled in those
    letters, and so is every r.

    The next r is one search of the subsets of the class walks' live
    states, from their starts, for a subset none of whose states accepts.
    The class of r_(bound + 1) is not walked.  The class walks are trimmed
    and not minimized until the classes are built.  The search charges each
    state of the class walks once and each subset a search discovers;
    building the classes charges the walk that minimizes each.
    """
    (s0,), pair_moves, pair_accepts, members, doomed = _same_rows_walk(*ds)
    pinned_memo: dict = {}  # s -> {x2: {x: s after (x, x2)}}

    def pinned(s) -> dict:
        out = pinned_memo.get(s)
        if out is None:
            out = pinned_memo[s] = {}
            for (x, x2), s2 in pair_moves(s):
                out.setdefault(x2, {})[x] = s2
        return out

    # A rest of an r is an id: 0 for the empty word, else the id of the
    # pair (its first letter, the id of its own rest).
    rest_ids: dict = {}
    rests: list = [None]
    dooms: list = [doomed()]  # rest id -> the triples it dooms

    def ends_well(t, s) -> bool:
        """Whether (t, s) accepts: s after t read as (PAD, y) columns."""
        while t:
            y, t = rests[t]
            s = pinned(s)[y][PAD]
        return pair_accepts(s)

    # The class walks' states (t, s), numbered by one walk over them all;
    # the accepting ones; the live ones and, per column, {live state: live
    # state after it}.  A doomed state has no moves and does not accept.
    index: dict = {}
    accepting: set = set()
    live: set = set()
    steps: dict = {(x,): {} for x in members if x != PAD}

    def moves(state):
        """The moves of a class walk's state; an accepting state joins
        ``accepting`` as it is walked."""
        t, s = state
        if s[0] & dooms[t]:
            return ()
        if ends_well(t, s):
            accepting.add(index[state])
        y, t = rests[t] if t else (PAD, 0)
        return [((x,), (t, s2)) for x, s2 in pinned(s)[y].items() if x != PAD]

    def walk(r) -> int:
        """The start of r's class walk; the states it finds first are walked,
        and the live ones join ``steps``."""
        t = 0
        for y in reversed(r):
            later, t = t, rest_ids.get((y, t))
            if t is None:
                t = rest_ids[y, later] = len(rests)
                rests.append((y, later))
                dooms.append(doomed(y, dooms[later]))
        edges = list(au._walk([(t, s0)], moves, index))
        # A new state is live when it accepts or moves to a live state; the
        # old states move to none of them.  Every new state but a doomed one
        # has moves.
        seeds = [q for q, _col, q2 in edges if q in accepting or q2 in live]
        live.update(au._reach(seeds, au._reverse((q, q2) for q, _col, q2 in edges)))
        for q, col, q2 in edges:
            if q in live and q2 in live:
                steps[col][q] = q2
        return index[t, s0]

    rank = {col: i for i, col in enumerate(steps)}

    def subset_moves(subset):
        for col, step in steps.items():
            yield col, frozenset(map(step.__getitem__, filter(step.__contains__, subset)))

    words: list = []
    starts: list = []
    r: Optional[tuple] = ()
    while r is not None:
        words.append(r)
        if len(starts) == bound:
            break
        starts.append(walk(r))
        word = au._shortest_word([frozenset(starts)], subset_moves, rank, accepting.isdisjoint)
        r = None if word is None else tuple(x for (x,) in word)

    def live_moves(q):
        return [(col, step[q]) for col, step in steps.items() if q in step]

    def expand(col):
        return [(x,) for x in members[col[0]]]

    def classes() -> list:
        return [au._explore_minimal(1, ds[0].alphabet, [q0], live_moves,
                                    accepting.__contains__, expand) for q0 in starts]

    return tuple(words), classes


def _side_classes(d: MultiTrackAutomaton, bound: int) -> Optional[list]:
    """The row classes of R, for its DFA ``d``, as canonical 1-track DFAs in
    the shortlex order of their least members (see :func:`_class_search`);
    None, with no class minimized, when there are more than ``bound``."""
    words, classes = _class_search((d,), bound)
    return None if len(words) > bound else classes()


@dataclass(frozen=True)
class EquivalenceDecomposition:
    """The first classes of the congruence E, by shortlex-least member.

    ``representatives`` lists the shortlex-least words of the classes in
    shortlex order: all of them, or, when ``truncated`` (more than the bound
    exist), the first bound + 1, as at any larger bound.  ``classes[i]`` is
    the class of ``representatives[i]`` as a canonical 1-track DFA.  The
    classes are built on first read, by calling ``build``, so a decision
    that only needs the index or the quotient matrix never builds them.
    That first read is a construction: it charges the
    :func:`~autorel.automata.state_budget` scope active at the read, not the
    one the decomposition was found in, and can raise
    ``BudgetExceededError``.
    """

    relation: AutomaticRelation
    representatives: tuple  # tuple[Word, ...]
    truncated: bool
    build: Callable[[], Iterable[MultiTrackAutomaton]] = field(repr=False, compare=False)

    @property
    def index(self) -> int:
        return len(self.representatives)

    @cached_property
    def classes(self) -> tuple:  # tuple[MultiTrackAutomaton, ...]
        return tuple(self.build())


def decompose(r: AutomaticRelation, bound: int) -> EquivalenceDecomposition:
    """The classes of R's congruence E, found by search: two words are
    related by E when they have the same rows in R and in its inverse, so
    E's classes are those of :func:`_class_search` on R's canonical DFA and
    its track swap, walked in lockstep.

    When E has more than ``bound`` classes, infinitely many included, the
    decomposition is truncated and lists the first bound + 1
    representatives in shortlex order; otherwise it lists all of them.  So
    one call answers every smaller bound b with its first b + 1.  The
    search runs at bound + 1, so that the class of each listed
    representative is walked.  It charges R's canonical DFA, each state of
    the class walks and each subset that the searches for the
    representatives discover, so a large bound on an infinite index
    exhausts the budget instead of memory.  Reading ``classes`` charges the
    walk that minimizes each class.  The decision verbs use the meets of
    the two sides instead (see :func:`_meets`).
    """
    if bound < 1:
        raise AutomataError("bound must be >= 1")
    d = au.determinize_minimize(r.base)
    words, classes = _class_search((d, au.permute_tracks(d, (1, 0))), bound + 1)
    return EquivalenceDecomposition(relation=r, representatives=words[:bound + 1],
                                    truncated=len(words) > bound, build=classes)


def _meets(r: AutomaticRelation, side_bound: int) -> Optional[EquivalenceDecomposition]:
    """The classes of R's congruence E, found from its row and column
    classes without building E; None when either side has more than
    ``side_bound`` classes.

    The row side is listed first, so when it alone settles the question the
    column side is never walked.  E relates two words exactly when both
    sides do, so its classes are the non-empty meets A_i & B_j of a row
    class and a column class.  The least member of a meet is the
    shortlex-least word of the product, a search that builds nothing; the
    meets are listed in the shortlex order of those members, by
    ``symbol_key``, which is how :func:`decompose` lists E's classes.  The
    result is an untruncated :class:`EquivalenceDecomposition`, each class
    the canonical DFA of one deterministic walk of the product of its two
    sides.

    It charges R's canonical DFA and, per side, what :func:`_side_classes`
    charges: each state of its class walks, each subset its searches for
    the representatives discover and, for a side within the bound, the walk
    that minimizes each class.  Then it charges every state each meet's
    search discovers.  Reading ``classes`` charges the walk of each meet's
    product.
    """
    d = au.determinize_minimize(r.base)
    rows = _side_classes(d, side_bound)
    if rows is None:
        return None
    cols = _side_classes(au.permute_tracks(d, (1, 0)), side_bound)
    if cols is None:
        return None
    meets = []
    for a in rows:
        for b in cols:
            w = au.intersection_witness(a, b)
            if w is not None:
                meets.append((tuple(c for (c,) in w), (a, b)))
    meets.sort(key=lambda m: (len(m[0]), d.symbol_key(m[0])))

    def classes():
        return (au._explore_minimal(1, r.alphabet, *au._intersection_product(a, b))
                for _w, (a, b) in meets)

    return EquivalenceDecomposition(relation=r, representatives=tuple(w for w, _ab in meets),
                                    truncated=False, build=classes)


@dataclass(frozen=True)
class QuotientMatrix:
    """Boolean matrix over class representatives: entry (i,j) says whether
    the whole block product E_i x E_j lies in R (tested on representatives,
    which the congruence makes sound)."""

    size: int
    entries: tuple  # tuple[tuple[bool, ...], ...]

    @classmethod
    def from_decomposition(cls, dec) -> "QuotientMatrix":
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

    The congruence has at least as many classes as either side, so a side
    with more than k classes is a no before the other side is walked (see
    :func:`_meets`); otherwise the meets of the two sides are its classes.
    It charges what :func:`_meets` does at side bound k (the class walks
    and searches of each side it lists, then the meets' searches), then
    the walks of the meets and the rebuild of R from the witness.
    """
    if k < 1:
        raise AutomataError("k must be >= 1")
    dec = _meets(r, k)
    if dec is None or dec.index > k:
        return None
    matrix = QuotientMatrix.from_decomposition(dec)
    witness = PartitionedRecognizable(
        partition=dec.classes, pairs=matrix.ones())
    rebuilt = to_automatic(witness.to_recognizable())
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
    return _cover_search(frozenset(ones), k, maximal_rectangles(ones), set(),
                         au._active_budget())


def _cover_search(uncovered: frozenset, k: int, rects: list, memo: set, budget):
    """The search step of :func:`rectangle_cover`: a module-level function,
    not a closure that calls itself, so a search leaves no reference cycle
    for the garbage collector."""
    budget.charge()
    if not uncovered:
        return []
    if k == 0:
        return None
    key = (uncovered, k)
    if key in memo:
        return None
    i, j = min(uncovered)
    for rect in rects:
        rows, cols = rect
        if i in rows and j in cols:
            rest = _cover_search(uncovered - {(r, c) for r in rows for c in cols},
                                 k - 1, rects, memo, budget)
            if rest is not None:
                return [rect] + rest
    memo.add(key)
    return None


def kprod_definability(r: AutomaticRelation, k: int) -> Optional[RecognizableRelation]:
    """Witness that R is a union of <= k products, or None (definitive).

    In a union of k products L_i x M_i the row of a word depends only on
    which L_i contain it, so R has at most 2^k row classes, and likewise at
    most 2^k column classes: a side with more settles the answer (see
    :func:`_meets`).  Otherwise the congruence's classes are the at most
    2^(2k) meets of the two sides, every L_i and M_i may be taken as a
    union of them, and the question reduces to a rectangle cover of the
    quotient matrix.  It charges what :func:`_meets` does at side bound
    2^k (the class walks and searches of each side it lists, then the
    meets' searches), then each cover search step, and for a cover the
    walks of the meets, the unions of classes and the rebuild of R from the
    witness.
    """
    if k < 1:
        raise AutomataError("k must be >= 1")
    dec = _meets(r, 2 ** k)
    if dec is None:
        return None
    return _kprod_witness(dec, QuotientMatrix.from_decomposition(dec), k)


def _kprod_witness(dec, matrix: QuotientMatrix, k: int) -> Optional[RecognizableRelation]:
    """The k-product answer from all the classes of the congruence, an
    untruncated :class:`EquivalenceDecomposition`."""
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
    rebuilt = to_automatic(witness)
    if not au.equivalent(rebuilt.base, r.base):
        raise AutomataError("internal error: cover products failed to rebuild R")
    return witness


def _union_of_classes(dec, idxs) -> MultiTrackAutomaton:
    """The union of the classes ``idxs`` as a canonical DFA: one class as it
    is, several by the subset walk of their disjoint union, built free."""
    classes = [dec.classes[i] for i in sorted(idxs)]
    return classes[0] if len(classes) == 1 else au.determinize_minimize(au.union(*classes))


def min_prod(r: AutomaticRelation, kmax: int) -> Optional[int]:
    """Least k <= kmax admitting a k-product presentation, or None; 0 for
    the empty relation, the union of no products.

    The classes are found once, with the side bound 2^kmax of kmax products
    (see :func:`kprod_definability`), and they answer every k; the charges
    are those of one :func:`_meets` (the class walks and searches of each
    side it lists, then the meets' searches) and of each k's cover.  On a
    thin alphabet the searches dominate: over {a}, fc1 has the classes
    {a^n}, and the search for a^i charges the i + 1 subsets of a^0 .. a^i,
    about 2^(2 kmax - 1) in all.
    """
    if kmax < 1:
        raise AutomataError("kmax must be >= 1")
    dec = _meets(r, 2 ** kmax)
    if dec is None:
        return None
    matrix = QuotientMatrix.from_decomposition(dec)
    for k in range(kmax + 1):
        if _kprod_witness(dec, matrix, k) is not None:
            return k
    return None
