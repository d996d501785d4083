"""Shared helpers: brute-force oracles kept independent of the code paths
they check."""

from __future__ import annotations

import random
from itertools import combinations, islice, product

import pytest

from autorel import automata as au
from autorel import definability as de
from autorel import dot
from autorel import recognizable as rc
from autorel import relations as rel
from autorel import tm


# ---------------------------------------------------------------------------
# Helpers that only tests need

def epsilon_language(tracks, alphabet):
    """{epsilon} on `tracks` tracks, through the checking constructor."""
    return au.MultiTrackAutomaton(tracks, tuple(alphabet), 1, frozenset({0}),
                                  frozenset({0}), frozenset())


def from_word_list(words, alphabet):
    """1-track finite language, canonical."""
    return au.determinize_minimize(au.union(
        au.empty_language(1, alphabet), *(au.word_language(w, alphabet) for w in words)))


def equivalent_rel(r1, r2):
    return au.equivalent(r1.base, r2.base)


def separator_from_kcoloring(e, c):
    """For the (E, Id) instance: the union of off-diagonal block products."""
    k = len(c.colors)
    pairs = frozenset((i, j) for i in range(k) for j in range(k) if i != j)
    return rc.PartitionedRecognizable(partition=c.colors, pairs=pairs)


def split_head_token(token):
    sym, _, state = token.partition("|")
    return sym, state


def decode_config(word):
    """(left, head symbol, state, right) or None when not a configuration."""
    left = []
    head = None
    right = []
    for tok in word:
        if "|" in tok:
            if head is not None:
                return None
            head = split_head_token(tok)
        elif head is None:
            left.append(tok)
        else:
            right.append(tok)
    if head is None:
        return None
    return tuple(left), head[0], head[1], tuple(right)


def encode_config(left, sym, state, right):
    return tuple(left) + (tm.head_token(sym, state),) + tuple(right)


# ---------------------------------------------------------------------------
# Oracles

def words_upto(alphabet, n):
    out = [()]
    for length in range(1, n + 1):
        out.extend(product(alphabet, repeat=length))
    return out


def lang_upto(a, n):
    """Accepted 1-track words up to length n, as a set."""
    return set(au.iter_words(a, n))


def pairs_upto(r, n):
    """All (u, v) pairs with components up to length n that lie in r."""
    ws = words_upto(r.alphabet, n)
    return {(u, v) for u in ws for v in ws if r.contains(u, v)}


def residual_signatures(a, prefix_len, suffix_len):
    """Brute-force Myhill-Nerode refinement of a column-word language:
    distinct residuals among prefixes, each residual sampled on all column
    suffixes up to suffix_len.  The empty residual counts as one class."""
    syms = list(a.column_universe())
    prefixes = [()]
    for n in range(1, prefix_len + 1):
        prefixes.extend(product(syms, repeat=n))
    suffixes = [()]
    for n in range(1, suffix_len + 1):
        suffixes.extend(product(syms, repeat=n))
    sigs = set()
    for p in prefixes:
        sigs.add(frozenset(s for s in suffixes if a.accepts_columns(p + s)))
    return sigs


def equiv_oracle(r, bound):
    """Brute-force congruence on words up to `bound`, witnesses up to
    bound + 2: w ~ w' iff no witness distinguishes their rows or columns."""
    ws = words_upto(r.alphabet, bound)
    vs = words_upto(r.alphabet, bound + 2)

    def same(w1, w2):
        return all(
            r.contains(w1, v) == r.contains(w2, v)
            and r.contains(v, w1) == r.contains(v, w2)
            for v in vs)

    classes = []
    for w in ws:
        for cls in classes:
            if same(w, cls[0]):
                cls.append(w)
                break
        else:
            classes.append([w])
    return classes


def adj_oracle(a):
    """Per state, its (column, dst) moves sorted by (``symbol_key``, dst):
    the order ``_adj`` promises, by sorting every state's moves."""
    out: dict = {q: [] for q in range(a.states)}
    for src, sym, dst in a.transitions:
        out[src].append((a.symbol_key(sym), dst, sym))
    for q, moves in out.items():
        moves.sort()
        out[q] = [(sym, dst) for _k, dst, sym in moves]
    return out


def rank_oracle(a):
    """Each column of ``a`` -> its ``_rank`` key by definition: the column
    read as a number in base |alphabet| + 1 whose digits are the declared
    positions of its symbols, padding last."""
    base = len(a.alphabet) + 1

    def digit(x):
        return base - 1 if x == au.PAD else a.alphabet.index(x)

    return {sym: sum(digit(x) * base ** (len(sym) - 1 - i) for i, x in enumerate(sym))
            for _src, sym, _dst in a.transitions}


def deterministic_oracle(a):
    """One initial state and no two moves on one column from one state."""
    heads = [(src, sym) for src, sym, _dst in a.transitions]
    return len(a.initial) == 1 and len(heads) == len(set(heads))


def automaton_json(tracks, alphabet, states, initial, accepting, transitions) -> dict:
    """The JSON document of these automaton fields, transitions in the order
    given; nothing is checked."""
    return {"tracks": tracks, "alphabet": list(alphabet), "states": states,
            "initial": sorted(initial), "accepting": sorted(accepting),
            "transitions": [[src, list(sym), dst] for src, sym, dst in transitions]}


def constructor_fields(fault=None):
    """Fields of a 4-state 2-track automaton with one kind of fault (none by
    default), a bad column or state on many transitions among good ones."""
    n, ab, pad = 4, ("a", "b"), au.PAD
    cols = [(x, y) for x in ab + (pad,) for y in ab + (pad,)][:-1]
    good = [(q, c, (q + i) % n) for q in range(n) for i, c in enumerate(cols)]
    fields = dict(tracks=2, alphabet=ab, states=n, initial={0},
                  accepting={1, 2}, transitions=good)
    bad_column = {"arity": ("a",), "arity-long": ("a", "b", "a"),
                  "all-padding": (pad, pad), "unknown": ("a", "c"),
                  "unknown-display-pad": ("⊥", "a")}
    if fault in bad_column:
        fields["transitions"] = good + [(q, bad_column[fault], (q + 1) % n)
                                        for q in range(n)]
    elif fault == "initial":
        fields["initial"] = {0, n}
    elif fault == "accepting":
        fields["accepting"] = {1, -1}
    elif fault == "src":
        fields["transitions"] = good + [(n + q, ("a", "a"), q) for q in range(n)]
    elif fault == "dst":
        fields["transitions"] = good + [(q, ("b", "b"), n) for q in range(n)]
    elif fault == "tracks":
        fields["tracks"] = 0
    elif fault == "states":  # the only fault: no state is used
        fields.update(states=-3, initial=set(), accepting=set(), transitions=[])
    elif fault is not None:
        fields["alphabet"] = {"alphabet-empty": (), "alphabet-dup": ("a", "b", "a"),
                              "alphabet-pad": ("a", "b", pad),
                              "alphabet-nonstr": ("a", "b", 1)}[fault]
    return fields


# Each fault of constructor_fields and the error the constructor raises for it.
CONSTRUCTOR_FAULTS = [
    ("initial", au.AutomataError),
    ("accepting", au.AutomataError),
    ("src", au.AutomataError),
    ("dst", au.AutomataError),
    ("arity", au.ArityMismatchError),
    ("arity-long", au.ArityMismatchError),
    ("all-padding", au.AutomataError),
    ("unknown", au.UnknownSymbolError),
    ("unknown-display-pad", au.UnknownSymbolError),
    ("tracks", au.AutomataError),
    ("states", au.AutomataError),
    ("alphabet-empty", au.AutomataError),
    ("alphabet-dup", au.AutomataError),
    ("alphabet-pad", au.AutomataError),
    ("alphabet-nonstr", au.AutomataError),
]

# The faults a JSON document cannot carry to the constructor: the field
# check of the load refuses a negative state count and a non-string symbol.
JSON_REFUSED_FAULTS = {"states", "alphabet-nonstr"}


def constructor_error(fault):
    """The class and message of the error the constructor raises for ``fault``."""
    f = constructor_fields(fault)
    try:
        au.MultiTrackAutomaton(
            tracks=f["tracks"], alphabet=tuple(f["alphabet"]), states=f["states"],
            initial=frozenset(f["initial"]), accepting=frozenset(f["accepting"]),
            transitions=frozenset(f["transitions"]))
    except au.AutomataError as e:
        return type(e), str(e)
    raise AssertionError(f"the constructor accepted the {fault!r} fault")


def subset_column_words(a, max_len):
    """The reference lister for ``iter_column_words``, on DFAs and NFAs
    alike: per length, a depth-first walk over subsets of states that
    merges their moves by column and keeps a column only when some target
    accepts at exactly the length left.  ``ends`` is recomputed over every
    state, reachable or not."""
    adj = a._adj
    start = frozenset(a.initial)
    reach = set(au._reach(start, {q: [d for _sym, d in out] for q, out in adj.items()}))
    ends = [frozenset(a.accepting)]  # ends[r]: states accepting some word of length r
    length = 0
    while (max_len is None or length <= max_len) and reach & ends[length]:
        if start & ends[length]:
            yield from _exact_length_words(a, start, ends, length)
        ends.append(frozenset(q for q in adj
                              if any(d in ends[length] for _sym, d in adj[q])))
        length += 1


def _exact_length_words(a, start: frozenset, ends: list, length: int):
    if length == 0:
        yield ()
        return
    rank = a._rank

    def steps(states, rem):  # columns to states that accept at length rem
        out: dict = {}
        for q in states:
            for sym, dst in a._adj[q]:
                if dst in ends[rem]:
                    out.setdefault(sym, set()).add(dst)
        return iter([(sym, out[sym]) for sym in sorted(out, key=rank.__getitem__)])

    path: list = []
    stack = [steps(start, length - 1)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if path:
                path.pop()
        elif len(path) + 1 == length:
            yield (*path, step[0])
        else:
            path.append(step[0])
            stack.append(steps(step[1], length - len(path) - 1))


def successor_words_oracle(r, word, max_len):
    """The words v, |v| <= max_len, with (word, v) in R, shortlex: the image
    of {word} built as a join with R and listed.  With the inverse of R it
    gives the predecessors."""
    return list(au.iter_words(rel.image(r, au.word_language(word, r.alphabet)), max_len))


def determinize_oracle(a):
    """Lazy subset construction, moves in ``symbol_key`` order.  Returns
    (state count, trans dict, accept set)."""

    def successors(cur):
        out: dict = {}
        for q in cur:
            for sym, dst in a._adj[q]:
                out.setdefault(sym, set()).add(dst)
        for sym in sorted(out, key=a.symbol_key):
            yield sym, frozenset(out[sym])

    index: dict = {}
    edges = list(au._walk([frozenset(a.initial)], successors, index))
    trans = {(src, sym): dst for src, sym, dst in edges}
    accept = {i for s, i in index.items() if s & a.accepting}
    return len(index), trans, accept


def emptiness_shortest_oracle(a):
    """None iff the language is empty, else the shortlex-least column word,
    by backward distances to acceptance and a greedy walk over the subsets
    of states on the least column that keeps the distance falling."""
    dist = au._reach(a.accepting,
                     au._reverse((src, dst) for src, _sym, dst in a.transitions))
    live_init = [q for q in a.initial if q in dist]
    if not live_init:
        return None
    rem = min(dist[q] for q in live_init)
    cur = set(live_init)
    word = []
    while rem > 0:
        best_sym = None
        best_key = None
        for q in cur:
            for sym, dst in a._adj[q]:
                if dist.get(dst, -1) == rem - 1:
                    k = a.symbol_key(sym)
                    if best_key is None or k < best_key:
                        best_key = k
                        best_sym = sym
        nxt = set()
        for q in cur:
            nxt |= a._step_map.get((q, best_sym), au._EMPTY_SET)
        cur = {q for q in nxt if dist.get(q, rem) <= rem - 1}
        word.append(best_sym)
        rem -= 1
    return tuple(word)


def partition_ok_oracle(langs):
    """None if the languages partition Sigma*, else the shortlex-least word
    missing from their union or lying in two of them, read off one built
    automaton: the uncovered words united with every pairwise intersection."""
    covered = au.union(*langs)
    bad = au.union(au.difference(au.full_language(covered.alphabet), covered),
                   *(au.intersect(x, y) for x, y in combinations(langs, 2)))
    least = emptiness_shortest_oracle(bad)
    return None if least is None else tuple(sym[0] for sym in least)


def complement_relative_oracle(a):
    """ValidPad(t) minus L(a) by completion: determinize a, walk every legal
    column from each (DFA state, pad mask) pair, sending missing moves to an
    explicit dead sink, swap acceptance and minimize."""
    n, dtrans, daccept = determinize_oracle(a)
    universe = list(a.column_universe())
    dead = n

    def successors(state):
        q, mask = state
        for sym in universe:
            m2 = au._pad_mask_step(mask, sym)
            if m2 is not None:
                yield sym, (dtrans.get((q, sym), dead), m2)

    raw = au._explore_automaton(a.tracks, a.alphabet, [(0, 0)], successors,
                                lambda s: s[0] not in daccept)
    return au.determinize_minimize(raw)


def determinize_minimize_oracle(a):
    """The canonical form by a second walk: minimize the subset walk's
    states, merge them block-wise and renumber the blocks breadth-first
    from the initial one, moves in ``symbol_key`` order."""
    _order, dtrans, daccept = determinize_oracle(a)
    keep, dtrans = au._trim(0, dtrans, daccept)
    daccept = daccept & keep
    block = au._moore_minimize(keep, dtrans, daccept)
    out_sym: dict = {}
    for (q, sym), d in dtrans.items():
        out_sym.setdefault(block[q], {})[sym] = block[d]
    baccept = {block[q] for q in daccept}

    def successors(b):
        moves = out_sym.get(b, {})
        return [(sym, moves[sym]) for sym in sorted(moves, key=a.symbol_key)]

    return au._explore_automaton(a.tracks, a.alphabet, [block[0]], successors,
                                 baccept.__contains__)


def moore_minimize_oracle(states, trans, accept, symbol_key):
    """Partition refinement with an implicit dead state, by sorted
    signatures: a state's block and its (column position, target block)
    list over all columns in ``symbol_key`` order.  Returns state -> block."""
    block = {q: (1 if q in accept else 0) for q in states}
    syms = sorted({sym for (_s, sym) in trans}, key=symbol_key)
    while True:
        sigs: dict = {}
        for q in states:
            sig = (block[q],
                   tuple((i, block[trans[(q, sym)]])
                         for i, sym in enumerate(syms) if (q, sym) in trans))
            sigs.setdefault(sig, []).append(q)
        if len(sigs) == len(set(block.values())):
            break
        block = {}
        for i, (_sig, members) in enumerate(sorted(sigs.items())):
            for q in members:
                block[q] = i
    return block


def difference_oracle(a, b):
    """L(a) minus L(b) as the intersection of a with b's complement."""
    return au.intersect(a, complement_relative_oracle(b))


def build_equiv_oracle(r):
    """The congruence by composition: the complement of the pairs that a
    witness v tells apart, which are four joins of R and its complement (one
    per side and orientation)."""
    def distinguished(s):  # {(w, w') | exists v: (w, v) in S, (w', v) not in S}
        return rel.common_image_pairs(s, rel.complement_relation(s))

    d_row, d_col = distinguished(r), distinguished(rel.inverse(r))
    both = au.union(au.union(d_row.base, rel.inverse(d_row).base),
                    au.union(d_col.base, rel.inverse(d_col).base))
    return rel.relation(au.complement_relative(both))


def same_rows_oracle(d):
    """{(u, u') | for every v, (u, v) in R iff (u', v) in R} for the partial
    DFA ``d`` of R, by a subset walk over raw triples (p, q, done): d's
    states on (u, v) and (u', v), None when dead, and whether v has ended.
    No triple is merged with an equivalent one; (dead, dead) is dropped."""
    delta = {(src, sym): dst for src, sym, dst in d.transitions}
    nodes = set(range(d.states)) | {None}
    suffix = {(p, (au.PAD, y)): delta.get((p, (au.PAD, y)))
              for p in nodes for y in d.alphabet}
    block = au._moore_minimize(nodes, suffix, set(d.accepting))

    def bad(t) -> bool:
        p, q, done = t
        return (p in d.accepting) != (q in d.accepting) if done else block[p] != block[q]

    v_symbols = d.alphabet + (au.PAD,)
    columns = list(d.column_universe())
    legal = {mask: [(col, m2) for col in columns
                    if (m2 := au._pad_mask_step(mask, col)) is not None]
             for mask in range(4)}

    def successors(state):
        triples, mask = state
        for (x, x2), m2 in legal[mask]:
            nxt = set()
            for p, q, done in triples:
                for y in (au.PAD,) if done else v_symbols:
                    p2 = p if x == au.PAD == y else delta.get((p, (x, y)))
                    q2 = q if x2 == au.PAD == y else delta.get((q, (x2, y)))
                    if p2 is not None or q2 is not None:
                        nxt.add((p2, q2, y == au.PAD))
            yield (x, x2), (frozenset(nxt), m2)

    q0 = next(iter(d.initial))
    return au._explore_automaton(
        2, d.alphabet, [(frozenset({(q0, q0, False)}), 0)], successors,
        lambda s: not any(map(bad, s[0])))


def representatives_oracle(eq, bound):
    """The first bound + 1 words of the Reps of the equivalence ``eq``, in
    shortlex order: all of them when there are no more.  Each word w is
    charged to the state budget as len(w) + 1 states."""
    budget = au._active_budget()
    words = []
    for w in islice(au.iter_words(de.least_representatives(eq)), bound + 1):
        budget.charge(len(w) + 1)  # as the len(w) + 1 states of its path
        words.append(w)
    return tuple(words)


def class_dfa_oracle(e, w):
    """The class {w' | (w, w') in E} of the word w, for a DFA ``e`` of the
    congruence E, as a canonical 1-track DFA.

    One deterministic walk reads w' against w.  Its states are (i, q): i
    letters of w read so far, capped at len(w), and q the state of ``e``.
    Reading y follows the column (w[i], y), or (PAD, y) once w has ended,
    and (i, q) accepts when ``e`` accepts after the rest of w read against
    padding.  The letters y come in alphabet order, so the walk is
    minimized as it stands (see :func:`~autorel.automata._explore_minimal`)
    and each of its states is charged once.
    """
    delta, alphabet, n = e._delta, e.alphabet, len(w)
    # the columns read at each position: ((y,), (w[i] or PAD, y)) per letter y
    reads = [[((y,), (x, y)) for y in alphabet] for x in (*w, au.PAD)]

    def successors(state):
        i, q = state
        j = i + (i < n)
        for col, pair in reads[i]:
            q2 = delta.get((q, pair))
            if q2 is not None:
                yield col, (j, q2)

    def accepts(state):
        i, q = state
        for x in w[i:]:
            q = delta.get((q, (x, au.PAD)))
            if q is None:
                return False
        return q in e.accepting

    (q0,) = e.initial
    return au._explore_minimal(1, alphabet, [(0, q0)], successors, accepts)


def decompose_oracle(r, bound):
    """decompose by the congruence E: the first bound + 1 words of the Reps
    of E, and each class as one walk of E against its representative."""
    eq = de.build_equiv(r)
    words = representatives_oracle(eq, bound)
    return de.EquivalenceDecomposition(
        relation=r, representatives=words, truncated=len(words) > bound,
        build=lambda: [class_dfa_oracle(eq.base, w) for w in words])


def side_classes_oracle(d, bound):
    """The row classes of R, for its DFA ``d``, by the same-rows DFA S:
    the first bound + 1 words of S's Reps, then, when there are at most
    ``bound``, each class as one walk of S against its representative;
    None when there are more."""
    rows = de._same_rows(d)
    words = representatives_oracle(rel._wrap(rows), bound)
    if len(words) > bound:
        return None
    return [class_dfa_oracle(rows, w) for w in words]


def least_representatives_oracle(eq):
    """Reps by a subset walk over frozensets of runs (q, o) of E and the
    shortlex order on (w', w): a run below another on the same E state is
    dropped, and the walk is minimized by a second walk over its states."""
    below = {de._LESS: (de._EQUAL, de._GREATER, de._SHORTER), de._EQUAL: (de._GREATER,)}
    e, order = eq.base, de._shortlex_order(eq.alphabet)
    o_next = {(src, sym): dst for src, sym, dst in order.transitions}
    firsts = eq.alphabet + (au.PAD,)

    def prune(runs: set) -> frozenset:
        return frozenset(runs.difference(
            [(q, low) for q, o in runs for low in below.get(o, ())]))

    def successors(runs):
        for y in eq.alphabet:
            yield (y,), prune({(d, o_next[o, (x, y)]) for q, o in runs for x in firsts
                               if (o, (x, y)) in o_next
                               for d in e._step_map.get((q, (x, y)), ())})

    def no_smaller_equivalent(runs) -> bool:
        return not any(q in e.accepting and o in order.accepting for q, o in runs)

    start = prune({(q, de._EQUAL) for q in e.initial})
    return au.determinize_minimize(au._explore_automaton(
        1, eq.alphabet, [start], successors, no_smaller_equivalent))


def decompose_peel_oracle(r, bound, equiv=None):
    """Congruence classes peeled one at a time in shortlex order of their
    least members: take the least uncovered word, add its class, remove the
    class from the uncovered words.  Stops once more than `bound` classes
    were found.  Returns (representatives, classes, truncated)."""
    eq = equiv if equiv is not None else build_equiv_oracle(r)
    uncovered = au.full_language(r.alphabet)
    reps, classes = [], []
    while True:
        w = emptiness_shortest_oracle(uncovered)
        if w is None:
            return tuple(reps), tuple(classes), False
        rep = tuple(sym[0] for sym in w)
        cls = au.determinize_minimize(rel.image(eq, au.word_language(rep, r.alphabet)))
        reps.append(rep)
        classes.append(cls)
        if len(reps) > bound:
            return tuple(reps), tuple(classes), True
        uncovered = au.determinize_minimize(au.difference(uncovered, cls))


def recognizable_oracle(r):
    """Recognizability by the congruence E: whether the Reps of E is finite."""
    return de._finite(de.least_representatives(de.build_equiv(r)))


def krec_definability_oracle(r, k):
    """kREC definability on the decomposition of E at class bound k."""
    if k < 1:
        raise au.AutomataError("k must be >= 1")
    dec = decompose_oracle(r, k)
    if dec.truncated:
        return None
    matrix = de.QuotientMatrix.from_decomposition(dec)
    witness = rc.PartitionedRecognizable(partition=dec.classes, pairs=matrix.ones())
    rebuilt = rc.to_automatic(witness.to_recognizable())
    if not au.equivalent(rebuilt.base, r.base):
        raise au.AutomataError("internal error: block union failed to rebuild R")
    return witness


def kprod_definability_oracle(r, k):
    """kPROD definability on the decomposition of E at class bound 2^(2k)."""
    if k < 1:
        raise au.AutomataError("k must be >= 1")
    dec = decompose_oracle(r, 2 ** (2 * k))
    if dec.truncated:
        return None
    return de._kprod_witness(dec, de.QuotientMatrix.from_decomposition(dec), k)


def min_prod_oracle(r, kmax):
    """min-prod on one decomposition of E at class bound 2^(2 kmax)."""
    if kmax < 1:
        raise au.AutomataError("kmax must be >= 1")
    dec = decompose_oracle(r, 2 ** (2 * kmax))
    if dec.truncated:
        return None
    matrix = de.QuotientMatrix.from_decomposition(dec)
    for k in range(kmax + 1):
        if de._kprod_witness(dec, matrix, k) is not None:
            return k
    return None


def class_oracle(eq, w):
    """The class of w under the congruence E by composition: the image of
    {w} under E, minimized."""
    return au.determinize_minimize(rel.image(eq, au.word_language(w, eq.alphabet)))


def union_of_classes_oracle(alphabet, classes):
    """The union of class DFAs by the disjoint union of their NFAs and a
    subset construction."""
    return au.determinize_minimize(au.union(au.empty_language(1, alphabet), *classes))


def accepts_by_subsets(a, word):
    """Membership of a column word by stepping the subset of live states."""
    cur = frozenset(a.initial)
    for sym in word:
        cur = a.step(cur, tuple(sym))
    return bool(cur & a.accepting)


def min_cover_oracle(ones, kmax):
    """Exhaustive rectangle-cover minimum via combinations of maximal
    rectangles, with validity and maximality checked by brute subset tests.
    Any cover can be enlarged rectangle-wise to maximal ones, so searching
    maximal rectangles is complete."""
    if not ones:
        return 0
    rows = sorted({i for i, _ in ones})
    cols = sorted({j for _, j in ones})

    def valid(I, J):
        return all((i, j) in ones for i in I for j in J)

    rects = []
    for rbits in range(1, 2 ** len(rows)):
        I = frozenset(rows[i] for i in range(len(rows)) if rbits >> i & 1)
        J = frozenset(j for j in cols if all((i, j) in ones for i in I))
        if not J or not valid(I, J):
            continue
        bigger_i = frozenset(i for i in rows if all((i, j) in ones for j in J))
        if bigger_i != I:
            continue  # not row-maximal
        rects.append((I, J))
    rects = sorted(set(rects))
    for k in range(1, kmax + 1):
        for combo in combinations(rects, min(k, len(rects))):
            covered = set()
            for I, J in combo:
                covered.update((i, j) for i in I for j in J)
            if covered >= ones:
                return k
    return None


# symbols json.dumps escapes, and "%" for the emitter's %-format rows
ODD_SYMBOLS = ('"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "λ", "日", "\U0001f600",
               "%s", "%d", "a b")


def random_machine(rng, symbols=("a", "b") + ODD_SYMBOLS):
    """A random machine over ``symbols`` ("a", "b" and symbols json.dumps
    escapes by default); it may have no final states and no transitions."""
    pool = [s for s in symbols if "|" not in s]
    states = rng.sample(pool, rng.randint(1, 4))
    tape = rng.sample(pool, rng.randint(1, 4))
    blank = rng.choice([s for s in pool + ["_"] if s not in tape])
    initial = rng.choice(states)
    finals = rng.sample(states, rng.randint(0, len(states) - 1))
    delta = {(q, s): (rng.choice(states), rng.choice(tape), rng.choice("LR"))
             for q in states if q not in finals for s in tape + [blank]
             if rng.random() < 0.5}
    return tm.make_machine(states, tape, blank, initial, finals, delta)


def equal_pairs(lang):
    """{(w, w) : w in lang} as a 2-track automaton."""
    trans = [(src, (sym[0], sym[0]), dst) for src, sym, dst in lang.transitions]
    return au._freeze(2, lang.alphabet, lang.states, lang.initial,
                      lang.accepting, trans)


def coloring_gadget_oracle(t, k):
    """The tagged gadget as three prepended parts joined by ``au.union``:
    an NFA with three initial states, which the canonical form
    determinizes.  Each part is built and frozen, over the tagged
    alphabet, before the union reads it."""

    def prepend_column(base, col):  # col . L(base)
        n = base.states
        trans = list(base.transitions) + [(n, col, q) for q in base.initial]
        return au._freeze(base.tracks, base.alphabet, n + 1, {n}, base.accepting, trans)

    base_alpha = tm.config_alphabet(t)
    clique = tuple(f"K#{i}" for i in range(1, k - 1))
    for tag in ("B", "R", *clique):
        if tag in base_alpha:
            raise tm.MachineError(f"tag symbol {tag!r} collides with the machine alphabet")
    alpha = base_alpha + ("B", "R") + clique
    configs = au.extend_alphabet(tm.configs_language(t), alpha)
    step = au.extend_alphabet(tm.config_graph(t).base, alpha)
    blue_red = prepend_column(equal_pairs(configs), ("B", "R"))
    red_blue = prepend_column(step, ("R", "B"))
    c_init = tm.initial_config(t)
    inits = au.extend_alphabet(tm.machine_init_configs(t), alpha)
    others = au.difference(inits, au.word_language(c_init, alpha))
    init_edges = prepend_column(
        rc.product_relation(au.word_language(c_init, alpha), others).base, ("B", "B"))
    edges = au.union(blue_red, red_blue, init_edges)
    if k > 2:
        tagged = rel._wrap(edges)
        incident = au.determinize_minimize(
            au.union(rel.project_first(tagged), rel.project_second(tagged)))
        parts = [edges]
        for i, ki in enumerate(clique):
            ki_lang = au.word_language((ki,), alpha)
            parts.append(rc.product_relation(ki_lang, incident).base)
            for j, kj in enumerate(clique):
                if i != j:
                    parts.append(rc.product_relation(
                        ki_lang, au.word_language((kj,), alpha)).base)
        edges = au.union(*parts)
    return rel._wrap(au.determinize_minimize(edges))


def lift_to_kprod_oracle(r1, r2, k):
    """The lifted instance as O(k^2) products of one-letter languages and
    Sigma*, joined by ``au.union``: R1's diagonal is a finite relation,
    and R2's fresh pairs are canonicalized with ``r2`` in one union."""
    if k < 2:
        raise au.AutomataError("k must be >= 2")
    if r1.alphabet != r2.alphabet:
        raise au.ArityMismatchError("instance relations need one alphabet")
    if k == 2:
        return (r1, r2)
    fresh_a = tuple(f"a#{i}" for i in range(1, k - 1))
    fresh_b = tuple(f"b#{i}" for i in range(1, k - 1))
    for sym in fresh_a + fresh_b:
        if sym in r1.alphabet:
            raise rc.SymbolClashError(f"fresh symbol {sym!r} already in alphabet")
    alpha = tuple(r1.alphabet) + fresh_a + fresh_b

    base1 = au.extend_alphabet(r1.base, alpha)
    pairs1 = rel.finite_relation(
        [((fresh_a[i],), (fresh_b[i],)) for i in range(k - 2)], alpha)
    new_r1 = rel._wrap(au.union(base1, pairs1.base))

    old_words = au.extend_alphabet(au.full_language(r1.alphabet), alpha)
    parts = [au.extend_alphabet(r2.base, alpha)]
    for i in range(k - 2):
        ai = au.word_language((fresh_a[i],), alpha)
        bi = au.word_language((fresh_b[i],), alpha)
        parts.append(rc.product_relation(ai, old_words).base)
        parts.append(rc.product_relation(old_words, bi).base)
        for j in range(k - 2):
            bj = au.word_language((fresh_b[j],), alpha)
            aj = au.word_language((fresh_a[j],), alpha)
            if i != j:
                parts.append(rc.product_relation(ai, bj).base)
            parts.append(rc.product_relation(bi, aj).base)
    new_r2 = rel._wrap(au.determinize_minimize(au.union(*parts)))
    return (new_r1, new_r2)


def random_relation(rng: random.Random, alphabet=("a", "b"), states=3,
                    density=0.5):
    """Random small automatic relation (associated automaton has at most
    `states` states before padding repair)."""
    probe = au.valid_pad_automaton(2, alphabet)
    syms = list(probe.column_universe())
    trans = []
    for src in range(states):
        for sym in syms:
            if rng.random() < density:
                trans.append((src, sym, rng.randrange(states)))
    raw = au.MultiTrackAutomaton(
        tracks=2, alphabet=tuple(alphabet), states=states,
        initial=frozenset({0}),
        accepting=frozenset(rng.sample(range(states), rng.randint(1, states))),
        transitions=frozenset(trans),
    )
    return rel.relation(au.determinize_minimize(au.restrict_valid_pad(raw)))


def the_80_draws():
    """The 80 relations on which the size of the congruence is measured:
    ``random.Random(7)``, then 80 relations over ab or abc with at most 1
    to 5 states before padding repair."""
    rng = random.Random(7)
    return [random_relation(rng, rng.choice([("a", "b"), ("a", "b", "c")]), rng.randint(1, 5))
            for _ in range(80)]


def random_padded_relation(rng: random.Random, alphabet=("a", "b"), states=4,
                           density=0.2):
    """Random relation straight out of `restrict_valid_pad`: up to three
    initial states, not minimized."""
    syms = list(au.valid_pad_automaton(2, alphabet).column_universe())
    trans = [(src, sym, rng.randrange(states))
             for src in range(states) for sym in syms if rng.random() < density]
    raw = au.MultiTrackAutomaton(
        tracks=2, alphabet=tuple(alphabet), states=states,
        initial=frozenset(rng.sample(range(states), rng.randint(1, 3))),
        accepting=frozenset(rng.sample(range(states), rng.randint(1, states))),
        transitions=frozenset(trans),
    )
    return rel.relation(au.restrict_valid_pad(raw))


def random_language(rng: random.Random, alphabet=("a", "b"), states=3,
                    density=0.4):
    """Random 1-track NFA with one or two initial states; it may accept
    nothing."""
    trans = [(src, (x,), rng.randrange(states))
             for src in range(states) for x in alphabet if rng.random() < density]
    return au.MultiTrackAutomaton(
        tracks=1, alphabet=tuple(alphabet), states=states,
        initial=frozenset(rng.sample(range(states), rng.randint(1, 2))),
        accepting=frozenset(rng.sample(range(states), rng.randint(0, states))),
        transitions=frozenset(trans),
    )


def random_dfa(rng: random.Random, tracks, alphabet, states, acyclic=False):
    """Random partial t-track DFA over every legal column.  The initial state
    is drawn, so some states may be unreachable; states without a way to
    acceptance are dead; no state may accept.  When ``acyclic``, every move
    goes to a greater state, so the language is finite."""
    cols = list(au.valid_pad_automaton(tracks, alphabet).column_universe())
    trans = set()
    for q in range(states):
        low = q + 1 if acyclic else 0
        for c in cols:
            if low < states and rng.random() < 0.5:
                trans.add((q, c, rng.randrange(low, states)))
    return au.MultiTrackAutomaton(
        tracks=tracks, alphabet=tuple(alphabet), states=states,
        initial=frozenset({rng.randrange(states)}),
        accepting=frozenset(rng.sample(range(states), rng.randint(0, states))),
        transitions=frozenset(trans),
    )


def project_oracle(a, drop_track):
    """Projection by epsilon elimination: columns that are padding
    everywhere except the dropped track become epsilon moves, real moves
    are pulled back through epsilon prefixes, and the result is restricted
    to ValidPad(t-1)."""
    eps = {q: set() for q in range(a.states)}
    real = []
    for src, sym, dst in a.transitions:
        rest = sym[:drop_track] + sym[drop_track + 1:]
        if all(x == au.PAD for x in rest):
            eps[src].add(dst)
        else:
            real.append((src, rest, dst))
    closure = {q: frozenset(au._reach([q], eps)) for q in range(a.states)}
    trans = set(real)
    for q in range(a.states):
        for r in closure[q] - {q}:
            trans.update((q, rest, dst) for src, rest, dst in real if src == r)
    accepting = {q for q in range(a.states) if closure[q] & a.accepting}
    return au.restrict_valid_pad(
        au._freeze(a.tracks - 1, a.alphabet, a.states, a.initial, accepting, trans))


def cylindrify(a, insert_at):
    """Insert a fresh unconstrained track at the given 0-based position, by
    spelling out every symbol on it."""
    ext = a.states
    pool = tuple(a.alphabet) + (au.PAD,)
    all_pad = (au.PAD,) * a.tracks

    def ins(sym, x):
        return sym[:insert_at] + (x,) + sym[insert_at:]

    trans = [(src, ins(sym, x), dst) for src, sym, dst in a.transitions for x in pool]
    trans += [(f, ins(all_pad, x), ext) for f in a.accepting for x in a.alphabet]
    trans += [(ext, ins(all_pad, x), ext) for x in a.alphabet]
    raw = au._freeze(a.tracks + 1, a.alphabet, a.states + 1, a.initial,
                     set(a.accepting) | {ext}, trans)
    return au.restrict_valid_pad(raw)


def neq_relation(alphabet):
    """All pairs (u, v) with u != v, over every legal column."""
    alphabet = au.check_alphabet(alphabet)
    pool = tuple(alphabet) + (au.PAD,)
    legal = [(x, y) for x in pool for y in pool if (x, y) != (au.PAD, au.PAD)]
    trans = [(0, (x, x), 0) for x in alphabet]
    trans += [(0, (x, y), 1) for x, y in legal if x != y]
    trans += [(1, sym, 1) for sym in legal]
    raw = au._freeze(2, alphabet, 2, {0}, {1}, trans)
    return rel.relation(au.restrict_valid_pad(raw))


def functional_oracle(r):
    """Out-degree <= 1, decided by composition: pairs of words with a
    common image under the inverse, intersected with the inequality."""
    clashes = rel.common_image_pairs(rel.inverse(r), rel.inverse(r))
    return au.is_empty(au.intersect(clashes.base, neq_relation(r.alphabet).base))


def co_functional_oracle(r):
    """In-degree <= 1, decided by composition as in `functional_oracle`."""
    clashes = rel.common_image_pairs(r, r)
    return au.is_empty(au.intersect(clashes.base, neq_relation(r.alphabet).base))


def intersection_witness_oracle(a, b):
    """The shortlex-least word of L(a) and L(b), read off the built product."""
    return emptiness_shortest_oracle(au.intersect(a, b))


def difference_witness_oracle(a, b):
    """The shortlex-least word of L(a) minus L(b), read off the built product."""
    return emptiness_shortest_oracle(au.difference(a, b))


def satisfies_valid_pad_oracle(a):
    """L(a) inside ValidPad(t), by a whole `_walk` over (state, pad
    mask) pairs that records every edge; the mask turns None for good when
    a column breaks the padding rule, and a broken pair must not accept."""
    def successors(state):
        q, mask = state
        for sym, dst in a._adj[q]:
            yield sym, (dst, None if mask is None else au._pad_mask_step(mask, sym))

    index: dict = {}
    _edges = list(au._walk([(q, 0) for q in sorted(a.initial)], successors, index))
    return not any(mask is None and q in a.accepting for q, mask in index)


def random_nfa(rng: random.Random, tracks, alphabet, states):
    """Random t-track NFA over every legal column, padding-breaking ones
    included: up to three initial states, up to two accepting ones (maybe
    none), and zero to two moves per state and column."""
    cols = list(au.valid_pad_automaton(tracks, alphabet).column_universe())
    trans = {(q, c, rng.randrange(states)) for q in range(states) for c in cols
             for _ in range(rng.choice((0, 0, 1, 1, 2)))}
    return au.MultiTrackAutomaton(
        tracks=tracks, alphabet=tuple(alphabet), states=states,
        initial=frozenset(rng.sample(range(states), rng.randint(1, min(3, states)))),
        accepting=frozenset(rng.sample(range(states), rng.randint(0, min(2, states)))),
        transitions=frozenset(trans),
    )


def product_oracle(left, right):
    """A x B as the intersection of the two cylindrified languages."""
    return au.intersect(cylindrify(left, 1), cylindrify(right, 0))


def valid_pad_walk_size(a):
    """How many (state, pad mask) pairs a depth-first walk of ``a`` reaches
    from its initial states.  The mask is the set of tracks whose word has
    ended, or None for good once a column breaks ValidPad (a letter after
    padding on its track)."""
    moves = {}
    for src, sym, dst in a.transitions:
        moves.setdefault(src, []).append((sym, dst))
    seen = {(q, frozenset()) for q in a.initial}
    todo = list(seen)
    while todo:
        q, ended = todo.pop()
        for sym, dst in moves.get(q, ()):
            if ended is None or any(sym[i] != au.PAD for i in ended):
                nxt = (dst, None)
            else:
                nxt = (dst, ended | {i for i, x in enumerate(sym) if x == au.PAD})
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen)


def canonical_dfas_oracle(alphabet, n):
    """Every n-state transition table over the alphabet, in lexicographic
    order, kept when a breadth-first walk from state 0 visits all n states
    in increasing order."""
    k = len(alphabet)
    for table in product(range(n), repeat=n * k):
        seen = [0]
        seen_set = {0}
        for q in seen:
            for a in range(k):
                d = table[q * k + a]
                if d not in seen_set:
                    seen_set.add(d)
                    seen.append(d)
        if len(seen) != n or seen != sorted(seen):
            continue
        yield table


def export_dot_oracle(e, max_len, coloring=None, secondary=None):
    """The DOT slice with its edges found by a membership test of every
    ordered pair of vertices."""
    alpha = e.alphabet
    vertices = []
    for n in range(max_len + 1):
        for w in product(alpha, repeat=n):
            vertices.append(w)
            if len(vertices) > dot.MAX_DOT_VERTICES:
                raise au.BudgetExceededError(
                    f"more than {dot.MAX_DOT_VERTICES} vertices at max_len={max_len}")
    labels = [dot._label(w) for w in vertices]
    names = labels if len(set(labels)) == len(labels) else map(str, range(len(vertices)))
    node = {w: dot._quote(name) for w, name in zip(vertices, names)}
    lines = ["digraph automatic {", "  rankdir=LR;"]
    for w, label in zip(vertices, labels):
        attrs = [f"label={dot._quote(label)}"]
        if coloring is not None:
            idx = coloring.color_of(w)
            if idx is not None:
                attrs.append(f'style=filled fillcolor="{dot._PALETTE[idx % len(dot._PALETTE)]}"')
        lines.append(f"  {node[w]} [{' '.join(attrs)}];")
    for u in vertices:
        for v in vertices:
            if au.membership(e.base, (u, v)):
                lines.append(f"  {node[u]} -> {node[v]};")
            elif secondary is not None and au.membership(secondary.base, (u, v)):
                lines.append(f"  {node[u]} -> {node[v]} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def rng():
    return random.Random(20240817)
