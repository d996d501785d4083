"""Definability of automatic relations inside the recognizable hierarchies.

The pivot is the equivalence relating words with identical rows and
columns in R; its index bounds decide membership in the k-block partition
class exactly, and a rectangle cover of the quotient matrix decides the
k-product class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import automata as au
from . import relations as rel
from .automata import AutomataError, MultiTrackAutomaton, SearchBudgetExceededError
from .recognizable import PartitionedRecognizable, RecognizableRelation, to_automatic
from .relations import AutomaticRelation


def build_equiv(r: AutomaticRelation) -> AutomaticRelation:
    """The congruence: w ~ w' iff w and w' have the same row and the same
    column in R, i.e. no witness v tells them apart on either side.

    Built as the complement of the distinguishable pairs, which are four
    joins (one per side and orientation).
    """
    rinv = rel.inverse(r)
    d_row = _distinguished(r)
    d_col = _distinguished(rinv)
    both = au.union(au.union(d_row.base, rel.inverse(d_row).base),
                    au.union(d_col.base, rel.inverse(d_col).base))
    return rel._wrap(au.complement_relative(both))


def _distinguished(r: AutomaticRelation) -> AutomaticRelation:
    """{(w,w') | exists v: (w,v) in R and (w',v) not in R}."""
    not_r = rel.complement_relation(r)
    return rel.common_image_pairs(r, not_r)


@dataclass(frozen=True)
class EquivalenceDecomposition:
    """Representatives and classes of the congruence, shortlex-first.

    truncated means the bound was hit before the classes were exhausted,
    so the listed classes need not cover all words.
    """

    relation: AutomaticRelation
    equiv: AutomaticRelation
    representatives: tuple  # tuple[Word, ...]
    classes: tuple  # tuple[MultiTrackAutomaton, ...]
    truncated: bool

    @property
    def index(self) -> int:
        return len(self.representatives)


def decompose(r: AutomaticRelation, bound: int,
              equiv: Optional[AutomaticRelation] = None) -> EquivalenceDecomposition:
    """Peel off congruence classes in shortlex order of representatives.

    Stops with truncated=True as soon as more than ``bound`` classes exist.
    """
    if bound < 1:
        raise AutomataError("bound must be >= 1")
    eq = equiv if equiv is not None else build_equiv(r)
    alpha = r.alphabet
    uncovered = au.full_language(alpha)
    reps = []
    classes = []
    truncated = False
    while True:
        w = au.emptiness_shortest(uncovered)
        if w is None:
            break
        rep = tuple(sym[0] for sym in w)
        cls = au.determinize_minimize(rel.image(eq, au.word_language(rep, alpha)))
        reps.append(rep)
        classes.append(cls)
        if len(reps) > bound:
            truncated = True
            break
        uncovered = au.determinize_minimize(au.difference(uncovered, cls))
    return EquivalenceDecomposition(
        relation=r, equiv=eq, representatives=tuple(reps),
        classes=tuple(classes), truncated=truncated)


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


def rectangle_cover(ones: frozenset, k: int,
                    step_budget: int = 200_000) -> Optional[list]:
    """<= k maximal rectangles covering every 1-entry (0-entries are never
    inside a candidate), or None if impossible.

    Branches on the least uncovered entry; failed (uncovered, k) pairs are
    memoized.  Raises SearchBudgetExceededError when out of steps, which is
    distinct from the definitive None.
    """
    if not ones:
        return []
    if k <= 0:
        return None
    rects = maximal_rectangles(ones)
    memo: set = set()
    steps = [0]

    def covers(rect, cell):
        return cell[0] in rect[0] and cell[1] in rect[1]

    def cells(rect):
        return {(i, j) for i in rect[0] for j in rect[1]}

    def search(uncovered: frozenset, budget_k: int):
        steps[0] += 1
        if steps[0] > step_budget:
            raise SearchBudgetExceededError("rectangle cover search budget exhausted")
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


def kprod_definability(r: AutomaticRelation, k: int,
                       step_budget: int = 200_000
                       ) -> Optional[RecognizableRelation]:
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
    return _kprod_witness(dec, QuotientMatrix.from_decomposition(dec), k,
                          step_budget)


def _kprod_witness(dec: EquivalenceDecomposition, matrix: QuotientMatrix,
                   k: int, step_budget: int) -> Optional[RecognizableRelation]:
    """The k-product answer from a complete (untruncated) decomposition."""
    if dec.index > 2 ** (2 * k):
        return None
    cover = rectangle_cover(matrix.ones(), k, step_budget)
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
    acc = au.empty_language(1, dec.relation.alphabet)
    for i in sorted(idxs):
        acc = au.union(acc, dec.classes[i])
    return au.determinize_minimize(acc)


def min_prod(r: AutomaticRelation, kmax: int,
             step_budget: int = 200_000) -> Optional[int]:
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
        if _kprod_witness(dec, matrix, k, step_budget) is not None:
            return k
    return None
