"""Recognizable relations: finite unions of products of regular languages.

Holds separator verification, the decidable 1-product separability test,
the symmetric two-product normal form, and the fresh-symbol lifting that
turns a 2-product instance into a k-product one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from . import automata as au
from . import relations as rel
from .automata import PAD, ArityMismatchError, AutomataError, MultiTrackAutomaton
from .relations import AutomaticRelation


class NotApplicableError(AutomataError):
    """Input does not meet an operation's structural precondition."""


class SymbolClashError(AutomataError):
    """A fresh symbol collides with the existing alphabet."""


@dataclass(frozen=True)
class RecognizableRelation:
    """Union of products A_i x B_i of regular languages (1-track automata)."""

    alphabet: tuple
    products: tuple  # tuple[(MultiTrackAutomaton, MultiTrackAutomaton), ...]

    def __post_init__(self):
        au.check_alphabet(self.alphabet)
        for left, right in self.products:
            if left.tracks != 1 or right.tracks != 1:
                raise ArityMismatchError("products are built from 1-track languages")
            if left.alphabet != self.alphabet or right.alphabet != self.alphabet:
                raise ArityMismatchError("product languages must share the alphabet")

    def empty_products(self) -> list:
        """Indices of products with an empty side (permitted but flagged)."""
        return [i for i, (l, r) in enumerate(self.products)
                if au.is_empty(l) or au.is_empty(r)]


@dataclass(frozen=True)
class PartitionedRecognizable:
    """kREC witness: a regular partition of Sigma* plus the selected pairs."""

    partition: tuple  # tuple[MultiTrackAutomaton, ...]
    pairs: frozenset  # frozenset[(int, int)]

    def __post_init__(self):
        if not self.partition:
            raise AutomataError("partition must have at least one block")
        alpha = self.partition[0].alphabet
        for lang in self.partition:
            if lang.tracks != 1 or lang.alphabet != alpha:
                raise ArityMismatchError("partition blocks must be 1-track, same alphabet")
        k = len(self.partition)
        for i, j in self.pairs:
            if not (0 <= i < k and 0 <= j < k):
                raise AutomataError("pair index out of range")

    @property
    def alphabet(self) -> tuple:
        return self.partition[0].alphabet

    def is_partition(self) -> bool:
        return partition_ok(self.partition) is None

    def to_recognizable(self) -> RecognizableRelation:
        prods = tuple((self.partition[i], self.partition[j])
                      for i, j in sorted(self.pairs))
        return RecognizableRelation(alphabet=self.alphabet, products=prods)


def partition_ok(langs: Sequence[MultiTrackAutomaton]) -> Optional[tuple]:
    """None if the languages partition Sigma*, else a witness word.

    The witness is the shortlex-least word that no block accepts (a gap)
    or that two or more accept (an overlap).  One
    :func:`~autorel.automata._shortest_word` search over the tuple of the
    blocks' subsets on a word: it steps every block on each letter in
    alphabet order and stops at the first tuple where the number of
    accepting blocks is not exactly one, so no automaton is built.  With
    no blocks at all, the empty word is a gap.
    """
    if not langs:
        return ()
    sigma = au.full_language(langs[0].alphabet)
    for b in langs:
        au._require_same_shape(sigma, b)
    letters = [(x,) for x in sigma.alphabet]  # sigma's columns, in _rank order

    def successors(subsets):
        for col in letters:
            yield col, tuple(b.step(s, col) for b, s in zip(langs, subsets))

    def bad(subsets) -> bool:
        return sum(not b.accepting.isdisjoint(s) for b, s in zip(langs, subsets)) != 1

    least = au._shortest_word([tuple(frozenset(b.initial) for b in langs)],
                              successors, sigma._rank, bad)
    return None if least is None else tuple(sym[0] for sym in least)


def product_relation(left: MultiTrackAutomaton,
                     right: MultiTrackAutomaton) -> AutomaticRelation:
    """The automatic relation A x B, built as one product of A and B.

    A state pairs a state of each side, where either side may have
    finished its word and reads padding from then on.  Each column comes
    from one move of A and one of B, so the cost is O(|delta_A| |delta_B|)
    over at most (|Q_A|+1)(|Q_B|+1) states, not |Sigma|^2.  The state
    budget is charged per product state.
    """
    if left.tracks != 1 or right.tracks != 1:
        raise ArityMismatchError("products are built from 1-track languages")
    if left.alphabet != right.alphabet:
        raise ArityMismatchError("product languages must share the alphabet")
    adj_a = au._augmented_adj(left)
    adj_b = au._augmented_adj(right)
    acc_a = set(left.accepting) | {left.states}
    acc_b = set(right.accepting) | {right.states}

    def successors(state):
        p, q = state
        for (x,), p2 in adj_a[p]:
            for (y,), q2 in adj_b[q]:
                if x != PAD or y != PAD:  # else both words ended
                    yield (x, y), (p2, q2)

    start = [(p, q) for p in sorted(left.initial) for q in sorted(right.initial)]
    return rel._wrap(au._explore_automaton(
        2, left.alphabet, start, successors,
        lambda s: s[0] in acc_a and s[1] in acc_b))


def to_automatic(s: RecognizableRelation) -> AutomaticRelation:
    """Convolution automaton of the union of the products."""
    return rel._wrap(au.union(au.empty_language(2, s.alphabet), *(
        product_relation(left, right).base for left, right in s.products)))


# ---------------------------------------------------------------------------
# Separator verification

SEPARATES = "SEPARATES"
FAILS_CONTAINMENT = "FAILS_CONTAINMENT"
FAILS_DISJOINT = "FAILS_DISJOINT"


@dataclass(frozen=True)
class SeparatorVerdict:
    """Outcome of a separator check.

    Both failure modes are always computed; ``kind`` reports the
    disjointness violation when one exists, and ``witness`` is the
    shortlex-least pair for the reported kind.
    """

    kind: str
    witness: Optional[tuple] = None  # (left word, right word)
    containment_witness: Optional[tuple] = None  # pair in R1 \ S
    disjoint_witness: Optional[tuple] = None  # pair in R2 cap S

    @property
    def ok(self) -> bool:
        return self.kind == SEPARATES


def verify_separator(s: RecognizableRelation, r1: AutomaticRelation,
                     r2: AutomaticRelation) -> SeparatorVerdict:
    """Check R1 <= S and S disjoint from R2, reporting shortlex witnesses."""
    if s.alphabet != r1.alphabet or s.alphabet != r2.alphabet:
        raise ArityMismatchError("separator and relations need one alphabet")
    s_auto = to_automatic(s)
    wc = au.difference_witness(r1.base, s_auto.base)
    wd = au.intersection_witness(r2.base, s_auto.base)
    cont = au.split_convolution(wc, 2) if wc is not None else None
    disj = au.split_convolution(wd, 2) if wd is not None else None
    if disj is not None:
        return SeparatorVerdict(FAILS_DISJOINT, disj, cont, disj)
    if cont is not None:
        return SeparatorVerdict(FAILS_CONTAINMENT, cont, cont, disj)
    return SeparatorVerdict(SEPARATES)


def one_prod_separability(r1: AutomaticRelation,
                          r2: AutomaticRelation) -> Optional[RecognizableRelation]:
    """Decide separability by a single product.

    A single product separates iff pi1(R1) x pi2(R1) does, so the check is
    definitive: None means no 1-product separator exists at all.
    """
    cand = RecognizableRelation(
        alphabet=r1.alphabet,
        products=((au.determinize_minimize(rel.project_first(r1)),
                   au.determinize_minimize(rel.project_second(r1))),))
    if verify_separator(cand, r1, r2).ok:
        return cand
    return None


def normalize_symmetric_separator(s: RecognizableRelation) -> RecognizableRelation:
    """Replace a 2-product separator of a symmetric relation versus the
    identity by its symmetric core S cap S^{-1}, in (A x B) u (B x A) shape.

    The input must be A1 x B1 u B2 x A2 with A_i cap B_i empty (which holds
    whenever S avoids the identity); the result is
    ((A1 cap A2) x (B1 cap B2)) u ((B1 cap B2) x (A1 cap A2)), which is
    S cap S^{-1}, as (A1 x B1) cap (B1 x A1) and (B2 x A2) cap (A2 x B2) are empty.
    """
    if len(s.products) != 2:
        raise NotApplicableError("need exactly 2 products")
    (a1, b1), (b2, a2) = s.products
    for x, y in ((a1, b1), (a2, b2)):
        if au.intersection_witness(x, y) is not None:
            raise NotApplicableError("product sides must be disjoint (A_i cap B_i = empty)")
    left = au.determinize_minimize(au.intersect(a1, a2))
    right = au.determinize_minimize(au.intersect(b1, b2))
    return RecognizableRelation(alphabet=s.alphabet,
                                products=((left, right), (right, left)))


def lift_to_kprod(r1: AutomaticRelation, r2: AutomaticRelation, k: int) -> tuple:
    """Pad a 2-product instance into a k-product one with fresh symbols.

    Adds letters a#1..a#(k-2), b#1..b#(k-2); R1 gains the pairs (a#i, b#i)
    and R2 gains every other pair touching a fresh letter, so any k-product
    separator must spend k-2 products on the fresh diagonal.  Each side's
    fresh pairs are one DFA, of 2 states for R1 and 4 for R2, and the
    2(k-2)^2 columns between two fresh letters are charged to the state
    budget before any is written.
    """
    if k < 2:
        raise AutomataError("k must be >= 2")
    if r1.alphabet != r2.alphabet:
        raise ArityMismatchError("instance relations need one alphabet")
    if k == 2:
        return (r1, r2)
    fresh_a = tuple(f"a#{i}" for i in range(1, k - 1))
    fresh_b = tuple(f"b#{i}" for i in range(1, k - 1))
    for sym in fresh_a + fresh_b:
        if sym in r1.alphabet:
            raise SymbolClashError(f"fresh symbol {sym!r} already in alphabet")
    au._active_budget().charge(2 * (k - 2) ** 2)
    old = tuple(r1.alphabet)
    alpha = au.check_alphabet(old + fresh_a + fresh_b)
    diagonal = au._freeze(2, alpha, 2, {0}, {1}, [(0, p, 1) for p in zip(fresh_a, fresh_b)])
    new_r1 = rel._wrap(au.union(au.extend_alphabet(r1.base, alpha), diagonal))

    # a#i x old, old x b#i, a#i x b#j (i != j) and b#i x a#j: state 0 reads
    # the first column, 1 and 2 the rest of an old word beside padding, and
    # 3 nothing more
    trans = [(1, (x, PAD), 1) for x in old] + [(2, (PAD, x), 2) for x in old]
    for ai, bi in zip(fresh_a, fresh_b):
        trans += [(0, (ai, x), 2) for x in old] + [(0, (x, bi), 1) for x in old]
        trans += [(0, (ai, PAD), 3), (0, (PAD, bi), 3)]
        trans += [(0, (ai, bj), 3) for bj in fresh_b if bj != bi]
        trans += [(0, (bi, aj), 3) for aj in fresh_a]
    fresh_pairs = au._freeze(2, alpha, 4, {0}, {1, 2, 3}, trans)
    return (new_r1, rel._wrap(au.determinize_minimize(
        au.union(au.extend_alphabet(r2.base, alpha), fresh_pairs))))


# ---------------------------------------------------------------------------
# Named separators from the worked examples

def even_odd_languages(letter: str = "a",
                       alphabet: Sequence[str] = ("a",)) -> tuple:
    """(even, odd) length-parity languages of letter^* over the alphabet."""
    alphabet = au.check_alphabet(alphabet)
    if letter not in alphabet:
        raise au.UnknownSymbolError(f"symbol {letter!r} outside alphabet")
    even = au._freeze(1, alphabet, 2, {0}, {0},
                      [(0, (letter,), 1), (1, (letter,), 0)])
    odd = au._freeze(1, alphabet, 2, {0}, {1},
                     [(0, (letter,), 1), (1, (letter,), 0)])
    return even, odd


def parity_separator(alphabet: Sequence[str] = ("a",)) -> RecognizableRelation:
    """(even x odd) u (odd x even) on a^*: separates fc(1) from fc(2)."""
    even, odd = even_odd_languages("a", alphabet)
    return RecognizableRelation(alphabet=tuple(alphabet),
                                products=((even, odd), (odd, even)))


# ---------------------------------------------------------------------------
# JSON formats

def recognizable_to_json_dict(s: RecognizableRelation) -> dict:
    return {
        "products": [
            {"left": au.to_json_dict(l), "right": au.to_json_dict(r)}
            for l, r in s.products
        ]
    }


def recognizable_from_json_dict(d: dict) -> RecognizableRelation:
    prods = tuple(
        (au.from_json_dict(au.json_field(p, "left", "product")),
         au.from_json_dict(au.json_field(p, "right", "product")))
        for p in au.json_field(d, "products", "separator", "a list")
    )
    if not prods:
        raise AutomataError("recognizable JSON needs at least one product "
                            "(or use an empty-language product)")
    return RecognizableRelation(alphabet=prods[0][0].alphabet, products=prods)


def partitioned_to_json_dict(p: PartitionedRecognizable) -> dict:
    return {
        "partition": [au.to_json_dict(l) for l in p.partition],
        "pairs": sorted([i, j] for i, j in p.pairs),
    }


def partitioned_from_json_dict(d: dict) -> PartitionedRecognizable:
    blocks = au.json_field(d, "partition", "partition", "a list")
    pairs = au.json_field(d, "pairs", "partition", "a list of integer pairs")
    return PartitionedRecognizable(
        partition=tuple(au.from_json_dict(l) for l in blocks),
        pairs=frozenset((i, j) for i, j in pairs),
    )


def dumps_recognizable(s: RecognizableRelation) -> str:
    return au.dumps_json(
        {"products": [{"left": l, "right": r} for l, r in s.products]})


def loads_recognizable(text: str) -> RecognizableRelation:
    return recognizable_from_json_dict(json.loads(text))


def dumps_partitioned(p: PartitionedRecognizable) -> str:
    return au.dumps_json({"partition": list(p.partition),
                          "pairs": sorted([i, j] for i, j in p.pairs)})


def loads_partitioned(text: str) -> PartitionedRecognizable:
    return partitioned_from_json_dict(json.loads(text))
