"""Graphviz export of bounded slices of automatic graphs."""

from __future__ import annotations

from itertools import product as _cartesian
from typing import Optional, Sequence

from . import automata as au
from .coloring import RegularColoring, require_shared_alphabet
from .relations import AutomaticRelation, relation_pairs

MAX_DOT_VERTICES = 4000
_PALETTE = (
    "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f",
    "#cab2d6", "#ffff99", "#1f78b4", "#33a02c",
)


def _label(word: Sequence[str]) -> str:
    return "".join(word) if word else "ε"


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def export_dot(e: AutomaticRelation, max_len: int,
               coloring: Optional[RegularColoring] = None,
               secondary: Optional[AutomaticRelation] = None) -> str:
    """Render the subgraph on all words of length <= max_len.

    Vertices are labeled by their words; edges of the optional secondary
    relation, over the graph's alphabet, are dashed; colors of a coloring
    over the graph's alphabet fill vertices.  Edges are listed off the
    relations.  More than ``MAX_DOT_VERTICES`` words raise
    ``BudgetExceededError``.
    """
    if coloring is not None:
        require_shared_alphabet(e, coloring)
    alpha = e.alphabet
    vertices = []
    for n in range(max_len + 1):
        for w in _cartesian(alpha, repeat=n):
            vertices.append(w)
            if len(vertices) > MAX_DOT_VERTICES:
                raise au.BudgetExceededError(
                    f"more than {MAX_DOT_VERTICES} vertices at max_len={max_len}")
    labels = [_label(w) for w in vertices]
    # a node is named by its label, or by its position when two words
    # spell one label (symbols "a", "b" and "ab")
    names = labels if len(set(labels)) == len(labels) else map(str, range(len(vertices)))
    node = {w: _quote(name) for w, name in zip(vertices, names)}
    lines = ["digraph automatic {", "  rankdir=LR;"]
    for w, label in zip(vertices, labels):
        attrs = [f"label={_quote(label)}"]
        if coloring is not None:
            idx = coloring.color_of(w)
            if idx is not None:
                attrs.append(f'style=filled fillcolor="{_PALETTE[idx % len(_PALETTE)]}"')
        lines.append(f"  {node[w]} [{' '.join(attrs)}];")
    # a pair's words are <= max_len long exactly when its convolution is
    style: dict = {}  # (u, v) -> the attributes of its edge
    if secondary is not None:
        if secondary.alphabet != alpha:
            raise au.ArityMismatchError("graph and secondary relation must share the alphabet")
        style = dict.fromkeys(relation_pairs(secondary, max_len), " [style=dashed]")
    style.update(dict.fromkeys(relation_pairs(e, max_len), ""))  # a pair of both is solid
    index = {w: i for i, w in enumerate(vertices)}
    for u, v in sorted(style, key=lambda p: (index[p[0]], index[p[1]])):
        lines.append(f"  {node[u]} -> {node[v]}{style[u, v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
