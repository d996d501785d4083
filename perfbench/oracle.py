"""Independent checks for the benchmark's query outputs.

Nothing here imports autorel: automata are read from the emitted JSON and
run by a small subset simulator, Turing machines are stepped directly on
configuration words, and the congruence, rectangle covers and incompatibility
edges are recomputed by brute force over short words.  A check returns
``None`` when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import ast
import json
from itertools import combinations, product

PAD = "_"


# ---------------------------------------------------------------------------
# automata from JSON

class Nfa:
    """A multi-track automaton read from its JSON form."""

    def __init__(self, d: dict):
        self.alphabet = tuple(d["alphabet"])
        self.initial = frozenset(d["initial"])
        self.accepting = frozenset(d["accepting"])
        self.delta: dict = {}
        for src, sym, dst in d["transitions"]:
            self.delta.setdefault((src, tuple(sym)), set()).add(dst)

    @classmethod
    def loads(cls, text) -> "Nfa":
        return cls(json.loads(text))

    def accepts(self, *words) -> bool:
        """Membership of the convolution of ``words`` (one per track)."""
        n = max((len(w) for w in words), default=0)
        cur = set(self.initial)
        for i in range(n):
            col = tuple(w[i] if i < len(w) else PAD for w in words)
            nxt: set = set()
            for q in cur:
                nxt |= self.delta.get((q, col), set())
            if not nxt:
                return False
            cur = nxt
        return bool(cur & self.accepting)


def words_upto(alphabet, n) -> list:
    """All words of length <= n in shortlex order (alphabet order)."""
    out = [()]
    for length in range(1, n + 1):
        out.extend(product(alphabet, repeat=length))
    return out


def word_key(w, alphabet) -> tuple:
    idx = {s: i for i, s in enumerate(alphabet)}
    return (len(w), [idx[x] for x in w])


def pair_key(u, v, alphabet) -> tuple:
    """Shortlex order of the convolution of (u, v): columns compared
    track-wise in alphabet order, padding last."""
    idx = {s: i for i, s in enumerate(alphabet)}
    pad = len(alphabet)
    n = max(len(u), len(v))
    cols = [(idx[u[i]] if i < len(u) else pad, idx[v[i]] if i < len(v) else pad)
            for i in range(n)]
    return (n, cols)


def parse_witness(stdout: str, prefix: str):
    """The witness tuple printed as ``<prefix> witness=<tuple>[ color=<i>]``."""
    line = stdout.strip().splitlines()[-1]
    if not line.startswith(prefix + " witness="):
        return None, None
    body = line[len(prefix) + len(" witness="):]
    color = None
    if " color=" in body:
        body, _, c = body.rpartition(" color=")
        color = int(c)
    return ast.literal_eval(body), color


class Products:
    """A recognizable relation (union of products) read from its JSON form."""

    def __init__(self, d: dict):
        self.products = [(Nfa(p["left"]), Nfa(p["right"])) for p in d["products"]]

    def accepts(self, u, v) -> bool:
        return any(l.accepts(u) and r.accepts(v) for l, r in self.products)


# ---------------------------------------------------------------------------
# separators

def separator_violations(contains, r1: Nfa, r2: Nfa, n: int) -> tuple:
    """Shortlex-least containment and disjointness violations among pairs
    of words of length <= n (None where there is none)."""
    ws = words_upto(r1.alphabet, n)
    cont = disj = None
    for u in ws:
        for v in ws:
            k = pair_key(u, v, r1.alphabet)
            s = contains(u, v)
            if not s and r1.accepts(u, v) and (cont is None or k < cont[0]):
                cont = (k, (u, v))
            if s and r2.accepts(u, v) and (disj is None or k < disj[0]):
                disj = (k, (u, v))
    return (cont and cont[1]), (disj and disj[1])


def check_sep_verify(code, stdout, s: Products, r1: Nfa, r2: Nfa, n: int,
                     expect: str):
    """``expect`` is the verdict fixed by how the instance was planted."""
    verdict = stdout.strip().split()[0] if stdout.strip() else ""
    if verdict != expect:
        return f"verdict {verdict!r}, planted {expect!r}"
    cont, disj = separator_violations(s.accepts, r1, r2, n)
    if expect == "SEPARATES":
        if code != 0:
            return f"exit {code} on SEPARATES"
        if cont or disj:
            return f"brute force finds a violation {cont or disj}"
        return None
    if code != 1:
        return f"exit {code} on {expect}"
    w, _ = parse_witness(stdout, expect)
    if w is None:
        return "no witness printed"
    u, v = tuple(w[0]), tuple(w[1])
    if expect == "FAILS_DISJOINT":
        if not (s.accepts(u, v) and r2.accepts(u, v)):
            return f"witness {w} is not in S and R2"
        best = disj
    else:
        if not (r1.accepts(u, v) and not s.accepts(u, v)):
            return f"witness {w} is not in R1 minus S"
        best = cont
    if best is not None and pair_key(*best, r1.alphabet) < pair_key(u, v, r1.alphabet):
        return f"witness {w} is not shortlex-least, {best} is smaller"
    return None


def check_separates(s: Products, r1: Nfa, r2: Nfa, n: int):
    cont, disj = separator_violations(s.accepts, r1, r2, n)
    if cont:
        return f"separator misses R1 pair {cont}"
    if disj:
        return f"separator meets R2 pair {disj}"
    return None


def check_sep_1prod(code, stdout, out_text, r1: Nfa, r2: Nfa, n: int):
    """Yes: one product that separates and covers the projections of R1.
    No: some R2 pair joins a left word and a right word of R1."""
    ws = words_upto(r1.alphabet, n)
    pairs1 = [(u, v) for u in ws for v in ws if r1.accepts(u, v)]
    lefts = {u for u, _ in pairs1}
    rights = {v for _, v in pairs1}
    if code == 0:
        s = Products(json.loads(out_text))
        if len(s.products) != 1:
            return f"{len(s.products)} products in a 1-product separator"
        bad = check_separates(s, r1, r2, n)
        if bad:
            return bad
        left, right = s.products[0]
        if not all(left.accepts(u) for u in lefts) or not all(right.accepts(v) for v in rights):
            return "product misses a projection word of R1"
        return None
    if code != 1:
        return f"exit {code}"
    for u in lefts:
        for v in rights:
            if r2.accepts(u, v):
                return None
    return f"answered no, but no R2 pair in pi1(R1) x pi2(R1) up to length {n}"


# ---------------------------------------------------------------------------
# incompatibility graphs and colorings

def incompatibility_edges(r1: Nfa, r2: Nfa, n: int, m: int) -> set:
    """Edges {u, u'} (both orders) among words of length <= n with a
    witness v of length <= m: (u, v) in R1 and (u', v) in R2, or
    (v, u) in R1 and (v, u') in R2."""
    ws = words_upto(r1.alphabet, n)
    edges = set()
    for v in words_upto(r1.alphabet, m):
        for fwd in (True, False):
            a = [u for u in ws if (r1.accepts(u, v) if fwd else r1.accepts(v, u))]
            b = [u for u in ws if (r2.accepts(u, v) if fwd else r2.accepts(v, u))]
            for x in a:
                for y in b:
                    edges.add((x, y))
                    edges.add((y, x))
    return edges


def check_graph(g: Nfa, edges: set, n: int):
    """The graph holds every brute-force edge and nothing else among words
    of length <= n."""
    ws = words_upto(g.alphabet, n)
    for u in ws:
        for u2 in ws:
            if g.accepts(u, u2) != ((u, u2) in edges):
                return f"graph and brute force disagree on {(u, u2)}"
    if not edges:
        return "graph has no edge"
    return None


def color_of(colors, w) -> list:
    return [i for i, c in enumerate(colors) if c.accepts(w)]


def check_proper(colors, k: int, edges: set, alphabet, n: int):
    if len(colors) > k:
        return f"{len(colors)} colors, at most {k} allowed"
    for w in words_upto(alphabet, n):
        if len(color_of(colors, w)) != 1:
            return f"word {w} has colors {color_of(colors, w)}"
    for u, u2 in edges:
        if color_of(colors, u) == color_of(colors, u2):
            return f"edge {(u, u2)} is monochrome"
    return None


def check_color_verify_bad(code, stdout, colors, g: Nfa, n: int, expect: str):
    """A deliberately improper coloring: the reported violation is real and
    shortlex-least."""
    if code != 1:
        return f"exit {code} on an improper coloring"
    w, color = parse_witness(stdout, expect)
    if w is None:
        return f"expected {expect}, got {stdout.strip()!r}"
    alpha = g.alphabet
    if expect == "NOT_PARTITION":
        w = tuple(w)
        if len(color_of(colors, w)) == 1:
            return f"witness {w} has exactly one color"
        for x in words_upto(alpha, len(w)):
            if len(color_of(colors, x)) != 1 and word_key(x, alpha) < word_key(w, alpha):
                return f"witness {w} is not shortlex-least, {x} is smaller"
        return None
    u, u2 = tuple(w[0]), tuple(w[1])
    if not g.accepts(u, u2):
        return f"witness {w} is not an edge"
    if color is None or not (colors[color].accepts(u) and colors[color].accepts(u2)):
        return f"witness {w} is not monochrome in color {color}"
    best = None
    ws = words_upto(alpha, max(len(u), len(u2)))
    for x in ws:
        for y in ws:
            if not g.accepts(x, y):
                continue
            for i, c in enumerate(colors):
                if c.accepts(x) and c.accepts(y):
                    key = (pair_key(x, y, alpha), i)
                    if best is None or key < best:
                        best = key
    if best is not None and best < (pair_key(u, u2, alpha), color):
        return f"witness {w} color {color} is not shortlex-least"
    return None


# ---------------------------------------------------------------------------
# definability

def congruence_classes(r: Nfa, n: int, m: int) -> list:
    """Representatives of distinct row/column signatures of words of length
    <= n against witnesses of length <= m.  Words with different
    signatures are truly inequivalent, so this is a lower bound on the
    index."""
    ws = words_upto(r.alphabet, n)
    vs = words_upto(r.alphabet, m)
    reps = {}
    for w in ws:
        sig = (tuple(r.accepts(w, v) for v in vs), tuple(r.accepts(v, w) for v in vs))
        reps.setdefault(sig, w)
    return list(reps.values())


def min_rectangle_cover(ones: set, kmax: int):
    """Least number of all-ones rectangles covering ``ones``, or None if it
    exceeds kmax.  Each rectangle of a cover grows to a maximal one, whose
    column set is an intersection of row supports."""
    if not ones:
        return 0
    support: dict = {}
    for i, j in ones:
        support.setdefault(i, set()).add(j)
    col_sets = {frozenset(s) for s in support.values()}
    grown = True
    while grown:
        grown = False
        for a, b in combinations(list(col_sets), 2):
            c = a & b
            if c and c not in col_sets:
                col_sets.add(c)
                grown = True
    rects = []
    for cols in col_sets:
        rows = [i for i, s in support.items() if cols <= s]
        rects.append(frozenset((i, j) for i in rows for j in cols))
    for k in range(1, kmax + 1):
        for combo in combinations(rects, k):
            if frozenset().union(*combo) >= ones:
                return k
    return None


def prod_lower_bound(r: Nfa, n: int, m: int, kmax: int):
    """Brute-force least product count on class representatives: a lower
    bound on the true least count (None if above kmax)."""
    reps = congruence_classes(r, n, m)
    ones = {(i, j) for i, u in enumerate(reps) for j, v in enumerate(reps)
            if r.accepts(u, v)}
    return min_rectangle_cover(ones, kmax)


def check_same_relation(contains, r: Nfa, n: int):
    for u in words_upto(r.alphabet, n):
        for v in words_upto(r.alphabet, n):
            if contains(u, v) != r.accepts(u, v):
                return f"witness and relation disagree on {(u, v)}"
    return None


def check_kprod_witness(out_text, r: Nfa, k: int, n: int):
    s = Products(json.loads(out_text))
    if len(s.products) > k:
        return f"{len(s.products)} products, at most {k} allowed"
    return check_same_relation(s.accepts, r, n)


def check_krec_witness(out_text, r: Nfa, k: int, n: int):
    d = json.loads(out_text)
    blocks = [Nfa(b) for b in d["partition"]]
    pairs = {(i, j) for i, j in d["pairs"]}
    if len(blocks) > k:
        return f"{len(blocks)} blocks, at most {k} allowed"
    block = {}
    for w in words_upto(r.alphabet, n):
        hits = color_of(blocks, w)
        if len(hits) != 1:
            return f"word {w} lies in blocks {hits}"
        block[w] = hits[0]
    return check_same_relation(lambda u, v: (block[u], block[v]) in pairs, r, n)


# ---------------------------------------------------------------------------
# Turing machines, stepped directly on configuration words

class Machine:
    def __init__(self, d: dict):
        self.states = tuple(d["states"])
        self.tape = tuple(d["tape"])
        self.blank = d["blank"]
        self.initial = d["initial"]
        self.finals = frozenset(d["final"])
        self.delta = {}
        self.duplicate = False
        for q, s, q2, s2, mv in d["delta"]:
            if (q, s) in self.delta:
                self.duplicate = True
            self.delta[(q, s)] = (q2, s2, mv)

    @classmethod
    def loads(cls, text) -> "Machine":
        return cls(json.loads(text))

    def init(self) -> tuple:
        return ((), self.blank, self.initial, ())

    def step(self, c):
        """Successor of configuration (left, head symbol, state, right)."""
        left, sym, q, right = c
        rule = self.delta.get((q, sym))
        if rule is None:
            return None
        q2, y, mv = rule
        if mv == "R":
            if right:
                return (left + (y,), right[0], q2, right[1:])
            return (left + (y,), self.blank, q2, ())
        if not left:
            return None
        return (left[:-1], left[-1], q2, (y,) + right)

    def configs_upto(self, n: int):
        """Every configuration word of length <= n; a blank only under the
        head at the very end."""
        for length in range(1, n + 1):
            for pos in range(length):
                for left in product(self.tape, repeat=pos):
                    for right in product(self.tape, repeat=length - pos - 1):
                        heads = self.tape + ((self.blank,) if not right else ())
                        for sym in heads:
                            for q in self.states:
                                yield (left, sym, q, right)

    def word(self, c, tag=None) -> tuple:
        left, sym, q, right = c
        return ((tag,) if tag else ()) + left + (f"{sym}|{q}",) + right


def reversibility_report(m: Machine, n: int) -> dict:
    """Brute-force degree facts on configurations up to length n."""
    preds: dict = {}
    collision = None
    for c in m.configs_upto(n):
        d = m.step(c)
        if d is None:
            continue
        if d in preds and collision is None:
            collision = (preds[d], c)
        preds.setdefault(d, c)
    return {"deterministic": not m.duplicate,
            "collision": collision,
            "initial_has_pred": m.init() in preds}


def check_tm_check(code, stdout, m: Machine, n: int):
    rep = reversibility_report(m, n)
    lines = dict(line.split(": ", 1) for line in stdout.splitlines()[:3])
    want = {"initial-no-predecessor": str(not rep["initial_has_pred"]),
            "functional": str(rep["deterministic"]),
            "co-functional": str(rep["collision"] is None)}
    if lines != want:
        return f"report {lines} but brute force gives {want}"
    ok = all(v == "True" for v in want.values())
    if code != (0 if ok else 1):
        return f"exit {code} with report {lines}"
    return None


def run_machine(m: Machine, steps: int) -> list:
    """The run from the initial configuration, at most ``steps`` steps."""
    out = [m.init()]
    for _ in range(steps):
        d = m.step(out[-1])
        if d is None:
            break
        out.append(d)
    return out


def check_padded(out_text, halts: bool, n: int, steps: int):
    """A padded machine is deterministic and reversible on short
    configurations, and its run grows the a/b zone while the input machine
    runs: without bound on a looping input, up to a halt on a halting one."""
    m = Machine.loads(out_text)
    rep = reversibility_report(m, n)
    if not rep["deterministic"]:
        return "padded machine has two rules for one (state, symbol)"
    if rep["collision"] is not None:
        return f"padded machine merges configurations {rep['collision']}"
    if rep["initial_has_pred"]:
        return "initial configuration of the padded machine has a predecessor"
    run = run_machine(m, steps)
    last = run[-1]
    zone = sum(1 for x in last[0] + (last[1],) + last[3] if x in ("a", "b"))
    if halts:
        if len(run) > steps or last[2] not in m.finals:
            return f"padded halting machine did not halt in {steps} steps"
    elif len(run) <= steps or zone < 8:
        return f"padded looping machine stopped or kept a zone of {zone} letters"
    return None


def check_not_reversible(code, stdout, m: Machine, n: int):
    rep = reversibility_report(m, n)
    if rep["collision"] is None:
        return f"no colliding pair up to length {n}, but the verdict was no"
    if code != 1 or "not reversible" not in stdout:
        return f"exit {code}: {stdout.strip()!r}"
    return None


def check_gadget(out_text, m: Machine, k: int, steps: int):
    """Edges B.c -> R.c and R.c -> B.step(c) along the run of the machine,
    and no edge the other way round; for k > 2, the clique letter K#1 is
    joined to every incident vertex."""
    g = Nfa.loads(out_text)
    run = run_machine(m, steps)
    for c, d in zip(run, run[1:] + [None]):
        b, r = m.word(c, "B"), m.word(c, "R")
        if not g.accepts(b, r):
            return f"missing edge B.c -> R.c for {b}"
        if g.accepts(r, b):
            return f"spurious edge R.c -> B.c for {r}"
        if d is not None:
            if not g.accepts(r, m.word(d, "B")):
                return f"missing edge R.c -> B.step(c) for {r}"
            if g.accepts(b, m.word(d, "R")):
                return f"spurious edge B.c -> R.step(c) for {b}"
        if k > 2 and not g.accepts(("K#1",), b):
            return f"missing clique edge to {b}"
    return None
