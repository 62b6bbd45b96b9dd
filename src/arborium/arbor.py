"""Arbors: rooted trees decorated by a set partition of {1, ..., n}.

The textual grammar, used everywhere as the interchange format, is

    node := '{' int (',' int)* '}' [ '(' node (',' node)* ')' ]

with whitespace insignificant outside integers.  Each vertex carries a
non-empty label set; across the tree the label sets partition {1, ..., n},
where n (the size) is the largest label.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice


class ArborError(ValueError):
    """Invalid arbor text or label structure; position is set for syntax errors."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class Constraint:
    """One defining inequality of the tree polytope: sum of x_i over the
    support (a vertex's labels plus those of all its descendants) is at
    most the support's cardinality."""

    support: frozenset
    bound: int


class Arbor:
    """A rooted tree whose vertices carry disjoint label sets covering {1..n}.

    Vertex ids are internal bookkeeping; only label sets are semantic, so
    equality and hashing go through the canonical serialization.
    Instances are immutable.
    """

    __slots__ = ("root", "vertices", "children", "size", "_canonical")

    def __init__(self, root: int, vertices: dict, children: dict):
        vertices = {vid: frozenset(labels) for vid, labels in vertices.items()}
        children = {vid: tuple(children.get(vid, ())) for vid in vertices}
        _validate(root, vertices, children)
        self.root = root
        self.vertices = vertices
        self.children = children
        self.size = sum(len(labels) for labels in vertices.values())
        self._canonical = None

    def subtree_labels(self, vid: int) -> frozenset:
        """Labels of the vertex plus all of its descendants."""
        acc, stack = set(), [vid]
        while stack:
            v = stack.pop()
            acc |= self.vertices[v]
            stack.extend(self.children[v])
        return frozenset(acc)

    def fold(self, step):
        """Bottom-up over every sub-tree, without recursion: calls
        step(labels, size, child_values) once per vertex, children first, with
        the vertex's own labels, its sub-tree size and its children's results
        in stored child order.  Returns the root's result."""
        order = [self.root]
        for vid in order:
            order.extend(self.children[vid])
        sizes, values = {}, {}
        for vid in reversed(order):
            kids = self.children[vid]
            sizes[vid] = len(self.vertices[vid]) + sum(sizes[c] for c in kids)
            values[vid] = step(self.vertices[vid], sizes[vid], [values.pop(c) for c in kids])
        return values[self.root]

    def canonical(self) -> str:
        if self._canonical is None:
            self._canonical = _join_canonical(self.fold(_serialize_step))
        return self._canonical

    def __eq__(self, other):
        if not isinstance(other, Arbor):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        return f"Arbor({self.canonical()!r})"


def _validate(root, vertices, children):
    if root not in vertices:
        raise ArborError("root vertex is missing")
    seen_labels = set()
    for vid, labels in vertices.items():
        if not labels:
            raise ArborError("empty label set")
        for lab in labels:
            if not isinstance(lab, int) or lab < 1:
                raise ArborError(f"labels must be positive integers, got {lab!r}")
            if lab in seen_labels:
                raise ArborError(f"duplicate label {lab}")
            seen_labels.add(lab)
    n = max(seen_labels)
    if len(seen_labels) < n:
        # Name only the first few gaps, so a huge label costs neither time nor memory.
        missing = list(islice((lab for lab in range(1, n + 1) if lab not in seen_labels), 10))
        more = n - len(seen_labels) - len(missing)
        raise ArborError(f"labels do not cover 1..{n}: missing {missing}"
                         + (f" and {more} more" if more else ""))

    reached = set()
    stack = [root]
    parents = {}
    while stack:
        vid = stack.pop()
        if vid in reached:
            raise ArborError("children relation contains a cycle")
        reached.add(vid)
        for child in children.get(vid, ()):
            if child in parents:
                raise ArborError("vertex has two parents")
            parents[child] = vid
            stack.append(child)
    if reached != set(vertices):
        raise ArborError("children relation does not span every vertex")


# -- parsing -----------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ArborError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer label")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # longer than Python's integer-string digit limit
            raise ArborError("label has too many digits", start) from None

    def label_set(self, seen: set) -> set:
        self.expect("{")
        labels = set()
        while True:
            at = self.pos
            lab = self.integer()
            if lab in seen:
                raise ArborError(f"duplicate label {lab}", at)
            seen.add(lab)
            labels.add(lab)
            if self.peek() == ",":
                self.pos += 1
            else:
                break
        self.expect("}")
        return labels

    def arbor(self):
        """Vertices and children, numbered in pre-order from the root 0; open
        child lists sit on a stack, so depth is not bounded by recursion."""
        seen, vertices, children, open_lists = set(), {}, {}, []
        while True:
            vid = len(vertices)
            vertices[vid] = self.label_set(seen)
            children[vid] = []
            if open_lists:
                open_lists[-1].append(vid)
            if self.peek() == "(":
                self.pos += 1
                open_lists.append(children[vid])
                continue
            while open_lists and self.peek() != ",":
                self.expect(")")
                open_lists.pop()
            if not open_lists:
                return vertices, children
            self.pos += 1


def parse_arbor(text: str) -> Arbor:
    """Parse arbor text; validates labels as a partition of {1..max label}."""
    parser = _Parser(text)
    vertices, children = parser.arbor()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input after arbor")
    return Arbor(0, vertices, children)


# -- serialization -----------------------------------------------------------

def _serialize_step(labels, size, kids):
    """Fold step of Arbor.canonical: (smallest own label, own label text,
    children's results ordered by smallest own label).  No step copies
    its children's text; _join_canonical writes it once at the root."""
    return min(labels), "{%s}" % ",".join(str(lab) for lab in sorted(labels)), sorted(kids)


def _join_canonical(node) -> str:
    """Flatten the nested _serialize_step results into text, with an
    explicit stack instead of recursion."""
    pieces, stack = [], [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        _, text, kids = item
        pieces.append(text)
        if kids:
            tail = [")"]
            for kid in reversed(kids):
                tail += [kid, ","]
            tail[-1] = "("
            stack.extend(tail)
    return "".join(pieces)


def serialize_arbor(t: Arbor) -> str:
    """Canonical text: labels ascending, children ordered by smallest own label."""
    return t.canonical()


# -- builders ------------------------------------------------------------------

def make_tn(n: int) -> Arbor:
    """The fan arbor t_n: a size-1 root {1} with n-1 size-1 leaf children."""
    if n < 1:
        raise ValueError("t_n requires n >= 1")
    vertices = {0: {1}}
    children = {0: list(range(1, n))}
    for i in range(2, n + 1):
        vertices[i - 1] = {i}
        children[i - 1] = []
    return Arbor(0, vertices, children)


def constraints(t: Arbor) -> list:
    """One Constraint per vertex, in root-first depth-first order with
    children by smallest label.  An explicit stack keeps deep arbors clear
    of the recursion limit."""
    out, stack = [], [t.root]
    while stack:
        vid = stack.pop()
        support = t.subtree_labels(vid)
        out.append(Constraint(support, len(support)))
        stack.extend(sorted(t.children[vid], key=lambda c: min(t.vertices[c]), reverse=True))
    return out


# -- seeded random corpus --------------------------------------------------------

CORPUS_VERSION = 1


def random_arbor(n: int, rng: random.Random) -> Arbor:
    """Random arbor of size n: shuffled labels cut into small blocks, each
    block attached to a uniformly random earlier vertex (random recursive
    tree).  Block sizes are kept small so brute-force oracles stay cheap."""
    if n < 1:
        raise ValueError("arbor size must be >= 1")
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    blocks = []
    i = 0
    while i < n:
        size = min(n - i, rng.choice((1, 1, 1, 1, 2, 2, 3)))
        blocks.append(labels[i:i + size])
        i += size
    vertices = {vid: set(block) for vid, block in enumerate(blocks)}
    children = {vid: [] for vid in vertices}
    for vid in range(1, len(blocks)):
        children[rng.randrange(vid)].append(vid)
    return Arbor(0, vertices, children)


def random_corpus(seed: int, sizes=range(1, 7), per_size: int = 4) -> list:
    """Deterministic corpus of random arbors (version-stamped via CORPUS_VERSION)."""
    rng = random.Random(f"corpus-v{CORPUS_VERSION}-{seed}")
    return [random_arbor(n, rng) for n in sizes for _ in range(per_size)]
