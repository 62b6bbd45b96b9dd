"""Arbors: rooted trees decorated by a set partition of {1, ..., n}.

The textual grammar, used everywhere as the interchange format, is

    node := '{' int (',' int)* '}' [ '(' node (',' node)* ')' ]

with whitespace insignificant outside integers.  Each vertex carries a
non-empty label set; across the tree the label sets partition {1, ..., n},
where n (the size) is the largest label.
"""

from __future__ import annotations

import random
import re
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
    Construction validates the tree in one walk from the root, which visits
    children by smallest own label; the walk's pre-order, as (vertex id,
    depth) pairs, is stored, and fold, serialize_arbor and constraints read it
    instead of walking the tree again.  Instances are immutable.
    """

    __slots__ = ("root", "vertices", "children", "size", "_preorder", "_canonical")

    def __init__(self, root: int, vertices: dict, children: dict):
        vertices = {vid: frozenset(labels) for vid, labels in vertices.items()}
        children = {vid: tuple(children.get(vid, ())) for vid in vertices}
        self._preorder = _validate(root, vertices, children)
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
        sizes, values = {}, {}
        for vid, _ in reversed(self._preorder):
            kids = self.children[vid]
            sizes[vid] = len(self.vertices[vid]) + sum(sizes[c] for c in kids)
            values[vid] = step(self.vertices[vid], sizes[vid], [values.pop(c) for c in kids])
        return values[self.root]

    def __eq__(self, other):
        if not isinstance(other, Arbor):
            return NotImplemented
        return serialize_arbor(self) == serialize_arbor(other)

    def __hash__(self):
        return hash(serialize_arbor(self))

    def __repr__(self):
        return f"Arbor({serialize_arbor(self)!r})"


def _validate(root, vertices, children) -> list:
    """Check the labels and the tree; return the pre-order from the root as
    (vertex id, depth) pairs, children by smallest own label."""
    if root not in vertices:
        raise ArborError("root vertex is missing")
    seen_labels, smallest = set(), {}
    for vid, labels in vertices.items():
        if not labels:
            raise ArborError("empty label set")
        for lab in labels:
            if not isinstance(lab, int) or isinstance(lab, bool) or lab < 1:
                raise ArborError(f"labels must be positive integers, got {lab!r}")
            if lab in seen_labels:
                raise ArborError(f"duplicate label {lab}")
            seen_labels.add(lab)
        smallest[vid] = min(labels)
    n = max(seen_labels)
    if len(seen_labels) < n:
        # Name only the first few gaps, so a huge label costs neither time nor memory.
        missing = list(islice((lab for lab in range(1, n + 1) if lab not in seen_labels), 10))
        more = n - len(seen_labels) - len(missing)
        raise ArborError(f"labels do not cover 1..{n}: missing {missing}"
                         + (f" and {more} more" if more else ""))

    # No edge may lead into the root, nor two into one vertex, so the walk is a tree.
    order, placed, stack = [], {root}, [(root, 0)]
    while stack:
        vid, depth = stack.pop()
        order.append((vid, depth))
        kids = children[vid]
        for child in kids:
            if child == root:
                raise ArborError("children relation contains a cycle")
            if child in placed:
                raise ArborError("vertex has two parents")
            if child not in smallest:
                raise ArborError("children relation does not span every vertex")
            placed.add(child)
        stack += [(c, depth + 1) for c in sorted(kids, key=smallest.__getitem__, reverse=True)]
    if len(order) < len(vertices):
        raise ArborError("children relation does not span every vertex")
    return order


# -- parsing -----------------------------------------------------------------

# One token per match: leading whitespace (the same set as str.isspace), then
# an ASCII digit run, one other character, or nothing at the end of the text.
_TOKEN = re.compile(r"\s*([0-9]+|.|)", re.DOTALL)


def _parse_vertices(text: str):
    """Vertices and children, numbered in pre-order from the root 0.

    One pass over the token list; open child lists sit on a stack, so depth
    is not bounded by recursion.  Error positions point past the whitespace,
    at the offending token, except a duplicate label, which points just
    after the preceding '{' or ','.
    """
    toks = _TOKEN.findall(text)

    def error(message, i, past_ws=True) -> ArborError:
        m = next(islice(_TOKEN.finditer(text), i, None))
        return ArborError(message, m.start(1) if past_ws else m.start())

    i = 0
    seen, vertices, children, open_lists = set(), {}, {}, []
    while True:
        if toks[i] != "{":
            raise error("expected '{'", i)
        i += 1
        labels = set()
        while True:
            tok = toks[i]
            if not "0" <= tok[:1] <= "9":
                raise error("expected an integer label", i)
            try:
                lab = int(tok)
            except ValueError:  # longer than Python's integer-string digit limit
                raise error("label has too many digits", i) from None
            if lab in seen:
                raise error(f"duplicate label {lab}", i, past_ws=False)
            seen.add(lab)
            labels.add(lab)
            if toks[i + 1] != ",":
                i += 1
                break
            i += 2
        if toks[i] != "}":
            raise error("expected '}'", i)
        i += 1
        vid = len(vertices)
        vertices[vid] = labels
        children[vid] = []
        if open_lists:
            open_lists[-1].append(vid)
        if toks[i] == "(":
            i += 1
            open_lists.append(children[vid])
            continue
        while open_lists and toks[i] != ",":
            if toks[i] != ")":
                raise error("expected ')'", i)
            i += 1
            open_lists.pop()
        if not open_lists:
            break
        i += 1
    if toks[i]:
        raise error("trailing input after arbor", i)
    return vertices, children


def parse_arbor(text: str) -> Arbor:
    """Parse arbor text; validates labels as a partition of {1..max label}."""
    vertices, children = _parse_vertices(text)
    return Arbor(0, vertices, children)


# -- serialization -----------------------------------------------------------

def serialize_arbor(t: Arbor) -> str:
    """Canonical text: labels ascending, children by smallest own label.

    One pass over the stored pre-order, where a step down opens '(', a step
    up closes ')' and a sibling follows ','; the text is cached on t."""
    if t._canonical is None:
        pieces, last = [], 0
        for vid, depth in t._preorder:
            if depth > last:
                pieces.append("(")
            elif pieces:
                pieces.append(")" * (last - depth) + ",")
            pieces.append("{%s}" % ",".join(map(str, sorted(t.vertices[vid]))))
            last = depth
        pieces.append(")" * last)
        t._canonical = "".join(pieces)
    return t._canonical


# -- builders ------------------------------------------------------------------

def make_tn(n: int) -> Arbor:
    """The fan arbor t_n: a size-1 root {1} with n-1 size-1 leaf children."""
    if n < 1:
        raise ArborError("t_n requires n >= 1")
    # Frozensets and a tuple, with no entries for the leaves, so that
    # Arbor.__init__ keeps these objects instead of building second copies.
    vertices = {vid: frozenset((vid + 1,)) for vid in range(n)}
    return Arbor(0, vertices, {0: tuple(range(1, n))})


def constraints(t: Arbor) -> list:
    """One Constraint per vertex, in the stored pre-order: root first, depth
    first, children by smallest own label."""
    return [Constraint(s := t.subtree_labels(vid), len(s)) for vid, _ in t._preorder]


# -- seeded random corpus --------------------------------------------------------

CORPUS_VERSION = 1
CORPUS_SIZES = range(1, 7)  # the arbor sizes of the default corpus
CORPUS_PER_SIZE = 4  # the arbors of each size in the default corpus


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


def random_corpus(seed: int, sizes=CORPUS_SIZES, per_size: int = CORPUS_PER_SIZE) -> list:
    """Deterministic corpus of random arbors (version-stamped via CORPUS_VERSION)."""
    rng = random.Random(f"corpus-v{CORPUS_VERSION}-{seed}")
    return [random_arbor(n, rng) for n in sizes for _ in range(per_size)]
