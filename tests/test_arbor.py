"""Grammar, validation, constraints, and the seeded corpus."""

import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from arborium.arbor import (
    Arbor,
    ArborError,
    Constraint,
    constraints,
    make_tn,
    parse_arbor,
    random_arbor,
    random_corpus,
    serialize_arbor,
)

FIGURE_ARBOR = "{1,2}({3}({6,7},{8}),{4,5})"


def test_parse_smallest():
    t = parse_arbor("{1}")
    assert t.size == 1
    assert t.vertices[t.root] == frozenset({1})
    assert t.children[t.root] == ()


def test_parse_figure_arbor():
    t = parse_arbor(FIGURE_ARBOR)
    assert t.size == 8
    supports = {c.support for c in constraints(t)}
    assert frozenset({3, 6, 7, 8}) in supports
    assert Constraint(frozenset({3, 6, 7, 8}), 4) in constraints(t)


def test_parse_whitespace_insensitive():
    assert parse_arbor(" { 1 , 2 } ( {3} , { 4 ,5 } ) ") == parse_arbor("{1,2}({3},{4,5})")


@pytest.mark.parametrize("text,fragment", [
    ("{1}({2},{2})", "duplicate label 2"),
    ("{1,1}", "duplicate label 1"),
    ("{1}({3})", "missing"),
    ("{}", "integer label"),
    ("{1}(", "expected"),
    ("{1} x", "trailing"),
    ("{0,1}", "positive"),
    ("{²}", "integer label (at position 1)"),
    ("{١}", "integer label (at position 1)"),
    pytest.param("{" + "1" * 5000 + "}", "too many digits (at position 1)", id="5000-digit"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ArborError) as err:
        parse_arbor(text)
    assert fragment in str(err.value)


# Canonical texts of random arbors of size at most 12; gaps is the
# whitespace put between their tokens (never inside an integer).
arbor_texts = st.builds(lambda n, seed: serialize_arbor(random_arbor(n, random.Random(seed))),
                        st.integers(1, 12), st.integers(0, 2 ** 32))
gaps = st.text(alphabet=" \t\n\r\f\v", max_size=3)


@settings(max_examples=200, deadline=None)
@given(arbor_texts, st.data())
def test_parse_serialize_roundtrip_with_whitespace(text, data):
    t = parse_arbor(text)
    assert serialize_arbor(t) == text
    tokens = re.findall(r"[0-9]+|.", text)
    spaced = "".join(data.draw(gaps) + tok for tok in tokens) + data.draw(gaps)
    assert parse_arbor(spaced) == t
    assert serialize_arbor(parse_arbor(spaced)) == text


@settings(max_examples=200, deadline=None)
@given(arbor_texts, st.data())
def test_one_character_edit_parses_or_raises_arbor_error(text, data):
    kind = data.draw(st.sampled_from(("delete", "insert", "replace")))
    i = data.draw(st.integers(0, len(text) - (kind != "insert")))
    ch = data.draw(st.one_of(st.sampled_from("{}(),0123456789 "), st.characters()))
    edited = text[:i] + ("" if kind == "delete" else ch) + text[i + (kind != "insert"):]
    try:
        t = parse_arbor(edited)
    except ArborError as err:
        if err.position is not None:
            assert 0 <= err.position <= len(edited)
    else:
        assert parse_arbor(serialize_arbor(t)) == t


def test_parse_error_reports_position():
    with pytest.raises(ArborError) as err:
        parse_arbor("{1}({2},{2})")
    assert err.value.position == 9


def test_missing_labels_fail_fast_with_a_short_message():
    start = time.perf_counter()
    with pytest.raises(ArborError) as err:
        parse_arbor("{3000000}")
    assert time.perf_counter() - start < 0.5
    assert str(err.value) == ("labels do not cover 1..3000000: "
                              "missing [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 2999989 more")
    with pytest.raises(ArborError) as err:
        parse_arbor("{1}({4})")
    assert str(err.value) == "labels do not cover 1..4: missing [2, 3]"


def test_deep_path_roundtrip():
    depth = 200_000
    text = "".join("{%d}(" % i for i in range(1, depth)) + "{%d}" % depth + ")" * (depth - 1)
    t = parse_arbor(text)
    assert t.size == depth
    assert serialize_arbor(t) == text
    assert parse_arbor(serialize_arbor(t)) == t


def test_fold_children_first_in_stored_order():
    t = Arbor(0, {0: {1}, 1: {4, 5}, 2: {2}, 3: {3}}, {0: [1, 2], 1: [3]})
    got = t.fold(lambda labels, size, kids: (sorted(labels), size, kids))
    assert got == ([1], 5, [([4, 5], 3, [([3], 1, [])]), ([2], 1, [])])


def test_fold_has_no_depth_limit():
    n = 10 ** 5
    path = Arbor(0, {i: {i + 1} for i in range(n)}, {i: [i + 1] for i in range(n - 1)})
    assert path.fold(lambda labels, size, kids: size) == n


def test_make_tn():
    assert serialize_arbor(make_tn(1)) == "{1}"
    assert serialize_arbor(make_tn(2)) == "{1}({2})"
    assert serialize_arbor(make_tn(5)) == "{1}({2},{3},{4},{5})"
    for n in range(1, 7):
        leaves = ",".join(f"{{{i}}}" for i in range(2, n + 1))
        t = make_tn(n)
        assert t == parse_arbor(f"{{1}}({leaves})" if leaves else "{1}"), n
        assert t.size == n and len(t.vertices) == n, n
    with pytest.raises(ValueError):
        make_tn(0)


def test_constraints_small():
    t2 = constraints(make_tn(2))
    assert {(c.support, c.bound) for c in t2} == {
        (frozenset({2}), 1), (frozenset({1, 2}), 2)}
    t1 = constraints(make_tn(1))
    assert t1 == [Constraint(frozenset({1}), 1)]


def test_constraints_figure_arbor_verbatim():
    expected = {
        (frozenset({8}), 1),
        (frozenset({6, 7}), 2),
        (frozenset({3, 6, 7, 8}), 4),
        (frozenset({4, 5}), 2),
        (frozenset(range(1, 9)), 8),
    }
    cons = constraints(parse_arbor(FIGURE_ARBOR))
    got = {(c.support, c.bound) for c in cons}
    assert got == expected
    # Root first, depth first, children by smallest label.
    assert [c.support for c in cons] == [
        frozenset(range(1, 9)), frozenset({3, 6, 7, 8}), frozenset({6, 7}),
        frozenset({8}), frozenset({4, 5})]


def test_constraints_root_covers_everything():
    for t in random_corpus(5, per_size=2):
        cons = constraints(t)
        full = [c for c in cons if c.bound == t.size]
        assert len(full) == 1
        assert full[0].support == frozenset(range(1, t.size + 1))
        assert all(c.bound == len(c.support) for c in cons)


def test_constraint_supports_are_laminar():
    for t in random_corpus(6, per_size=3):
        supports = [c.support for c in constraints(t)]
        for a in supports:
            for b in supports:
                assert a <= b or b <= a or not (a & b)


def test_constraints_deep_path():
    n = 3000
    path = Arbor(0, {i: {i + 1} for i in range(n)}, {i: [i + 1] for i in range(n - 1)})
    cons = constraints(path)
    assert len(cons) == n
    assert [c.bound for c in cons] == list(range(n, 0, -1))
    assert all(c.support == frozenset(range(n - c.bound + 1, n + 1)) for c in cons)


def test_serialize_canonical_and_roundtrip():
    assert serialize_arbor(parse_arbor("{2,1}({5,4},{3})")) == "{1,2}({3},{4,5})"
    rng = random.Random(1)
    for _ in range(25):
        t = random_arbor(rng.randint(1, 7), rng)
        assert parse_arbor(serialize_arbor(t)) == t


def test_equality_ignores_vertex_ids_and_child_order():
    a = parse_arbor("{1}({2,3},{4})")
    b = Arbor(10, {10: {1}, 20: {4}, 30: {2, 3}}, {10: [20, 30], 20: [], 30: []})
    assert a == b
    assert hash(a) == hash(b)


def test_direct_construction_validation():
    cases = [
        ({0: {1}, 1: {2}}, {0: [], 1: []}, "children relation does not span every vertex"),
        ({0: set()}, {0: []}, "empty label set"),
        ({0: {1}, 1: {1}}, {0: [1], 1: []}, "duplicate label 1"),
        ({0: {1}}, {0: [5]}, "children relation does not span every vertex"),  # no vertex 5
        ({0: {1}, 1: {2}}, {0: [1], 1: [0]}, "children relation contains a cycle"),
        ({0: {1}, 1: {2}, 2: {3}}, {0: [1], 1: [2], 2: [1]}, "vertex has two parents"),
        ({0: {1}, 1: {2}, 2: {3}}, {1: [2], 2: [1]},
         "children relation does not span every vertex"),  # a cycle the root cannot reach
        ({0: {1}}, {0: [0]}, "children relation contains a cycle"),
        ({0: {1}, 1: {2}}, {0: [1], 1: [1]}, "vertex has two parents"),
        ({0: {1}, 1: {2}, 2: {3}}, {0: [1, 2], 1: [2]}, "vertex has two parents"),
        ({0: {1}, 1: {2}}, {0: [1, 1]}, "vertex has two parents"),
        # bool is an int, but {True} would serialize to text that does not parse
        ({0: {True}, 1: {2}}, {0: [1]}, "labels must be positive integers, got True"),
    ]
    for vertices, children, message in cases:
        with pytest.raises(ArborError) as err:
            Arbor(0, vertices, children)
        assert str(err.value) == message, (vertices, children)


def _reference(vertices, children, vid):
    """Canonical text and constraints of the sub-tree at vid, by plain
    recursion over children sorted by smallest own label."""
    kids = [_reference(vertices, children, c)
            for c in sorted(children[vid], key=lambda c: min(vertices[c]))]
    text = "{%s}" % ",".join(map(str, sorted(vertices[vid])))
    if kids:
        text += "(" + ",".join(kid_text for kid_text, _ in kids) + ")"
    support = frozenset(vertices[vid]).union(*(kid_cons[0].support for _, kid_cons in kids))
    return text, [Constraint(support, len(support))] + [c for _, cons in kids for c in cons]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32))
def test_walk_matches_a_recursive_reference(n, seed):
    # rebuilt with arbitrary vertex ids and shuffled stored child order
    rng = random.Random(seed)
    t = random_arbor(n, rng)
    ids = dict(zip(t.vertices, rng.sample([*range(-50, 50), *"abcdefghij"], len(t.vertices))))
    vertices = {ids[v]: labels for v, labels in t.vertices.items()}
    children = {ids[v]: rng.sample([ids[c] for c in kids], len(kids))
                for v, kids in t.children.items()}
    rebuilt = Arbor(ids[t.root], vertices, children)
    text, cons = _reference(vertices, children, ids[t.root])
    assert serialize_arbor(rebuilt) == serialize_arbor(t) == text
    assert constraints(rebuilt) == constraints(t) == cons


def test_random_corpus_deterministic():
    first = [serialize_arbor(t) for t in random_corpus(42)]
    second = [serialize_arbor(t) for t in random_corpus(42)]
    assert first == second
    assert len(first) == 24
    assert sorted({t.size for t in random_corpus(42)}) == [1, 2, 3, 4, 5, 6]
