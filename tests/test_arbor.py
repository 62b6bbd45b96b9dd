"""Grammar, validation, constraints, and the seeded corpus."""

import random
import time

import pytest

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
    got = {(c.support, c.bound) for c in constraints(parse_arbor(FIGURE_ARBOR))}
    assert got == expected


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
    with pytest.raises(ArborError):
        Arbor(0, {0: {1}, 1: {2}}, {0: [], 1: []})  # vertex 1 unreachable
    with pytest.raises(ArborError):
        Arbor(0, {0: set()}, {0: []})
    with pytest.raises(ArborError):
        Arbor(0, {0: {1}, 1: {1}}, {0: [1], 1: []})


def test_random_corpus_deterministic():
    first = [serialize_arbor(t) for t in random_corpus(42)]
    second = [serialize_arbor(t) for t in random_corpus(42)]
    assert first == second
    assert len(first) == 24
    assert sorted({t.size for t in random_corpus(42)}) == [1, 2, 3, 4, 5, 6]
