import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebump.grid import DyadicCube, GridConfig, contains, leaf_slice, parse_cube, root_cube

from oracles import ancestor, children, enumerate_cubes, leaf_count, n_cubes


def test_cube_counts_match_closed_form():
    assert len(list(enumerate_cubes(GridConfig(1, 1)))) == 3
    assert len(list(enumerate_cubes(GridConfig(1, 4)))) == 31
    assert len(list(enumerate_cubes(GridConfig(2, 2)))) == 21
    for d, n in [(1, 6), (2, 3)]:
        g = GridConfig(d, n)
        assert n_cubes(g) == sum(2 ** (d * k) for k in range(n + 1))
        assert len(list(enumerate_cubes(g))) == n_cubes(g)


def test_enumerate_order_is_deterministic():
    g = GridConfig(1, 2)
    texts = [c.text for c in enumerate_cubes(g)]
    assert texts == ["0:0", "1:0", "1:1", "2:0", "2:1", "2:2", "2:3"]


def test_children_d1():
    g = GridConfig(1, 4)
    kids = children(root_cube(g), g)
    assert [c.text for c in kids] == ["1:0", "1:1"]
    assert sum(c.volume for c in kids) == root_cube(g).volume


def test_children_d2_quadrants():
    g = GridConfig(2, 2)
    kids = children(root_cube(g), g)
    assert len(kids) == 4
    assert all(c.volume == 0.25 for c in kids)
    assert sum(c.volume for c in kids) == 1.0


def test_children_of_leaf_raises():
    g = GridConfig(1, 4)
    with pytest.raises(ValueError, match="no children"):
        children(DyadicCube(4, (0,)), g)


def test_contains_examples():
    half = DyadicCube(1, (0,))
    assert contains(half, DyadicCube(2, (0,)))          # [0,1/2) vs [0,1/4)
    assert not contains(half, DyadicCube(2, (2,)))      # [0,1/2) vs [1/2,3/4)
    assert contains(half, half)                          # reflexive


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_contains_antisymmetry(k1, k2, data):
    a = DyadicCube(k1, (data.draw(st.integers(0, 2**k1 - 1)),))
    b = DyadicCube(k2, (data.draw(st.integers(0, 2**k2 - 1)),))
    assert (contains(a, b) and contains(b, a)) == (a == b)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2), st.data())
def test_children_partition_parent_exactly(d, data):
    n = data.draw(st.integers(1, 6 if d == 1 else 4))
    g = GridConfig(d, n)
    k = data.draw(st.integers(0, n - 1))
    idx = tuple(data.draw(st.integers(0, 2**k - 1)) for _ in range(d))
    q = DyadicCube(k, idx)
    kids = children(q, g)
    assert len(kids) == 2**d
    assert sum(c.volume for c in kids) == q.volume
    assert all(contains(q, c) and c != q for c in kids)


def test_cube_text_roundtrip():
    assert DyadicCube(3, (5,)).text == "3:5"
    assert parse_cube("3:5") == DyadicCube(3, (5,))
    assert DyadicCube(2, (1, 3)).text == "2:(1,3)"
    assert parse_cube("2:(1,3)") == DyadicCube(2, (1, 3))
    with pytest.raises(ValueError):
        parse_cube("nonsense")


def test_grid_validation():
    with pytest.raises(ValueError):
        GridConfig(3, 4)
    with pytest.raises(ValueError):
        GridConfig(1, 0)
    with pytest.raises(ValueError):
        GridConfig(1, 25)
    with pytest.raises(ValueError):
        GridConfig(2, 13)


def test_cube_index_validation():
    with pytest.raises(ValueError):
        DyadicCube(2, (4,))
    with pytest.raises(ValueError):
        DyadicCube(-1, (0,))


def test_leaf_slice_and_count():
    g = GridConfig(1, 4)
    arr = np.arange(16)
    q = DyadicCube(2, (1,))  # [1/4, 1/2)
    assert list(arr[leaf_slice(q, g)]) == [4, 5, 6, 7]
    assert leaf_count(q, g) == 4
    g2 = GridConfig(2, 2)
    arr2 = np.arange(16).reshape(4, 4)
    q2 = DyadicCube(1, (1, 0))
    assert arr2[leaf_slice(q2, g2)].tolist() == [[8, 9], [12, 13]]


def test_ancestor_chain():
    q = DyadicCube(4, (13,))
    assert ancestor(q, 4) == q
    assert ancestor(q, 0) == DyadicCube(0, (0,))
    assert q.parent() == DyadicCube(3, (6,))
    with pytest.raises(ValueError):
        root_cube(GridConfig(1, 2)).parent()
