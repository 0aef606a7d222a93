import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebump.grid import DyadicCube, GridConfig, coarsen, leaf_slice, parse_cube, pyramid, root_cube

from oracles import ancestor, children, contains, enumerate_cubes, leaf_count, n_cubes, parent, volume


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
    assert sum(volume(c) for c in kids) == volume(root_cube(g))


def test_children_d2_quadrants():
    g = GridConfig(2, 2)
    kids = children(root_cube(g), g)
    assert len(kids) == 4
    assert all(volume(c) == 0.25 for c in kids)
    assert sum(volume(c) for c in kids) == 1.0


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
    assert sum(volume(c) for c in kids) == volume(q)
    assert all(contains(q, c) and c != q for c in kids)


def test_cube_text_roundtrip():
    assert DyadicCube(3, (5,)).text == "3:5"
    assert parse_cube("3:5") == DyadicCube(3, (5,))
    assert DyadicCube(2, (1, 3)).text == "2:(1,3)"
    assert parse_cube("2:(1,3)") == DyadicCube(2, (1, 3))
    assert DyadicCube(3, (1, 0, 7)).text == "3:(1,0,7)"
    assert parse_cube(" 3:(1,0,7)\n") == DyadicCube(3, (1, 0, 7))
    with pytest.raises(ValueError):
        parse_cube("nonsense")


@pytest.mark.parametrize("text", ["3:(1,)", "3:()", "3:(1,2", "3:(1)", "3:1,2", "3:(1,,2)", "3:(1,2)x", ":1"])
def test_malformed_cube_text_raises(text):
    with pytest.raises(ValueError, match="cannot parse cube text"):
        parse_cube(text)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 5), st.data())
def test_cube_text_roundtrip_any_dimension(d, k, data):
    cube = DyadicCube(k, tuple(data.draw(st.integers(0, 2**k - 1)) for _ in range(d)))
    assert parse_cube(cube.text) == cube
    # d=1 keeps the bare "k:j" form, every other d the parenthesised one
    assert ("(" in cube.text) == (d > 1)


def test_grid_validation():
    g = GridConfig(3, 4)
    assert (g.n_leaves, g.leaf_shape()) == (2**12, (16, 16, 16))
    assert GridConfig(3, 8).leaf_level == 8 and GridConfig(24, 1).n_leaves == 2**24
    for d, n in [(0, 1), (-1, 1), (3, 9), (2, 13), (1, 0), (1, 25), (25, 1)]:
        with pytest.raises(ValueError):
            GridConfig(d, n)


def test_coarsen_d2_is_the_quadrant_sum():
    # the quadrant sum (x00 + x01) + (x10 + x11), bit for bit
    rng = np.random.default_rng(5)
    for n in (1, 3, 6):
        arr = rng.random((2**n, 2**n)) * 10.0 ** rng.integers(-8, 8, (2**n, 2**n))
        want = (arr[0::2, 0::2] + arr[0::2, 1::2]) + (arr[1::2, 0::2] + arr[1::2, 1::2])
        assert coarsen(arr, 2).tobytes() == want.tobytes()


def test_coarsen_sums_children_in_any_dimension():
    rng = np.random.default_rng(6)
    for d, n in [(1, 5), (2, 3), (3, 3), (4, 2)]:
        arr = rng.integers(0, 1000, (2**n,) * d).astype(float)
        levels = pyramid(arr, GridConfig(d, n))
        for k in range(n):
            # the 2^d children of level-k cube j are the 2j + offset cubes below it
            fine = levels[k + 1].reshape(sum(((2**k, 2),) * d, ()))
            assert np.array_equal(levels[k], fine.sum(axis=tuple(range(1, 2 * d, 2))))
        assert levels[0].shape == (1,) * d and levels[0].flat[0] == arr.sum()


def test_cube_index_validation():
    with pytest.raises(ValueError):
        DyadicCube(2, (4,))
    with pytest.raises(ValueError):
        DyadicCube(-1, (0,))
    with pytest.raises(ValueError, match="index must be non-empty"):
        DyadicCube(1, ())
    assert DyadicCube(1, (0, 1, 1)).dimension == 3


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
    assert parent(q) == DyadicCube(3, (6,))
    with pytest.raises(ValueError):
        parent(root_cube(GridConfig(1, 2)))
