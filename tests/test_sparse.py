import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebump.grid import DyadicCube, GridConfig, parse_cube, root_cube
from sparsebump.sparse import (
    SparseFamily,
    carleson_check,
    family_from_json,
    family_to_json,
    random_sparse,
    stopping_family,
)
from sparsebump.weights import Weight, generate_weight, mass

from oracles import carleson_oracle, fix_chain_cubes, fix_const, verify_sparse


G4 = GridConfig(1, 4)


def chain_family(depth: int = 4) -> SparseFamily:
    return SparseFamily(G4, frozenset(fix_chain_cubes(G4, depth)), 0.5)


class TestVerifySparse:
    def test_chain_is_half_sparse(self):
        res = verify_sparse(fix_chain_cubes(G4, 4), 0.5)
        assert res["ok"] and res["worst_ratio"] == 0.5

    def test_children_covering_parent_fails(self):
        cubes = [DyadicCube(0, (0,)), DyadicCube(1, (0,)), DyadicCube(1, (1,))]
        res = verify_sparse(cubes, 0.5)
        assert not res["ok"]
        assert res["worst_ratio"] == 1.0
        assert res["witness"] == DyadicCube(0, (0,))

    def test_singleton(self):
        res = verify_sparse([root_cube(G4)], 0.5)
        assert res["ok"] and res["worst_ratio"] == 0.0 and res["witness"] is None

    def test_family_constructor_rejects_non_sparse(self):
        cubes = frozenset([DyadicCube(0, (0,)), DyadicCube(1, (0,)), DyadicCube(1, (1,))])
        with pytest.raises(ValueError, match="not 0.5-sparse"):
            SparseFamily(G4, cubes, 0.5)

    def test_family_requires_unique_root(self):
        cubes = frozenset([DyadicCube(1, (0,)), DyadicCube(1, (1,))])
        with pytest.raises(ValueError, match="unique maximal cube"):
            SparseFamily(G4, cubes, 0.5)

    @pytest.mark.parametrize("lam,cubes,message", [
        (1.0, ["0:0"], "lambda must be in (0,1), got 1.0"),
        (0.0, ["0:0"], "lambda must be in (0,1), got 0.0"),
        (0.5, [], "family must be nonempty"),
        (0.5, ["0:0", "5:3"], "cube 5:3 below leaf level"),
    ], ids=("lambda-one", "lambda-zero", "no-cubes", "below-leaves"))
    def test_family_constructor_rejects_bad_input(self, lam, cubes, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SparseFamily(G4, frozenset(map(parse_cube, cubes)), lam)

    def test_members_of_any_iterable_are_sorted_and_unique(self):
        # a generator with a repeat and out of order gives the family of the set
        fam = SparseFamily(G4, (parse_cube(t) for t in ("2:0", "0:0", "1:0", "2:0")), 0.5)
        assert [q.text for q in fam.members] == ["0:0", "1:0", "2:0"]
        assert len(fam) == 3 and parse_cube("1:0") in fam and parse_cube("1:1") not in fam
        assert fam == chain_family(2) and hash(fam) == hash(chain_family(2))


class TestStoppingFamily:
    def test_constant_weight_selects_root_only(self):
        s, _ = fix_const()
        for big in (1.5, 2.0, 4.0):
            fam = stopping_family(s, big, root_cube(G4))
            assert set(fam.members) == frozenset([root_cube(G4)])

    def test_spike_recursion(self):
        g = GridConfig(1, 2)
        spike = Weight(g, np.array([4.0, 0, 0, 0]))
        fam = stopping_family(spike, 1.5, root_cube(g))
        assert {c.text for c in fam.members} == {"0:0", "1:0", "2:0"}
        assert fam.lam == pytest.approx(1 / 1.5)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1.5, 2.0, 4.0]))
    def test_output_is_sparse_by_construction(self, seed, big):
        g = GridConfig(1, 7)
        w = generate_weight(g, "random_cascade", seed=seed, volatility=0.8)
        fam = stopping_family(w, big, root_cube(g))
        assert verify_sparse(set(fam.members), 1.0 / big)["ok"]

    def test_degenerate_root_raises(self):
        g = GridConfig(1, 2)
        spike = Weight(g, np.array([4.0, 0, 0, 0]))
        with pytest.raises(ValueError, match="degenerate"):
            stopping_family(spike, 2.0, DyadicCube(1, (1,)))

    @pytest.mark.parametrize("big", [1.0, 0.5])
    def test_ratio_at_most_one_raises(self, big):
        s, _ = fix_const()
        with pytest.raises(ValueError, match=f"stopping ratio must exceed 1, got {big}"):
            stopping_family(s, big, root_cube(G4))


class TestRandomSparse:
    def test_target_one_gives_root(self):
        fam = random_sparse(G4, 0.5, seed=3, target_size=1)
        assert set(fam.members) == frozenset([root_cube(G4)])

    @pytest.mark.parametrize("lam,target,message", [
        (1.0, 5, "lambda must be in (0,1), got 1.0"),
        (-0.5, 5, "lambda must be in (0,1), got -0.5"),
        (0.5, 0, "target_size must be >= 1"),
    ])
    def test_bad_arguments_raise(self, lam, target, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            random_sparse(G4, lam, seed=3, target_size=target)

    def test_deterministic_under_seed(self):
        a = random_sparse(GridConfig(1, 8), 0.5, seed=7, target_size=40)
        b = random_sparse(GridConfig(1, 8), 0.5, seed=7, target_size=40)
        assert set(a.members) == set(b.members)

    def test_reference_run_is_valid(self):
        fam = random_sparse(GridConfig(1, 8), 0.5, seed=7, target_size=40)
        res = verify_sparse(set(fam.members), 0.5)
        assert res["ok"] and res["worst_ratio"] <= 0.5
        assert len(fam) == 40

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([0.25, 0.5, 0.75]))
    def test_always_sparse(self, seed, lam):
        fam = random_sparse(GridConfig(1, 6), lam, seed=seed, target_size=25)
        assert verify_sparse(set(fam.members), lam)["ok"]


def exceptional(fam) -> dict:
    """E_Q as flat leaf-index arrays, keyed by member: the leaves that Q owns."""
    flat = fam.owner.ravel()
    return {q: np.flatnonzero(flat == i) for i, q in enumerate(fam.members)}


def exceptional_volumes(fam) -> dict:
    """|E_Q| per member, from the leaf counts of the owner map."""
    counts = np.bincount(fam.owner.ravel() + 1, minlength=len(fam) + 1)[1:]
    return dict(zip(fam.members, counts * fam.grid.leaf_volume))


class TestExceptionalSets:
    def test_chain_geometry(self):
        fam = chain_family()
        exc = exceptional(fam)
        # E of [0, 2^-k) is [2^-k-1, 2^-k); the bottom cube keeps its leaves
        assert exc[DyadicCube(0, (0,))].tolist() == [8, 9, 10, 11, 12, 13, 14, 15]
        assert exc[DyadicCube(3, (0,))].tolist() == [1]
        assert exc[DyadicCube(4, (0,))].tolist() == [0]

    def test_singleton_owns_everything(self):
        fam = SparseFamily(G4, frozenset([root_cube(G4)]), 0.5)
        assert exceptional(fam)[root_cube(G4)].tolist() == list(range(16))

    def test_disjoint_and_large(self):
        for seed in range(5):
            fam = random_sparse(GridConfig(1, 7), 0.5, seed=seed, target_size=30)
            exc = exceptional(fam)
            seen = np.concatenate(list(exc.values()))
            assert len(seen) == len(set(seen.tolist()))  # pairwise disjoint
            volumes = exceptional_volumes(fam)
            for q in fam.members:
                assert volumes[q] >= (1 - fam.lam) * q.volume

    def test_total_volume_identity_when_chain_reaches_leaves(self):
        fam = chain_family(depth=4)  # bottom cube is a leaf
        total = sum(exceptional_volumes(fam).values())
        assert total == root_cube(G4).volume


class TestCarleson:
    def test_chain_with_constant_weight(self):
        s, _ = fix_const()
        # at the level-k member: lhs = 2^{1-k} - 2^-4 and rhs = 2^{1-k}; at
        # the root lhs = 2 - 2^-4 and rhs = 2
        ratios = carleson_check(chain_family(), s)
        assert ratios.tolist() == [1 - 2.0 ** (k - 5) for k in range(5)]
        assert ratios[0] == (2 - 2.0**-4) / 2.0
        assert ratios[0] < 1

    def test_singleton(self):
        s, _ = fix_const()
        fam = SparseFamily(G4, frozenset([root_cube(G4)]), 0.5)
        # lhs = sigma(root) and rhs = 2 sigma(root)
        m = mass(s, root_cube(G4))
        assert carleson_check(fam, s).tolist() == [m / (2 * m)] == [0.5]

    def test_zero_mass_member_raises_with_its_cube(self):
        density = np.ones(G4.leaf_shape())
        density[8:] = 0.0
        s = Weight(G4, density)
        fam = SparseFamily(G4, [root_cube(G4), DyadicCube(1, (1,)), DyadicCube(2, (3,))], 0.5)
        # the first zero-mass member is named, as the one-cube oracle names it
        with pytest.raises(ValueError, match=re.escape("degenerate weight on cube 1:1")):
            carleson_check(fam, s)
        for q0 in fam.members[1:]:
            with pytest.raises(ValueError, match=re.escape(f"degenerate weight on cube {q0.text}")):
                carleson_oracle(fam, s, q0)

    def test_randomized_never_violates(self):
        for i in range(40):
            g = GridConfig(1, 7)
            w = generate_weight(g, "random_cascade", seed=i, volatility=0.85)
            if i % 2:
                fam = stopping_family(w, 2.0, root_cube(g))
            else:
                fam = random_sparse(g, 0.5, seed=i, target_size=25)
            ratios = carleson_check(fam, w)
            assert len(ratios) == len(fam)
            assert (ratios <= 1.0).all()


def test_family_serialization_roundtrip():
    fam = random_sparse(GridConfig(1, 6), 0.5, seed=11, target_size=12)
    back = family_from_json(family_to_json(fam))
    assert set(back.members) == set(fam.members)
    assert back.lam == fam.lam
    assert back.root == fam.root


@pytest.mark.parametrize("root,cubes", [("1:0", ["0:0", "1:0"]), ("0:0", ["1:1", "2:3"])])
def test_declared_root_must_be_the_maximal_cube(root, cubes):
    record = {"dimension": 1, "leaf_level": 4, "lambda": 0.5, "root": root, "cubes": cubes}
    with pytest.raises(ValueError, match="declared root does not match the family's maximal cube"):
        family_from_json(json.dumps(record))


@pytest.mark.parametrize("d,cubes", [(1, ["0:0", "1:(0,0)"]), (2, ["0:(0,0)", "1:1"])])
def test_cube_of_another_dimension_rejected(d, cubes):
    record = {"dimension": d, "leaf_level": 4, "lambda": 0.5, "root": cubes[0], "cubes": cubes}
    with pytest.raises(ValueError, match=re.escape(f"cube {cubes[1]} is not of dimension {d}")):
        family_from_json(json.dumps(record))


class TestTwoDimensional:
    G = GridConfig(2, 5)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1.5, 2.0, 4.0]))
    def test_stopping_output_is_sparse(self, seed, big):
        w = generate_weight(self.G, "random_cascade", seed=seed, volatility=0.8)
        fam = stopping_family(w, big, root_cube(self.G))
        assert verify_sparse(set(fam.members), 1.0 / big)["ok"]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([0.25, 0.5, 0.75]))
    def test_random_always_sparse(self, seed, lam):
        fam = random_sparse(self.G, lam, seed=seed, target_size=25)
        assert verify_sparse(set(fam.members), lam)["ok"]

    def test_exceptional_sets_disjoint_and_large(self):
        for seed in range(4):
            fam = random_sparse(self.G, 0.5, seed=seed, target_size=30)
            seen = np.concatenate(list(exceptional(fam).values()))
            assert sorted(seen.tolist()) == list(range(self.G.n_leaves))
            volumes = exceptional_volumes(fam)
            for q in fam.members:
                assert volumes[q] >= (1 - fam.lam) * q.volume

    def test_carleson_never_violates(self):
        for i in range(10):
            w = generate_weight(self.G, "random_cascade", seed=i, volatility=0.85)
            if i % 2:
                fam = stopping_family(w, 2.0, root_cube(self.G))
            else:
                fam = random_sparse(self.G, 0.5, seed=i, target_size=25)
            ratios = carleson_check(fam, w)
            assert len(ratios) == len(fam)
            assert (ratios <= 1.0).all()

    def test_serialization_roundtrip(self):
        fam = random_sparse(self.G, 0.5, seed=4, target_size=12)
        back = family_from_json(family_to_json(fam))
        assert set(back.members) == set(fam.members) and back.root == fam.root
