"""Element, flat, and chamber counts of every construction against
closed forms, plus malformed-spec and guard behaviour."""

import pytest

from bandwalk import constructions, core, descent, matroid
from bandwalk.errors import MalformedInputError, SizeGuardError


def _shape(sg):
    st = core.derive_support(sg)
    return sg.size, st.n_flats, len(st.chambers)


def test_free_band_counts():
    # sum over k of n!/(n-k)! elements, 2^n flats, n! chambers
    want = {1: (2, 2, 1), 2: (5, 4, 2), 3: (16, 8, 6), 4: (65, 16, 24)}
    for n, shape in want.items():
        assert _shape(constructions.free_lrb(n)) == shape


def test_deletion_quotient_counts():
    # words of support size n-1 merge into chambers, so the lattice
    # loses its coatom row
    want = {2: (3, 2, 2), 3: (10, 5, 6), 4: (41, 12, 24)}
    for n, shape in want.items():
        assert _shape(constructions.free_lrb_bar(n)) == shape


def test_ordered_partition_counts():
    # Fubini numbers over the partition lattice, n! chambers
    want = {2: (3, 2, 2), 3: (13, 5, 6), 4: (75, 15, 24)}
    for n, shape in want.items():
        assert _shape(constructions.ordered_partitions(n)) == shape


def test_q_analogue_counts():
    # chambers are ordered bases of GF(q)^n; flats are subspaces
    assert _shape(constructions.q_free_lrb(2, 2)) == (10, 5, 6)
    assert _shape(constructions.q_free_lrb(2, 3)) == (57, 6, 48)
    assert _shape(constructions.q_free_lrb(3, 2)) == (218, 16, 168)


def test_reduced_q_analogue_counts():
    # chambers become complete flags, [n]_q! of them, and the
    # codimension-one subspaces leave the lattice; for n = 2 the lines
    # themselves are codimension one, so only bottom and top remain
    assert _shape(constructions.q_free_lrb(2, 2, reduced=True)) == (4, 2, 3)
    assert _shape(constructions.q_free_lrb(3, 2, reduced=True)) == (29, 9, 21)


def test_uniform_matroid_band_counts():
    u24 = matroid.Matroid.uniform(2, 4)
    assert _shape(constructions.matroid_lrb(u24, "ordered-bases")) \
        == (17, 6, 12)
    assert _shape(constructions.matroid_lrb(u24, "flag-chains")) \
        == (5, 2, 4)


def test_graphic_matroid_band_counts():
    k4 = matroid.Matroid.from_graph(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    # 16 spanning trees times 3! orderings; flats lattice has 15 flats
    assert _shape(constructions.matroid_lrb(k4, "ordered-bases")) \
        == (133, 15, 96)
    # maximal flag chains: 4 triangles * 3 + 3 disjoint pairs * 2
    assert _shape(constructions.matroid_lrb(k4, "flag-chains")) \
        == (25, 8, 18)


def test_distributive_chain_band_counts():
    lat = constructions.DistributiveLattice.grid(2, 2)
    sg = constructions.distributive_chain_lrb(lat)
    assert _shape(sg) == (26, 14, 6)
    assert len(sg.generators) == 7


def test_every_construction_satisfies_the_axioms():
    bands = [
        constructions.free_lrb(3),
        constructions.free_lrb_bar(3),
        constructions.ordered_partitions(3),
        constructions.q_free_lrb(2, 2),
        constructions.q_free_lrb(2, 2, reduced=True),
        constructions.matroid_lrb(matroid.Matroid.uniform(2, 3),
                                  "ordered-bases"),
        constructions.distributive_chain_lrb(
            constructions.DistributiveLattice.grid(1, 2)),
    ]
    for sg in bands:
        rep = core.verify_lrb(sg)
        assert rep.ok, f"{sg.label}: {rep.message}"


def test_declared_expected_lattices_match_derivation():
    for sg in (constructions.free_lrb(4),
               constructions.free_lrb_bar(4),
               constructions.ordered_partitions(4),
               constructions.q_free_lrb(2, 3)):
        st = core.derive_support(sg)
        assert core.check_expected_lattice(st) is not None


def test_grid_lattice_shape():
    lat = constructions.DistributiveLattice.grid(2, 2)
    assert lat.n == 9
    lat2 = constructions.DistributiveLattice.boolean(3)
    assert lat2.n == 8


def test_non_distributive_covers_are_rejected():
    with pytest.raises(MalformedInputError):
        constructions.DistributiveLattice.from_covers(
            ["b", "x", "y", "z", "t"],
            [["b", "x"], ["b", "y"], ["b", "z"],
             ["x", "t"], ["y", "t"], ["z", "t"]])


def test_spec_dispatch_round_trip():
    sg = constructions.construction_from_spec(
        {"type": "q_free_bar", "n": 2, "q": 2})
    assert sg.family == "q_free_lrb_bar"
    sg = constructions.construction_from_spec(
        {"type": "dist_chain", "grid": [1, 1]})
    assert _shape(sg)[2] == 2


def test_spec_dispatch_rejects_garbage():
    with pytest.raises(MalformedInputError):
        constructions.construction_from_spec({"type": "nope"})
    with pytest.raises(MalformedInputError):
        constructions.construction_from_spec({"type": "free_lrb"})
    with pytest.raises(MalformedInputError):
        constructions.construction_from_spec(["free_lrb", 3])


def test_size_guards_fire():
    with pytest.raises(SizeGuardError):
        constructions.free_lrb(9)
    with pytest.raises(SizeGuardError):
        constructions.ordered_partitions(8)


@pytest.mark.parametrize("build", [
    constructions.free_lrb, constructions.free_lrb_bar,
    constructions.ordered_partitions, descent.coxeter_complex,
    descent.top_to_random_idempotents])
@pytest.mark.parametrize("n", [0, -1])
def test_nonpositive_n_is_malformed_not_oversized(build, n):
    with pytest.raises(MalformedInputError):
        build(n)


def test_matroid_interface():
    u24 = matroid.Matroid.uniform(2, 4)
    assert u24.full_rank == 2
    assert u24.rank(frozenset()) == 0
    assert u24.rank(frozenset({0, 1, 2})) == 2
    assert u24.closure(frozenset({0})) == frozenset({0})
    assert u24.closure(frozenset({0, 1})) == frozenset({0, 1, 2, 3})
    assert len(u24.flats()) == 6

    k4 = matroid.Matroid.from_graph(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert k4.full_rank == 3
    assert len(k4.flats()) == 15

    fano = matroid.build_matroid({
        "kind": "vectors", "q": 2,
        "columns": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0],
                    [1, 0, 1], [0, 1, 1], [1, 1, 1]]})
    assert fano.full_rank == 3
    # Fano plane: 7 points, 7 lines, bottom and top
    assert len(fano.flats()) == 16


def test_matroid_spec_rejects_garbage():
    with pytest.raises(MalformedInputError):
        matroid.build_matroid({"kind": "mystery"})
    with pytest.raises(MalformedInputError):
        matroid.build_matroid({"kind": "uniform", "k": 2})
    with pytest.raises(MalformedInputError):
        constructions.matroid_lrb(matroid.Matroid.uniform(2, 3), "sideways")
