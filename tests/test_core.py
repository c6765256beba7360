"""Domain types, crossing predicates, and the classical constructions."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cubeslicer import (
    Configuration,
    Edge,
    Vertex,
    config_from_json_dict,
    config_to_json_dict,
    construction,
    crossing_necessary,
    edge_crosses,
    edge_endpoints,
    iter_edges,
    make_hyperplane,
    total_edges,
    verify_slicing,
)
from cubeslicer.core import canonical_base, compressed_index, crossing_bits, side_bits, sign_pair_crossings, zero_tolerance
from cubeslicer.errors import (
    AllZeroCoefficients,
    DimensionMismatch,
    DimensionZero,
    MalformedInput,
    MixedScalarKinds,
    NonFiniteScalar,
    UnknownConstruction,
)
from helpers import random_rational_plane


def vertex(*signs):
    return Vertex.from_signs(signs)


class TestMakeHyperplane:
    def test_axis_plane_exact(self):
        h = make_hyperplane([1, 0], 0, "exact")
        assert h.coeffs == (Fraction(1), Fraction(0))
        assert h.threshold == 0
        assert h.kind == "exact"

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroCoefficients):
            make_hyperplane([0, 0], 1, "exact")
        with pytest.raises(AllZeroCoefficients):
            make_hyperplane([0.0, 0.0], 1.0, "float")

    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionZero):
            make_hyperplane([], 0, "exact")

    def test_345_norm_recorded(self):
        h = make_hyperplane([3, 4], 5, "float")
        assert h.coeffs == (3.0, 4.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteScalar):
            make_hyperplane([1.0, float("inf")], 0, "float")
        with pytest.raises(NonFiniteScalar):
            make_hyperplane([1.0], float("nan"), "float")

    def test_rational_strings(self):
        h = make_hyperplane(["1/3", "-2/7"], "5/2", "exact")
        assert h.coeffs == (Fraction(1, 3), Fraction(-2, 7))
        assert h.threshold == Fraction(5, 2)


class TestVerticesAndEdges:
    def test_endpoints_n2(self):
        u, w = edge_endpoints(Edge(vertex(-1, -1), 0))
        assert u.coords() == (-1, -1)
        assert w.coords() == (1, -1)

    def test_flip_is_involution(self):
        u, w = edge_endpoints(Edge(vertex(1, -1), 0))
        assert u.coords() == (1, -1)
        assert w.coords() == (-1, -1)
        for n in range(1, 5):
            for mask in range(1 << n):
                v = Vertex(n, mask)
                for k in range(n):
                    assert v.flip(k).flip(k) == v

    def test_endpoints_n3(self):
        u, w = edge_endpoints(Edge(vertex(1, 1, 1), 2))
        assert u.coords() == (1, 1, 1)
        assert w.coords() == (1, 1, -1)

    def test_axis_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            Edge(vertex(1, 1), 2)

    def test_iter_edges_count_and_canonical_form(self):
        for n in range(1, 6):
            edges = list(iter_edges(n))
            assert len(edges) == total_edges(n) == n * 2 ** (n - 1)
            assert len(set((e.base.signs, e.axis) for e in edges)) == len(edges)
            assert all(e.base.coord(e.axis) == -1 for e in edges)


class TestEdgeCrosses:
    def test_opposite_signs(self):
        h = make_hyperplane([1, 0], 0)
        assert edge_crosses(h, Edge(vertex(-1, -1), 0), "strict")

    def test_constant_projection(self):
        h = make_hyperplane([1, 0], 0)
        assert not edge_crosses(h, Edge(vertex(1, -1), 1), "strict")

    def test_endpoint_on_plane(self):
        # s = 0 at the base endpoint: strict misses, relaxed crosses
        h = make_hyperplane([1, 1], 0)
        e = Edge(vertex(-1, 1), 0)
        assert not edge_crosses(h, e, "strict")
        assert edge_crosses(h, e, "relaxed")

    def test_both_endpoints_on_plane(self):
        # plane x2 = 1 contains neither-crossing edges along axis 1 entirely
        h = make_hyperplane([0, 1], 1)
        e = Edge(vertex(-1, 1), 0)
        assert not edge_crosses(h, e, "strict")
        assert not edge_crosses(h, e, "relaxed")

    def test_dimension_mismatch(self):
        h = make_hyperplane([1, 0, 0], 0)
        with pytest.raises(DimensionMismatch):
            edge_crosses(h, Edge(vertex(-1, -1), 0))

    def test_float_zero_tolerance(self):
        h = make_hyperplane([1.0, 1.0], 0.0, "float")
        e = Edge(vertex(-1, 1), 0)
        assert not edge_crosses(h, e, "strict")
        assert edge_crosses(h, e, "relaxed")

    def test_strict_implies_relaxed_random(self):
        gen = np.random.default_rng(2301)
        for _ in range(200):
            n = int(gen.integers(2, 5))
            h = random_rational_plane(gen, n)
            for e in iter_edges(n):
                if edge_crosses(h, e, "strict"):
                    assert edge_crosses(h, e, "relaxed")

    def test_scaling_invariance_exact(self):
        gen = np.random.default_rng(777)
        for _ in range(60):
            n = int(gen.integers(2, 7))
            h = random_rational_plane(gen, n)
            lam = Fraction(int(gen.integers(1, 50)), int(gen.integers(1, 50)))
            scaled = make_hyperplane([lam * c for c in h.coeffs], lam * h.threshold, "exact")
            for e in iter_edges(n):
                for mode in ("strict", "relaxed"):
                    assert edge_crosses(h, e, mode) == edge_crosses(scaled, e, mode)


class TestSignPairKernel:
    def test_matches_scalar_rule_on_every_sign_pair(self):
        # the plane x_0 = t over the one-dimensional cube: sides -1 - t, 1 - t
        for t in (-2, -1, 0, 1, 2):
            for kind in ("exact", "float"):
                h = make_hyperplane([1], t, kind)
                su, sw = np.array([-1 - t]), np.array([1 - t])
                tol = None if kind == "exact" else zero_tolerance(h.coeffs, h.threshold)
                for mode in ("strict", "relaxed"):
                    flags = sign_pair_crossings(su, sw, tol, mode == "relaxed")
                    assert bool(flags[0]) == edge_crosses(h, Edge(vertex(-1), 0), mode)

    def test_keeps_input_shape(self):
        su = np.array([[1, -1, 0], [2, 0, 0]])
        sw = np.array([[-1, -2, 1], [3, 0, -1]])
        assert sign_pair_crossings(su, sw).tolist() == [[True, False, False], [False, False, False]]
        assert sign_pair_crossings(su, sw, None, True).tolist() == [[True, False, True], [False, False, True]]

    def test_tolerance_broadcasts_per_plane(self):
        # column l is plane l; a side value of 1e-3 is zero for plane 0 only
        su = np.array([[1e-3, 1e-3]])
        sw = np.array([[-1.0, -1.0]])
        tol = np.array([1e-2, 1e-4])
        assert sign_pair_crossings(su, sw, tol).tolist() == [[False, True]]
        assert sign_pair_crossings(su, sw, tol, True).tolist() == [[True, True]]

    def test_zero_tolerance_rule(self):
        assert zero_tolerance([0.5, -0.25], 0.0) == 7.5e-13
        assert zero_tolerance([3.0, -4.0], 2.0) == 7e-12
        assert zero_tolerance([1.0], -9.0) == 9e-12
        V = np.array([[0.5, -0.25], [3.0, -4.0], [1.0, 0.0]])
        t = np.array([0.0, 2.0, -9.0])
        stacked = zero_tolerance(V, t)
        assert stacked.tolist() == [zero_tolerance(r, s) for r, s in zip(V, t)]

    def test_zero_tolerance_scales_with_the_plane(self):
        for scale in (2.0**-40, 2.0**40):
            assert zero_tolerance([0.5 * scale, -0.25 * scale], 0.0) == 7.5e-13 * scale
            assert zero_tolerance([1.0 * scale], -9.0 * scale) == 9e-12 * scale
        # a product that underflows stops at the smallest subnormal, so an
        # exact zero side is still zero: (5e-324 >= tol) is False
        tiny = np.finfo(np.float64).smallest_subnormal
        assert zero_tolerance([tiny], 0.0) == tiny
        pos, nz = side_bits(np.array([-tiny, 0.0, tiny]), zero_tolerance([tiny], 0.0))
        assert nz.tolist() == [True, False, True]

    def test_canonical_base_enumerates_axis_clear_masks(self):
        for n in range(1, 7):
            comp = np.arange(1 << (n - 1))
            for k in range(n):
                bases = canonical_base(k, comp)
                expected = [mask for mask in range(1 << n) if not (mask >> k) & 1]
                assert bases.tolist() == expected
                assert [canonical_base(k, int(i)) for i in comp] == expected
        # compressed_index is the inverse: it drops bit k, which canonical_base reinserts as 0
        for n in range(1, 31):
            masks = np.random.default_rng(n).integers(0, 1 << n, size=64)
            for k in range(n):
                for x in (masks, int(masks[0]), int(masks[-1])):
                    assert np.array_equal(canonical_base(k, compressed_index(k, x)), x & ~(1 << k))
                    assert np.array_equal(compressed_index(k, canonical_base(k, x >> 1)), x >> 1)


def _side_value(h, u):
    return sum(c if (u.signs >> i) & 1 else -c for i, c in enumerate(h.coeffs)) - h.threshold


def _pack_words(bits):
    """1-D booleans -> little-endian 64-bit words, zero-padded to a whole word."""
    padded = np.zeros(-(-bits.size // 64) * 64, dtype=bool)
    padded[: bits.size] = bits
    return np.packbits(padded, bitorder="little").view("<u8")


class TestPackedRule:
    """side_bits + crossing_bits, on booleans and on packed words, against
    the scalar edge_crosses."""

    @staticmethod
    def _cases(kind):
        # the axis-1 edge of Q_2 at base (-1, -1) on the plane x_0 + c x_1 = t
        # has sides (-1 - c - t, -1 + c - t): every pair in {-2, 0, 2}^2
        cast = int if kind == "exact" else float
        cases = []
        for su, sw in itertools.product((-2, 0, 2), repeat=2):
            c, t = (sw - su) // 2, -(su + sw) // 2 - 1
            cases.append((make_hyperplane([cast(1), cast(c)], cast(t), kind), Edge(vertex(-1, -1), 1)))
        if kind == "float":
            # planes with l1 = 2^-40 / 1e-12 and |t| < l1, whose zero tolerance
            # 1e-12 * l1 is exactly 2^-40: with t = l1 - s a vertex has side s,
            # on the tolerance for s = 2^-40 and just inside it for s = 2^-40
            # less one ulp of l1 (the nearest side below it), with the other
            # sides of every edge of Q_2, in both orientations
            tol = 2.0**-40
            l1 = tol / 1e-12
            for s in (tol, tol - 2.0**-53):
                for a, c in ((l1, 0.0), (0.0, l1), (l1 / 2, l1 / 2), (l1 / 2, -l1 / 2)):
                    for sign in (1.0, -1.0):
                        h = make_hyperplane([sign * a, sign * c], sign * (l1 - s), "float")
                        assert zero_tolerance(h.coeffs, h.threshold) == tol
                        cases += [(h, e) for e in iter_edges(2)]
        return cases

    @pytest.mark.parametrize("kind", ["exact", "float"])
    def test_matches_edge_crosses_on_bools_and_packed_words(self, kind):
        cases = self._cases(kind)
        sides = [[_side_value(h, u) for u in edge_endpoints(e)] for h, e in cases]
        su, sw = (np.array(col, dtype=np.int64 if kind == "exact" else np.float64) for col in zip(*sides))
        tol = None if kind == "exact" else np.array([zero_tolerance(h.coeffs, h.threshold) for h, _ in cases])
        if kind == "float":
            magnitudes = set(np.abs(np.concatenate([su, sw])).tolist())
            assert {0.0, 2.0**-40, 2.0**-40 - 2.0**-53} <= magnitudes
        for mode in ("strict", "relaxed"):
            expected = [edge_crosses(h, e, mode) for h, e in cases]
            flags = crossing_bits(*side_bits(su, tol), *side_bits(sw, tol), mode == "relaxed")
            assert flags.tolist() == expected
            # the result over pw, as the verifier does
            classes = side_bits(su, tol) + side_bits(sw, tol)
            assert crossing_bits(*classes, mode == "relaxed", out=classes[2]) is classes[2]
            assert classes[2].tolist() == expected
            assert sign_pair_crossings(su, sw, tol, mode == "relaxed").tolist() == expected
            words = crossing_bits(
                *(_pack_words(x) for x in side_bits(su, tol)),
                *(_pack_words(x) for x in side_bits(sw, tol)),
                mode == "relaxed",
            )
            assert words.dtype == np.dtype("<u8")
            unpacked = np.unpackbits(words.view(np.uint8), bitorder="little")[: su.size]
            assert unpacked.astype(bool).tolist() == expected

    def test_side_bits_zero_rule(self):
        pos, nz = side_bits(np.array([-3, 0, 2]))
        assert (pos[nz].tolist(), nz.tolist()) == ([False, True], [True, False, True])
        tol = 1e-12
        inside = np.nextafter(tol, 0.0)
        pos, nz = side_bits(np.array([-tol, -inside, 0.0, inside, tol]), tol)
        assert nz.tolist() == [True, False, False, False, True]
        assert pos[nz].tolist() == [False, True]


class TestCrossingNecessary:
    def test_examples(self):
        h = make_hyperplane([1, 0], 0)
        assert crossing_necessary(h, Edge(vertex(-1, -1), 0))  # |-1| < 2
        assert not crossing_necessary(h, Edge(vertex(-1, -1), 1))  # 1 < 0 fails

    def test_crossing_implies_necessary_exhaustive(self):
        # necessity of |<v,u> - t| < 2|v_k| checked against the full edge sweep
        gen = np.random.default_rng(555)
        for n in (3, 4):
            for _ in range(100):
                h = random_rational_plane(gen, n)
                for e in iter_edges(n):
                    if edge_crosses(h, e, "strict"):
                        assert crossing_necessary(h, e)


class TestConstructions:
    def test_axis_3_complete(self):
        rep = verify_slicing(construction("axis", 3))
        assert rep.unsliced_count == 0

    def test_middle_layers_2_by_hand(self):
        c = construction("middle_layers", 2)
        assert sorted(h.threshold for h in c.planes) == [-1, 1]
        assert all(h.coeffs == (1, 1) for h in c.planes)
        # all 4 edges crossed, each by exactly one plane
        for e in iter_edges(2):
            hits = [edge_crosses(h, e, "strict") for h in c.planes]
            assert sum(hits) == 1

    def test_middle_layers_4_complete(self):
        rep = verify_slicing(construction("middle_layers", 4))
        assert rep.unsliced_count == 0
        assert rep.total_edges == 32

    def test_middle_layers_each_edge_crossed_once(self):
        for n in range(1, 7):
            c = construction("middle_layers", n)
            for e in iter_edges(n):
                assert sum(edge_crosses(h, e, "strict") for h in c.planes) == 1

    def test_axis_deletion_leaves_one_axis_unsliced(self):
        for n in range(2, 7):
            full = construction("axis", n)
            for i in range(n):
                planes = tuple(h for j, h in enumerate(full.planes) if j != i)
                rep = verify_slicing(Configuration(n, planes))
                assert rep.unsliced_count == 2 ** (n - 1)
                assert all(e.axis == i for e in rep.unsliced_sample)

    def test_float_kind_normalized(self):
        c = construction("middle_layers", 4, kind="float")
        for h in c.planes:
            assert abs(math.hypot(*h.coeffs) - 1.0) < 1e-12
        assert verify_slicing(c).unsliced_count == 0

    def test_unknown_name(self):
        with pytest.raises(UnknownConstruction):
            construction("diagonal", 3)


class TestConfigurationJson:
    def test_exact_round_trip(self):
        c = Configuration(
            2,
            (make_hyperplane([Fraction(1, 3), 2], Fraction(-5, 7)),),
            "relaxed",
        )
        d = config_to_json_dict(c)
        assert d["planes"][0]["coeffs"] == ["1/3", 2]
        assert d["planes"][0]["threshold"] == "-5/7"
        back = config_from_json_dict(d)
        assert back == c

    def test_float_round_trip(self):
        c = Configuration(2, (make_hyperplane([0.25, -1.5], 0.125, "float"),))
        back = config_from_json_dict(config_to_json_dict(c))
        assert back.planes[0].coeffs == (0.25, -1.5)
        assert back.kind == "float"

    def test_kind_inference(self):
        d = {"n": 2, "planes": [{"coeffs": [1, "1/2"], "threshold": 0}]}
        assert config_from_json_dict(d).kind == "exact"
        d = {"n": 2, "planes": [{"coeffs": [1, 0.5], "threshold": 0}]}
        assert config_from_json_dict(d).kind == "float"

    def test_mixed_kinds_rejected(self):
        with pytest.raises(MixedScalarKinds):
            Configuration(
                2,
                (make_hyperplane([1, 0], 0, "exact"), make_hyperplane([1.0, 0.0], 0.0, "float")),
            )

    @pytest.mark.parametrize("coeffs, threshold", [([True, 1], False), ([1, 1], True), ([1.0, False], 0.5)])
    def test_booleans_are_not_numbers(self, coeffs, threshold):
        # bool is an int subclass; JSON true and false must not read as 1 and 0
        with pytest.raises(MalformedInput):
            config_from_json_dict({"n": 2, "planes": [{"coeffs": coeffs, "threshold": threshold}]})

    @pytest.mark.parametrize(
        "planes",
        [
            [{"coeffs": "12", "threshold": 0}],
            [{"coeffs": {"1": 0, "1/2": 5}, "threshold": 0}],
            {"x": 1},
            "ab",
        ],
        ids=["string_coeffs", "object_coeffs", "object_planes", "string_planes"],
    )
    def test_planes_and_coeffs_are_json_arrays(self, planes):
        # a string or an object iterates as characters or keys: coeffs "12"
        # would read as the plane x_0 + 2*x_1 = 0
        with pytest.raises(MalformedInput, match="must be a JSON array"):
            config_from_json_dict({"n": 2, "planes": planes})

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 2, "planes": [5]},
            {"n": 2, "planes": [[1, 0]]},
            [{"n": 2}],
            "n",
            {"planes": []},
            {"n": 2, "planes": [{"coeffs": [1, 0]}]},
            {"n": 2, "planes": [{"threshold": 0}]},
        ],
        ids=["number_plane", "array_plane", "array_document", "string_document", "no_n", "no_threshold", "no_coeffs"],
    )
    def test_document_and_planes_are_json_objects(self, doc):
        # indexing a number, an array or a string, or a missing key, would
        # raise TypeError or KeyError
        with pytest.raises(MalformedInput, match="JSON object"):
            config_from_json_dict(doc)

    def test_plane_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            Configuration(3, (make_hyperplane([1, 0], 0),))

