import itertools
from fractions import Fraction

import pytest

from lineaut import (
    Color,
    PLAutomorphism,
    Terrain,
    TerrainElement,
    anchor_point,
    color_sequence,
    conjugation,
    enumerate_color_sequences,
    is_isomorphic,
    realize,
    support_decompose,
    validate_terrain,
)
from lineaut.rational import NEG_INF, POS_INF, is_finite
from lineaut.samples import random_with_sequence
from conftest import linear_locate, sample_pls

F = Fraction


def sign_oracle(g, q):
    """Independent displacement-sign probe: compares g(q) with q directly."""
    image = g.forward(q)
    return (image > q) - (image < q)


def assert_terrain_matches_oracle(g, terrain, grid):
    """Every grid point's displacement sign must match its element's color."""
    for q in grid:
        sign = sign_oracle(g, q)
        kind, k = terrain.locate(q)
        if kind == "boundary":
            assert sign == 0
            continue
        color = terrain[k].color
        expected = {Color.POS: 1, Color.NEG: -1, Color.FIXED: 0}[color]
        assert sign == expected, (q, color, sign)


def dense_grid(lo=-9, hi=9, den=8):
    return [F(n, den) for n in range(lo * den, hi * den + 1)]


class TestSupportDecompose:
    def test_identity(self):
        t = support_decompose(PLAutomorphism())
        assert t.color_sequence() == "0"
        assert t[0].lo is NEG_INF and t[0].hi is POS_INF

    def test_translation(self):
        t = support_decompose(PLAutomorphism.translation(1))
        assert t.color_sequence() == "+"
        t = support_decompose(PLAutomorphism.translation(-1))
        assert t.color_sequence() == "-"

    def test_single_bump(self):
        # identity off (0, 1), lifted above the diagonal inside
        g = PLAutomorphism(((F(0), F(0)), (F(1, 2), F(3, 4)), (F(1), F(1))), 1, 1)
        t = support_decompose(g)
        assert t.color_sequence() == "0+0"
        assert [(e.lo, e.hi) for e in t] == [(NEG_INF, F(0)), (F(0), F(1)), (F(1), POS_INF)]
        assert_terrain_matches_oracle(g, t, dense_grid())

    def test_isolated_fixed_point_not_an_element(self):
        # positive on (-inf, 0) and on (0, inf), fixing only 0
        g = PLAutomorphism(((F(-1), F(-1, 2)), (F(0), F(0)), (F(1), F(3, 2))), 1, 1)
        t = support_decompose(g)
        assert t.color_sequence() == "++"
        assert t.locate(F(0)) == ("boundary", 0)
        assert_terrain_matches_oracle(g, t, dense_grid())

    def test_oracle_on_random_maps(self, rng):
        grid = dense_grid(-8, 8, 6)
        for g in sample_pls(rng, 60):
            t = support_decompose(g)
            assert validate_terrain(t)
            assert_terrain_matches_oracle(g, t, grid)

    def test_component_midpoint_moves_correctly(self, rng):
        for g in sample_pls(rng, 40):
            for e in support_decompose(g):
                if not (is_finite(e.lo) and is_finite(e.hi)):
                    continue
                mid = (e.lo + e.hi) / 2
                if e.color is Color.POS:
                    assert g.forward(mid) > mid
                elif e.color is Color.NEG:
                    assert g.forward(mid) < mid
                else:
                    assert g.forward(mid) == mid


class TestColorSequenceAndIsomorphism:
    def test_sequences(self):
        assert color_sequence(support_decompose(PLAutomorphism())) == "0"
        assert color_sequence(support_decompose(PLAutomorphism.translation(-1))) == "-"

    def test_isomorphic_translations(self):
        t1 = support_decompose(PLAutomorphism.translation(1))
        t2 = support_decompose(PLAutomorphism.translation(2))
        assert is_isomorphic(t1, t2)

    def test_not_isomorphic(self):
        t1 = support_decompose(PLAutomorphism.translation(1))
        t2 = support_decompose(PLAutomorphism.translation(-1))
        assert not is_isomorphic(t1, t2)

    def test_conjugation_invariance(self, rng):
        for _ in range(40):
            g, h = sample_pls(rng, 2)
            conj = conjugation(g, h)
            assert (support_decompose(conj).color_sequence()
                    == support_decompose(g).color_sequence())


class TestValidate:
    def test_decomposed_terrains_valid(self, rng):
        for g in sample_pls(rng, 1000, max_knots=3):
            assert validate_terrain(support_decompose(g))

    def test_adjacent_fixed_invalid(self):
        t = Terrain((
            TerrainElement(Color.FIXED, NEG_INF, F(0)),
            TerrainElement(Color.FIXED, F(0), POS_INF),
        ))
        assert not validate_terrain(t)

    def test_gap_invalid(self):
        t = Terrain((
            TerrainElement(Color.FIXED, NEG_INF, F(0)),
            TerrainElement(Color.POS, F(1), POS_INF),
        ))
        assert not validate_terrain(t)

    def test_unbounded_ends_required(self):
        t = Terrain((TerrainElement(Color.POS, F(0), POS_INF),))
        assert not validate_terrain(t)


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_color_sequences(1)) == 3
        assert len(enumerate_color_sequences(2)) == 8
        assert len(enumerate_color_sequences(3)) == 22

    def test_brute_force_oracle_n4(self):
        brute = sorted(
            "".join(chars)
            for chars in itertools.product("+-0", repeat=4)
            if "00" not in "".join(chars)
        )
        assert enumerate_color_sequences(4) == brute
        assert len(brute) == 60

    def test_recurrence(self):
        counts = {n: len(enumerate_color_sequences(n)) for n in range(1, 9)}
        for n in range(3, 9):
            assert counts[n] == 2 * counts[n - 1] + 2 * counts[n - 2]

    def test_sorted_and_no_00(self):
        seqs = enumerate_color_sequences(5)
        assert seqs == sorted(seqs)
        assert all("00" not in s for s in seqs)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_color_sequences(0)


class TestRealize:
    def test_fixed(self):
        assert realize("0") == PLAutomorphism()

    def test_single_positive(self):
        g = realize("+")
        assert support_decompose(g).color_sequence() == "+"

    def test_three_element(self):
        g = realize("+0-")
        t = support_decompose(g)
        assert t.color_sequence() == "+0-"
        assert (t[0].lo, t[0].hi) == (NEG_INF, F(1))
        assert (t[1].lo, t[1].hi) == (F(1), F(2))
        assert (t[2].lo, t[2].hi) == (F(2), POS_INF)

    def test_roundtrip_all_up_to_4(self):
        for n in range(1, 5):
            for seq in enumerate_color_sequences(n):
                assert support_decompose(realize(seq)).color_sequence() == seq

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            realize("00")
        with pytest.raises(ValueError):
            realize("")
        with pytest.raises(ValueError):
            realize("+x")


class TestJsonAndLocate:
    def test_terrain_json_roundtrip(self, rng):
        for g in sample_pls(rng, 15):
            t = support_decompose(g)
            assert Terrain.from_json_dict(t.to_json_dict()) == t

    def test_element_json(self):
        e = TerrainElement(Color.POS, NEG_INF, F(3, 2))
        assert e.to_json_dict() == {"color": "+", "lo": "-inf", "hi": "3/2"}
        assert TerrainElement.from_json_dict(e.to_json_dict()) == e

    def test_locate_covers_line(self, rng):
        for g in sample_pls(rng, 20):
            t = support_decompose(g)
            for q in dense_grid(-6, 6, 4):
                kind, k = t.locate(q)
                if kind == "element":
                    assert t[k].contains(q)
                else:
                    assert t[k].hi == q


class TestLocateAgainstScan:
    """``Terrain.locate`` bisects over the boundaries; the linear scan in
    conftest is the reference."""

    @staticmethod
    def probes(terrain):
        """Every finite boundary and points 10^-30 either side of it, every
        anchor, and points far out on both infinite ends."""
        eps = F(1, 10 ** 30)
        out = [F(-10 ** 30), F(10 ** 30), F(-10 ** 6 - 1, 3), F(10 ** 6 + 1, 3)]
        for e in terrain:
            out.append(anchor_point(e))
            if is_finite(e.hi) and e.hi != terrain[-1].hi:
                out += [e.hi - eps, e.hi, e.hi + eps]
        return out

    def check(self, terrain):
        # the boundaries kept at construction are the element ends, as ints
        ends = [e.hi for e in terrain.elements[:-1]]
        assert terrain._boundaries == ([b.numerator for b in ends], [b.denominator for b in ends])
        kinds = set()
        for q in self.probes(terrain):
            located = terrain.locate(q)
            assert located == linear_locate(terrain, q), (terrain, q)
            kinds.add((located[0], terrain[located[1]].color))
        return kinds

    def test_realized_terrains(self):
        kinds = set()
        for n in range(1, 6):
            for seq in enumerate_color_sequences(n):
                kinds |= self.check(support_decompose(realize(seq)))
        # isolated fixed points between POS and NEG components in either order,
        # and closed ends of fixed intervals on both sides of them
        assert {("boundary", Color.POS), ("boundary", Color.NEG),
                ("element", Color.FIXED)} <= kinds

    def test_random_terrains(self, rng):
        maps = sample_pls(rng, 200)
        # isolated fixed points between components, in either order, off the integers
        maps += [random_with_sequence(rng, seq)
                 for seq in ("+-", "-+", "+-+", "-+-+-", "+0-+", "-+0+-") for _ in range(5)]
        kinds = set()
        for g in maps:
            kinds |= self.check(support_decompose(g))
        assert {("boundary", Color.POS), ("boundary", Color.NEG)} <= kinds

    def test_closed_ends_of_fixed_intervals(self):
        t = support_decompose(realize("+0-0+"))
        for k, e in enumerate(t):
            if e.color is Color.FIXED:
                assert t.locate(e.lo) == t.locate(e.hi) == ("element", k)

    def test_terrain_must_cover_the_line(self):
        cases = [
            # a finite outer end, on either side
            (TerrainElement(Color.POS, F(0), POS_INF),),
            (TerrainElement(Color.NEG, NEG_INF, F(0)), TerrainElement(Color.POS, F(0), F(2))),
            # a gap between elements, an overlap
            (TerrainElement(Color.NEG, NEG_INF, F(0)), TerrainElement(Color.POS, F(1), POS_INF)),
            (TerrainElement(Color.NEG, NEG_INF, F(1)), TerrainElement(Color.POS, F(0), POS_INF)),
            # no element at all
            (),
        ]
        for elements in cases:
            t = Terrain(elements)
            assert not t.is_valid()
            for q in (F(-3), F(0), F(1, 2), F(5)):
                with pytest.raises(ValueError, match="does not cover the line"):
                    t.locate(q)

