"""Every solver output is a tree of pair-protocol nodes.

Each kind of output must be an exact bijection with a consistent inverse:
``backward`` undoes ``forward``, ``inverse(x)`` evaluates as ``x.backward``,
and ``inverse(inverse(x))`` is x (for an inverse view, the node it reads).
No output is a ``ProceduralAutomorphism``, which only adapts black boxes,
and each keeps the construction name the CLI reports.

A node over PL maps keeps a piece cache; its values must be those of the
plain pass, and every cached piece must be exact, whether tracked or derived
from a cached block its pull walk crosses.  A tree with a black box in
it never caches, so its oracle calls stay those of the plain pass.
"""

import random
import sys
import threading
from fractions import Fraction
from math import gcd

import pytest

import lineaut.automorphism as automorphism
from lineaut.conjugacy import OrbitTransport
from lineaut import (
    PLAutomorphism,
    ProceduralAutomorphism,
    Word,
    commutator_decomposition,
    compose,
    conjugate_on_component,
    conjugation,
    inverse,
    nth_root,
    power,
    solve_conjugacy,
    solve_word,
    solve_xgx,
    support_decompose,
    word_automorphism,
    wrap,
)
from lineaut.samples import default_samples, random_pl, random_with_sequence

COMMUTATOR = Word(((2, 1), (3, 1), (2, -1), (3, -1)))


def outputs(seq, seed):
    """(kind, x, description) for every kind of solver output, on a map g
    with color sequence seq and a conjugate f of it."""
    rng = random.Random(seed)
    g = random_with_sequence(rng, seq)
    f = conjugation(g, random_pl(rng))
    h = solve_conjugacy(g, f)
    variables = solve_word(COMMUTATOR, g)
    conjugator = f"conjugator({seq})"
    return g, [
        ("conjugator", h, conjugator),
        ("xgx", solve_xgx(g, f), "xgx-solution"),
        ("root", nth_root(g, 3), "composite"),
        ("commutator-y", commutator_decomposition(g)[1], conjugator),
        ("inverse", inverse(h), f"inverse({conjugator})"),
        ("inverse-inverse", inverse(inverse(h)), conjugator),
        ("power-procedural", power(ProceduralAutomorphism(g.forward, g.backward), -2),
         "power(-2)"),
        ("power-solution", power(h, 3), "power(3)"),
        ("inverse-power", inverse(power(h, 3)), "inverse(power(3))"),
        ("compose-wrapped", compose(wrap(g), h), "composite"),
        # last: a wrong inverse in a word can send the aligner's walk of the
        # word value on without end (it is stepped as a black box)
        ("word-variable-2", variables[2], "composite"),
        ("word-variable-3", variables[3], "composite"),
        ("word-value", word_automorphism(COMMUTATOR, variables), "word(4 letters)"),
    ]


@pytest.mark.parametrize("seq, seed", [("-+-", 1), ("+0-", 2), ("+-+", 3)])
def test_every_output_is_an_exact_node(seq, seed):
    g, cases = outputs(seq, seed)
    samples = default_samples(24, seed, (support_decompose(g),))
    for kind, x, description in cases:
        assert not isinstance(x, (ProceduralAutomorphism, PLAutomorphism)), kind
        assert x.description == description, kind
        # an inverse view is never kept on its node, so for the view kinds
        # it is the node they read that comes back
        node = x._inverse if isinstance(x, automorphism._Inverse) else x
        assert inverse(inverse(node)) is node, kind
        back, again = inverse(x), x._inverse._inverse
        for q in samples:
            y = x.forward(q)
            assert x.backward(y) == q, (kind, q)
            assert back.forward(q) == x.backward(q), (kind, q)
            assert back.backward(q) == y, (kind, q)
            assert again.forward(q) == y and again.backward(q) == x.backward(q), (kind, q)


# the kinds whose trees hold only library nodes over PL maps; the others hold
# a black box (a wrapped or procedural map, a power of a solution, a word
# variable) and never cache
TRACKED = {"conjugator", "xgx", "root", "commutator-y", "inverse", "inverse-inverse"}


def plain(x, q):
    n, d, _ = x._image(q.numerator, q.denominator)
    return Fraction(n, d)


def end(n, d):
    return Fraction(n, d) if d else None


def cached_pieces(x):
    """(node, lo, hi, slope, intercept) for every piece in x's cache, both
    ways: x's pieces and its inverse's; an unbounded end is None, and an
    exact special case is one point, lo = hi.  An inverse view reads its
    node's cache.  Checks the table on the way: its float keys are the lower
    ends', the entries are sorted with disjoint interiors both ways, and
    each entry's y-interval is the image of its x-interval under its line."""
    if isinstance(x, automorphism._Inverse):
        assert "_cache" not in vars(x)
        x = x._inverse
    cache = vars(x).get("_cache")
    xkeys, ykeys, entries = cache.table if cache else ([], [], [])
    assert len(xkeys) == len(ykeys) == len(entries)
    pieces = ([], [])
    for k, (ln, ld, hn, hd, yln, yld, yhn, yhd, an, ad, bn, bd) in enumerate(entries):
        assert (xkeys[k], ykeys[k]) == (automorphism._key(ln, ld), automorphism._key(yln, yld))
        lo, hi, ylo, yhi, a, b = end(ln, ld), end(hn, hd), end(yln, yld), end(yhn, yhd), \
            Fraction(an, ad), Fraction(bn, bd)
        assert (ylo, yhi) == tuple(None if e is None else a * e + b for e in (lo, hi))
        pieces[0].append((x, lo, hi, a, b))
        pieces[1].append((x._inverse, ylo, yhi, 1 / a, -b / a))
    for side, keys in zip(pieces, (xkeys, ykeys)):
        assert keys == sorted(keys)
        for (_, _, hi, _, _), (_, lo, _, _, _) in zip(side, side[1:]):
            assert hi is not None and lo is not None and hi <= lo
    yield from pieces[0] + pieces[1]


def inner_points(lo, hi):
    """Both finite ends of [lo, hi] and rationals inside it."""
    if lo is None and hi is None:
        return [Fraction(k, 3) for k in range(-9, 10)]
    if lo is None:
        return [hi - Fraction(k, 3) for k in range(7)]
    if hi is None:
        return [lo + Fraction(k, 3) for k in range(7)]
    return [lo + (hi - lo) * Fraction(k, 7) for k in range(8)]


@pytest.mark.parametrize("seq, seed", [("-+-", 1), ("+0-", 2), ("+-+", 3)])
def test_piece_cache_is_exact(monkeypatch, seq, seed):
    # the cache from the first evaluation on, and never dropped
    monkeypatch.setattr(automorphism, "_PLAIN_EVALUATIONS", 0)
    monkeypatch.setattr(automorphism, "_MISS_ALLOWANCE", 1 << 30)
    g, cases = outputs(seq, seed)
    samples = default_samples(61, seed, (support_decompose(g),))
    for kind, x, _ in cases:
        assert x._tracks == (kind in TRACKED), kind
        for q in samples:
            assert x.forward(q) == plain(x, q), (kind, q)
            assert x.backward(q) == plain(x._inverse, q), (kind, q)
        pieces = list(cached_pieces(x))
        assert bool(pieces) == (kind in TRACKED), kind
        for node, lo, hi, a, b in pieces:
            assert lo is None or hi is None or lo <= hi, kind
            for q in inner_points(lo, hi):
                assert a * q + b == plain(node, q), (kind, lo, hi, q)


def test_piece_cache_holds_at_most_its_cap(monkeypatch):
    monkeypatch.setattr(automorphism, "_PLAIN_EVALUATIONS", 0)
    monkeypatch.setattr(automorphism, "_MISS_ALLOWANCE", 1 << 30)
    monkeypatch.setattr(automorphism, "_MAX_PIECES", 5)
    rng = random.Random(4)
    g = random_with_sequence(rng, "-+-")
    x = solve_xgx(g, conjugation(g, random_pl(rng)))
    samples = default_samples(61, 4, (support_decompose(g),))
    for q in samples:
        # past the cap, misses are evaluated plainly
        assert x.forward(q) == plain(x, q)
        assert x.backward(q) == plain(x._inverse, q)
    assert [len(column) for column in x._cache.table] == [5, 5, 5]
    assert len(list(cached_pieces(x))) == 10


def test_inverse_view_shares_the_node_cache():
    # inverse(x) reads x backward through x's own ``_value``: forty
    # evaluations through the view count as x's, start x's cache and fill
    # it, and the view keeps no count or cache of its own
    rng = random.Random(1)
    g = random_with_sequence(rng, "-+-")
    x = solve_xgx(g, conjugation(g, random_pl(rng)))
    view = inverse(x)
    for q in default_samples(40, 1, (support_decompose(g),)):
        assert view.forward(q) == plain(view, q)
    cache = vars(x)["_cache"]
    assert cache.hits + cache.misses == 40 - automorphism._PLAIN_EVALUATIONS
    assert cache.table[2]
    assert "_cache" not in vars(view) and "_seen" not in vars(view)
    assert inverse(view) is x


def test_one_point_germ_is_cached_once():
    # a point whose germ is an exact special case is cached as a one-point
    # piece, so it misses once: 20 = 0 g^10 lands on the end of the anchor
    # block [0, 2) of g = t + 2, and the isolated fixed point of a "+-" map
    # is a dispatch's special case
    g, f = PLAutomorphism.translation(2), PLAutomorphism.translation(1)
    component = support_decompose(f)[0]
    block_end = conjugate_on_component(g, f, component, component, Fraction(0), Fraction(0))
    rng = random.Random(2)
    h = random_with_sequence(rng, "+-")
    fixed = solve_conjugacy(h, conjugation(h, random_pl(rng)))
    for x, q in ((block_end, Fraction(20)), (fixed, support_decompose(h)[0].hi)):
        y = plain(x, q)
        for _ in range(automorphism._PLAIN_EVALUATIONS):
            assert x.forward(q) == y
        for _ in range(40):
            assert x.forward(q) == y
        assert (x._cache.hits, x._cache.misses) == (39, 1)
        assert [(lo, hi) for _, lo, hi, _, _ in cached_pieces(x)] == [(q, q), (y, y)]


def test_black_box_trees_never_cache():
    # t -> t + 2 and t -> t + 1 as counted black boxes; 21 lies in block 10
    g, f = wrap(PLAutomorphism.translation(2)), wrap(PLAutomorphism.translation(1))
    component = support_decompose(PLAutomorphism.translation(1))[0]
    x = conjugate_on_component(g, f, component, component, Fraction(0), Fraction(0))
    q = Fraction(21)
    g.reset()
    f.reset()
    y = x.forward(q)
    assert x.backward(y) == q
    one = g.counts + f.counts  # one evaluation each way: 10 steps on each map each way
    assert one == (10, 10, 10, 10)
    times = 3 * automorphism._PLAIN_EVALUATIONS
    g.reset()
    f.reset()
    for _ in range(times):
        assert x.forward(q) == y
        assert x.backward(y) == q
    assert g.counts + f.counts == tuple(times * calls for calls in one)
    procedural = solve_xgx(PLAutomorphism.translation(1), PLAutomorphism.translation(3))
    procedural = compose(wrap(procedural), procedural)
    for node in (x, x._inverse, procedural, power(ProceduralAutomorphism(g.forward, g.backward), 2)):
        for _ in range(times):
            node.forward(q)
        assert node._cache is None


def test_piece_cache_shared_by_threads(monkeypatch):
    # eight threads evaluate a solution both ways, each an eighth of the
    # points, switching often, on twelve solutions: every value must be the
    # plain one, and the table must stay whole (``cached_pieces``): keys and
    # entries in step and sorted, each y-interval the image of its
    # x-interval, and no insert lost
    monkeypatch.setattr(automorphism, "_PLAIN_EVALUATIONS", 0)
    monkeypatch.setattr(automorphism, "_MISS_ALLOWANCE", 1 << 30)
    rng = random.Random(5)
    g = random_with_sequence(rng, "-+-+")
    samples = default_samples(257, 5, (support_decompose(g),))
    for _ in range(12):
        x = solve_xgx(g, conjugation(g, random_pl(rng)))
        want = [(plain(x, q), plain(x._inverse, q)) for q in samples]
        errors = []

        def work(share):
            try:
                for j in range(share, len(samples), 8):
                    assert (x.forward(samples[j]), x.backward(samples[j])) == want[j], j
            except Exception as exc:  # reported below, from the main thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert list(cached_pieces(x))
        # each point's piece was cached, an exact special case as one point,
        # so one more pass adds nothing
        pieces = len(x._cache.table[2])
        for q in samples:
            x.forward(q), x.backward(q)
        assert len(x._cache.table[2]) == pieces


def test_miss_budget_waits_for_its_lookups(monkeypatch):
    # nine points in nine pieces, found on a probe with no budget: the first
    # nine lookups of a fresh solution all miss, as a fresh cache must; the
    # cache survives them, and the same points then hit
    monkeypatch.setattr(automorphism, "_PLAIN_EVALUATIONS", 0)

    def solution():
        rng = random.Random(6)
        g = random_with_sequence(rng, "-+-")
        return g, solve_xgx(g, conjugation(g, random_pl(rng)))

    g, probe = solution()
    allowance = automorphism._MISS_ALLOWANCE
    monkeypatch.setattr(automorphism, "_MISS_ALLOWANCE", 1 << 30)
    points = []
    for q in default_samples(61, 6, (support_decompose(g),)):
        misses = probe._cache.misses if probe._cache else 0
        probe.forward(q)
        if probe._cache.misses > misses and len(points) <= allowance:
            points.append(q)
    assert len(points) == allowance + 1
    monkeypatch.setattr(automorphism, "_MISS_ALLOWANCE", allowance)
    _, x = solution()
    for q in points + points:
        assert x.forward(q) == plain(x, q)
    assert x._cache is not None
    assert (x._cache.hits, x._cache.misses) == (len(points), len(points))


# a PL map whose pieces end closer together than a float can tell, at
# 1 and 1 + 10^-30 (images 1 and 1 + 2 10^-30), and past the float range,
# at -+10^400; as a one-part composite it caches the PL map's own pieces
TINY, HUGE = Fraction(1, 10**30), Fraction(10**400)
CLOSE = PLAutomorphism(((-HUGE, -HUGE), (Fraction(1), Fraction(1)),
                        (1 + TINY, 1 + 2 * TINY), (HUGE, 3 * HUGE)), Fraction(2), Fraction(1, 3))
CLOSE_POINTS = [
    # each new piece's neighbours come after it: a point just past a cached
    # piece must not take its line, nor one just before it
    1 + TINY / 2, 1 + 2 * TINY, 1 - TINY / 2, Fraction(1), 1 + TINY, 1 + 3 * TINY / 2,
    1 + TINY / 3, -HUGE, -HUGE - 1, -HUGE + 1, HUGE, HUGE + 1, HUGE - 1, -HUGE * HUGE,
    HUGE * HUGE, Fraction(0), Fraction(5, 3), 1 - TINY, 1 + TINY - TINY / 10**9,
]


@pytest.mark.parametrize("back", [False, True])
def test_float_guided_lookup_is_exact(monkeypatch, back):
    monkeypatch.setattr(automorphism, "_PLAIN_EVALUATIONS", 0)
    monkeypatch.setattr(automorphism, "_MISS_ALLOWANCE", 1 << 30)
    x = automorphism._Composite((CLOSE,), "close")
    # the same points through the map fall on the ends of the image pieces
    ahead = (x.forward, CLOSE.forward, CLOSE_POINTS)
    behind = (x.backward, CLOSE.backward, [CLOSE.forward(q) for q in CLOSE_POINTS])
    (value, want, points), other = (behind, ahead) if back else (ahead, behind)
    for q in points:
        assert value(q) == want(q), q
    cache = x._cache
    assert cache.misses == 5 and len(cache.table[2]) == 5  # one miss per piece
    for q in points:  # every point again: all hits
        assert value(q) == want(q), q
    assert (cache.hits, cache.misses) == (2 * len(points) - 5, 5)
    value, want, points = other  # the other way, all hits on the same pieces
    for q in points:
        assert value(q) == want(q), q
    assert cache.misses == 5
    pieces = list(cached_pieces(x))
    assert [(lo, hi) for _, lo, hi, _, _ in pieces[:5]] == [
        (None, -HUGE), (-HUGE, 1), (1, 1 + TINY), (1 + TINY, HUGE), (HUGE, None)]


def test_lazy_inverses_first_touched_by_threads():
    # ``automorphism._lazy`` takes no lock: eight threads that first
    # evaluate a fresh solution backward at once may each build its lazy
    # ``_tracks`` flags (``_inverse`` is a fresh view, and PL walks run
    # backward on the forward table), and every value of ``backward`` must
    # still be the single-threaded one.  The maps are rebuilt each round;
    # the points lie up to a thousand orbit steps out on the slope-1 tails
    knots = ((Fraction(-2), Fraction(-1)), (Fraction(0), Fraction(3, 2)),
             (Fraction(3), Fraction(4)))
    h = random_pl(random.Random(9))
    g = PLAutomorphism(knots)
    points = [p + 1000 * s + Fraction(k, 7) for p in (Fraction(-2), Fraction(3))
              for s in (-1, 1) for k in range(3)]
    points += [power(g, i).forward(Fraction(1, 3)) for i in (-1000, -100, -10, 10, 100, 1000)]

    def solutions():
        g = PLAutomorphism(knots)
        f = conjugation(g, PLAutomorphism(h.knots, h.left_slope, h.right_slope))
        return [solve_conjugacy(g, f), solve_xgx(g, f), nth_root(g, 3)]

    want = [[x.backward(q) for q in points] for x in solutions()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(6):
            xs = solutions()
            barrier = threading.Barrier(8)
            got = [[[None] * len(points) for _ in xs] for _ in range(8)]
            errors = []

            def work(i):
                # each thread starts at its own point, so they meet in
                # different pieces
                try:
                    barrier.wait(timeout=60)
                    for x in xs:
                        x._inverse
                    for j in range(i, i + len(points)):
                        j %= len(points)
                        for row, x in zip(got[i], xs):
                            row[j] = x.backward(points[j])
                except Exception as exc:  # reported below, from the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert got == [want] * 8
    finally:
        sys.setswitchinterval(interval)


# the slope-1-tailed map of ``test_lazy_inverses_first_touched_by_threads``,
# and a "+-" map whose two tails have slope 1/2, with the isolated fixed
# point 2 between its components
TAILED = PLAutomorphism(((Fraction(-2), Fraction(-1)), (Fraction(0), Fraction(3, 2)),
                         (Fraction(3), Fraction(4))))
HALVING = PLAutomorphism(((Fraction(0), Fraction(1)), (Fraction(2), Fraction(2))),
                         Fraction(1, 2), Fraction(1, 2))


def covering(entries, q, back):
    """The entry whose x-interval, or y-interval if ``back``, holds q."""
    for entry in entries:
        ln, ld, hn, hd = entry[4:8] if back else entry[:4]
        if ln * q.denominator <= q.numerator * ld and q.numerator * hd <= hn * q.denominator:
            return entry
    return None


@pytest.mark.parametrize("g", [TAILED, HALVING], ids=["slope-1 tails", "slope-1/2 tails"])
@pytest.mark.parametrize("back", [False, True], ids=["forward", "backward"])
def test_misses_derive_from_the_orbit_neighbour(monkeypatch, g, back):
    # x(q) = t_out^k(x(t_in^-k(q))) on a transport's component: evaluated
    # block by block outward from the anchor, to orbit index +-50, each
    # solution derives new pieces from the blocks further inward (counted
    # in ``derived``).  Every value must be the plain one, every cached
    # piece exact, a derived entry's ends reduced, and no point of the
    # anchor block derived, though its orbit neighbours are cached
    monkeypatch.setattr(automorphism, "_PLAIN_EVALUATIONS", 0)
    monkeypatch.setattr(automorphism, "_MISS_ALLOWANCE", 1 << 30)
    add = automorphism._PieceCache.add

    def checked_add(cache, n, d, yn, yd, germ, back, derived=False):
        add(cache, n, d, yn, yd, germ, back, derived)
        if derived:
            entry = covering(cache.table[2], Fraction(yn, yd) if back else Fraction(n, d), False)
            assert all(gcd(u, v) == 1 for u, v in zip(entry[:8:2], entry[1:8:2])), entry

    monkeypatch.setattr(automorphism._PieceCache, "add", checked_add)
    f = conjugation(g, random_pl(random.Random(7)))
    for x in (solve_xgx(g, f), solve_conjugacy(g, f), nth_root(g, 3)):
        node = inverse(x) if back else x
        anchor_blocks = []
        for t in x.pieces:
            if not isinstance(t, OrbitTransport):
                continue
            step, anchor = (t.t_out, t.anchor_out) if back else (t.t_in, t.anchor_in)
            lo, hi = sorted((anchor, step.forward(anchor)))
            inward = [lo + (hi - lo) * Fraction(k, 4) for k in range(4)]
            outward = list(inward)
            anchor_blocks.append((step, inward))
            for i in range(51):
                for q in inward + outward:
                    assert node.forward(q) == plain(node, q), (i, q)
                inward = [step.backward(q) for q in inward]
                outward = [step.forward(q) for q in outward]
        cache = x._cache
        assert anchor_blocks and cache.derived, x.description
        for piece, lo, hi, a, b in cached_pieces(x):
            for q in inner_points(lo, hi)[::3]:
                assert a * q + b == plain(piece, q), (lo, hi, q)
        # every cached piece but those of the anchor blocks' points: each
        # such point misses again (or hits a piece another one cached just
        # before) and never derives, though its orbit neighbours are cached
        xkeys, ykeys, entries = cache.table
        for step, points in anchor_blocks:
            for q in points:
                assert covering(entries, step.forward(q), back) is not None
                assert covering(entries, step.backward(q), back) is not None
        anchored = [q for _, points in anchor_blocks for q in points]
        kept = [k for k, entry in enumerate(entries)
                if all(covering((entry,), q, back) is None for q in anchored)]
        cache.table = tuple([column[k] for k in kept] for column in cache.table)
        derived, misses = cache.derived, cache.misses
        for q in anchored:
            assert node.forward(q) == plain(node, q), q
            assert cache.derived == derived, q
        assert cache.misses > misses


@pytest.mark.parametrize("back", [False, True], ids=["forward", "backward"])
def test_misses_derive_across_blocks(monkeypatch, back):
    # the cache on from the first evaluation: a point in block 1 of a
    # transport's anchor orbit tracks its piece; its images 3 and 12 blocks
    # further out then derive theirs, as the pull walk looks up the blocks
    # it crosses; a point whose pull walk meets no cached block tracks.
    # Every value must be the plain one, and each evaluation one miss
    monkeypatch.setattr(automorphism, "_PLAIN_EVALUATIONS", 0)
    monkeypatch.setattr(automorphism, "_MISS_ALLOWANCE", 1 << 30)
    f = conjugation(TAILED, random_pl(random.Random(7)))
    for x in (solve_conjugacy(TAILED, f), solve_xgx(TAILED, f)):
        node = inverse(x) if back else x
        t = next(piece for piece in x.pieces if isinstance(piece, OrbitTransport))
        step, anchor = (t.t_out, t.anchor_out) if back else (t.t_in, t.anchor_in)
        q = step.forward((anchor + step.forward(anchor)) / 2)
        for k, derives in ((0, False), (3, True), (12, True), (-5, False)):
            p = power(step, k).forward(q)
            cache = x._cache or automorphism._PieceCache()
            derived, misses = cache.derived, cache.misses
            assert node.forward(p) == plain(node, p), (x.description, k)
            assert (x._cache.derived, x._cache.misses) == (derived + derives, misses + 1), k


def test_overlapping_derived_piece_is_clipped():
    # y = 2x on [-3, 3]: the tracked piece [-1, 1] of 0 is cached first, then
    # derived germs of 3/2 over [-5/2, 5/2] and of -3/2 over [-5/2, 3], both
    # overlapping it; each is clipped to the gap its neighbours leave, and
    # every point then hits, both ways
    x = automorphism._Composite((PLAutomorphism(((Fraction(-3), Fraction(-6)),
                                                 (Fraction(3), Fraction(6)))),), "double")
    x.__dict__.update(_seen=None, _cache=automorphism._PieceCache())
    for q, below, above in ((Fraction(0), 1, 1), (Fraction(3, 2), 4, 1),
                            (Fraction(-3, 2), 1, Fraction(9, 2))):
        germ = automorphism._Germ()
        germ.scale(2, 1)
        germ.below, germ.above = [(Fraction(r).numerator, Fraction(r).denominator)
                                  for r in (below, above)]
        x._cache.add(q.numerator, q.denominator, 2 * q.numerator, q.denominator, germ, False,
                     bool(q))
    pieces = list(cached_pieces(x))
    assert [(lo, hi) for _, lo, hi, _, _ in pieces[:3]] == [
        (Fraction(-5, 2), -1), (-1, 1), (1, Fraction(5, 2))]
    for node, lo, hi, a, b in pieces:
        for q in inner_points(lo, hi):
            assert a * q + b == plain(node, q)
    for q in (Fraction(0), Fraction(3, 2), Fraction(-3, 2)):
        assert x.forward(q) == 2 * q and x.backward(2 * q) == q
    assert (x._cache.hits, x._cache.misses) == (6, 0)
