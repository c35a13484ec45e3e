"""The four workloads, their operations and the checks on every output.

A workload is an endless sequence of rounds; round r is generated from
``(workload, seed, r)`` alone, and the run executes whole rounds.  An
operation is one instance solved (or decided, or constructed) and checked
at its full sample set; it returns how many solution evaluations it timed
and how long they took.  Checks go through the reference evaluator
(:mod:`reference`) or test a property the method must have; none compares
with stored output.  A wrong output raises :class:`CheckError`.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stdout
from fractions import Fraction
from time import perf_counter

from lineaut import (
    NEG_INF,
    POS_INF,
    PLAutomorphism,
    Word,
    anchor_point,
    build_cache,
    commutator_decomposition,
    compose,
    conjugate_on_component,
    enumerate_color_sequences,
    equals_pl,
    inverse,
    join,
    measure_locate,
    meet,
    nth_root,
    power,
    realize,
    reflect,
    solve_conjugacy,
    solve_word,
    solve_xgx,
    support_decompose,
    wrap,
)
from lineaut.cli import main as cli_main
from lineaut.samples import default_samples

import corpus as C
from reference import RefPL, colors, element_of, ref_compose, ref_terrain


class CheckError(AssertionError):
    """An output of lineaut disagrees with the reference or a required property."""


def check(cond, what):
    if not cond:
        raise CheckError(what)


class Map:
    """An input map: the reference data and the PLAutomorphism built from it.

    Both lazy evaluation tables are filled here, outside any timed region.
    """

    __slots__ = ("ref", "pl")

    def __init__(self, ref: RefPL):
        self.ref = ref
        self.pl = PLAutomorphism(ref.knots, ref.left_slope, ref.right_slope)
        self.pl.forward(Fraction(0))
        self.pl.backward(Fraction(0))

    def to_json(self) -> dict:
        return {"knots": [{"x": str(x), "y": str(y)} for x, y in self.ref.knots],
                "left_slope": str(self.ref.left_slope),
                "right_slope": str(self.ref.right_slope)}


# ---------------------------------------------------------------- helpers

def strictly_increasing(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def rows(terrain) -> tuple:
    return tuple((e.color.value, None if e.lo == NEG_INF else e.lo,
                  None if e.hi == POS_INF else e.hi) for e in terrain)


def decompose(tr, m: Map):
    with tr.span("terrain.decompose"):
        t = support_decompose(m.pl)
    check(rows(t) == ref_terrain(m.ref), "support_decompose differs from the reference terrain")
    return t


def samples(tr, count, seed, terrains):
    with tr.span("samples.default_samples"):
        pts = default_samples(count, seed, tuple(terrains))
    check(len(pts) == count and strictly_increasing(pts), "sample set size or order")
    return pts


def timed(tr, layer, fn, points):
    """Bulk evaluation; the time counts toward eval_points_per_s."""
    start = perf_counter()
    out = [fn(q) for q in points]
    end = perf_counter()
    tr.record(layer, start, end, len(points))
    return out, end - start


def check_inputs(tr, maps, pts):
    """lineaut's own evaluation of the input maps against the reference."""
    for m in maps:
        start = perf_counter()
        got = [m.pl.forward(q) for q in pts]
        tr.record("automorphism.forward", start, perf_counter(), len(pts))
        check(got == [m.ref.forward(q) for q in pts], "PLAutomorphism.forward differs")


def size_of(p: PLAutomorphism):
    """(knot count, largest numerator or denominator bit length)."""
    values = [v for knot in p.knots for v in knot] + [p.left_slope, p.right_slope]
    return len(p.knots), max(max(v.numerator.bit_length(), v.denominator.bit_length())
                             for v in values)


class Cli:
    """Runs ``lineaut.cli.main`` in-process on JSON files in a work directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def file(self, payload) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"in{self.count % 8}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path

    def run(self, tr, argv):
        buf = io.StringIO()
        try:
            with tr.span(f"cli.{argv[0]}"), redirect_stdout(buf):
                code = cli_main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            raise RuntimeError(f"lineaut {' '.join(argv)}: exit {exc.code}") from exc
        text = buf.getvalue()
        return code, (json.loads(text) if text else None)


def graph(payload):
    pts = [(Fraction(p["x"]), Fraction(p["y"])) for p in payload]
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    check(strictly_increasing(xs) and strictly_increasing(ys), "CLI graph is not increasing")
    return xs, ys


def verified_block(out, count):
    check(out["verification"] == {"samples": count, "verified": True},
          "CLI verification block")


# ---------------------------------------------------------- conjugacy ops

def conjugate_check(tr, h, g: Map, f: Map, pts):
    """h.forward(g(h.backward(q))) == f(q) on pts, g and f by reference."""
    back, t1 = timed(tr, "conjugacy.eval", h.backward, pts)
    check(strictly_increasing(back), "conjugator backward is not increasing")
    out, t2 = timed(tr, "conjugacy.eval", h.forward, [g.ref.forward(v) for v in back])
    check(out == [f.ref.forward(q) for q in pts], "h^-1 g h != f")
    return 2 * len(pts), t1 + t2


def op_conjugacy(g: Map, f: Map, count: int, sseed: int):
    def run(tr, cli):
        with tr.span("conjugacy.solve"):
            h = solve_conjugacy(g.pl, f.pl)
        terrains = (decompose(tr, g), decompose(tr, f))
        if terrains[0].color_sequence() != terrains[1].color_sequence():
            check(h is None, "conjugator returned for different color sequences")
            return 0, 0.0
        check(h is not None, "no conjugator for equal color sequences")
        pts = samples(tr, count, sseed, terrains)
        check_inputs(tr, (g, f), pts)
        return conjugate_check(tr, h, g, f, pts)
    return run


def op_cli_conjugate(g: Map, f: Map, mode: str):
    def run(tr, cli):
        argv = ["conjugate", cli.file(g.to_json()), cli.file(f.to_json()),
                "--mode", mode]
        code, out = cli.run(tr, argv)
        seqs = {"g": colors(ref_terrain(g.ref)), "f": colors(ref_terrain(f.ref))}
        if seqs["g"] != seqs["f"]:
            check(code == 1 and out == {"conjugate": False, "color_sequences": seqs},
                  "CLI conjugate on a non-conjugate pair")
            return 0, 0.0
        check(code == 0 and out["conjugate"] is True, "CLI conjugate exit")
        verified_block(out, 257)
        xs, ys = graph(out["solution_graph"])
        h = solve_conjugacy(g.pl, f.pl)
        check([h.forward(x) for x in xs] == ys, "CLI graph differs from solve_conjugacy")
        return conjugate_check(tr, h, g, f, xs)
    return run


def op_cli_terrain(m: Map):
    def run(tr, cli):
        code, out = cli.run(tr, ["terrain", cli.file(m.to_json())])
        ref = ref_terrain(m.ref)
        check(code == 0 and out["color_sequence"] == colors(ref), "CLI terrain colors")
        got = tuple((e["color"], None if e["lo"] == "-inf" else Fraction(e["lo"]),
                     None if e["hi"] == "inf" else Fraction(e["hi"]))
                    for e in out["terrain"]["elements"])
        check(got == ref, "CLI terrain elements")
        return 0, 0.0
    return run


def op_cli_eval(m: Map, q: Fraction):
    def run(tr, cli):
        path = cli.file(m.to_json())
        # "--" keeps a negative point such as -3/2 from parsing as an option
        code, out = cli.run(tr, ["eval", path, "--", str(q)])
        check(code == 0 and Fraction(out["y"]) == m.ref.forward(q), "CLI eval")
        code, out = cli.run(tr, ["eval", "--inverse", path, "--", str(q)])
        check(code == 0 and Fraction(out["y"]) == m.ref.backward(q), "CLI eval --inverse")
        return 0, 0.0
    return run


EQUAL_SEQS = ("+", "-", "0+0", "+-", "-0+", "+0-+", "0-0+0")


def conjugacy_round(seed, r):
    rng = C.round_rng("conjugacy", seed, r)
    sseed = lambda: rng.randrange(1 << 30)  # noqa: E731
    built = [tuple(map(Map, C.conjugate_pair(rng, kg, kh)))
             for kg, kh in ((1, 3), (2, 1), (3, 4), (4, 2), (2, 4), (3, 2), (4, 1),
                            (1, 4), (2, 3), (3, 1), (4, 3), (2, 2), (3, 3), (1, 2))]
    ops = [("conjugate", op_conjugacy(g, f, 257, sseed())) for g, f in built]
    for kg, kf in ((0, 2), (1, 3), (2, 4), (3, 0), (4, 1), (2, 3)):
        g, f = Map(C.rand_map(rng, kg)), Map(C.rand_map(rng, kf))
        ops.append(("decide", op_conjugacy(g, f, 64, sseed())))
    seq = EQUAL_SEQS[r % len(EQUAL_SEQS)]
    g, f = Map(C.with_sequence(rng, seq)), Map(C.with_sequence(rng, seq))
    ops.append(("conjugate_independent", op_conjugacy(g, f, 257, sseed())))
    other = EQUAL_SEQS[(r + 3) % len(EQUAL_SEQS)]
    apart = Map(C.with_sequence(rng, other)), Map(C.with_sequence(rng, seq))
    ops += [
        ("cli.conjugate", op_cli_conjugate(*built[0], "linear")),
        ("cli.conjugate", op_cli_conjugate(*built[1], "fast-forward")),
        ("cli.conjugate", op_cli_conjugate(*apart, "linear")),
        ("cli.terrain", op_cli_terrain(built[2][0])),
        ("cli.eval", op_cli_eval(built[3][1], C.rand_frac(rng, 8, 16))),
    ]
    return ops


# ---------------------------------------------------------- equation ops

def xgx_check(tr, x, g: Map, f: Map, pts):
    """x(g(x(q))) == f(q), plus the inverse round trip on every 8th point."""
    first, t1 = timed(tr, "equations.xgx_eval", x.forward, pts)
    check(strictly_increasing(first), "x g x = f solution is not increasing")
    out, t2 = timed(tr, "equations.xgx_eval", x.forward, [g.ref.forward(v) for v in first])
    check(out == [f.ref.forward(q) for q in pts], "x g x != f")
    back, t3 = timed(tr, "equations.xgx_eval", x.backward, first[::8])
    check(back == pts[::8], "x g x = f solution: backward(forward(q)) != q")
    return 2 * len(pts) + len(back), t1 + t2 + t3


def xgx_terrains(tr, g: Map, f: Map):
    with tr.span("automorphism.compose"):
        fg_pl = compose(f.pl, g.pl)
    fg_ref = ref_compose(f.ref, g.ref)
    with tr.span("terrain.decompose"):
        fg_t = support_decompose(fg_pl)
    check(rows(fg_t) == ref_terrain(fg_ref), "terrain of fg differs from the reference")
    return (decompose(tr, f), decompose(tr, g), fg_t)


def op_xgx(g: Map, f: Map, sseed: int):
    def run(tr, cli):
        with tr.span("equations.xgx_solve"):
            x = solve_xgx(g.pl, f.pl)
        pts = samples(tr, 257, sseed, xgx_terrains(tr, g, f))
        check_inputs(tr, (g, f), pts)
        return xgx_check(tr, x, g, f, pts)
    return run


def commutator_check(tr, x, y, g: Map, pts):
    """x^-1 y^-1 x y == g, left to right."""
    start = perf_counter()
    out = [y.forward(x.forward(y.backward(x.backward(q)))) for q in pts]
    end = perf_counter()
    tr.record("equations.commutator_eval", start, end, 4 * len(pts))
    check(out == [g.ref.forward(q) for q in pts], "x^-1 y^-1 x y != g")
    return 4 * len(pts), end - start


def op_commutator(g: Map, sseed: int):
    def run(tr, cli):
        with tr.span("equations.commutator_solve"):
            x, y = commutator_decomposition(g.pl)
        pts = samples(tr, 61, sseed, (decompose(tr, g),))
        check_inputs(tr, (g,), pts)
        return commutator_check(tr, x, y, g, pts)
    return run


def root_check(tr, x, n, g: Map, pts):
    """x^n == g, and x increasing."""
    vals, spent = list(pts), 0.0
    for k in range(n):
        vals, dt = timed(tr, "equations.root_eval", x.forward, vals)
        spent += dt
        if k == 0:
            check(strictly_increasing(vals), "root is not increasing")
    check(vals == [g.ref.forward(q) for q in pts], f"x^{n} != g")
    return n * len(pts), spent


def op_root(g: Map, n: int, sseed: int):
    def run(tr, cli):
        with tr.span("equations.root_solve"):
            x = nth_root(g.pl, n)
        pts = samples(tr, 61, sseed, (decompose(tr, g),))
        check_inputs(tr, (g,), pts)
        return root_check(tr, x, n, g, pts)
    return run


def word_check(tr, letters, assignment, g: Map, pts):
    """The word's product over the assignment, letters left to right, == g."""
    start = perf_counter()
    out = []
    for q in pts:
        for v, e in letters:
            q = assignment[v].forward(q) if e == 1 else assignment[v].backward(q)
        out.append(q)
    end = perf_counter()
    tr.record("equations.word_eval", start, end, len(letters) * len(pts))
    check(out == [g.ref.forward(q) for q in pts], "w(x_2, ...) != g")
    return len(letters) * len(pts), end - start


def op_word(letters, g: Map, sseed: int):
    def run(tr, cli):
        with tr.span("equations.word_solve"):
            assignment = solve_word(Word(letters), g.pl)
        pts = samples(tr, 61, sseed, (decompose(tr, g),))
        check_inputs(tr, (g,), pts)
        return word_check(tr, letters, assignment, g, pts)
    return run


def op_cli_xgx(g: Map, f: Map):
    def run(tr, cli):
        code, out = cli.run(tr, ["solve-xgx", cli.file(g.to_json()), cli.file(f.to_json())])
        check(code == 0, "CLI solve-xgx exit")
        verified_block(out, 257)
        xs, ys = graph(out["solution_graph"])
        x = solve_xgx(g.pl, f.pl)
        check([x.forward(q) for q in xs] == ys, "CLI graph differs from solve_xgx")
        return xgx_check(tr, x, g, f, xs)
    return run


def op_cli_root(g: Map, n: int):
    def run(tr, cli):
        code, out = cli.run(tr, ["root", cli.file(g.to_json()), str(n), "--samples", "61"])
        check(code == 0 and out["n"] == n, "CLI root exit")
        verified_block(out, 61)
        xs, ys = graph(out["solution_graph"])
        x = nth_root(g.pl, n)
        check([x.forward(q) for q in xs] == ys, "CLI graph differs from nth_root")
        return root_check(tr, x, n, g, xs)
    return run


def op_cli_commutator(g: Map):
    def run(tr, cli):
        code, out = cli.run(tr, ["commutator", cli.file(g.to_json()), "--samples", "61"])
        check(code == 0, "CLI commutator exit")
        verified_block(out, 61)
        xs, xv = graph(out["x"]["graph"])
        ys, yv = graph(out["y"]["graph"])
        x, y = commutator_decomposition(g.pl)
        check(xs == ys and [x.forward(q) for q in xs] == xv
              and [y.forward(q) for q in ys] == yv, "CLI graphs differ from the library")
        return commutator_check(tr, x, y, g, xs)
    return run


def op_cli_word(letters, g: Map):
    def run(tr, cli):
        word = {"letters": [{"var": v, "exp": e} for v, e in letters]}
        code, out = cli.run(tr, ["solve-word", cli.file(word), cli.file(g.to_json()),
                                 "--samples", "17"])
        check(code == 0, "CLI solve-word exit")
        verified_block(out, 17)
        assignment = solve_word(Word(letters), g.pl)
        xs = None
        for v, item in out["variables"].items():
            vx, vy = graph(item["graph"])
            check(xs is None or vx == xs, "CLI graphs on different points")
            xs = vx
            check([assignment[int(v)].forward(q) for q in vx] == vy,
                  "CLI graph differs from solve_word")
        return word_check(tr, letters, assignment, g, xs)
    return run


FORCED_SEQS = ("+-+", "-+-", "+-+-", "-+0-+", "+0-", "0-0", "-0+0-", "0+0")


def equations_round(seed, r, every_cli=False):
    rng = C.round_rng("equations", seed, r)
    sseed = lambda: rng.randrange(1 << 30)  # noqa: E731
    ops = []
    for kg, kf in ((1, 3), (2, 4), (3, 1), (4, 2), (2, 2), (3, 3), (1, 4), (4, 1)):
        g, f = map(Map, C.xgx_pair(rng, kg, kf))
        ops.append(("xgx", op_xgx(g, f, sseed())))
    g, f = map(Map, C.xgx_forced_pair(rng, FORCED_SEQS[r % len(FORCED_SEQS)]))
    ops.append(("xgx_forced", op_xgx(g, f, sseed())))
    xgx_pair = (g, f)
    comm = Map(C.firm_map(rng, 1 + r % 3))
    ops.append(("commutator", op_commutator(comm, sseed())))
    roots = {}
    for n in (2, 3, 5):
        roots[n] = Map(C.firm_map(rng, 1 + (r + n) % 3))
        ops.append((f"root{n}", op_root(roots[n], n, sseed())))
    letters = C.reduced_word(rng, 2 + r % 5)
    wg = Map(C.firm_map(rng, 1 + (r + 1) % 3))
    ops.append(("word", op_word(letters, wg, sseed())))
    cli = (("cli.solve-xgx", op_cli_xgx(*xgx_pair)),
           ("cli.root", op_cli_root(roots[(2, 3, 5)[r // 4 % 3]], (2, 3, 5)[r // 4 % 3])),
           ("cli.commutator", op_cli_commutator(comm)),
           ("cli.solve-word", op_cli_word(letters, wg)))
    ops += cli if every_cli else [cli[r % 4]]
    return ops


# ------------------------------------------------------------ far orbit ops

LADDER = (100, 250, 630, 1600, 4000, 10000)
FAR_QUERIES = 24  # per kind and round


def far_indices(rng, count):
    """Orbit indices log-uniform in [100, 10000], one per stratum, so every
    round spreads its queries evenly over the range."""
    return [int(100 * 100 ** ((j + rng.random()) / count)) for j in range(count)]


TAIL_STEPS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(-1, 2), Fraction(-1),
              Fraction(-3, 2))


def tail_point(rng, terrain, right: bool, index: int, step: Fraction) -> Fraction:
    """A point about ``index`` steps of size ``step`` out along the unbounded
    end of ``terrain``, inside its outermost element."""
    _, lo, hi = terrain[-1] if right else terrain[0]
    end = lo if right else hi
    base = Fraction(0) if end is None else end + (1 if right else -1)
    dist = abs(step) * index + Fraction(rng.randint(1, 6), 7)
    return base + dist if right else base - dist


def far_maps(maps, right: bool):
    return [Map(m if right else C.reflect_ref(m)) for m in maps]


def op_far_conjugate(g: Map, f: Map, q: Fraction):
    def run(tr, cli):
        with tr.span("conjugacy.solve"):
            h = solve_conjugacy(g.pl, f.pl)
        tf, tg = ref_terrain(f.ref), ref_terrain(g.ref)
        k = element_of(tf, q)
        check(h is not None and k >= 0 and colors(tf) == colors(tg), "far conjugacy pair")
        back, t1 = timed(tr, "conjugacy.eval", h.backward, [q])
        check(element_of(tg, back[0]) == k, "conjugator left its terrain element")
        out, t2 = timed(tr, "conjugacy.eval", h.forward, [g.ref.forward(back[0])])
        check(out[0] == f.ref.forward(q), "h^-1 g h != f at a far point")
        return 2, t1 + t2
    return run


def op_far_xgx(g: Map, f: Map, q: Fraction):
    def run(tr, cli):
        with tr.span("equations.xgx_solve"):
            x = solve_xgx(g.pl, f.pl)
        first, t1 = timed(tr, "equations.xgx_eval", x.forward, [q])
        out, t2 = timed(tr, "equations.xgx_eval", x.forward, [g.ref.forward(first[0])])
        check(out[0] == f.ref.forward(q), "x g x != f at a far point")
        return 2, t1 + t2
    return run


def ref_block(g: RefPL, alpha: Fraction, gamma: Fraction, index: int) -> bool:
    """gamma lies in block ``index`` of the orbit of alpha (reference walk):
    between alpha g^index and alpha g^(index+1), lower end included."""
    a = g.power_at(index, alpha)
    b = g.forward(a)
    return min(a, b) <= gamma < max(a, b)


def guard_same_component(g: Map, alpha, gamma):
    t = ref_terrain(g.ref)
    k = element_of(t, alpha)
    check(k >= 0 and t[k][0] != "0" and element_of(t, gamma) == k,
          "anchor and query are not in one support component")


def op_measure(g: Map, alpha: Fraction, gamma: Fraction):
    def run(tr, cli):
        guard_same_component(g, alpha, gamma)
        with tr.span("oracle.locate_linear"):
            lin = measure_locate(g.pl, alpha, gamma, "linear")
        with tr.span("oracle.locate_ff"):
            ff = measure_locate(g.pl, alpha, gamma, "fast_forward")
        check(lin.index == ff.index, "location modes disagree")
        check(ref_block(g.ref, alpha, gamma, lin.index), "orbit index is wrong")
        return 0, 0.0
    return run


def op_cli_measure(g: Map, alpha: Fraction, gamma: Fraction, mode: str):
    def run(tr, cli):
        guard_same_component(g, alpha, gamma)
        code, out = cli.run(tr, ["measure", cli.file(g.to_json()), f"--alpha={alpha}",
                                 f"--gamma={gamma}", "--mode", mode])
        check(code == 0 and out["mode"] == mode.replace("-", "_"), "CLI measure exit")
        check(ref_block(g.ref, alpha, gamma, out["index"]), "CLI orbit index is wrong")
        return 0, 0.0
    return run


def measure_query(rng):
    """A map without fixed points and a query about 1100-1900 steps away, so
    that fast-forward location grows its cache to depth 10."""
    step = rng.choice(TAIL_STEPS)
    g = Map(C.line_map(rng, 3, step))
    alpha = C.rand_frac(rng)
    gamma = alpha + rng.choice((1, -1)) * (abs(step) * rng.randint(1100, 1900)
                                           + Fraction(rng.randint(1, 6), 7))
    return g, alpha, gamma


def far_orbit_round(seed, r):
    rng = C.round_rng("far_orbit", seed, r)
    ops = []
    for index in far_indices(rng, FAR_QUERIES):
        step = rng.choice(TAIL_STEPS)
        right = rng.random() < 0.5
        g_ref = C.tail_map(rng, 3, step)
        f_ref = C.ref_conjugate(g_ref, C.tail_map(rng, 2, rng.choice(TAIL_STEPS)))
        g, f = far_maps((g_ref, f_ref), right)
        q = tail_point(rng, ref_terrain(f.ref), right, index, step)
        ops.append(("far_conjugate", op_far_conjugate(g, f, q)))
    for index in far_indices(rng, FAR_QUERIES):
        while True:
            cf, cg = rng.choice(TAIL_STEPS), rng.choice(TAIL_STEPS)
            if cf + cg != 0:
                break
        right = rng.random() < 0.5
        g, f = far_maps((C.tail_map(rng, 3, cg), C.tail_map(rng, 3, cf)), right)
        q = tail_point(rng, ref_terrain(ref_compose(f.ref, g.ref)), right, index, cf + cg)
        ops.append(("far_xgx", op_far_xgx(g, f, q)))
    ops.append(("measure", op_measure(*measure_query(rng))))
    query = measure_query(rng)
    ops.append(("cli.measure", op_cli_measure(*query, "linear")))
    ops.append(("cli.measure", op_cli_measure(*query, "fast-forward")))
    return ops


# -------------------------------------------------------------- algebra ops

def _compose(tr, a, b):
    with tr.span("automorphism.compose"):
        return compose(a, b)


def _lattice(tr, fn, a, b):
    with tr.span("automorphism.meet_join"):
        return fn(a, b)


def law_points(rng, maps):
    pts = {x for m in maps for x, _ in m.ref.knots}
    pts |= {C.rand_frac(rng, 10, 16) for _ in range(8)}
    return sorted(pts)


def op_laws(f: Map, g: Map, h: Map, pts):
    """Criterion 7: group and lattice laws by exact map equality, and the
    constructed maps against the reference at knots and random points."""
    def run(tr, cli):
        F, G, H = f.pl, g.pl, h.pl
        c = lambda a, b: _compose(tr, a, b)  # noqa: E731
        mt = lambda a, b: _lattice(tr, meet, a, b)  # noqa: E731
        jn = lambda a, b: _lattice(tr, join, a, b)  # noqa: E731
        fg, gh, fh, gf, hf = c(F, G), c(G, H), c(F, H), c(G, F), c(H, F)
        m_fg, j_fg, m_gh, j_gh = mt(F, G), jn(F, G), mt(G, H), jn(G, H)
        laws = (
            equals_pl(c(fg, H), c(F, gh)),
            equals_pl(c(F, inverse(F)), PLAutomorphism()),
            equals_pl(c(F, PLAutomorphism()), F),
            equals_pl(m_fg, mt(G, F)),
            equals_pl(jn(j_fg, H), jn(F, j_gh)),
            equals_pl(mt(F, m_gh), mt(m_fg, H)),
            equals_pl(mt(F, j_fg), F),
            equals_pl(jn(F, m_fg), F),
            equals_pl(c(F, j_gh), jn(fg, fh)),
            equals_pl(c(F, m_gh), mt(fg, fh)),
            equals_pl(c(j_gh, F), jn(gf, hf)),
            equals_pl(c(m_gh, F), mt(gf, hf)),
        )
        check(all(laws), "a lattice-group law fails")
        fv = [f.ref.forward(q) for q in pts]
        gv = [g.ref.forward(q) for q in pts]
        evals, spent = 0, 0.0
        for built, want in ((fg, [g.ref.forward(v) for v in fv]),
                            (m_fg, [min(a, b) for a, b in zip(fv, gv)]),
                            (j_fg, [max(a, b) for a, b in zip(fv, gv)])):
            got, dt = timed(tr, "algebra.eval", built.forward, pts)
            back, dt2 = timed(tr, "algebra.eval", built.backward, got)
            check(got == want and back == pts, "compose/meet/join differ from the reference")
            evals += 2 * len(pts)
            spent += dt + dt2
        return evals, spent
    return run


def op_power(g: Map, n: int, pts):
    def run(tr, cli):
        with tr.span("automorphism.power"):
            p = power(g.pl, n)
        got, dt = timed(tr, "algebra.eval", p.forward, pts)
        check(got == [g.ref.power_at(n, q) for q in pts], f"power(g, {n}) != g applied {n} times")
        back, dt2 = timed(tr, "algebra.eval", p.backward, got)
        check(back == pts, "power: backward(forward(q)) != q")
        return 2 * len(pts), dt + dt2
    return run


def op_inverse_reflect(g: Map, pts):
    def run(tr, cli):
        with tr.span("automorphism.inverse_reflect"):
            inv, ref = inverse(g.pl), reflect(g.pl)
        a, dt1 = timed(tr, "algebra.eval", inv.forward, pts)
        b, dt2 = timed(tr, "algebra.eval", ref.forward, pts)
        check(a == [g.ref.backward(q) for q in pts], "inverse differs from the reference")
        check(b == [-g.ref.forward(-q) for q in pts], "reflect differs from the reference")
        return 2 * len(pts), dt1 + dt2
    return run


def op_decompose(g: Map):
    def run(tr, cli):
        decompose(tr, g)
        return 0, 0.0
    return run


def op_realize(seq: str):
    def run(tr, cli):
        with tr.span("terrain.realize"):
            p = realize(seq)
        ref = RefPL(p.knots, p.left_slope, p.right_slope)
        check(colors(ref_terrain(ref)) == seq, f"realize({seq!r}) has the wrong terrain")
        return 0, 0.0
    return run


def check_enumeration(counts, lists):
    """a_1 = 3, a_2 = 8, a_n = 2 (a_{n-1} + a_{n-2}); every list sorted,
    of valid sequences of its length."""
    want = [3, 8]
    while len(want) < len(counts):
        want.append(2 * (want[-1] + want[-2]))
    check(counts == want[:len(counts)], "terrain counts break the recurrence")
    for n, seqs in enumerate(lists, start=1):
        check(strictly_increasing(seqs) and all(
            len(s) == n and set(s) <= set("+-0") and "00" not in s for s in seqs),
            "invalid enumerated sequence")


def op_enumerate(n: int):
    def run(tr, cli):
        with tr.span("terrain.enumerate"):
            lists = [enumerate_color_sequences(k) for k in range(1, n + 1)]
        check_enumeration([len(s) for s in lists], lists)
        return 0, 0.0
    return run


def op_cli_realize(seq: str):
    def run(tr, cli):
        # explicit "--": without it the sequence "--" is taken as the separator
        code, out = cli.run(tr, ["realize", "--", seq])
        check(code == 0 and out["roundtrip"] == seq, "CLI realize exit")
        d = out["automorphism"]
        ref = RefPL([(Fraction(k["x"]), Fraction(k["y"])) for k in d["knots"]],
                    Fraction(d["left_slope"]), Fraction(d["right_slope"]))
        check(colors(ref_terrain(ref)) == seq, f"CLI realize {seq!r}: wrong terrain")
        return 0, 0.0
    return run


def op_cli_enumerate(n: int):
    def run(tr, cli):
        lists = []
        for k in range(1, n + 1):
            code, out = cli.run(tr, ["enumerate-terrains", str(k)])
            check(code == 0 and out["count"] == len(out["sequences"]), "CLI enumerate exit")
            lists.append(out["sequences"])
        check_enumeration([len(s) for s in lists], lists)
        return 0, 0.0
    return run


ALL_SEQS = C.all_sequences(5)


POWERS = (5, 20, 40, 100, 200, 300)
LAW_KNOTS = ((1, 2, 3), (3, 2, 1), (2, 3, 3), (3, 3, 2), (0, 3, 2), (2, 1, 3), (3, 1, 2),
             (1, 3, 3), (2, 2, 2), (3, 3, 3))


def algebra_round(seed, r):
    rng = C.round_rng("algebra", seed, r)
    ops = []
    for ks in LAW_KNOTS:
        maps = [Map(C.rand_map(rng, k)) for k in ks]
        ops.append(("laws", op_laws(*maps, law_points(rng, maps))))
    g = Map(C.rand_map(rng, 2))
    n = POWERS[r % len(POWERS)] + rng.randint(0, 4)
    ops.append(("power", op_power(g, n, law_points(rng, [g])[:6])))
    g = Map(C.rand_map(rng, 4))
    ops.append(("inverse_reflect", op_inverse_reflect(g, law_points(rng, [g]))))
    ops.append(("decompose", op_decompose(Map(C.rand_map(rng, 6)))))
    start = (r * 3 + seed) % len(ALL_SEQS)
    for j in range(2):
        ops.append(("realize", op_realize(ALL_SEQS[(start + j) % len(ALL_SEQS)])))
    ops.append(("enumerate", op_enumerate(1 + r % 8)))
    ops.append(("cli.realize", op_cli_realize(ALL_SEQS[(start + 2) % len(ALL_SEQS)])))
    ops.append(("cli.enumerate-terrains", op_cli_enumerate(1 + r % 6)))
    return ops


def coverage_round(workload, seed):
    """Round 0, with every CLI subcommand the workload hosts."""
    if workload == "equations":
        return equations_round(seed, 0, every_cli=True)
    return ROUNDS[workload](seed, 0)


ROUNDS = {
    "conjugacy": conjugacy_round,
    "equations": equations_round,
    "far_orbit": far_orbit_round,
    "algebra": algebra_round,
}


# ------------------------------------------------------------ counting pass

def _max_size(maps):
    sizes = [size_of(p) for p in maps]
    return max(k for k, _ in sizes), max(b for _, b in sizes)


def counting_pass(seed: int, tracer) -> dict:
    """Exact cost counts from the public counters, on fixed inputs of the seed.

    Conjugators are rebuilt per support component over ``wrap``-ped inputs
    and evaluated at the far-orbit queries and at conjugacy sample points;
    ``measure_locate`` reports oracle calls and fast-forward steps; knot and
    bit sizes are read off constructed maps.  The paper's bounds are checked
    on every count: transport costs 2|i| + O(1) oracle calls (fast-forward
    location is charged in ff steps), linear location adds |i| + 1, and
    fast-forward location takes at most 4 log2|i| + 8 steps.
    """
    counts = {"evals": 0, "calls_linear": 0, "index_max": 0}
    rng = C.round_rng("counting", seed, 0)
    both = ("linear", "fast_forward")
    queries = []
    for index in LADDER:
        # fast-forward caches of maps with boundary fixed points blow up at
        # these depths, so far tail queries are counted in linear mode only
        step = rng.choice(TAIL_STEPS)
        g_ref = C.tail_map(rng, 3, step)
        f_ref = C.ref_conjugate(g_ref, C.tail_map(rng, 2, rng.choice(TAIL_STEPS)))
        q = tail_point(rng, ref_terrain(f_ref), True, index, step)
        queries.append((Map(g_ref), Map(f_ref), [q], ("linear",)))
    step = rng.choice(TAIL_STEPS)
    g_ref = C.line_map(rng, 3, step)
    f_ref = C.ref_conjugate(g_ref, C.line_map(rng, 3, rng.choice(TAIL_STEPS)))
    queries.append((Map(g_ref), Map(f_ref), [tail_point(rng, ref_terrain(f_ref), True, 600, step)],
                    both))
    for kg, kh in ((2, 3), (3, 2)):
        g, f = map(Map, C.conjugate_pair(rng, kg, kh))
        queries.append((g, f, default_samples(33, 0, (support_decompose(g.pl),
                                                       support_decompose(f.pl))), both))
    for g, f, pts, modes in queries:
        tg, tf = support_decompose(g.pl), support_decompose(f.pl)
        h = solve_conjugacy(g.pl, f.pl)
        for q in pts:
            k = element_of(ref_terrain(f.ref), q)
            if k < 0 or tf[k].color.value == "0":
                continue
            beta = anchor_point(tf[k])
            i = abs(measure_locate(f.pl, beta, q, "linear").index)
            for mode in modes:
                bound = 3 * i + 2 if mode == "linear" else 2 * i + 2
                wg, wf = wrap(g.pl), wrap(f.pl)
                x = conjugate_on_component(wg, wf, tg[k], tf[k], anchor_point(tg[k]), beta, mode)
                wg.reset()
                wf.reset()
                v = x.backward(q)
                calls = sum(wg.counts) + sum(wf.counts)
                check(v == h.backward(q), "per-component conjugator differs from solve_conjugacy")
                check(calls <= bound, f"{mode} conjugator evaluation at index {i} took "
                                      f"{calls} oracle calls, bound {bound}")
                if mode == "linear":
                    counts["evals"] += 1
                    counts["calls_linear"] += calls
            counts["index_max"] = max(counts["index_max"], i)
    oracle_calls = ff_steps = 0
    cache_sizes = []
    for _ in range(2):
        g, alpha, gamma = measure_query(rng)
        lin = measure_locate(g.pl, alpha, gamma, "linear")
        ff = measure_locate(g.pl, alpha, gamma, "fast_forward")
        i = abs(lin.index)
        check(lin.index == ff.index, "location modes disagree")
        check(ff.ff_steps <= 4 * math.log2(max(i, 1)) + 8, "fast-forward took too many steps")
        oracle_calls += lin.oracle_calls
        ff_steps += ff.ff_steps
        depth = max(i, 1).bit_length() - 1
        start = perf_counter()
        cache = build_cache(g.pl, depth)
        tracer.record("oracle.ff_cache_build", start, perf_counter())
        cache_sizes += [cache.power_of_two(k) for k in range(depth + 1)]
    built = []
    for ks in ((1, 2, 3), (3, 2, 1), (2, 3, 3)):
        F, G, H = (Map(C.rand_map(rng, k)).pl for k in ks)
        built += [compose(F, G), compose(compose(F, G), H), meet(F, G), join(G, H)]
    for n in (40, 150, 300):
        built.append(power(Map(C.rand_map(rng, 2)).pl, n))
    knots_max, bits_max = _max_size(built)
    cache_knots, cache_bits = _max_size(cache_sizes)
    return {
        "automorphism.knots_max": knots_max,
        "automorphism.bits_max": bits_max,
        "conjugacy.oracle_calls_per_eval": counts["calls_linear"] / counts["evals"],
        "conjugacy.orbit_index_max": counts["index_max"],
        "oracle.oracle_calls": oracle_calls,
        "oracle.ff_steps": ff_steps,
        "oracle.ff_cache_knots_max": cache_knots,
        "oracle.ff_cache_bits_max": cache_bits,
    }
