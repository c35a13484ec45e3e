"""Solvers for one-parameter group equations.

Four families are covered, always over exact rationals:

* ``w(x_2, ..., x_n) = g`` for a reduced group word w, routed by the
  exponent sums of its variables.  If some sum n is nonzero, the variable
  with the smallest such ``|n|`` solves ``x^n = g`` (g or its inverse when
  ``|n| = 1``, an n-th root otherwise) and every other variable is the
  identity, since the word then collapses to ``x^n``.  Only words whose sums
  are all zero are solved per support component of g by subdividing each
  orbit block of an anchor into one slot per letter, reading off
  interpolated variable maps, and conjugating the resulting word value back
  onto g along the shared anchor orbit.  Words whose first and last letters
  are mutually inverse are peeled first: ``w = x^e w' x^-e`` is solved
  through ``w'`` and the substitution ``x_u -> x^-e x_u x^e`` undone
  afterwards, since the direct subdivision construction is consistent only
  for cyclically reduced words.
* commutators, through the conjugacy solver: g and g^2 share a terrain, so
  the conjugator they need always exists;
* n-th roots x = h^-1 g h, with h the conjugator of g^n onto g (they share
  a terrain): x commutes with g, so on each support component of g it is a
  root seed on an anchor block of g carried along the orbits of g itself,
  and neither g^n nor h is built;
* ``x g x = f``, solvable for every pair: on each component of the support
  of fg a two-case seed on the anchor block of fg (the affine bridge on
  alpha's side of beta*g, f after the inverse bridge on the other side) is
  carried along the orbits of fg and gf, and x equals f on the fixed set of
  fg.  Equations ``x^e1 g x^e2 = f`` route to the conjugacy solver when
  e1 = -e2 and to the xgx machinery otherwise.

Both seeds, of roots and of ``x g x = f``, are one ``_TwoCase`` each: a
split point and a chain of integer-pair maps on either side of it, written
once in the forward direction; the transport's backward evaluation runs
those chains reversed.

Where a solution has a finite exact description (g, its inverse, the
identity) it is returned as that PL map.  The other solutions have graphs
with infinitely many affine pieces and are returned as trees of
pair-protocol nodes (``automorphism.Automorphism``): seeds and word
variables on anchor blocks, transports, dispatches, composites, powers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict

from .automorphism import (
    Automorphism,
    PLAutomorphism,
    _Composite,
    _lazy,
    _node,
    _Power,
    _Record,
    _set,
    _tracked,
    apply_power,
    compose,
    inverse,
)
from .conjugacy import (
    AffineBridge,
    ComponentOrbit,
    OrbitTransport,
    _Dispatch,
    anchor_point,
    conjugation,
    solve_conjugacy,
    verify_pointwise,
)
from .terrain import Color, support_decompose

Assignment = Dict[int, object]  # variable index -> automorphism


class Word(_Record):
    """Group word: sequence of (variable index >= 2, exponent +-1) letters."""

    __slots__ = _fields = ("letters",)

    def __init__(self, letters: tuple = ()):
        letters = tuple((v, e) for v, e in letters)
        for v, e in letters:
            # exact type: no float, and no bool, which subclasses int
            if type(v) is not int or type(e) is not int:
                raise ValueError(f"variable indices and exponents must be ints; got {v!r}, {e!r}")
            if v < 2:
                raise ValueError(f"variable indices start at 2; got {v}")
            if e not in (1, -1):
                raise ValueError(f"exponents must be +1 or -1; got {e}")
        _set(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def variables(self) -> tuple:
        return tuple(sorted({v for v, _ in self.letters}))

    def is_reduced(self) -> bool:
        if not self.letters:
            return False
        for (va, ea), (vb, eb) in zip(self.letters, self.letters[1:]):
            if va == vb and ea == -eb:
                return False
        return True

    def to_json_dict(self) -> dict:
        return {"letters": [{"var": v, "exp": e} for v, e in self.letters]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Word":
        try:
            letters = tuple((item["var"], item["exp"]) for item in data["letters"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed word JSON: {exc}") from exc
        return cls(letters)

    def __repr__(self) -> str:
        body = " ".join(f"x{v}" + ("" if e == 1 else "^-1") for v, e in self.letters)
        return f"Word({body})"


def apply_word(word: Word, assignment: Assignment, q: Fraction) -> Fraction:
    """Evaluate the word product at q, letters applied left to right."""
    return word_automorphism(word, assignment).forward(q)


def word_automorphism(word: Word, assignment: Assignment) -> Automorphism:
    """The word product as an automorphism over the given assignment."""
    return _Composite(tuple(_node(assignment[v]) if e == 1 else inverse(assignment[v])
                            for v, e in word.letters), f"word({len(word)} letters)")


class Subdivision:
    """Per-block subdivision points of an anchor orbit.

    ``point(i, j)`` is the j-th of m+1 equally spaced points from orbit
    point i to orbit point i+1; the ends coincide with the orbit points
    exactly.
    """

    def __init__(self, orbit: ComponentOrbit, m: int):
        if m < 1:
            raise ValueError("subdivision needs at least one slot")
        self.orbit = orbit
        self.m = m

    def point(self, i: int, j: int) -> Fraction:
        if not 0 <= j <= self.m:
            raise ValueError(f"slot index {j} outside 0..{self.m}")
        lo = self.orbit.point(i)
        if j == 0:
            return lo
        hi = self.orbit.point(i + 1)
        if j == self.m:
            return hi
        return lo + Fraction(j, self.m) * (hi - lo)


class _VariableComponent(Automorphism):
    """One variable's interpolated action on one support component.

    Constraint pairs per orbit block i: a letter with exponent +1 at
    position j contributes (point(i, j-1) -> point(i, j)), exponent -1 the
    reverse.  On block i the variable is the PL window through the sorted
    constraint pairs of blocks i-1, i and i+1, which always bracket block i;
    its tails are never evaluated.  For a reduced, cyclically reduced word
    the merged constraint set is strictly increasing, so every window is a
    valid ``PLAutomorphism``; that invariant is checked on every gather.
    Backward reads the same windows, backward.
    """

    def __init__(self, positions, subdivision: Subdivision):
        self.positions = positions  # [(letter position j >= 1, exponent)]
        self.sub = subdivision
        self._gathered = {}
        self._check_window()

    def _block_pairs(self, i):
        pairs = []
        for j, e in self.positions:
            a = self.sub.point(i, j - 1)
            b = self.sub.point(i, j)
            pairs.append((a, b) if e == 1 else (b, a))
        return pairs

    def _gather(self, i) -> PLAutomorphism:
        window = self._gathered.get(i)
        if window is None:
            pairs = sorted(p for blk in (i - 1, i, i + 1) for p in self._block_pairs(blk))
            try:
                window = PLAutomorphism(tuple(pairs))
            except ValueError as exc:
                raise RuntimeError("inconsistent word constraints; the word is not "
                                   "cyclically reduced") from exc
            self._gathered[i] = window
        return window

    def _check_window(self):
        for i in (-2, 0, 2):
            self._gather(i)

    def _image(self, n: int, d: int, back=False, germ=None):
        return self._gather(self.sub.orbit._locate(n, d))._image(n, d, back)


def _solve_cyclically_reduced(word: Word, g: PLAutomorphism) -> Assignment:
    variables = word.variables
    m = len(word)
    terrain = support_decompose(g)
    identity = PLAutomorphism.identity()
    subdivisions = {k: Subdivision(ComponentOrbit(g, anchor_point(e)), m)
                    for k, e in enumerate(terrain) if e.color is not Color.FIXED}
    if not subdivisions:
        return {v: identity for v in variables}

    def on_components(piece, description):
        # the identity on the fixed set of g
        pieces = [piece(subdivisions[k]) if k in subdivisions else identity
                  for k in range(len(terrain))]
        return _Dispatch(terrain, terrain, pieces, description)

    assignment: Assignment = {}
    for v in variables:
        positions = [(j, e) for j, (var, e) in enumerate(word.letters, start=1) if var == v]
        assignment[v] = on_components(lambda sub: _VariableComponent(positions, sub),
                                      f"word-variable({v})")

    # W and g share each anchor orbit, so the seed is the identity
    word_value = word_automorphism(word, assignment)
    y = on_components(lambda sub: OrbitTransport(word_value, g, identity, sub.orbit.anchor,
                                                 sub.orbit.anchor), "word-orbit-aligner")
    return {v: conjugation(assignment[v], y) for v in variables}


def solve_word(word: Word, g: PLAutomorphism) -> Assignment:
    """Assignment of automorphisms to the word's variables with w(...) = g.

    The word must be reduced and nonempty.  The exponent sums of its
    variables choose the route.  If one is nonzero, the variable with the
    smallest nonzero ``|sum| = n`` (lowest index on ties) takes a value x
    with ``x^sum = g`` and every other variable is the identity, so the word
    collapses to ``x^sum``: x is g or ``inverse(g)`` when n = 1 and
    ``nth_root(g, n)``, inverted for a negative sum, otherwise.  A word
    whose sums are all zero collapses to the identity under any such
    choice; its mutually inverse outer letter pairs are peeled down to the
    cyclically reduced core (peeling keeps every sum), the core is solved
    by orbit-block subdivision on each support component of g (variables
    are the identity on the fixed set), and the peeled conjugations are
    undone by substitution.  The returned maps satisfy the equation exactly
    at every rational.
    """
    if not word.is_reduced():
        raise ValueError(f"word must be nonempty and reduced: {word!r}")
    sums = {v: 0 for v in word.variables}
    for v, e in word.letters:
        sums[v] += e
    nonzero = [(abs(n), v) for v, n in sums.items() if n]
    if nonzero:
        n, v = min(nonzero)
        x = g if n == 1 else nth_root(g, n)
        if sums[v] < 0:
            x = inverse(x)
        identity = PLAutomorphism.identity()
        return {u: x if u == v else identity for u in word.variables}

    letters = list(word.letters)
    peels = []
    while len(letters) >= 3:
        v1, e1 = letters[0]
        vm, em = letters[-1]
        if v1 == vm and e1 == -em:
            peels.append((v1, e1))
            letters = letters[1:-1]
        else:
            break

    assignment = _solve_cyclically_reduced(Word(tuple(letters)), g)
    for v in word.variables:
        assignment.setdefault(v, PLAutomorphism.identity())

    for v, e in reversed(peels):
        xv = assignment[v] if e == 1 else inverse(assignment[v])
        assignment = {u: val if u == v else conjugation(val, xv)
                      for u, val in assignment.items()}
    return assignment


def commutator_decomposition(g: PLAutomorphism):
    """(x, y) with x^-1 y^-1 x y = g: x = g, and y solves y^-1 g y = g^2."""
    y = solve_conjugacy(g, compose(g, g))
    if y is None:
        raise RuntimeError("g and g^2 share a terrain, so they must be conjugate")
    return g, y


def nth_root(g: PLAutomorphism, n: int):
    """An x with x^n = g, for any positive n.

    With h the conjugator ``solve_conjugacy(g^n, g)`` would build, so that
    g = h^-1 g^n h, the root is x = h^-1 g h: x^n = h^-1 g^n h = g.  That x
    commutes with g, so on each support component of g it is one
    ``OrbitTransport`` of a seed along the orbits of g itself: the seed is
    x on the anchor block of g, in closed form from the affine bridge of h
    (see ``_root_piece``).  Neither g^n nor h is built.  On the fixed set of g,
    x is the identity, and ``n = 1`` or the identity g returns g itself.
    """
    if n < 1:
        raise ValueError(f"root order must be positive; got {n}")
    if n == 1 or g.is_identity:
        return g
    terrain = support_decompose(g)
    identity = PLAutomorphism.identity()
    pieces = [identity if e.color is Color.FIXED else _root_piece(g, n, anchor_point(e))
              for e in terrain]
    # "composite" is the construction name the CLI has always reported for roots
    return _Dispatch(terrain, terrain, pieces, "composite")


class _TwoCase(Automorphism):
    """A two-case seed on integer pairs: the chain ``near`` on one side of
    ``split`` (below it iff ``below``), the chain ``far`` on the other, in
    the pair protocol with the case taken (0 or 1) as the piece.  A chain is
    a tuple of steps ``(node, back)``, applied left to right, each backward
    when its ``back`` is set.

    Both chains must be increasing and agree at ``split``; then the backward
    seed is derived, never written by hand: its split, found at
    construction, is the image of ``split`` under ``near``, each chain runs
    reversed with every step's direction flipped, and ``below`` stays,
    since increasing maps keep each side of the split on the same side of
    its image.
    """

    def __init__(self, split: Fraction, below: bool, near: tuple, far: tuple):
        n, d = self.split = (split._numerator, split._denominator)
        self.below = below
        self.near = near
        self.far = far
        for step, back in near:
            n, d, _ = step._image(n, d, back)
        common = gcd(n, d)
        self._splits = (self.split, (n // common, d // common))
        self._chains = ((near, far), tuple(tuple((step, not back) for step, back in chain[::-1])
                                           for chain in (near, far)))

    def _image(self, n: int, d: int, back=False, germ=None):
        """The chain of q's case; with a ``germ``, q stays on its closed side
        of the split, where both chains agree."""
        sn, sd = self._splits[back]
        near = (n * sd < sn * d) == self.below
        if germ is not None:
            germ.bound(n, d, sn, sd, near == self.below)
        for step, flip in self._chains[back][not near]:
            n, d, _ = step._image(n, d, flip, germ)
        return n, d, 1 - near

    @_lazy
    def _tracks(self) -> bool:
        return _tracked(step for step, _ in self.near + self.far)


def _xgx_piece(f, g, fg, gf, alpha: Fraction) -> OrbitTransport:
    """Solution piece on the component of the support of fg holding alpha:
    a two-case seed carried along the orbits of fg and gf.

    The seed maps the anchor block between alpha and alpha*fg onto the one
    between beta and beta*gf: on alpha's side of beta*g through the affine
    bridge that sends alpha to beta and beta*g to alpha*f, on the other side
    through g^-1, the inverse bridge and f.  Its inverse splits the same way
    at alpha*f, the bridge's image of beta*g.  The anchor beta lies between
    alpha*g^-1 and alpha*f, so beta*g lies between alpha and alpha*fg and the
    orbits of alpha and beta*g under fg interleave.  Since (fg)^-i is
    increasing, a point in block i lies on alpha's side of (beta*g)(fg)^i
    exactly when its pull-back lies on alpha's side of beta*g.  f and g must
    be PL maps."""
    beta = (g.backward(alpha) + f.forward(alpha)) / 2
    beta_g = g.forward(beta)
    # alpha lies below beta*g on positive components, above it on negative ones
    below = alpha < beta_g
    if below != (beta_g < fg.forward(alpha)):
        raise RuntimeError("interleaving failed; alpha is not in the support of fg")
    bridge = AffineBridge(*sorted((alpha, beta_g)), *sorted((beta, f.forward(alpha))))
    seed = _TwoCase(beta_g, below, ((bridge, False),), ((g, True), (bridge, True), (f, False)))
    return OrbitTransport(fg, gf, seed, alpha, beta)


def _root_piece(g: PLAutomorphism, n: int, a: Fraction) -> OrbitTransport:
    """The n-th root x = h^-1 g h of g (n >= 2) on the component of its
    support holding the anchor a: a root seed on the anchor block of g
    between a and a g, carried along the orbits of g.

    h is the conjugator ``solve_conjugacy(g^n, g)`` builds on this
    component: the affine bridge b, which sends a to a and a g^n to a g,
    carried along the orbits of G = g^n and g, so that h(G(z)) = g(h(z)).
    For p in the block, h^-1(p) = b^-1(p), and z = g(b^-1(p)) lies in block
    0 or 1 of the G-orbit of a, where h is b or g b g^-n: the seed is b(z)
    on a's side of a g^n and g(b(g^-n(z))) on the other.  It maps the block
    onto the one between ``start`` = b(a g) and ``start`` g, located along
    the orbit of ``start``.  On integer pairs the split is moved onto the
    block (z passes a g^n exactly when p passes b(a g^(n-1))) and g^-n g is
    taken as one walk g^(1-n).  Both cases agree at the split, since b
    continues affinely to b(a g^n) = a g; the inverse, derived by
    ``_TwoCase``, splits at that image a g.
    """
    a_g = g.forward(a)
    a_last = apply_power(g, n - 1, a)
    b = AffineBridge(*sorted((a, g.forward(a_last))), *sorted((a, a_g)))
    # a lies below a g on positive components, above it on negative ones
    seed = _TwoCase(b.forward(a_last), a < a_g, ((b, True), (g, False), (b, False)),
                    ((b, True), (_Power(g, 1 - n), False), (b, False), (g, False)))
    return OrbitTransport(g, g, seed, a, b.forward(a_g))


def solve_xgx(g: PLAutomorphism, f: PLAutomorphism) -> Automorphism:
    """An x with x g x = f (left-to-right composition); always solvable.

    The terrain of fg is walked element by element: each component gets the
    two-case seed carried along the orbits of fg and gf, and on the fixed
    set of fg (including isolated fixed points) x equals f.
    """
    fg = compose(f, g)
    gf = compose(g, f)
    terrain_fg = support_decompose(fg)
    terrain_gf = support_decompose(gf)
    if terrain_fg.color_sequence() != terrain_gf.color_sequence():
        raise RuntimeError("fg and gf must have isomorphic terrains")
    # f^-1 (fg) f = gf, so f carries each isolated fixed point of fg to its
    # counterpart in gf, which is where the dispatcher sends it
    pieces = [f if e.color is Color.FIXED else _xgx_piece(f, g, fg, gf, anchor_point(e))
              for e in terrain_fg]
    return _Dispatch(terrain_fg, terrain_gf, pieces, "xgx-solution")


def solve_two_sided(g: PLAutomorphism, f: PLAutomorphism, e1: int, e2: int):
    """Solve x^e1 g x^e2 = f for exponents in {+1, -1}.

    Opposite exponents make this a conjugacy question (None when the
    terrains disagree); equal exponents always have a solution.  The
    double-inverse case reduces to z f z = g with x = z, and that reduction
    is spot-checked pointwise rather than trusted.
    """
    if e1 not in (1, -1) or e2 not in (1, -1):
        raise ValueError("exponents must be +1 or -1")
    if e1 == -e2:
        h = solve_conjugacy(g, f)
        if h is None:
            return None
        return h if e1 == -1 else inverse(h)
    if e1 == 1:
        return solve_xgx(g, f)
    # x^-1 g x^-1 = f  <=>  z f z = g with x = z
    z = solve_xgx(f, g)
    lhs = compose(compose(inverse(z), g), inverse(z))
    spots = [Fraction(k, 7) for k in range(-21, 22, 3)]
    if not verify_pointwise(lhs, f, spots):
        raise RuntimeError("double-inverse reduction failed verification")
    return z
