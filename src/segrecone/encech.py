"""Character-graded Cech computations on thickenings of the exceptional
surface inside the blow-up.

Everything lives on four smooth toric charts.  Chart C is the polynomial
ring on three Laurent monomials: a fiber coordinate (whose exponent vector
is one of the degree-one monoid generators) and two base coordinates; the
thickening of order n is cut out by the n-th power of the fiber coordinate.

Because the charts are unimodular, the character-u slice of the m-forms on
a chart is free on the wedge subsets T of the three generators for which
u - sum(T) lies in the chart monoid.  On every chart the fiber coordinate
of u is xdeg(u), so the label (u, T) has fiber exponent xdeg(u) - [0 in T];
the truncation relations f^n and f^(n-1) df make it a relation exactly
when that exponent reaches n - [0 in T], that is when xdeg(u) >= n.  At a
character either every label is a relation or none is.  So the level
enters in one place, the cut xdeg(u) < n: the per-character models
(char_model, h0_char) are the untruncated ones and carry no level,
character_support keeps only characters below the cut, restriction from
level n + 1 to n is the projection that drops the shell xdeg(u) = n, and
GlobalSections.coords reads every family past the cut as a relation.

Global sections are kernels of the pairwise comparison map in a fixed
rank-3 lattice frame, character by character.  Only the characters below
the cut that every chart sees are evaluated: they lie in the explicit
polytope 0 <= u_i, xdeg(u) < n, which is enumerated directly
(character_support); why no section lives elsewhere is argued at
global_sections.  A box guard of margin n + m + BOX_PAD bounds every
evaluated character.

character(mon, wedge) is the one sum of SEGRE_CHARS into the character
of a monomial form; chart_char inverts chart_coords.  Chart 0 (fiber x1,
base coordinates y3 = x3/x1, y4 = x4/x1) is the chart algebra An of the
charts module, whose forms come from _labels and _chart_d_vec here.

Overlap rings are never hard-coded: for each pair of charts the set of
invertible base coordinates is derived by bounded reachability and the
resulting membership rule is proved at runtime before use.

The six sheaf models ("kinds") are defined in one place, the KINDS spec
table: each entry gives the wedge pool, the fiber floor, the ambient model
and the role of the d-images.  Every label set, on a chart or an overlap,
comes from the one walker _labels.

Section coordinates have two owners.  A section at one character is a
flat family keyed by (chart, wedge) labels; CharSections turns a family
into a vector over its own label positions (flat) and back (family).
GlobalSections turns a family into coordinates of its space() (coords)
and builds every map into that space (map_from).  The span solvers behind
coords live in a dict that each map build creates and passes down, so
they are freed with the map; neither type caches one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable

from .errors import BoxInstabilityError, EngineError
from .kaehler import d_terms
from .linalg import (Echelon, LinearMap, SpanSolver, VectorSpaceWithBasis,
                     column_dependencies, vec_axpy, vec_scale)
from .monoid import SEGRE_CHARS
from .verdict import Verdict

# chart generators: (fiber, base1, base2) exponent vectors in the character
# lattice; chart 0 is the fiber of the first degree-one generator, the others
# follow by the coordinate symmetries of the defining quadric
CHART_GENS = (
    ((1, 0, 1, 0), (0, 0, -1, 1), (-1, 1, 0, 0)),
    ((0, 1, 0, 1), (1, -1, 0, 0), (0, 0, 1, -1)),
    ((1, 0, 0, 1), (0, 0, 1, -1), (-1, 1, 0, 0)),
    ((0, 1, 1, 0), (1, -1, 0, 0), (0, 0, -1, 1)),
)

def in_lattice(u) -> bool:
    return u[0] + u[1] == u[2] + u[3]


def lcoords(u):
    """Coordinates in the rank-3 lattice basis."""
    return (u[0], u[1], u[2] - u[0])


def xdeg(u) -> int:
    return u[0] + u[1]


def character(mon, wedge=()):
    """The character of x^mon dx_wedge: each cone variable x_i, as a
    factor of the monomial or as a differential, contributes
    SEGRE_CHARS[i]."""
    counts = [e + wedge.count(i) for i, e in enumerate(mon)]
    return tuple(sum(e * g[k] for e, g in zip(counts, SEGRE_CHARS))
                 for k in range(4))


def _vadd(u, v):
    return tuple(x + y for x, y in zip(u, v))


def _vneg(u):
    return tuple(-x for x in u)


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@lru_cache(maxsize=None)
def _chart_inverse(C: int):
    """Integer inverse of the lattice-coordinate matrix of chart C's
    generators; existence is the unimodularity certificate."""
    rows = tuple(lcoords(g) for g in CHART_GENS[C])
    det = _det3(rows)
    if det not in (1, -1):
        raise EngineError(f"chart {C} generators are not unimodular")
    (a, b, c), (d, e, f), (g, h, i) = rows
    adj = ((e * i - f * h, -(b * i - c * h), b * f - c * e),
           (-(d * i - f * g), a * i - c * g, -(a * f - c * d)),
           (d * h - e * g, -(a * h - b * g), a * e - b * d))
    return tuple(tuple(x * det for x in row) for row in adj), det


def chart_coords(C: int, u):
    """Coordinates of u in chart C's generator basis (u must be a lattice
    character); integers of either sign."""
    if not in_lattice(u):
        return None
    inv, _ = _chart_inverse(C)
    lc = lcoords(u)
    # coords @ G = lc, so coords = lc @ G^{-1}
    return tuple(sum(lc[k] * inv[k][j] for k in range(3)) for j in range(3))


def chart_char(C: int, co):
    """The lattice character with chart-C coordinates co: the inverse of
    chart_coords, sum_j co_j g_j over chart C's generators g_j."""
    (a, b, c), gens = co, CHART_GENS[C]
    return tuple(a * x + b * y + c * z for x, y, z in zip(*gens))


def chart_contains(C: int, u) -> bool:
    co = chart_coords(C, u)
    return co is not None and all(x >= 0 for x in co)


# ---------------------------------------------------------------------------
# Overlaps: derived invertible sets with runtime-proved membership rules.


@lru_cache(maxsize=None)
def overlap_data(P: int, Q: int):
    """(base_chart, invertible_positions) for the overlap of charts P < Q.

    The rule `u in S  iff  base-chart coords of u are >= 0 off F` is proved
    on the spot: every generator of both charts satisfies the constraint,
    and the inverse of each F-position generator is reached by a bounded
    sum of generators of the two charts."""
    if not P < Q:
        raise EngineError("overlap pairs are ordered")
    base = P
    gens = CHART_GENS[P] + CHART_GENS[Q]
    reachable = {(0, 0, 0, 0)}
    for _ in range(6):
        reachable |= {_vadd(s, g) for s in reachable for g in gens}
    F = frozenset(j for j in (1, 2)
                  if _vneg(CHART_GENS[base][j]) in reachable)
    if _vneg(CHART_GENS[base][0]) in reachable:
        raise EngineError("fiber coordinate must not become invertible")
    for g in gens:
        co = chart_coords(base, g)
        if co is None or any(co[j] < 0 for j in range(3) if j not in F):
            raise EngineError(
                f"membership rule fails for overlap ({P},{Q})")
    # the two fiber coordinates must differ by a unit of the overlap
    dv = _vadd(CHART_GENS[Q][0], _vneg(CHART_GENS[P][0]))
    if not (_s_contains_raw(base, F, dv) and _s_contains_raw(base, F,
                                                             _vneg(dv))):
        raise EngineError(
            f"fiber coordinates not compatible on overlap ({P},{Q})")
    return base, F


def _s_contains_raw(base, F, u) -> bool:
    co = chart_coords(base, u)
    return co is not None and all(co[j] >= 0 for j in range(3) if j not in F)


# ---------------------------------------------------------------------------
# Wedge labels and the lattice frame.


def _minor(rows, W):
    mat = [[row[w] for w in W] for row in rows]
    k = len(W)
    if k == 0:
        return 1
    if k == 1:
        return mat[0][0]
    if k == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    return _det3(mat)


def _frame_wedge(chars):
    """Lattice-frame coordinates of the wedge of the differentials of the
    given characters: the maximal minors of their coordinate rows."""
    rows = [lcoords(v) for v in chars]
    out = {}
    for W in _all_wedges(len(rows)):
        d = _minor(rows, W)
        if d:
            out[W] = d
    return out


@lru_cache(maxsize=None)
def wedge_lambda(C: int, T):
    """Lattice-frame coordinates of the wedge of chart-C generator
    differentials indexed by T."""
    return _frame_wedge([CHART_GENS[C][j] for j in T])


def _label_coords(co, T):
    """Chart coordinates of u - sum_{j in T} g_j, given those of u: chart
    coordinates are linear and send generator j to e_j, so this is co
    minus the indicator of T."""
    return tuple(x - (j in T) for j, x in enumerate(co))


# ---------------------------------------------------------------------------
# The six sheaf models: one spec table, one label walker.


def _all_wedges(m: int):
    return tuple(combinations(range(3), m))


def _base_wedges(m: int):
    return tuple(combinations((1, 2), m))


def _functions(m: int):
    return ((),) if m == 0 else ()


def _no_floor(T) -> int:
    return 0


def _reduced_floor(T) -> int:
    """Reduced forms: a label without the fiber differential needs the
    fiber coordinate as a factor."""
    return 0 if 0 in T else 1


def _ideal_floor(T) -> int:
    return 1


# d-image roles
QUOTIENT = "quotient"      # the model is its ambient modulo d-images
CONSTRAINT = "constraint"  # the model is the span of d-images in its ambient


@dataclass(frozen=True)
class KindSpec:
    """One sheaf model: the wedge labels T of its m-forms (pool), the least
    fiber exponent of a label with wedge T (floor, >= 0), the model whose
    labels span its ambient, and the role of the d-images of that ambient's
    (m-1)-forms (None, QUOTIENT or CONSTRAINT).  A model with a d-image
    role has the pool and floor of its ambient."""
    pool: Callable[[int], tuple]
    floor: Callable[[tuple], int]
    ambient: str
    d_image: str | None


# The one place a model kind is defined.
KINDS = {
    "omega": KindSpec(_all_wedges, _no_floor, "omega", None),
    "omega_tilde": KindSpec(_all_wedges, _reduced_floor, "omega_tilde", None),
    "image_d": KindSpec(_all_wedges, _reduced_floor, "omega_tilde",
                        CONSTRAINT),
    "hc_top": KindSpec(_all_wedges, _reduced_floor, "omega_tilde", QUOTIENT),
    "horizontal": KindSpec(_base_wedges, _no_floor, "horizontal", None),
    "ideal_power": KindSpec(_functions, _ideal_floor, "ideal_power", None),
}


def _spec(kind: str) -> KindSpec:
    spec = KINDS.get(kind)
    if spec is None:
        raise EngineError(f"unknown model kind {kind!r}")
    return spec


def _labels(kind: str, m: int, base: int, F, u):
    """The ambient wedge labels of the model slice at u on the ring of chart
    ``base`` with the base coordinates in F inverted: the chart itself for
    F = (), an overlap for F from overlap_data.  No level: which of them are
    truncation relations depends only on the cut xdeg(u) < n."""
    spec = _spec(kind)
    co_u = chart_coords(base, u)
    if co_u is None:  # u - sum(T) is a lattice character iff u is
        return []
    amb = []
    for T in spec.pool(m):
        co = _label_coords(co_u, T)
        if co[0] >= spec.floor(T) and all(co[j] >= 0 for j in (1, 2)
                                          if j not in F):
            amb.append(T)
    return amb


def _chart_d_vec(C: int, u, T):
    """d of the chart label (u, T) as a vector over chart wedge labels."""
    co = _label_coords(chart_coords(C, u), T)
    return {newT: cf for _, newT, cf in d_terms(co, T)}


def _overlap_d_lambda(base: int, u, T):
    """d of an overlap label, directly in lattice-frame coordinates."""
    co = _label_coords(chart_coords(base, u), T)
    out = {}
    for _, newT, cf in d_terms(co, T):
        vec_axpy(out, cf, wedge_lambda(base, newT))
    return out


# ---------------------------------------------------------------------------
# The character-slice model and its global sections.


@dataclass
class CharModel:
    u: tuple
    kind: str
    m: int
    amb: list          # per chart: list of wedge labels
    rel_vecs: list     # per chart: d-image relations (hc_top), over amb
    sub_ech: list      # per chart: Echelon constraint (image_d) or None
    pair_ech: dict     # (P, Q) -> Echelon over std wedges


def _chart_d_images(kind: str, m: int, C: int, u) -> list:
    """Nonzero d-images of the chart-C labels of the model's (m-1)-forms,
    as vectors over chart wedge labels."""
    if m < 1:
        return []
    return [dv for dv in (_chart_d_vec(C, u, T)
                          for T in _labels(kind, m - 1, C, (), u)) if dv]


def _pair_reduction_echelon(kind, m, P, Q, u):
    spec = _spec(kind)
    if spec.d_image != QUOTIENT or m < 1:
        return Echelon([])
    base, F = overlap_data(P, Q)
    return Echelon([_overlap_d_lambda(base, u, T)
                    for T in _labels(spec.ambient, m - 1, base, F, u)])


@lru_cache(maxsize=None)
def char_model(kind: str, m: int, u) -> CharModel:
    """The untruncated model at one character: below the cut no label is a
    truncation relation, so the only relations are the d-images of hc_top
    (and image_d's constraint)."""
    spec = _spec(kind)
    amb, rel_vecs, sub_ech = [], [], []
    for C in range(4):
        a = _labels(kind, m, C, (), u)
        d_images = (_chart_d_images(spec.ambient, m, C, u)
                    if spec.d_image else [])
        rels, ech = [], None
        if spec.d_image == QUOTIENT:
            aset = set(a)
            if not all(set(dv) <= aset for dv in d_images):
                raise EngineError("d image leaves the reduced ambient")
            rels = d_images
        elif spec.d_image == CONSTRAINT:
            ech = Echelon(d_images)
        amb.append(a)
        rel_vecs.append(rels)
        sub_ech.append(ech)
    pair_ech = {(P, Q): _pair_reduction_echelon(kind, m, P, Q, u)
                for P in range(4) for Q in range(P + 1, 4)}
    return CharModel(u, kind, m, amb, rel_vecs, sub_ech, pair_ech)


@dataclass
class CharSections:
    """Global sections of a model at one character.  Its vectors are keyed
    by position in flat_labels; a flat family is keyed by the (chart,
    wedge) labels themselves."""
    u: tuple
    flat_labels: list        # [(C, T)]
    index: dict              # (C, T) -> position in flat_labels
    basis: list              # kernel vectors forming a basis mod relations
    rel_flat: list           # relation vectors in flat coordinates
    dim: int

    def family(self, vec: dict) -> dict:
        """The flat family of a position-keyed vector."""
        return {self.flat_labels[j]: cf for j, cf in vec.items()}

    def flat(self, family: dict) -> dict | None:
        """The position-keyed vector of a flat family, or None when a label
        lies outside the ambient."""
        if any(lab not in self.index for lab in family):
            return None
        return {self.index[lab]: cf for lab, cf in family.items()}


@lru_cache(maxsize=None)
def h0_char(kind: str, m: int, u) -> CharSections:
    """Global sections of the untruncated model at a single character:
    kernel of the pairwise comparison in the lattice frame, modulo chartwise
    relations.  They are the sections at every level n > xdeg(u)."""
    model = char_model(kind, m, u)
    flat = [(C, T) for C in range(4) for T in model.amb[C]]
    if not flat:
        return CharSections(u, [], {}, [], [], 0)
    cols = []
    for (C, T) in flat:
        col = {}
        lam = wedge_lambda(C, T)
        for P in range(4):
            for Q in range(P + 1, 4):
                if C == P:
                    signed = lam
                elif C == Q:
                    signed = vec_scale(-1, lam)
                else:
                    continue
                res = model.pair_ech[(P, Q)].reduce(signed)
                for W, cf in res.items():
                    col[("p", P, Q, W)] = cf
        if model.sub_ech[C] is not None:
            res = model.sub_ech[C].reduce({T: 1})
            for TT, cf in res.items():
                col[("m", C, TT)] = cf
        cols.append(col)
    kernel = column_dependencies(cols)
    index = {lab: i for i, lab in enumerate(flat)}
    rel_flat = []
    for C in range(4):
        for v in model.rel_vecs[C]:
            rv = {index[(C, T)]: cf for T, cf in v.items()}
            if rv:
                rel_flat.append(rv)
    ker_ech = Echelon(kernel)
    for rv in rel_flat:
        if not ker_ech.contains(rv):
            raise EngineError("relation family is not a compatible section")
    rel_ech = Echelon(rel_flat)
    basis = [v for v in kernel if rel_ech.add(v)]
    return CharSections(u, flat, index, basis, rel_flat, len(basis))


# ---------------------------------------------------------------------------
# Character support: the characters every chart sees, with the box guard.


BOX_PAD = 4


def set_box_pad(pad: int) -> None:
    """Enlarge (or reset) the guard margin around n + m.  Whether the guard
    fires depends on it, so cached section spaces are dropped on change."""
    global BOX_PAD
    if pad < 0:
        raise EngineError("box pad must be >= 0")
    if pad != BOX_PAD:
        BOX_PAD = pad
        global_sections.cache_clear()


def _char_box(n: int, m: int) -> int:
    return n + m + BOX_PAD


def character_support(kind: str, m: int, n: int):
    """The characters below the cut xdeg(u) < n at which all four charts
    carry an ambient label: the characters global_sections evaluates.

    The cut.  Chart C's coordinates of a lattice character u are
    (xdeg(u), b1, b2) with base coordinates (u3, u1), (u0, u2), (u2, u1),
    (u0, u3) for C = 0..3, so the four charts' base coordinates are all
    four u_i.  Every fiber generator has x-degree 1 and every base
    generator x-degree 0, so the label T of the chart at u has fiber
    exponent xdeg(u) - [0 in T] on every chart and overlap.  The truncation
    relations f^n and f^(n-1) df make it a relation exactly when that
    exponent is at least n - [0 in T], that is when xdeg(u) >= n, whatever
    T is.  So past the cut every slice is zero, and below it no label is a
    relation and the slice is the untruncated one of h0_char.

    Bounds.  A label T of the chart at u has chart coordinates
    sum(T) + (alpha, beta, gamma) with beta, gamma >= 0.  A character below
    the cut that every chart sees therefore lies in the polytope

        u_i >= 0 for i = 0..3  and  u0 + u1 = u2 + u3 = xdeg(u) <= n - 1,

    which holds sum_{x < n} (x + 1)^2 lattice characters, all with
    max|u_i| <= n - 1 < n + m.  It is enumerated directly, and each of its
    characters is kept when every chart has a label there."""
    found = set()
    for x in range(n):
        for u0 in range(x + 1):
            for u2 in range(x + 1):
                u = (u0, x - u0, u2, x - u2)
                if all(_labels(kind, m, C, (), u) for C in range(4)):
                    found.add(u)
    return found


@dataclass
class GlobalSections:
    kind: str
    m: int
    n: int
    chars: dict            # u -> CharSections with dim > 0
    dim: int

    def space(self) -> VectorSpaceWithBasis:
        labels = [(u, i) for u in sorted(self.chars)
                  for i in range(self.chars[u].dim)]
        return VectorSpaceWithBasis(labels)

    def coords(self, u, family: dict, solvers: dict) -> dict | None:
        """Coordinates in space() of a flat family at character u, or None
        when the family is not a section.  Past the cut, xdeg(u) >= n, every
        ambient label is a relation: a family of ambient labels is zero
        there, and any other is None.  ``solvers`` is the map build's
        solver dict (see the module docstring)."""
        if xdeg(u) >= self.n:
            ok = all(T in _labels(self.kind, self.m, C, (), u)
                     for C, T in family)
            return {} if ok else None
        key = ("family", self.kind, self.m, u)
        if key not in solvers:
            cs = h0_char(self.kind, self.m, u)
            # the labels (u, 0..dim-1) are consecutive in space()
            index = self.space().index
            if cs.dim and (u, 0) not in index:
                raise EngineError(f"{self.kind} m={self.m} n={self.n}: "
                                  f"sections at {u} outside the support")
            first = index[(u, 0)] if cs.dim else 0
            solvers[key] = (cs, SpanSolver(cs.basis + cs.rel_flat), first)
        cs, solver, first = solvers[key]
        vec = cs.flat(family)
        coeffs = None if vec is None else solver.express(vec)
        if coeffs is None:
            return None
        return {first + j: cf for j, cf in enumerate(coeffs[:cs.dim]) if cf}

    def map_from(self, dom: VectorSpaceWithBasis, sections, solvers: dict,
                 error: str) -> LinearMap:
        """The map from ``dom`` into space() sending the i-th basis vector
        to the i-th (character, flat family) of ``sections``; EngineError
        with message ``error`` when a family is not a section."""
        images = []
        for u, family in sections:
            vec = self.coords(u, family, solvers)
            if vec is None:
                raise EngineError(error)
            images.append(vec)
        return LinearMap(dom, self.space(), images)

    def dims_by_xdeg(self) -> dict:
        out = {}
        for u, cs in self.chars.items():
            out[xdeg(u)] = out.get(xdeg(u), 0) + cs.dim
        return out


@lru_cache(maxsize=None)
def global_sections(kind: str, m: int, n: int) -> GlobalSections:
    """Global sections of the model at level n: h0_char, which has no
    level, at the characters of character_support, which applies the cut
    xdeg(u) < n; a character outside the box n + m + BOX_PAD is a
    BoxInstabilityError.

    Why no other character carries a section.  Past the cut every label is
    a relation (see character_support).  Below it, a chart with no ambient
    label at u has a zero slice there.  A global section that is zero on
    chart C restricts to zero on every overlap of C with a chart D, so it
    is zero on D as soon as restriction from D to the overlap is injective;
    then it is zero everywhere.  Injectivity, kind by kind:

    * omega, omega_tilde, horizontal, ideal_power, image_d.  The chart
      slice is a submodule of a free module over k[f]/(f^n)[b1, b2]
      (image_d sits inside omega_tilde modulo its relations), restriction
      to an overlap is the localisation at some base coordinates, and base
      coordinates are non-zero-divisors on k[f]/(f^n)[b1, b2].
    * hc_top = omega_tilde^m / d omega_tilde^{m-1}, at u != 0.  Pick a
      cocharacter a with <u, a> != 0 and let E = sum_j a_j x_j d/dx_j be
      its Euler field.  Contraction by E maps chart forms to chart forms
      and overlap forms to overlap forms, and it preserves the truncation
      relations f^n Omega + f^{n-1} df ^ Omega (because E f = <v, a> f for
      the fiber character v) and the reduced-form condition.  On forms of
      character u, d i_E + i_E d = <u, a>.  Let w be a chart form that is
      d-exact on an overlap modulo relations.  Since d maps relations to
      relations, dw is a relation on the overlap, hence on the chart by the
      first case: w is closed on the chart modulo relations.  So
      w = d(i_E w) / <u, a> modulo chart relations, which is zero in
      hc_top.
    * u = 0, where <u, a> = 0 for every a.  Its coordinates are (0, 0, 0)
      on every chart, so every chart has the same labels there, and it is
      evaluated as soon as one chart has a label.

    tests/test_encech.py evaluates h0_char on the whole padded box that
    contains every character below the cut that some chart sees and checks
    that it finds exactly these sections."""
    B = _char_box(n, m)
    chars = {}
    for u in sorted(character_support(kind, m, n)):
        if max(abs(x) for x in u) > B:
            raise BoxInstabilityError(
                f"{kind} m={m} n={n}: support outside box at {u}")
        cs = h0_char(kind, m, u)
        if cs.dim:
            chars[u] = cs
    return GlobalSections(kind, m, n, chars, sum(c.dim for c in
                                                 chars.values()))


# ---------------------------------------------------------------------------
# Maps between section spaces.


def restriction_map(kind: str, m: int, n: int) -> LinearMap:
    """Sections at level n+1 restrict to level n.  h0_char has no level,
    so both levels hold the same sections at every character below the
    cut xdeg(u) < n, and the shell xdeg(u) = n lies past the level-n cut,
    where every label is a relation: restriction is the identity on the
    shared characters and zero on the shell."""
    hi = global_sections(kind, m, n + 1).space()
    lo = global_sections(kind, m, n).space()
    if [lab for lab in hi.labels if xdeg(lab[0]) < n] != lo.labels:
        raise EngineError(f"{kind} m={m}: levels {n} and {n + 1} differ "
                          "below the cut")
    return LinearMap(hi, lo, [{lo.index[lab]: 1} if xdeg(lab[0]) < n else {}
                              for lab in hi.labels])


def sections_system(kind: str, m: int, nmax: int):
    """ProVectorSystem of section spaces for levels 1..nmax."""
    from .prosys import ProVectorSystem
    levels = {n: global_sections(kind, m, n).space()
              for n in range(1, nmax + 1)}
    transitions = {n: restriction_map(kind, m, n) for n in range(1, nmax)}
    return ProVectorSystem(levels, transitions)


def _d_family(cs: CharSections, vec: dict) -> dict:
    """d of a section vector at character cs.u, chart by chart, as a flat
    family."""
    out = {}
    for (C, T), cf in cs.family(vec).items():
        vec_axpy(out, cf, {(C, newT): dcf for newT, dcf
                           in _chart_d_vec(C, cs.u, T).items()})
    return out


def pullback_section(kind: str, mon, wedge, solvers: dict):
    """(character, flat family) of the pullback of x^mon dx_wedge.

    Monomials pull back to the characters they define; each generator
    differential expands in chart labels through its chart coordinates.
    The result is expressed per chart in the model ambient, which fails
    (EngineError) exactly when the pullback is not a section of the model.
    ``solvers`` is the map build's solver dict (see the module docstring)."""
    u = character(mon, wedge)
    m = len(wedge)
    lam = _frame_wedge([SEGRE_CHARS[i] for i in wedge])
    family = {}
    for C in range(4):
        key = ("chart", kind, m, C, u)
        if key not in solvers:
            amb = _labels(kind, m, C, (), u)
            solvers[key] = (amb, SpanSolver([wedge_lambda(C, T) for T in amb]))
        amb, solver = solvers[key]
        coeffs = solver.express(lam)
        if coeffs is None:
            raise EngineError("pullback does not restrict to a chart section")
        for T, cf in zip(amb, coeffs):
            if cf:
                family[(C, T)] = cf
    return u, family


# ---------------------------------------------------------------------------
# Verifiers.


def verify_H0_surjection(m: int, n: int) -> Verdict:
    """H0 of the top cyclic-homology quotient sheaf is H0 of the reduced
    forms modulo H0 of the d-image sheaf, and the projection is onto."""
    tilde = global_sections("omega_tilde", m, n)
    imaged = global_sections("image_d", m, n) if m >= 1 else None
    hc = global_sections("hc_top", m, n)
    im_dim = imaged.dim if imaged else 0
    ok = hc.dim == tilde.dim - im_dim
    support = set(tilde.chars) | set(hc.chars)
    if imaged:
        support |= set(imaged.chars)
    for u in sorted(support):
        t_cs = h0_char("omega_tilde", m, u)
        hc_cs = h0_char("hc_top", m, u)
        im_d = h0_char("image_d", m, u).dim if m >= 1 else 0
        if hc_cs.dim != t_cs.dim - im_d:
            ok = False
            break
        # surjectivity: tilde sections must span the quotient classes
        ech = Echelon(hc_cs.rel_flat)
        base_rank = 0
        for v in t_cs.basis:
            vec = hc_cs.flat(t_cs.family(v))
            if vec is None:
                ok = False
                break
            if ech.add(vec):
                base_rank += 1
        if base_rank != hc_cs.dim:
            ok = False
        if not ok:
            break
    return Verdict(ok, {
        "m": m, "n": n,
        "h0_tilde": tilde.dim,
        "h0_image_d": im_dim,
        "h0_hc_top": hc.dim,
    })


def verify_alg_surjection(i: int, n: int) -> Verdict:
    """Horizontal sections and d-images of lower forms span the sections of
    the m-forms on the thickening; for i >= 3 the quotient is zero.

    For i >= 3 the horizontal pool combinations((1, 2), i) is empty, so the
    echelon at each character holds only the d-images of the (i-1)-form
    sections (below the cut Omega^i has no relations), and a character is
    uncovered exactly when some section of Omega^i there is not a d-image.
    So the target is zero (``target_zero``) exactly when no character is
    uncovered.  The details carry the same keys on every path; horizontal
    dims off their closed form add ``failed``, ``dims`` and ``expected``."""
    if i < 1:
        raise EngineError("form degree must be >= 1")
    from .sheaf import coh_closed_form
    horiz = global_sections("horizontal", i, n)
    omega = global_sections("omega", i, n)
    lower = global_sections("omega", i - 1, n)
    details = {
        "i": i, "n": n,
        "h0_horizontal": horiz.dim,
        "h0_omega": omega.dim,
        "h0_omega_lower": lower.dim,
    }
    expected = {j: coh_closed_form(i, j, 0) for j in range(0, n)}
    closed_ok = horiz.dims_by_xdeg() == {j: d for j, d in expected.items()
                                         if d}
    if not closed_ok:
        details.update(failed="horizontal sections vs closed form",
                       dims=horiz.dims_by_xdeg(), expected=expected)
    uncovered = []
    for u in sorted(omega.chars):
        om_cs = h0_char("omega", i, u)
        ech = Echelon(om_cs.rel_flat)
        h_cs = h0_char("horizontal", i, u)
        lo_cs = h0_char("omega", i - 1, u)
        for fam in ([h_cs.family(v) for v in h_cs.basis]
                    + [_d_family(lo_cs, v) for v in lo_cs.basis]):
            vec = om_cs.flat(fam)
            if vec is None:
                raise EngineError("family leaves the ambient model")
            ech.add(vec)
        for v in om_cs.basis:
            if not ech.contains(v):
                uncovered.append(u)
                break
    details["uncovered_characters"] = [list(u) for u in uncovered]
    if i >= 3:
        details["target_zero"] = not uncovered
    return Verdict(closed_ok and not uncovered, details)


def chart_generator_consistency() -> Verdict:
    """Structural checks tying the chart atlas to the monoid: unimodular
    charts whose fiber coordinates are exactly the degree-one generators,
    every generator regular on every chart, and runtime-provable overlap
    rules for all six pairs."""
    problems = []
    fibers = tuple(CHART_GENS[C][0] for C in range(4))
    if fibers != SEGRE_CHARS:
        problems.append("fiber coordinates differ from monoid generators")
    for C in range(4):
        try:
            _chart_inverse(C)
        except EngineError as e:
            problems.append(str(e))
        for v in SEGRE_CHARS:
            if not chart_contains(C, v):
                problems.append(f"generator {v} not regular on chart {C}")
    f_table = {}
    for P in range(4):
        for Q in range(P + 1, 4):
            try:
                f_table[f"{P},{Q}"] = sorted(overlap_data(P, Q)[1])
            except EngineError as e:
                problems.append(str(e))
    # opposite charts meet in the torus: both base coordinates invert
    for pair in ("0,1", "2,3"):
        if f_table.get(pair) != [1, 2]:
            problems.append(f"opposite pair ({pair}) not a torus overlap")
    # the distinguished chart must agree with the chart-algebra encoding
    # (generator i maps to fiber^a * y3^b * y4^c with (a,b,c) its coords)
    from .charts import CHART_IMAGES
    for i in range(4):
        if chart_coords(0, SEGRE_CHARS[i]) != CHART_IMAGES[i]:
            problems.append(
                f"chart-algebra image of generator {i} disagrees")
    return Verdict(not problems, {"F_table": f_table, "problems": problems})
