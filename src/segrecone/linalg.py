"""Exact sparse linear algebra over the rationals.

Everything downstream (normal forms, differential modules, Cech complexes,
pro-system certificates) reduces to ranks, kernels and canonical quotient
coordinates of sparse rational matrices.  This module is the only place
elimination is implemented.

Key choices:

* Vectors are dicts mapping hashable, mutually comparable labels to nonzero
  rationals, each an ``int`` or a ``Fraction`` and never a ``float``.
  Labels are ints or tuples; zero coefficients are never stored.
* Elimination keeps a forward echelon (one row per pivot, pivot = smallest
  label in the row, pivot coefficient 1) instead of a maintained RREF.
  Reducing a vector visits its labels in increasing order via a heap;
  subtracting a row only introduces labels larger than that row's pivot, so
  one pass terminates with a residual supported away from every pivot.  The
  residual is linear in the input and vanishes exactly on the row span,
  which makes it a canonical coordinate vector for the quotient by the span.
* This module owns the number rule for the whole engine: every exact
  coefficient, here or in a polynomial, is stored through :func:`_exact`,
  divided through :func:`_exact_div` and accumulated through
  :func:`vec_axpy` (the hot loops of ``Echelon``, of the polynomial
  reduction and of the Kaehler module build inline the same update).
  Apart from ``report``, which renders Fractions, no other module imports
  ``fractions``.
* All arithmetic is exact.  Values are stored as Python ints when they
  are integral (an integral Fraction is stored as its numerator) and as
  Fractions otherwise.  Int arithmetic is several times cheaper than
  Fraction arithmetic, and the engine's matrices are mostly integral
  (Cech incidence matrices have entries +-1).  The only division,
  :func:`_exact_div`, never divides two ints with ``/``, so no float can
  arise.  Value types do not change results: the residual is the unique
  vector in ``vec + span`` that vanishes on every pivot, so it is the same
  rational vector whatever mix of ints and Fractions produced it, and
  ``2 == Fraction(2)`` with equal hashes, so dicts, comparisons and the
  report's ``jsonable`` (which writes integral Fractions as ints) see no
  difference.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import EngineError

Vec = dict  # label -> nonzero int or Fraction


def _exact(c):
    """``c`` as an exact rational: an int if integral, else a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _exact_div(c, lead):
    """Exact ``c / lead`` for a nonzero ``lead``; never a float."""
    if lead == 1:
        return c
    if lead == -1:
        return -c
    return _exact(Fraction(c) / lead)


def vec_clean(v: Mapping) -> Vec:
    """Copy of ``v`` with exact coefficients (see :func:`_exact`) and zeros
    dropped."""
    out = {}
    for k, c in v.items():
        if type(c) is not int:  # ints, the common case, skip the call
            c = _exact(c)
        if c:
            out[k] = c
    return out


def vec_axpy(out: dict, c, v: Mapping) -> dict:
    """``out += c * v`` in place; returns ``out``.  Each sum is stored by
    the rule of :func:`_exact`, and zeros are dropped."""
    c = _exact(c)
    if not c:
        return out
    for k, x in v.items():
        n = out.get(k, 0) + c * x
        if n:
            out[k] = n if type(n) is int else _exact(n)
        else:
            out.pop(k, None)
    return out


def vec_add(u: Mapping, v: Mapping) -> Vec:
    return vec_axpy(dict(u), 1, v)


def vec_scale(c, v: Mapping) -> Vec:
    c = _exact(c)
    if not c:
        return {}
    return {k: c * x for k, x in v.items()}


class Echelon:
    """Forward echelon accumulator for rational vectors.

    With ``track=True`` every stored row also carries an expression of
    itself as a combination of the vectors originally passed in, keyed by
    the tags supplied to :meth:`add_for_dependency`; failed insertions then
    yield explicit linear dependencies (= kernel elements).

    The seed ``vectors`` are inserted in order, each tracked under its
    position when ``track=True``.
    """

    def __init__(self, vectors: Iterable[Mapping] = (), track: bool = False):
        self._rows: dict = {}  # pivot label -> row (pivot coefficient 1)
        self._expr: dict = {}  # pivot label -> tag combination
        self._track = track
        for i, v in enumerate(vectors):
            if track:
                self.add_for_dependency(v, tag=i)
            else:
                self.add(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> set:
        return set(self._rows)

    def rows(self) -> list:
        return [dict(self._rows[p]) for p in sorted(self._rows)]

    def reduce(self, vec: Mapping, _record: dict | None = None) -> Vec:
        """Canonical residual of ``vec`` modulo the row span.

        Linear in ``vec``; zero exactly on the span; the identity on vectors
        supported away from the pivots.
        """
        v = vec_clean(vec)
        heap = list(v)
        heapq.heapify(heap)
        seen = set()
        while heap:
            k = heapq.heappop(heap)
            if k in seen:
                continue
            seen.add(k)
            c = v.get(k)
            if not c:
                continue
            row = self._rows.get(k)
            if row is None:
                continue
            if _record is not None:
                _record[k] = _record.get(k, 0) + c
            for kk, cc in row.items():
                n = v.get(kk, 0) - c * cc
                if n:
                    v[kk] = n
                    if kk not in seen:
                        heapq.heappush(heap, kk)
                else:
                    v.pop(kk, None)
        return v

    def contains(self, vec: Mapping) -> bool:
        return not self.reduce(vec)

    def _combine(self, base: dict, record: dict) -> dict:
        out = dict(base)
        for p, t in record.items():
            for tg, c in self._expr[p].items():
                n = out.get(tg, 0) - t * c
                if n:
                    out[tg] = n
                else:
                    out.pop(tg, None)
        return out

    def add(self, vec: Mapping) -> bool:
        """Insert ``vec``; True iff the rank grew."""
        res = self.reduce(vec)
        if not res:
            return False
        self._store(res)
        return True

    def add_for_dependency(self, vec: Mapping, tag: Hashable) -> dict | None:
        """Insert ``vec`` under ``tag`` (tracking mode only).

        Returns None when the rank grew.  Otherwise returns a dict ``dep``
        with ``dep[tag] == 1`` and ``sum(dep[t] * vector(t)) == 0`` over the
        previously inserted vectors.
        """
        assert self._track, "Echelon created without track=True"
        record: dict = {}
        res = self.reduce(vec, record)
        if not res:
            return self._combine({tag: 1}, record)
        lead = res[min(res)]
        expr = self._combine({tag: 1}, record)
        self._expr[min(res)] = {tg: _exact_div(c, lead)
                                for tg, c in expr.items()}
        self._store(res)
        return None

    def _store(self, res: Vec) -> None:
        p = min(res)
        lead = res[p]
        self._rows[p] = {k: _exact_div(c, lead) for k, c in res.items()}


def span_rank(vectors: Iterable[Mapping]) -> int:
    return Echelon(vectors).rank


class SpanSolver:
    """Coefficients of targets in the span of a fixed list of vectors.

    The tracked elimination of the vectors runs once, in the constructor;
    :meth:`express` only reduces its target against it, so queries never
    change the solver and a target outside the span leaves it as it was.
    Keep one solver for as long as its vectors are queried (one map
    build), not in a process-wide cache.
    """

    def __init__(self, vectors: Sequence[Mapping]):
        self._n = len(vectors)
        self._ech = Echelon(vectors, track=True)

    def express(self, target: Mapping) -> list | None:
        """Coefficients c with ``target == sum(c[i] * vectors[i])``, or None."""
        record: dict = {}
        if self._ech.reduce(target, record):
            return None
        neg = self._ech._combine({}, record)
        return [-neg.get(i, 0) for i in range(self._n)]


def express_in_span(vectors: Sequence[Mapping], target: Mapping) -> list | None:
    """Coefficients c with ``target == sum(c[i] * vectors[i])``, or None
    (one query of a :class:`SpanSolver`)."""
    return SpanSolver(vectors).express(target)


def column_dependencies(columns: Sequence[Mapping]) -> list[Vec]:
    """Right-kernel basis of the matrix whose columns are given.

    Each returned dict maps column index -> coefficient; the corresponding
    combination of columns is zero.  Rank-nullity holds by construction and
    is asserted.
    """
    ech = Echelon(track=True)
    deps = []
    for j, col in enumerate(columns):
        dep = ech.add_for_dependency(col, tag=j)
        if dep is not None:
            deps.append(dep)
    assert len(deps) + ech.rank == len(columns)
    return deps


class VectorSpaceWithBasis:
    """Finite-dimensional rational space with a fixed ordered basis of labels."""

    def __init__(self, labels: Iterable[Hashable]):
        self.labels = list(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise ValueError("duplicate basis label")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def basis_vector(self, lab: Hashable) -> Vec:
        return {self.index[lab]: 1}


class LinearMap:
    """Linear map between based spaces, stored as basis images (index-keyed)."""

    def __init__(self, domain: VectorSpaceWithBasis, codomain: VectorSpaceWithBasis,
                 images: Sequence[Mapping]):
        if len(images) != domain.dim:
            raise ValueError("need one image per domain basis vector")
        self.domain = domain
        self.codomain = codomain
        self.images = [vec_clean(v) for v in images]

    def apply(self, vec: Mapping) -> Vec:
        out: Vec = {}
        for i, c in vec.items():
            vec_axpy(out, c, self.images[i])
        return out

    def rank(self) -> int:
        return span_rank(self.images)

    def kernel(self) -> list[Vec]:
        """Basis of the kernel as index-keyed domain vectors."""
        return column_dependencies(self.images)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self o other (apply ``other`` first)."""
        if other.codomain.labels != self.domain.labels:
            raise ValueError("composition shape mismatch")
        return LinearMap(other.domain, self.codomain,
                         [self.apply(v) for v in other.images])

    def is_zero(self) -> bool:
        return all(not v for v in self.images)


class QuotientSpace:
    """Quotient of a based space by a subspace, with canonical coordinates.

    The coordinates live on the ambient basis labels that are not pivots of
    the subspace echelon; the reduction residual is the coordinate map.  The
    class of an ambient basis vector e_lab with lab a coordinate label is
    the coordinate basis vector at lab, so coordinate labels double as lifts.
    """

    def __init__(self, ambient: VectorSpaceWithBasis, subspace_vectors: Iterable[Mapping]):
        self.ambient = ambient
        self._ech = Echelon(subspace_vectors)
        piv = self._ech.pivots
        self._coord_indices = [i for i in range(ambient.dim) if i not in piv]
        self._slot = {i: s for s, i in enumerate(self._coord_indices)}
        self.coord_labels = [ambient.labels[i] for i in self._coord_indices]
        self._space: VectorSpaceWithBasis | None = None

    @property
    def dim(self) -> int:
        return len(self._coord_indices)

    def space(self) -> VectorSpaceWithBasis:
        """The quotient as a based space on the coordinate labels."""
        if self._space is None:
            self._space = VectorSpaceWithBasis(self.coord_labels)
        return self._space

    def project(self, vec: Mapping) -> Vec:
        """Canonical ambient representative (residual) of the class of ``vec``."""
        return self._ech.reduce(vec)

    def class_of(self, vec: Mapping) -> Vec:
        """Class of an ambient vector, index-keyed in :meth:`space`."""
        return {self._slot[i]: c for i, c in self.project(vec).items()}

    def is_zero_class(self, vec: Mapping) -> bool:
        return not self._ech.reduce(vec)

    def relations(self) -> list[Vec]:
        """Echelon rows of the subspace: they span it, and there are never
        more of them than the vectors it was built from."""
        return self._ech.rows()

    def lift(self, class_vec: Mapping) -> Vec:
        """Ambient representative of a class vector (index-keyed in
        :meth:`space`): coordinate labels lift to themselves."""
        return {self._coord_indices[s]: c for s, c in class_vec.items()}


def induced_quotient_map(qdom: QuotientSpace, qcod: QuotientSpace,
                         ambient_apply: Callable[[Vec], Mapping]) -> LinearMap:
    """Map on quotients induced by the linear ``ambient_apply`` on ambient
    vectors, checked for descent.

    The map is well defined iff ``ambient_apply`` sends the subspace of
    ``qdom`` into the subspace of ``qcod``, i.e. iff the composite with the
    projection to ``qcod`` kills that subspace.  A linear map kills a
    subspace iff it kills a spanning set of it.  The echelon rows of
    :meth:`QuotientSpace.relations` are a basis of the subspace, never more
    vectors than generated it, so checking them is complete and costs one
    reduction per dimension of the subspace.  A row mapping outside the
    target subspace raises ``EngineError``.  Images are taken on lifts of
    the coordinate basis.
    """
    for row in qdom.relations():
        if not qcod.is_zero_class(ambient_apply(row)):
            raise EngineError("induced map does not descend: a relation "
                              "maps outside the target subspace")
    dom = qdom.space()
    images = [qcod.class_of(ambient_apply(qdom.lift({s: 1})))
              for s in range(dom.dim)]
    return LinearMap(dom, qcod.space(), images)
