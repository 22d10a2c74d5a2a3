"""Kahler differentials and de Rham complexes of truncated cone algebras.

For a finite-dimensional quotient S = k[x1..xr]/I the module of m-forms is

    Omega^m_S = Lambda^m(free module on dx_i) (x) S  /  < u * dg ^ eta >

over ideal generators g, standard monomials u and free wedge frames eta.
Basis labels are (monomial, wedge) pairs, so every exactness failure prints
a readable witness.  The de Rham d is computed on monomial lifts by
``d_terms``, the one formula for d of a monomial form, which the chart
models of ``encech`` and ``charts`` use as well.  Every map
out of a quotient here (d, the truncation transitions of the forms and of
the Hodge pieces, and the comparison of the two models) is built by ``linalg.induced_quotient_map``,
which checks that it descends: the relations must land in the target's
relations.  A module builds each d on its first use, checking it then,
and keeps one Hodge quotient per form degree; the docstring of
DifferentialModule says why building late skips no check.

Two models are used downstream, built over the same algebra Q_n:

* the full module Omega^m_{Q_n}: relations from the whole truncation ideal;
* the tensor model Omega^m_Q (x) Q_n: relations from the cone binomial only.

The top wedge (m = 4) of the tensor model is one-dimensional at every level,
spanned by w = dx1 dx2 dx3 dx4 with x_i * w = 0; that class is the
non-vanishing witness carried through the K-theory assembly.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

from .errors import EngineError
from .linalg import (LinearMap, QuotientSpace, VectorSpaceWithBasis,
                     induced_quotient_map)
from .monoid import cone_relation
from .polyring import (FiniteAlgebra, Polynomial, mon_deg, mon_mul,
                       truncated_quotient)
from .verdict import Verdict


def _partials(g: Polynomial) -> dict:
    """i -> dg/dx_i (nonzero ones only)."""
    out = {}
    for i in range(g.nvars):
        terms = {}
        for m, c in g.terms.items():
            if m[i]:
                mm = list(m)
                mm[i] -= 1
                terms[tuple(mm)] = c * m[i]
        if terms:
            out[i] = Polynomial(g.nvars, terms)
    return out


def _wedge_insert(i: int, wedge: tuple):
    """Sort dx_i into dx_wedge: (sign, new_wedge), sign 0 when i is present."""
    if i in wedge:
        return 0, None
    k = sum(1 for j in wedge if j < i)
    return (-1) ** k, tuple(sorted(wedge + (i,)))


def d_terms(exps: tuple, wedge: tuple) -> list:
    """d(x^exps dx_wedge) = sum_i exps[i] x^(exps - e_i) dx_i ^ dx_wedge, one
    term (exps - e_i, sorted wedge + (i,), sign * exps[i]) for each i with
    exps[i] != 0 and i not in wedge.  Exponents may be negative (Laurent
    monomials on a chart)."""
    out = []
    for i, e in enumerate(exps):
        if e and i not in wedge:
            sign, nw = _wedge_insert(i, wedge)
            out.append((exps[:i] + (e - 1,) + exps[i + 1:], nw, sign * e))
    return out


class DifferentialModule:
    """Tower Omega^0..Omega^up_to, up_to = nvars + 1, of a finite algebra
    with exact d maps; Omega^up_to is zero and is there as the target of d
    on Omega^nvars.

    The ambient spaces and the quotients Omega^m are built here; each d(m)
    is built on its first call and kept, and so is each Hodge quotient
    (:func:`hodge_quotient`).  Building late skips no check: every space
    and map is a pure function of ``(alg, rel_gens, m)``, so when it is
    built cannot change it, and every d(m) that is built goes through
    ``induced_quotient_map``, which checks that it descends.  A d(m) that
    is never requested is never read, so nothing unchecked is used.
    """

    def __init__(self, alg: FiniteAlgebra, rel_gens: Sequence[Polynomial]):
        self.alg = alg
        nv = alg.nvars
        self.up_to = nv + 1
        self.rel_gens = [g for g in rel_gens if not g.is_zero()]
        self._ambient: list[VectorSpaceWithBasis] = []
        self._quot: list[QuotientSpace] = []
        for m in range(self.up_to + 1):
            wedges = list(itertools.combinations(range(nv), m))
            labels = [(mon, w) for w in wedges for mon in alg.basis]
            space = VectorSpaceWithBasis(labels)
            self._ambient.append(space)
            self._quot.append(
                QuotientSpace(space, self._relation_vectors(space, m)))
        self._d: dict[int, LinearMap] = {}
        self._hodge: dict[int, QuotientSpace] = {}

    # -- construction internals ---------------------------------------
    def _relation_vectors(self, space: VectorSpaceWithBasis, m: int) -> list:
        if m == 0:
            return []
        alg = self.alg
        etas = list(itertools.combinations(range(alg.nvars), m - 1))
        rels = []
        for g in self.rel_gens:
            parts = _partials(g)
            homogeneous = g.is_homogeneous()
            gdeg = g.total_degree()
            for u in alg.basis:
                if homogeneous and mon_deg(u) + gdeg - 1 >= alg.level:
                    continue  # every coefficient of u*dg is truncated away
                per_i = {}
                for i, pg in parts.items():
                    nf = alg.nf_terms({mon_mul(u, mm): c
                                       for mm, c in pg.terms.items()})
                    if nf:
                        per_i[i] = nf
                if not per_i:
                    continue
                for eta in etas:
                    vec: dict = {}
                    for i, nf in per_i.items():
                        sign, nw = _wedge_insert(i, eta)
                        if not sign:
                            continue
                        for bm, bc in nf.items():
                            idx = space.index[(bm, nw)]
                            n = vec.get(idx, 0) + sign * bc
                            if n:
                                vec[idx] = n
                            else:
                                vec.pop(idx, None)
                    if vec:
                        rels.append(vec)
        return rels

    # -- spaces ---------------------------------------------------------
    def ambient(self, m: int) -> VectorSpaceWithBasis:
        return self._ambient[m]

    def quot(self, m: int) -> QuotientSpace:
        return self._quot[m]

    def space(self, m: int) -> VectorSpaceWithBasis:
        return self._quot[m].space()

    def dim(self, m: int) -> int:
        return self._quot[m].dim

    def d(self, m: int) -> LinearMap:
        """d: Omega^m -> Omega^(m+1), built and checked on first use."""
        dmap = self._d.get(m)
        if dmap is None:
            dmap = self._d[m] = induced_quotient_map(
                self._quot[m], self._quot[m + 1],
                lambda v: self.ambient_d(m, v))
        return dmap

    # -- ambient-level operators ----------------------------------------
    def ambient_d(self, m: int, vec: dict) -> dict:
        """d on Lambda^m (x) S via monomial lifts, as an ambient (m+1)-vector."""
        src = self._ambient[m]
        dst = self._ambient[m + 1]
        out: dict = {}
        for idx, c in vec.items():
            for mon, wedge, cf in d_terms(*src.labels[idx]):
                j = dst.index[(mon, wedge)]
                n = out.get(j, 0) + c * cf
                if n:
                    out[j] = n
                else:
                    out.pop(j, None)
        return out

    def ambient_action(self, m: int, mon: tuple, vec: dict) -> dict:
        """Multiplication by the algebra class of ``mon`` on ambient vectors."""
        src = self._ambient[m]
        out: dict = {}
        for idx, c in vec.items():
            bm, wedge = src.labels[idx]
            for nm, nc in self.alg.nf_mon(mon_mul(mon, bm)).items():
                j = src.index[(nm, wedge)]
                n = out.get(j, 0) + c * nc
                if n:
                    out[j] = n
                else:
                    out.pop(j, None)
        return out

    # -- class-level helpers ---------------------------------------------
    def class_vec(self, m: int, mon: tuple, wedge: tuple) -> dict:
        """Class of the ambient basis element mon (x) dx_wedge, in space(m)."""
        return self._quot[m].class_of(self._ambient[m].basis_vector((mon, wedge)))

    def class_action(self, m: int, mon: tuple, cvec: dict) -> dict:
        q = self._quot[m]
        return q.class_of(self.ambient_action(m, mon, q.lift(cvec)))


@lru_cache(maxsize=None)
def qn_algebra(n: int) -> FiniteAlgebra:
    return truncated_quotient([cone_relation()], n)


@lru_cache(maxsize=None)
def qn_module(n: int) -> DifferentialModule:
    """Omega^*_{Q_n}: relations from the full truncation ideal."""
    alg = qn_algebra(n)
    return DifferentialModule(alg, list(alg.gb.elements))


@lru_cache(maxsize=None)
def q_tensor_module(n: int) -> DifferentialModule:
    """Omega^*_Q (x) Q_n: relations from the cone binomial only."""
    return DifferentialModule(qn_algebra(n), [cone_relation()])


def _truncation_map(src: QuotientSpace, dst: QuotientSpace,
                    n: int) -> LinearMap:
    """Map from a quotient of level n+1 forms to a quotient of level n
    forms, induced by dropping the monomials of degree >= n."""
    samb, damb = src.ambient, dst.ambient

    def truncate(vec: dict) -> dict:
        out = {}
        for i, c in vec.items():
            mon, w = samb.labels[i]
            if mon_deg(mon) < n:
                out[damb.index[(mon, w)]] = c
        return out

    return induced_quotient_map(src, dst, truncate)


@lru_cache(maxsize=None)
def omega_transition(m: int, n: int, tensor: bool = False) -> LinearMap:
    """Truncation-induced map Omega^m at level n+1 -> level n."""
    build = q_tensor_module if tensor else qn_module
    return _truncation_map(build(n + 1).quot(m), build(n).quot(m), n)


def hodge_quotient(dm: DifferentialModule, m: int) -> QuotientSpace:
    """Top Hodge piece HC^{(m)}_m = Omega^m / d(Omega^{m-1}) of an algebra:
    the ambient m-forms modulo the relations of Omega^m and the d-images of
    the coordinate lifts of Omega^{m-1}.  Built once per module and degree
    and kept on the module."""
    hq = dm._hodge.get(m)
    if hq is None:
        subs = dm.quot(m).relations()
        if m >= 1:
            amb = dm.ambient(m - 1)
            subs += [dm.ambient_d(m - 1, amb.basis_vector(lab))
                     for lab in dm.quot(m - 1).coord_labels]
        hq = dm._hodge[m] = QuotientSpace(dm.ambient(m), subs)
    return hq


@lru_cache(maxsize=None)
def hodge_transition(m: int, n: int) -> LinearMap:
    """Induced map HC^{(m)}_m(Q_{n+1}) -> HC^{(m)}_m(Q_n)."""
    return _truncation_map(hodge_quotient(qn_module(n + 1), m),
                           hodge_quotient(qn_module(n), m), n)


OMEGA_TOP = ((0, 0, 0, 0), (0, 1, 2, 3))  # the class w = dx1 dx2 dx3 dx4


def omega4_cone_check(nmax: int) -> Verdict:
    """dim(Omega^4_Q (x) Q_n) = 1 with x_i * w = 0 and w fixed by transitions;
    dim Omega^4_{Q_n} = 1 as well once n >= 2 (level 1 is the base field)."""
    details: dict = {"per_level": {}}
    ok = True
    witness = None
    for n in range(1, nmax + 1):
        tm = q_tensor_module(n)
        qm = qn_module(n)
        mon, wedge = OMEGA_TOP
        w_class = tm.class_vec(4, mon, wedge)
        killed = all(not tm.class_action(4, tuple(1 if j == i else 0 for j in range(4)),
                                         w_class)
                     for i in range(4))
        rec = {
            "dim_tensor_omega4": tm.dim(4),
            "dim_omega4": qm.dim(4),
            "w_nonzero": bool(w_class),
            "x_times_w_zero": killed,
        }
        good = (tm.dim(4) == 1 and qm.dim(4) == (1 if n >= 2 else 0)
                and bool(w_class) and killed)
        if n < nmax:
            tnext = q_tensor_module(n + 1)
            trans = omega_transition(4, n, tensor=True)
            w_up = tnext.class_vec(4, mon, wedge)
            rec["transition_fixes_w"] = trans.apply(w_up) == w_class
            good = good and rec["transition_fixes_w"]
        details["per_level"][n] = rec
        if good and witness is None:
            witness = {"class": "dx1^dx2^dx3^dx4", "level": n}
        ok = ok and good
    return Verdict(ok, details, witness)


def pro_exterior_power_check(r: int, nmax: int, window: int) -> Verdict:
    """Lambda^r of the levelwise surjection Omega^1_Q (x) Q_n -> Omega^1_{Q_n}
    is a pro-isomorphism within the window."""
    from . import prosys  # local import keeps module layering acyclic

    levels_src = {}
    levels_dst = {}
    comp = {}
    for n in range(1, nmax + 1):
        src = q_tensor_module(n)
        dst = qn_module(n)
        f = induced_quotient_map(src.quot(r), dst.quot(r), lambda v: v)
        if f.rank() != dst.dim(r):
            raise EngineError(f"level {n}: Lambda^{r} comparison not surjective")
        levels_src[n] = src.space(r)
        levels_dst[n] = dst.space(r)
        comp[n] = f
    tr_src = {n: omega_transition(r, n, tensor=True) for n in range(1, nmax)}
    tr_dst = {n: omega_transition(r, n) for n in range(1, nmax)}
    source = prosys.ProVectorSystem(levels_src, tr_src)
    target = prosys.ProVectorSystem(levels_dst, tr_dst)
    fmap = prosys.StrictProMap(source, target, comp)
    verdict = prosys.certify_pro_iso(fmap, window)
    verdict.details["power"] = r
    verdict.details["levelwise_surjective"] = True
    return verdict
