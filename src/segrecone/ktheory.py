"""Finite-level certificates of the K-theory reductions.

The reduced K-groups of the cone algebra are controlled, weight by weight,
by pro-systems built from truncated de Rham data on the cone and global
sections of form sheaves on thickenings of the exceptional surface.  This
module wires those two sides together through the character map (monomials
pull back to lattice characters) and certifies:

* weight 1: both boundary terms vanish (a levelwise isomorphism and a
  windowed pro-isomorphism certificate),
* weight 4: the top Hodge system with a nonzero compatible witness class,
* weights >= 5: the vanishing inputs,
* weight 3: the kernel system, with its target computed two independent
  ways that must agree exactly.

Every certificate is finite-level; pro-statements carry explicit windows.
The identification of relative K-theory with relative cyclic homology for
the cone and its blow-up is consumed as an external hypothesis and is
recorded verbatim in the details of the weight-one and weight-four
verdicts.
"""

from __future__ import annotations

from functools import lru_cache

from . import prosys
from .encech import (global_sections, pullback_section, sections_system,
                     verify_H0_surjection)
from .errors import CrossCheckError, EngineError
from .kaehler import (OMEGA_TOP, hodge_quotient, hodge_transition,
                      omega_transition, qn_algebra, qn_module)
from .linalg import (LinearMap, QuotientSpace, VectorSpaceWithBasis,
                     induced_quotient_map, vec_axpy)
from .polyring import mon_deg
from .sheaf import filtration_tilde_omega, h_filtered
from .verdict import Verdict

HYPOTHESES = (
    "pro-descent comparison of relative K-theory with relative cyclic "
    "homology for the cone and its blow-up (external input, not recomputed)",
    "all pro-statements are certified on finite windows only; every verdict "
    "records the window and truncation levels used",
)

# the witness class x1 dx2 dx3 dx4, whose differential is the top form
K4_WITNESS = ((1, 0, 0, 0), (1, 2, 3))


# ---------------------------------------------------------------------------
# Pullback plumbing: cone-side quotients -> section spaces on thickenings.


def _pullback_ambient(kind: str, amb: VectorSpaceWithBasis, vec: dict,
                      solvers: dict) -> dict:
    """Per-character flat families of the pullback of an ambient form
    vector (index-keyed over ``amb``)."""
    per_char: dict = {}
    for i, c in vec.items():
        mon, wedge = amb.labels[i]
        u, fam = pullback_section(kind, mon, wedge, solvers)
        vec_axpy(per_char.setdefault(u, {}), c, fam)
    return {u: f for u, f in per_char.items() if f}


def _pullback_map(quot: QuotientSpace, m: int, n: int,
                  kind: str) -> LinearMap:
    """Induced map from a quotient of cone m-forms to the space of global
    sections of the model, via coordinate-label lifts.  It is well defined
    iff the subspace pulls back into the relation span of the model (zero
    coordinates).  As in ``linalg.induced_quotient_map``, that is checked on
    the echelon rows of ``quot.relations()``, which span the subspace.
    GlobalSections owns the section coordinates; one solver dict serves
    this build and is freed with it."""
    amb = quot.ambient
    gs = global_sections(kind, m, n)
    solvers: dict = {}
    for vec in quot.relations():
        for u, fam in _pullback_ambient(kind, amb, vec, solvers).items():
            if gs.coords(u, fam, solvers) != {}:
                raise EngineError(
                    "pullback does not kill a cone-side relation")
    dom = quot.space()
    families = (pullback_section(kind, mon, wedge, solvers)
                for mon, wedge in dom.labels)
    return gs.map_from(dom, families, solvers,
                       "pullback is not a section of the model")


# ---------------------------------------------------------------------------
# Weight 1.


def _ideal_level_iso(n: int) -> Verdict:
    """The augmentation-power quotient maps isomorphically onto the ideal
    sections of the thickening, respecting the character grading."""
    alg = qn_algebra(n)
    mons = [e for e in alg.basis if mon_deg(e) >= 1]
    gs = global_sections("ideal_power", 0, n)
    dom = VectorSpaceWithBasis(mons)
    solvers: dict = {}
    pulled = [pullback_section("ideal_power", e, (), solvers)
              for e in mons]
    f = gs.map_from(dom, pulled, solvers,
                    "monomial does not define an ideal section")
    rank = f.rank()
    # grading bookkeeping: degree-j monomials hit (j+1)^2 distinct characters
    deg_counts: dict = {}
    deg_chars: dict = {}
    for e, (u, _) in zip(mons, pulled):
        j = mon_deg(e)
        deg_counts[j] = deg_counts.get(j, 0) + 1
        deg_chars.setdefault(j, set()).add(u)
    grading_ok = all(
        deg_counts[j] == (j + 1) ** 2 and len(deg_chars[j]) == deg_counts[j]
        for j in deg_counts)
    sections_by_deg = gs.dims_by_xdeg()
    ok = (dom.dim == gs.dim == rank and grading_ok
          and sections_by_deg == deg_counts)
    # the defining binomial maps to the literal same family on both sides
    u12, f12 = pullback_section("ideal_power", (1, 1, 0, 0), (), solvers)
    u34, f34 = pullback_section("ideal_power", (0, 0, 1, 1), (), solvers)
    if u12 != u34 or f12 != f34:
        raise EngineError("binomial relation broken by the character map")
    return Verdict(ok, {
        "n": n, "dim_mbar_quotient": dom.dim, "dim_ideal_sections": gs.dim,
        "rank": rank, "dims_by_degree": {j: deg_counts[j]
                                         for j in sorted(deg_counts)},
    })


def k1_form_map(n: int) -> LinearMap:
    """Omega^1 of the truncated cone algebra -> sections of the reduced
    1-forms on the thickening."""
    return _pullback_map(qn_module(n).quot(1), 1, n, "omega_tilde")


def verify_K1(nmax: int, window: int) -> Verdict:
    """Both boundary terms in weight one vanish: the form-side map is a
    pro-isomorphism within the window, and the ideal-side map is a
    levelwise isomorphism."""
    if nmax < 3:
        raise EngineError("need nmax >= 3 in weight one")
    levelwise = {}
    ok_b = True
    for n in range(2, nmax + 1):
        v = _ideal_level_iso(n)
        ok_b = ok_b and v.ok
        levelwise[n] = v.details
    src_levels = {n: qn_module(n).quot(1).space() for n in range(1, nmax + 1)}
    src_tr = {n: omega_transition(1, n) for n in range(1, nmax)}
    source = prosys.ProVectorSystem(src_levels, src_tr)
    target = sections_system("omega_tilde", 1, nmax)
    components = {n: k1_form_map(n) for n in range(1, nmax + 1)}
    fmap = prosys.StrictProMap(source, target, components)
    iso = prosys.certify_pro_iso(fmap, window)
    details = {
        "nmax": nmax, "window": window,
        "form_side_pro_iso": iso.details,
        "ideal_side_levelwise": levelwise,
        "source_dims": source.dims(), "target_dims": target.dims(),
        "hypotheses": list(HYPOTHESES),
    }
    return Verdict(iso.ok and ok_b, details,
                   None if iso.ok else iso.witness)


# ---------------------------------------------------------------------------
# Weight 4.


def _hodge_system(m: int, nmax: int) -> prosys.ProVectorSystem:
    spaces = {n: hodge_quotient(qn_module(n), m).space()
              for n in range(1, nmax + 1)}
    trans = {n: hodge_transition(m, n) for n in range(1, nmax)}
    return prosys.ProVectorSystem(spaces, trans)


def compute_K4(nmax: int):
    """(pro-system of top Hodge pieces in degree 3, non-vanishing verdict).

    The witness is the class of x1 dx2 dx3 dx4: at every level n >= 2 its
    differential is the nonzero top form, and the transitions carry witness
    to witness, so every composite from a level >= 2 stays nonzero.  Level 1
    is the base field, where all the spaces are zero."""
    if nmax < 2:
        raise EngineError("need nmax >= 2 in weight four")
    system = _hodge_system(3, nmax)
    per_level = {}
    ok = True
    witness_classes = {}
    for n in range(1, nmax + 1):
        dm = qn_module(n)
        hq = hodge_quotient(dm, 3)
        w = hq.class_of(dm.ambient(3).basis_vector(K4_WITNESS)
                        if mon_deg(K4_WITNESS[0]) < n else {})
        witness_classes[n] = w
        dmap = induced_quotient_map(hq, dm.quot(4),
                                    lambda v: dm.ambient_d(3, v))
        w_img = dmap.apply(w)
        omega_cls = dm.class_vec(4, *OMEGA_TOP)
        rec = {
            "dim": hq.dim,
            "dim_top_form": dm.dim(4),
            "witness_d_image_nonzero": bool(w_img),
            "witness_d_image_is_top_form": w_img == omega_cls,
        }
        if n >= 2:
            ok = ok and bool(w_img) and w_img == omega_cls and dm.dim(4) == 1
        else:
            ok = ok and not w_img and hq.dim == 0
        per_level[n] = rec
    for n in range(1, nmax):
        t = hodge_transition(3, n)
        surj = t.rank() == system.levels[n].dim
        compat = t.apply(witness_classes[n + 1]) == witness_classes[n]
        per_level[n]["transition_surjective"] = surj
        per_level[n]["witness_compatible"] = compat
        ok = ok and surj and compat
    verdict = Verdict(ok, {
        "nmax": nmax, "per_level": per_level,
        "witness": "class of x1 dx2 dx3 dx4",
        "nonzero_from_level": 2,
        "hypotheses": list(HYPOTHESES),
    })
    return system, verdict


def verify_K5plus_inputs(nmax: int) -> Verdict:
    """d in degree 3 is onto the top forms and degree-5 forms vanish.

    ``dim_omega5 == 0`` holds by construction: four variables have no
    5-element wedges, so the ambient of Omega^5 is empty.  It is recorded
    for the report; only ``rank_d3 == dim_omega4`` can fail."""
    per_level = {}
    ok = True
    for n in range(1, nmax + 1):
        dm = qn_module(n)
        rank3 = dm.d(3).rank()
        rec = {"rank_d3": rank3, "dim_omega4": dm.dim(4),
               "dim_omega5": dm.dim(5)}
        good = rank3 == dm.dim(4) and dm.dim(5) == 0
        per_level[n] = rec
        ok = ok and good
    return Verdict(ok, {"nmax": nmax, "per_level": per_level})


# ---------------------------------------------------------------------------
# Weight 3.


def _hc_target_dim_two_ways(m: int, n: int) -> int:
    """Sections of the top cyclic quotient sheaf, computed by the chart
    engine and re-derived from the certified line-bundle filtration count
    plus the section-level surjection; an uncertified filtration count or
    any disagreement is a hard error."""
    cech = global_sections("hc_top", m, n).dim
    tilde_cech = global_sections("omega_tilde", m, n).dim
    total, certified = h_filtered(filtration_tilde_omega(m, n), 0)
    if not certified:
        raise CrossCheckError(
            f"reduced {m}-form sections at level {n}: the filtration count "
            f"{total} is not certified")
    if total != tilde_cech:
        raise CrossCheckError(
            f"reduced {m}-form sections at level {n}: filtration {total} "
            f"!= chart computation {tilde_cech}")
    surj = verify_H0_surjection(m, n)
    if not surj.ok:
        raise CrossCheckError(
            f"section-level surjection fails at m={m} n={n}")
    alt = surj.details["h0_tilde"] - surj.details["h0_image_d"]
    if alt != cech:
        raise CrossCheckError(
            f"cyclic-top sections at level {n}: quotient count {alt} "
            f"!= chart computation {cech}")
    return cech


@lru_cache(maxsize=None)
def k3_component(n: int) -> LinearMap:
    """Degree-2 Hodge piece of the truncated cone -> sections of the top
    cyclic quotient sheaf.  Cached like qn_module, so the `k3` verdict
    reads the maps compute_K3 built."""
    return _pullback_map(hodge_quotient(qn_module(n), 2), 2, n, "hc_top")


def compute_K3(nmax: int) -> prosys.ProVectorSystem:
    """The kernel system in weight three, with the double-computed target."""
    if nmax < 2:
        raise EngineError("need nmax >= 2 in weight three")
    for n in range(1, nmax + 1):
        _hc_target_dim_two_ways(2, n)
    source = _hodge_system(2, nmax)
    target = sections_system("hc_top", 2, nmax)
    components = {n: k3_component(n) for n in range(1, nmax + 1)}
    fmap = prosys.StrictProMap(source, target, components)
    return prosys.pro_kernel(fmap)
