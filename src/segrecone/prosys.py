"""Pro-systems of finite-dimensional spaces and finite-window certificates.

A system holds levels 1..nmax and exact transition maps level n+1 -> n.
Strict maps (levelwise, commuting with transitions) admit levelwise kernels
and cokernels, which is what makes the certificates below meaningful:

* pro-zero at window c: every composite transition (n+c) -> n vanishes;
* pro-isomorphism at window c: kernel and cokernel systems are pro-zero.

A PASS is a statement about the computed finite window only; callers record
nmax and the window next to every verdict.
"""

from __future__ import annotations

from .errors import EngineError
from .linalg import (LinearMap, QuotientSpace, SpanSolver,
                     VectorSpaceWithBasis, induced_quotient_map)
from .verdict import Verdict


class ProVectorSystem:
    """levels: {n: VectorSpaceWithBasis} for n = 1..nmax (contiguous);
    transitions: {n: LinearMap} from level n+1 to level n."""

    def __init__(self, levels: dict, transitions: dict):
        self.nmax = max(levels)
        if sorted(levels) != list(range(1, self.nmax + 1)):
            raise EngineError("levels must be contiguous from 1")
        if sorted(transitions) != list(range(1, self.nmax)):
            raise EngineError("need transitions for 1..nmax-1")
        for n, t in transitions.items():
            if t.domain.labels != levels[n + 1].labels or \
                    t.codomain.labels != levels[n].labels:
                raise EngineError(f"transition {n} has wrong shape")
        self.levels = dict(levels)
        self.transitions = dict(transitions)

    def dims(self) -> dict:
        return {n: self.levels[n].dim for n in range(1, self.nmax + 1)}

    def composite(self, n_from: int, n_to: int) -> LinearMap:
        """Composite transition level n_from -> n_to (n_from >= n_to)."""
        if not (1 <= n_to <= n_from <= self.nmax):
            raise EngineError("composite levels out of range")
        out = LinearMap(self.levels[n_from], self.levels[n_from],
                        [self.levels[n_from].basis_vector(lab)
                         for lab in self.levels[n_from].labels])
        for n in range(n_from - 1, n_to - 1, -1):
            out = self.transitions[n].compose(out)
        return out


class StrictProMap:
    """Levelwise map between systems; squares with transitions must commute
    exactly (checked on construction)."""

    def __init__(self, source: ProVectorSystem, target: ProVectorSystem,
                 components: dict):
        if source.nmax != target.nmax:
            raise EngineError("source/target level ranges differ")
        self.nmax = source.nmax
        for n in range(1, self.nmax + 1):
            f = components[n]
            if f.domain.labels != source.levels[n].labels or \
                    f.codomain.labels != target.levels[n].labels:
                raise EngineError(f"component {n} has wrong shape")
        for n in range(1, self.nmax):
            left = target.transitions[n].compose(components[n + 1])
            right = components[n].compose(source.transitions[n])
            if left.images != right.images:
                raise EngineError(f"square at level {n} does not commute")
        self.source = source
        self.target = target
        self.components = dict(components)


def pro_kernel(f: StrictProMap) -> ProVectorSystem:
    """Levelwise kernels with the induced transitions."""
    spaces = {}
    vectors = {}
    for n in range(1, f.nmax + 1):
        ker = f.components[n].kernel()
        vectors[n] = ker
        spaces[n] = VectorSpaceWithBasis([("ker", n, i) for i in range(len(ker))])
    transitions = {}
    for n in range(1, f.nmax):
        imgs = []
        solver = SpanSolver(vectors[n])
        for v in vectors[n + 1]:
            w = f.source.transitions[n].apply(v)
            coeffs = solver.express(w)
            if coeffs is None:
                raise EngineError("transition does not preserve kernels")
            imgs.append({i: c for i, c in enumerate(coeffs) if c})
        transitions[n] = LinearMap(spaces[n + 1], spaces[n], imgs)
    return ProVectorSystem(spaces, transitions)


def pro_cokernel(f: StrictProMap) -> ProVectorSystem:
    """Levelwise cokernels with the induced transitions."""
    quots = {n: QuotientSpace(f.target.levels[n], f.components[n].images)
             for n in range(1, f.nmax + 1)}
    spaces = {n: quots[n].space() for n in quots}
    transitions = {
        n: induced_quotient_map(quots[n + 1], quots[n],
                                f.target.transitions[n].apply)
        for n in range(1, f.nmax)
    }
    return ProVectorSystem(spaces, transitions)


def certify_pro_zero(s: ProVectorSystem, window: int) -> Verdict:
    """PASS iff every composite (n + window) -> n is the zero map."""
    if window < 0:
        raise EngineError("window must be >= 0")
    if s.nmax < window + 1:
        raise EngineError("window exceeds available levels")
    checked = {}
    for n in range(1, s.nmax - window + 1):
        comp = s.composite(n + window, n)
        if not comp.is_zero():
            dom = s.levels[n + window]
            for lab, img in zip(dom.labels, comp.images):
                if img:
                    witness = {
                        "level": n,
                        "from_level": n + window,
                        "basis_label": repr(lab),
                        "image": {repr(s.levels[n].labels[j]): str(c)
                                  for j, c in sorted(img.items())},
                    }
                    break
            return Verdict(False,
                           {"window": window, "dims": s.dims(),
                            "failed_at": n, "checked": checked},
                           witness)
        checked[n] = "zero"
    return Verdict(True, {"window": window, "dims": s.dims(),
                          "composites_checked": sorted(checked)})


def certify_pro_iso(f: StrictProMap, window: int) -> Verdict:
    """PASS iff kernel and cokernel systems are pro-zero at the window."""
    ker = certify_pro_zero(pro_kernel(f), window)
    coker = certify_pro_zero(pro_cokernel(f), window)
    ok = ker.ok and coker.ok
    details = {
        "window": window,
        "kernel": ker.details,
        "cokernel": coker.details,
    }
    witness = None if ok else (ker.witness or coker.witness)
    return Verdict(ok, details, witness)
