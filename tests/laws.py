"""Structural laws of the exact machinery, checked by the invariant suite:
d compose d = 0 and the Leibniz rule on a DifferentialModule, and
commutativity and associativity of a FiniteAlgebra.  Each returns True
when the law holds on every basis element (or tuple) it visits."""
import itertools

from segrecone.linalg import vec_add, vec_axpy
from segrecone.polyring import mon_mul


def verify_d_squared(dm) -> bool:
    return all(dm.d(m + 1).compose(dm.d(m)).is_zero()
               for m in range(dm.up_to - 1))


def verify_leibniz(dm) -> bool:
    """d(ab) = a db + b da on classes of algebra basis elements."""
    d0 = dm.d(0)
    for a, b in itertools.combinations_with_replacement(dm.alg.basis, 2):
        prod = dm.alg.mult(a, b)
        left: dict = {}
        for mon, c in prod.items():
            vec_axpy(left, c, d0.apply(dm.class_vec(0, mon, ())))
        right = vec_add(dm.class_action(1, a, d0.apply(dm.class_vec(0, b, ()))),
                        dm.class_action(1, b, d0.apply(dm.class_vec(0, a, ()))))
        if left != right:
            return False
    return True


def verify_commutative(alg) -> bool:
    for m1, m2 in itertools.combinations(alg.basis, 2):
        if alg.mult(m1, m2) != alg.mult(m2, m1):
            return False
    return True


def verify_associative(alg, max_triples: int | None = None) -> bool:
    triples = itertools.combinations_with_replacement(alg.basis, 3)
    if max_triples is not None:
        triples = itertools.islice(triples, max_triples)
    for a, b, c in triples:
        left = alg.nf_terms({mon_mul(m, c): x for m, x in alg.mult(a, b).items()})
        right = alg.nf_terms({mon_mul(a, m): x for m, x in alg.mult(b, c).items()})
        if left != right:
            return False
    return True
