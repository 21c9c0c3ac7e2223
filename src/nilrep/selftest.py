"""The acceptance table CHECKS, run by `nilrep selftest` and pytest.

Each check is one of the closed-form facts the package must reproduce
exactly; everything here runs in a few seconds.
"""

from __future__ import annotations

import random

from .finitehom import (central_image_order_bound, connectivity_verdict,
                        enumerate_homs, q8)
from .groups import (FreeAbelian, FreeNilpotent, Heisenberg,
                     free_nilpotent_lcs_ranks)
from .invariants import (exterior_invariant_dims_oracle, poly,
                         poincare_char_variety, poincare_hom_component)
from .rootdata import build_root_datum, enumerate_weyl, pi1_G, reductive
from .snf import int_det, mat_mul, smith_normal_form


def _rd(*factors):
    return build_root_datum(reductive(*factors))


def check_sphere():
    return poincare_hom_component(_rd(("SL", 2)), 1) == poly([1, 0, 0, 1])


def check_molien_identity():
    specs = [("SL", 2), ("SL", 3), ("GL", 2), ("GL", 3), ("Sp", 4)]
    return all(poincare_hom_component(_rd(s), 0) == poly([1]) for s in specs)


def check_steinberg():
    return all(poincare_char_variety(_rd(("SL", n)), 1) == poly([1])
               for n in (2, 3, 4))


def hopf_product(degrees):
    """prod_d (1 + t^(2d - 1)): the Poincare polynomial of a connected
    reductive group whose Weyl invariants have the given degrees."""
    out = poly([1])
    for d in degrees:
        out = out * poly([1] + [0] * (2 * d - 2) + [1])
    return out


def check_hopf_beyond_enumeration():
    # Hom(Z, G)_1 = G; |W| is 362,880, 645,120 and 322,560 here
    return all(poincare_hom_component(rd, 1) == hopf_product(rd.degrees)
               for rd in map(_rd, (("SL", 9), ("Sp", 14), ("Spin", 14))))


def check_oracle_agreement():
    for factor, r in ((("SL", 2), 2), (("GL", 2), 2), (("SL", 3), 1)):
        rd = _rd(factor)
        got = exterior_invariant_dims_oracle(enumerate_weyl(rd), r)
        want = poincare_char_variety(rd, r)
        if any(want.coefficient(d) != c for d, c in enumerate(got)):
            return False
    return True


def check_pi1():
    gl2 = pi1_G(_rd(("GL", 2)))
    sl2 = pi1_G(_rd(("SL", 2)))
    return (gl2.rank, gl2.torsion) == (1, ()) and sl2.is_trivial()


def check_hom_counts():
    a = enumerate_homs(FreeAbelian(2), q8())
    b = enumerate_homs(Heisenberg(), q8())
    return (a.total, b.total, b.surjective) == (40, 64, 24)


def check_verdicts():
    cases = [
        (Heisenberg(), reductive(("SL", 2)), "Disconnected"),
        (Heisenberg(), reductive(("T", 2)), "Connected"),
        (FreeNilpotent(2, 3), reductive(("Sp", 4)), "Disconnected"),
        (FreeAbelian(3), reductive(("SL", 2)), "Connected"),
    ]
    return all(connectivity_verdict(g, s).status == want
               for g, s, want in cases)


def check_witt():
    if free_nilpotent_lcs_ranks(2, 5) != [2, 1, 2, 3, 6]:
        return False
    for n in range(1, 5):
        for i in range(1, 7):
            ranks = free_nilpotent_lcs_ranks(n, i)
            if sum(d * ranks[d - 1] for d in range(1, i + 1) if i % d == 0) != n ** i:
                return False
    return True


def check_snf():
    rng = random.Random(20240)
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(m)
        if mat_mul(mat_mul(u, m), v) != d:
            return False
        if abs(int_det(u)) != 1 or abs(int_det(v)) != 1:
            return False
    return True


def check_bound():
    values = [central_image_order_bound(m) for m in range(1, 7)]
    return (values[:3] == [1, 4, 64]
            and all(a <= b for a, b in zip(values, values[1:])))


CHECKS = (
    ("sphere sanity: Hom(Z, SL2)_1 has Poincare 1 + t^3", check_sphere),
    ("Molien identity: invariants at r = 0 are the constants",
     check_molien_identity),
    ("Steinberg: character variety of Z in SL_n is a cell", check_steinberg),
    ("Hopf: Hom(Z, G)_1 = G for SL9, Sp14 and Spin14",
     check_hopf_beyond_enumeration),
    ("projector oracle agrees with Molien averages", check_oracle_agreement),
    ("pi_1 cokernels for GL2 and SL2", check_pi1),
    ("homomorphism counts into the quaternion group", check_hom_counts),
    ("connectivity verdicts", check_verdicts),
    ("Witt ranks and the necklace identity", check_witt),
    ("Smith normal form round-trips", check_snf),
    ("central-image order bound", check_bound),
)


def run() -> int:
    failures = 0
    for label, check in CHECKS:
        try:
            ok = check()
        except Exception as exc:  # a selftest must never crash the CLI
            ok = False
            label = "%s (raised %s: %s)" % (label, type(exc).__name__, exc)
        print("%s: %s" % ("PASS" if ok else "FAIL", label))
        failures += not ok
    return 1 if failures else 0
