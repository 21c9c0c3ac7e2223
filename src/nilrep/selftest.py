"""The acceptance table CHECKS, run by `nilrep selftest` and pytest.

Each check is one of the closed-form facts the package must reproduce
exactly; everything here runs in a few seconds.
"""

from __future__ import annotations

import random
from math import comb

from .finitehom import (central_image_order_bound, connectivity_verdict,
                        enumerate_homs, q8)
from .groups import (FreeAbelian, FreeNilpotent, Heisenberg,
                     free_nilpotent_lcs_ranks)
from .invariants import (exterior_invariant_dims_oracle, poly,
                         poincare_char_variety, poincare_hom_component)
from .rootdata import build_root_datum, enumerate_weyl, pi1_G, reductive
from .snf import (cokernel_invariants, diagonal_of, int_det, mat_mul,
                  smith_normal_form)


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


def check_closed_forms():
    # identities that read no class table: Hom(Z^r, SL2)_1 has Poincare
    # polynomial sum_k C(r, k) t^(k + 2 (k mod 2)), and GL3 = SL3 x T1 up
    # to a finite cover, so its polynomial is SL3's times (1 + t)^r
    for r in range(9):
        want = [0] * (r + 3)
        for k in range(r + 1):
            want[k + 2 * (k % 2)] += comb(r, k)
        if poincare_hom_component(_rd(("SL", 2)), r) != poly(want):
            return False
    return all(poincare_hom_component(_rd(("GL", 3)), r)
               == poincare_hom_component(_rd(("SL", 3)), r) * poly([1, 1]) ** r
               for r in range(5))


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


def check_root_datum_verdicts():
    # Spin6 = SL4 has every dual Kac label 1, Spin7 and G2 a label 2; a
    # root SL2 of G2 contains Q8, so H3 gets a witness
    codes = [connectivity_verdict(g, reductive(t)).reason_code for g, t in (
        (FreeAbelian(3), ("Spin", 6)), (FreeAbelian(3), ("Spin", 7)),
        (FreeAbelian(3), "G2"), (Heisenberg(), "G2"))]
    return codes == (["commuting_tuples_diagonalizable"]
                     + ["nontoral_commuting_triples"] * 2
                     + ["finite_nonabelian_quotient"])


def check_witt():
    # Witt's ranks (1/i) sum_{d | i} mu(d) n^(i/d), written out; each list
    # satisfies the necklace identity n^i = sum_{d | i} d * M_d
    return (free_nilpotent_lcs_ranks(2, 5) == [2, 1, 2, 3, 6]
            and free_nilpotent_lcs_ranks(3, 6) == [3, 3, 8, 18, 48, 116]
            and free_nilpotent_lcs_ranks(4, 6) == [4, 6, 20, 60, 204, 670])


def check_snf():
    # the sparse cokernel (unit pivots first) against the Smith diagonal;
    # entries in -1..1 make most pivots units
    rng = random.Random(20240)
    for k in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        bound = 5 if k % 2 else 1
        m = [[rng.randint(-bound, bound) for _ in range(cols)]
             for _ in range(rows)]
        d, u, v = smith_normal_form(m)
        if mat_mul(mat_mul(u, m), v) != d:
            return False
        if abs(int_det(u)) != 1 or abs(int_det(v)) != 1:
            return False
        nonzero = [e for e in diagonal_of(d) if e]
        if cokernel_invariants(m) != (rows - len(nonzero),
                                      tuple(e for e in nonzero if e >= 2)):
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
    ("closed forms for SL2 and GL3 = SL3 x (1 + t)^r", check_closed_forms),
    ("projector oracle agrees with Molien averages", check_oracle_agreement),
    ("pi_1 cokernels for GL2 and SL2", check_pi1),
    ("homomorphism counts into the quaternion group", check_hom_counts),
    ("connectivity verdicts", check_verdicts),
    ("verdicts from dual Kac labels and root SL2s", check_root_datum_verdicts),
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
