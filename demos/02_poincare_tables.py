"""Tables of exact Poincare polynomials.

For each target G and each free rank r, the identity component of
Hom(Z^r, G) has the rational cohomology of (G/T x T^r) invariants under
the Weyl group, and the character variety that of T^r invariants.  Both
are computed exactly by Molien averaging; no floating point anywhere.
"""

from nilrep import (build_root_datum, parse_reductive_spec,
                    poincare_char_variety, poincare_hom_component)

targets = ["SL2", "SL3", "GL2", "GL3", "Sp4", "SO5", "Spin5", "PGL2", "G2"]

print("Poincare polynomial of Hom(Z^r, G)_1")
print("%-8s %-24s %-32s" % ("G", "r = 1", "r = 2"))
for text in targets:
    rd = build_root_datum(parse_reductive_spec(text))
    row = [str(poincare_hom_component(rd, r)) for r in (1, 2)]
    print("%-8s %-24s %-32s" % (text, row[0], row[1]))

print()
print("Poincare polynomial of the character variety of Z^r")
print("%-8s %-24s %-32s" % ("G", "r = 1", "r = 2"))
for text in targets:
    rd = build_root_datum(parse_reductive_spec(text))
    row = [str(poincare_char_variety(rd, r)) for r in (1, 2)]
    print("%-8s %-24s %-32s" % (text, row[0], row[1]))

print()
print("Sanity landmarks:")
rd = build_root_datum(parse_reductive_spec("SL2"))
print("  Hom(Z, SL2)_1 = SL2(C), a homotopy 3-sphere:",
      poincare_hom_component(rd, 1))
rd = build_root_datum(parse_reductive_spec("GL2"))
print("  Hom(Z, GL2)_1 = GL2(C), homotopy equivalent to U(2):",
      poincare_hom_component(rd, 1))
print("  character variety of Z in SL2 is C (a cell):",
      poincare_char_variety(build_root_datum(parse_reductive_spec("SL2")), 1))
p = poincare_hom_component(build_root_datum(parse_reductive_spec("SL9")), 1)
print("  Hom(Z, SL9)_1 = SL9(C), |W| = 9! summed over 30 cycle types: "
      "degree %d = dim SU(9), total Betti number %d = 2^8"
      % (p.degree(), p(1)))
