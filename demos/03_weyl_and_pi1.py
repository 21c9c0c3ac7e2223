"""Root data, Weyl groups, and fundamental groups across isogeny types.

The same Weyl group acts on different lattices depending on the isogeny
type, and pi_1(G) = cocharacters / coroots sees the difference: SL_n is
simply connected while PGL_n has pi_1 = Z/n, and similarly Spin versus
SO.  The rank of Hom(Z^r, G)_1's fundamental group then multiplies by r.
A product is one lattice block per factor, so its pi_1 is the direct sum
of the factors'.
"""

from nilrep import (build_root_datum, enumerate_weyl, parse_reductive_spec,
                    pi1_G, pi1_G_ab)

print("%-10s %6s %8s %10s %8s %10s" % (
    "G", "rank", "|W|", "#coroots", "pi_1", "dim G_ab"))
for text in ["SL2", "PGL2", "SL3", "PGL3", "GL3", "Sp4", "SO5", "Spin5",
             "SO6", "Spin6", "G2", "F4", "T3", "SL2 x PGL2"]:
    spec = parse_reductive_spec(text)
    rd = build_root_datum(spec)
    weyl = enumerate_weyl(rd)
    print("%-10s %6d %8d %10d %8s %10d" % (
        text, rd.rank, len(weyl), 2 * rd.positive_coroot_count(),
        pi1_G(rd), pi1_G_ab(rd)))

print()
print("Every Weyl element permutes the coroot system; spot-check Sp4:")
rd = build_root_datum(parse_reductive_spec("Sp4"))
coroots = set(rd.blocks[0].coroots)  # one factor, one block
for w in enumerate_weyl(rd):
    image = {tuple(sum(row[k] * v[k] for k in range(rd.rank)) for row in w)
             for v in coroots}
    assert image == coroots
print("  all %d elements preserve the %d coroots"
      % (rd.weyl_order(), len(coroots)))

print()
print("pi_1 of Hom(Z^r, G)_1 is pi_1(G)^r; for the character variety the")
print("relevant group is pi_1 of the central torus G/[G,G], of rank %d for GL3."
      % pi1_G_ab(build_root_datum(parse_reductive_spec("GL3"))))

print()
print("pi_1 needs no Weyl group: past |W| = 10^6, where W is no longer")
print("enumerated, it is still one cokernel per factor.")
for text in ["PGL12", "SO16", "Spin16"]:
    rd = build_root_datum(parse_reductive_spec(text))
    print("  %-7s |W| = %-10d pi_1 = %s" % (text, rd.weyl_order(), pi1_G(rd)))
