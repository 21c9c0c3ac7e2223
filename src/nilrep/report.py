"""Assemble everything the theory pins down for one (group, target) pair."""

from __future__ import annotations

from .errors import TooLarge
from .finitehom import Verdict, connectivity_verdict
from .groups import AbelianInvariants, GroupSpec, abelianize
from .invariants import (GradedPoly, poincare_char_variety,
                         poincare_hom_component)
from .record import record
from .rootdata import (ReductiveSpec, build_root_datum, pi1_G, pi1_G_ab)

FIXED_CAVEATS = (
    "All statements describe the connected component of the trivial "
    "representation; other components can look different.",
    "Cohomology statements require a connected target; every catalog "
    "target here is connected.",
    "Betti numbers are computed rationally and are valid over any field "
    "of characteristic zero or coprime to the Weyl group order.",
)


@record
class AnalysisReport:
    """Everything determined by the group's abelianization data.

    pi1_hom is pi_1(G)^r and pi1_char is pi_1(G/[G,G])^r, where r is the
    free rank of H_1; a single verdict covers the representation variety
    and the character variety.  The Poincare polynomials may be None when
    skipped, in which case a caveat states why.
    """

    group: str
    target: str
    rank_h1: int
    torsion_h1: tuple[int, ...]
    reduction: str
    pi1_hom: AbelianInvariants
    pi1_char: AbelianInvariants
    poincare_hom: GradedPoly | None
    poincare_char: GradedPoly | None
    verdict: Verdict
    caveats: tuple[str, ...]

    def to_json_dict(self) -> dict:
        verdict = {"status": self.verdict.status,
                   "reason_code": self.verdict.reason_code,
                   "reason": self.verdict.reason}
        if self.verdict.witness is not None:
            verdict["witness"] = list(self.verdict.witness)
        return {
            "group": self.group,
            "target": self.target,
            "rank_h1": self.rank_h1,
            "torsion_h1": list(self.torsion_h1),
            "reduction": self.reduction,
            "pi1_hom": {"rank": self.pi1_hom.rank,
                        "torsion": list(self.pi1_hom.torsion)},
            "pi1_char": {"rank": self.pi1_char.rank,
                         "torsion": list(self.pi1_char.torsion)},
            "poincare_hom": None if self.poincare_hom is None
            else list(self.poincare_hom.coefficients),
            "poincare_char": None if self.poincare_char is None
            else list(self.poincare_char.coefficients),
            "verdict": verdict,
            "caveats": list(self.caveats),
        }

    def to_text(self) -> str:
        lines = [
            "group:     %s" % self.group,
            "target:    %s" % self.target,
            "H_1:       rank %d, torsion %s"
            % (self.rank_h1,
               list(self.torsion_h1) if self.torsion_h1 else "none"),
            "reduction: %s" % self.reduction,
            "pi_1 of Hom(-, G)_1:        %s" % self.pi1_hom,
            "pi_1 of character variety:  %s" % self.pi1_char,
        ]
        if self.poincare_hom is not None:
            lines.append("Poincare of Hom(-, G)_1:       %s" % self.poincare_hom)
        if self.poincare_char is not None:
            lines.append("Poincare of character variety: %s" % self.poincare_char)
        lines.append("verdict:   %s  [one verdict covers both spaces]"
                     % self.verdict)
        lines.append("caveats:")
        lines.extend("  - %s" % c for c in self.caveats)
        return "\n".join(lines)


def analyze(g: GroupSpec, spec: ReductiveSpec) -> AnalysisReport:
    """Full report for one pair; Poincare polynomials are skipped (with a
    stated caveat) when r * rank exceeds invariants.OUTPUT_BOUND or a
    factor's Molien sums exceed invariants.MOLIEN_WORK_BOUND; H_1, pi_1
    and the verdict are given for every target that ReductiveSpec
    admits."""
    ab = abelianize(g)
    r = ab.rank
    rd = build_root_datum(spec)
    # a written presentation takes a while to print: render each once
    group, target = str(g), str(spec)
    caveats = list(FIXED_CAVEATS)

    poincare_hom = poincare_char = None
    try:
        poincare_hom = poincare_hom_component(rd, r)
        poincare_char = poincare_char_variety(rd, r)
    except TooLarge as exc:
        caveats.append("Poincare polynomials omitted: %s." % exc)

    return AnalysisReport(
        group=group,
        target=target,
        rank_h1=r,
        torsion_h1=ab.torsion,
        reduction="Hom(%s, %s)_1 ~ Hom(Z^%d, %s)_1 (homotopy equivalence)"
        % (group, target, r, target),
        pi1_hom=pi1_G(rd).self_power(r),
        pi1_char=AbelianInvariants(pi1_G_ab(rd) * r),
        poincare_hom=poincare_hom,
        poincare_char=poincare_char,
        verdict=connectivity_verdict(g, spec, rd),
        caveats=tuple(caveats),
    )
