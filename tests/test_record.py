"""Frozen value records: every value class keeps the dataclass-format
repr, class-exact equality, field-tuple hashing and refused assignment,
and replace re-runs each class's checks."""

import pytest

from nilrep import record
from nilrep.errors import UnsupportedType
from nilrep.finitehom import HomSearchResult, Verdict
from nilrep.groups import (AbelianInvariants, DirectProduct, FiniteAbelian,
                           FreeAbelian, FreeNilpotent, Heisenberg,
                           LowerCentralData, Presentation, Presented, Word,
                           gen)
from nilrep.invariants import GradedPoly
from nilrep.report import AnalysisReport
from nilrep.rootdata import (Block, Factor, ReductiveSpec, RootDatum,
                             build_root_datum, reductive)

VALUES = [
    (lambda: Word(((0, 2), (1, -1))), "Word(letters=((0, 2), (1, -1)))"),
    (lambda: Presentation(2, (gen(0),), ("a", "b")),
     "Presentation(generator_count=2, relators=(Word(letters=((0, 1),)),), "
     "names=('a', 'b'))"),
    (lambda: FreeNilpotent(2, 3), "FreeNilpotent(n=2, c=3)"),
    (lambda: Heisenberg(), "Heisenberg()"),
    (lambda: FreeAbelian(2), "FreeAbelian(n=2)"),
    (lambda: FiniteAbelian((2, 4)), "FiniteAbelian(divisors=(2, 4))"),
    (lambda: DirectProduct((FreeNilpotent(1, 1), FiniteAbelian((2,)))),
     "DirectProduct(factors=(FreeNilpotent(n=1, c=1), "
     "FiniteAbelian(divisors=(2,))))"),
    (lambda: Presented(Presentation(1, (gen(0, 2),))),
     "Presented(presentation=Presentation(generator_count=1, "
     "relators=(Word(letters=((0, 2),)),), names=None))"),
    (lambda: AbelianInvariants(1, (2,)),
     "AbelianInvariants(rank=1, torsion=(2,))"),
    (lambda: LowerCentralData((AbelianInvariants(2),)),
     "LowerCentralData(per_layer=(AbelianInvariants(rank=2, torsion=()),))"),
    (lambda: Factor("SL", 2), "Factor(family='SL', param=2)"),
    (lambda: ReductiveSpec((Factor("G2"),)),
     "ReductiveSpec(factors=(Factor(family='G2', param=0),))"),
    (lambda: Block(1, ((2,),), ((1,),)),
     "Block(rank=1, simple_roots=((2,),), simple_coroots=((1,),), "
     "coroots=((-1,), (1,)))"),
    (lambda: build_root_datum(reductive(("SL", 2))),
     "RootDatum(factors=(Factor(family='SL', param=2),), blocks=(Block("
     "rank=1, simple_roots=((2,),), simple_coroots=((1,),), "
     "coroots=((-1,), (1,))),))"),
    (lambda: HomSearchResult(2, 1, None, Presentation(1, (gen(0, 2),))),
     "HomSearchResult(total=2, surjective=1, witness=None, presentation="
     "Presentation(generator_count=1, relators=(Word(letters=((0, 2),)),), "
     "names=None))"),
    (lambda: Verdict("Connected", "torus", "why", (1, 2)),
     "Verdict(status='Connected', reason_code='torus', reason='why', "
     "witness=(1, 2))"),
    (lambda: GradedPoly((1, 0, 2)), "GradedPoly(coefficients=(1, 0, 2))"),
    (lambda: AnalysisReport("Z", "T1", 1, (), "none", AbelianInvariants(0),
                            AbelianInvariants(0), GradedPoly((1, 1)), None,
                            Verdict("Connected", "torus", "why"), ("c",)),
     "AnalysisReport(group='Z', target='T1', rank_h1=1, torsion_h1=(), "
     "reduction='none', pi1_hom=AbelianInvariants(rank=0, torsion=()), "
     "pi1_char=AbelianInvariants(rank=0, torsion=()), "
     "poincare_hom=GradedPoly(coefficients=(1, 1)), poincare_char=None, "
     "verdict=Verdict(status='Connected', reason_code='torus', "
     "reason='why', witness=None), caveats=('c',))"),
]
IDS = [text.split("(")[0] for _, text in VALUES]


@pytest.mark.parametrize("make, text", VALUES, ids=IDS)
def test_records_keep_dataclass_semantics(make, text):
    value, twin = make(), make()
    assert repr(value) == text
    assert value == twin and value is not twin
    assert hash(value) == hash(twin)
    assert value != object() and value.__eq__(object()) is NotImplemented
    for name in record.fields(value):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == twin


def test_equality_is_class_exact():
    # the catalog's named free groups are F(n, c) in value, not in class
    assert FreeAbelian(2) != FreeNilpotent(2, 1)
    assert Heisenberg() != FreeNilpotent(2, 2)
    assert Heisenberg() == Heisenberg() and FreeAbelian(2) == FreeAbelian(2)
    assert {FreeAbelian(2), FreeNilpotent(2, 1)} == {
        FreeNilpotent(2, 1), FreeAbelian(2)}
    # the same fields in another record class
    assert Word(((0, 1),)) != GradedPoly(((0, 1),))


def test_hash_is_the_init_field_tuple_hash():
    assert hash(Factor("SL", 3)) == hash(("SL", 3))
    assert hash(GradedPoly((1, 2))) == hash(((1, 2),))
    assert hash(AbelianInvariants(1)) == hash((1, ()))
    # a derived field is a function of the others and is left out
    assert hash(Block(1, ((2,),), ((1,),))) == hash((1, ((2,),), ((1,),)))


def test_arguments_bind_like_a_signature():
    assert AbelianInvariants(rank=1) == AbelianInvariants(1, ()) \
        == AbelianInvariants(1, torsion=())
    assert Verdict("a", "b", "c") == Verdict("a", "b", "c", witness=None)
    assert Word() == Word(()) == Word(letters=())
    for bad in (lambda: FreeNilpotent(2), lambda: FreeNilpotent(2, 2, 2),
                lambda: FreeNilpotent(2, c=2, d=1),
                lambda: FreeNilpotent(2, n=2),
                lambda: Block(1, ((2,),), ((1,),), ((1,), (-1,)))):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ValueError):
        FreeNilpotent(n=0, c=1)    # checked on the keyword path too


def test_fields_include_derived_ones_in_place():
    assert record.fields(Block) == ("rank", "simple_roots", "simple_coroots",
                                    "coroots")
    assert record.fields(Heisenberg()) == ("n", "c")
    with pytest.raises(TypeError):
        record.fields(object())


def test_replace_keeps_the_class_and_rechecks():
    pres = Presentation(2, (gen(0),))
    named = record.replace(pres, names=("a", "b"))
    assert type(named) is Presentation
    assert named == Presentation(2, (gen(0),), ("a", "b")) != pres
    with pytest.raises(ValueError):
        record.replace(pres, names=("a",))
    with pytest.raises(ValueError):
        record.replace(FiniteAbelian((2, 4)), divisors=(2, 3))
    with pytest.raises(UnsupportedType):
        record.replace(Factor("SL", 2), param=1)
    block = Block(1, ((2,),), ((1,),))
    assert record.replace(block, simple_roots=((-2,),),
                          simple_coroots=((-1,),)).coroots == block.coroots
    with pytest.raises(ValueError):
        record.replace(block, rank=2)
    # a derived field is recomputed, never passed
    with pytest.raises(TypeError):
        record.replace(block, coroots=())


def test_cached_properties_still_cache():
    g = Presented(Presentation(2, (gen(0, 4),)))
    assert g.h1 is g.h1 == (1, (4,))
    block = Block(1, ((2,),), ((1,),))
    assert block.cokernel is block.cokernel == AbelianInvariants(0)
    # the cache lives outside the fields
    assert block == Block(1, ((2,),), ((1,),))
