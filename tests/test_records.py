"""The immutable records of the package: field-wise equality, hashing and
repr, and no assignment after construction."""

from fractions import Fraction

import pytest

from kummer_brauer.arith import Factorization, SquareClass
from kummer_brauer.curves import CMStatus, CurveLW, CurveRT2, FrobeniusTable, ap
from kummer_brauer.gl2 import (
    CriterionValidation,
    SubgroupWitnesses,
    validate_surjectivity_criterion,
)
from kummer_brauer.homrank import IsogenyEvidence, RankVerdict
from kummer_brauer.oddpart import CertificateFailure, OddCertificate, SurjectivityVerdict
from kummer_brauer.report import BrauerReport, CurveInput, CurvePairSpec, stable_json
from kummer_brauer.residues import Gate, ResidueMatrix


def _curve_input(label=None):
    return CurveInput(CurveLW(0, 0, 0, 0, 1), None, (Fraction(2), Fraction(3)), label)


def _witnesses(order=48):
    return SubgroupWitnesses(order, True, False, False)


# (record type, a field -> value map in field order, and for each field a
# value other than the first); every field of every record is listed
RECORDS = [
    (Factorization, {"sign": -1, "factors": ((2, 2), (3, 1))},
     {"sign": 1, "factors": ((2, 1),)}),
    (SquareClass, {"sign": -1, "support": (3,)}, {"sign": 1, "support": (2, 3)}),
    (CurveRT2, {"a": 5, "b": 7}, {"a": 1, "b": 2}),
    (CurveLW, {"a1": 0, "a2": 0, "a3": 0, "a4": 6, "a6": -2},
     {"a1": 1, "a2": -1, "a3": 1, "a4": -10, "a6": -20}),
    (FrobeniusTable, {"curve": "[0,0,0,6,-2]", "bound": 12, "entries": ((5, 2),)},
     {"curve": "[0,0,0,0,1]", "bound": 13, "entries": ()}),
    (CMStatus, {"verdict": "cm", "evidence": "e"}, {"verdict": "not_cm", "evidence": "f"}),
    (SubgroupWitnesses, {"order": 48, "has_nonsplit": True, "has_split": False,
                         "has_generic": False},
     {"order": 24, "has_nonsplit": False, "has_split": True, "has_generic": True}),
    (CriterionValidation, {"ell": 3, "group_order": 48, "subgroup_count": 55,
                           "offending_proper_subgroups": (), "full_group": _witnesses(),
                           "passed": True, "notes": ("n",)},
     {"ell": 5, "group_order": 480, "subgroup_count": 56,
      "offending_proper_subgroups": (24,), "full_group": _witnesses(24),
      "passed": False, "notes": ()}),
    (IsogenyEvidence, {"kind": "none-found", "witness": None, "detail": ""},
     {"kind": "same-curve", "witness": 5, "detail": "d"}),
    (RankVerdict, {"r": 0, "confidence": "certified", "gate": Gate(None, False, "d"),
                   "evidence": IsogenyEvidence("none-found")},
     {"r": None, "confidence": "inconclusive", "gate": Gate("not-isogenous", True, "d"),
      "evidence": IsogenyEvidence("same-curve")}),
    (SurjectivityVerdict, {"verdict": "surjective", "witnesses": (("split", 7, 2),)},
     {"verdict": "inconclusive", "witnesses": ()}),
    (OddCertificate, {"kind": "j-valuation", "primes_covered": "all-odd",
                      "witnesses": (), "caveats": (), "detail": ""},
     {"kind": "mod-ell-sampling", "primes_covered": (5, 7),
      "witnesses": (("p", "3"),), "caveats": ("c",), "detail": "d"}),
    (CertificateFailure, {"reason": "x"}, {"reason": "y"}),
    (CurveInput, {"lw": CurveLW(0, 0, 0, 0, 1), "rt2_raw": None,
                  "six_torsion": (Fraction(2), Fraction(3)), "label": None},
     {"lw": CurveLW(0, 0, 0, 1, -1), "rt2_raw": (5, 7), "six_torsion": None,
      "label": "L"}),
    (CurvePairSpec, {"first": _curve_input(), "second": _curve_input(), "bound": 10_000,
                     "ell_max": 37, "odd_primes": ()},
     {"first": _curve_input("a"), "second": _curve_input("b"), "bound": 100,
      "ell_max": 5, "odd_primes": (5,)}),
    (BrauerReport, {"data": {"conclusion": "trivial"}}, {"data": {"conclusion": "x"}}),
    (ResidueMatrix, {"pair": (5, 7, 1, 2), "columns": ("l[0,0]",), "values": ((1,),)},
     {"pair": (3, 7, 1, 2), "columns": ("l[0,a']",), "values": ((-1,),)}),
    (Gate, {"case": None, "passes": False, "detail": "d"},
     {"case": "not-isogenous", "passes": True, "detail": "e"}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def test_every_record_is_listed():
    assert len(RECORDS) == len(set(IDS)) == 18


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_equality_and_hash_read_the_compared_fields(cls, fields, other):
    a, b = cls(**fields), cls(*fields.values())
    assert a is not b and a == b and not a != b
    assert a.__eq__(object()) is NotImplemented and a != object()
    values = tuple(getattr(a, f) for f in fields)
    try:
        key = hash(values)
    except TypeError:  # a record holding a dict has no hash, as its fields have none
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == key
    for name in fields:
        assert cls(**dict(fields, **{name: other[name]})) != a, name


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_repr_lists_every_field_in_order(cls, fields, other):
    a = cls(**fields)
    inner = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{cls.__qualname__}({inner})"


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, other):
    a = cls(**fields)
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, other.get(name, 1))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == cls(**fields)


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
def test_a_record_has_no_stable_json_form(cls, fields, other):
    # stable_json writes tuples as arrays: a record must not pass for one
    with pytest.raises(TypeError, match="no stable JSON form"):
        stable_json({"x": [cls(**fields)]})


def test_curve_memos_take_no_part_in_equality():
    a, b = CurveLW(0, 0, 0, 6, -2), CurveLW(0, 0, 0, 6, -2)
    a.j(), a.cubic_roots, ap(a, 5)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == ("CurveLW(a1=Fraction(0, 1), a2=Fraction(0, 1), "
                                  "a3=Fraction(0, 1), a4=Fraction(6, 1), a6=Fraction(-2, 1))")


def test_pinned_reprs():
    assert repr(SurjectivityVerdict("surjective", (("split", 7, 2),))) == (
        "SurjectivityVerdict(verdict='surjective', witnesses=(('split', 7, 2),))")
    assert repr(OddCertificate("mod-ell-sampling", (5, 7))) == (
        "OddCertificate(kind='mod-ell-sampling', primes_covered=(5, 7), witnesses=(), "
        "caveats=(), detail='')")
    assert repr(IsogenyEvidence("trace-square-mismatch", 3, "a_3")) == (
        "IsogenyEvidence(kind='trace-square-mismatch', witness=3, detail='a_3')")
    assert repr(validate_surjectivity_criterion(3)) == (
        "CriterionValidation(ell=3, group_order=48, subgroup_count=55, "
        "offending_proper_subgroups=(), full_group=SubgroupWitnesses(order=48, "
        "has_nonsplit=True, has_split=False, has_generic=False), passed=True, "
        "notes=(\"witness class 'split' is empty mod 3: the criterion can never fire at "
        "this ell\", \"witness class 'generic' is empty mod 3: the criterion can never "
        "fire at this ell\"))")
