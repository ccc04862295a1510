"""The frozen records keep the semantics they had as frozen dataclasses.

Each record compares equal only to an instance of its own class, hashes the
tuple of its compared fields, prints the repr text recorded when the records
were dataclasses, refuses assignment and deletion, and still validates its
arguments.  A field that a record derives from the others is set by its own
constructor and is not a parameter of it.
"""

from fractions import Fraction

import pytest

import deltaorder
from deltaorder._record import Record

from deltaorder.construction import ConstructionResult, RoundTripReport
from deltaorder.equations import DifferenceEquation, GeneralForm, OperatorTerm
from deltaorder.errors import DegenerateEquationError
from deltaorder.evaluation import EmpiricalOrder, EvalResult
from deltaorder.newton import NewtonAnalysis, OrderEntry
from deltaorder.polynomials import Poly
from deltaorder.recurrences import AdamsPolygon, CoefficientRecurrence, PolygonSegment
from deltaorder.series import GrowthEstimate, SeriesSolution, VerificationReport

TERM = OperatorTerm(Poly([1, 2]), 1, -2)
ENTRY = OrderEntry(Fraction(1, 3), 1)
ANALYSIS = NewtonAnalysis((0, 0, 1, 2), (3, 0), (ENTRY,))
SEGMENT = PolygonSegment((2, 2), (3, 5), (Fraction(1, 6),))
POLYGON = AdamsPolygon(((0, 0), (1, 1)), (SEGMENT,), 1, -1)

TERM_REPR = "OperatorTerm(coefficient=Poly([Fraction(1, 1), Fraction(2, 1)]), delta_power=1, shift=-2)"
ENTRY_REPR = "OrderEntry(rho=Fraction(1, 3), max_count=1)"
ANALYSIS_REPR = (
    f"NewtonAnalysis(degrees=(0, 0, 1, 2), s_seq=(3, 0), p=2, orders=({ENTRY_REPR},), "
    "total_bound=1, exists_sub1=True)"
)
SEGMENT_REPR = (
    "PolygonSegment(slope=Fraction(3, 1), span=1, start=(2, 2), end=(3, 5), "
    "char_roots=(Fraction(1, 6),), chi=Fraction(1, 3))"
)
POLYGON_REPR = (
    f"AdamsPolygon(points=((0, 0), (1, 1)), segments=({SEGMENT_REPR},), normalization_degree=1, "
    "normalization_index=-1, note='subexponential factors of each branch are not modeled')"
)

# class -> (the parameters of one instance, its repr as the frozen dataclass printed it)
CASES = {
    OperatorTerm: (dict(coefficient=Poly([1, 2]), delta_power=1, shift=-2), TERM_REPR),
    GeneralForm: (dict(terms=(TERM,)), f"GeneralForm(terms=({TERM_REPR},))"),
    OrderEntry: (dict(rho=Fraction(1, 3), max_count=1), ENTRY_REPR),
    NewtonAnalysis: (
        dict(degrees=(0, 0, 1, 2), s_seq=(3, 0), orders=(ENTRY,)),
        ANALYSIS_REPR,
    ),
    CoefficientRecurrence: (
        dict(sums={0: (-1, 1), -1: (2,)}, rho_offset=Fraction(1, 2)),
        "CoefficientRecurrence(sums={-1: (2,), 0: (-1, 1)}, rho_offset=Fraction(1, 2))",
    ),
    PolygonSegment: (
        dict(start=(2, 2), end=(3, 5), char_roots=(Fraction(1, 6),)),
        SEGMENT_REPR,
    ),
    AdamsPolygon: (
        dict(points=((0, 0), (1, 1)), segments=(SEGMENT,), normalization_degree=1, normalization_index=-1),
        POLYGON_REPR,
    ),
    VerificationReport: (
        dict(rows_checked=10, max_residual=Fraction(1, 7), first_failing_row=3),
        "VerificationReport(rows_checked=10, max_residual=Fraction(1, 7), first_failing_row=3)",
    ),
    GrowthEstimate: (
        dict(fit_window=(3, 9), model_params=(2.0, 1.0, 3.0, 4.0), residual=0.125),
        "GrowthEstimate(chi_hat=0.5, fit_window=(3, 9), model_params=(2.0, 1.0, 3.0, 4.0), "
        "residual=0.125, converged=True)",
    ),
    EvalResult: (
        dict(value=1 + 2j, terms_used=5, tail_bound=0.0, log_scale=1.5),
        "EvalResult(value=(1+2j), terms_used=5, tail_bound=0.0, log_scale=1.5)",
    ),
    EmpiricalOrder: (
        dict(radii=(1.0, 2.0), log_max_modulus=(0.5, 2.0), rho_hat=2.0, fit_residual=0.0),
        "EmpiricalOrder(radii=(1.0, 2.0), log_max_modulus=(0.5, 2.0), rho_hat=2.0, scale_hat=0.5, "
        "fit_residual=0.0)",
    ),
    ConstructionResult: (
        dict(
            q=1,
            p=2,
            weights=(1, 2, 4),
            template=GeneralForm((TERM,)),
            canonical=DifferenceEquation([[1], [0, 1]]),
            predicted_series=SeriesSolution.from_values([1, 0, 1]),
        ),
        f"ConstructionResult(q=1, p=2, weights=(1, 2, 4), template=GeneralForm(terms=({TERM_REPR},)), "
        "canonical=DifferenceEquation(order=1, degrees=[0, 1]), "
        "predicted_series=SeriesSolution(rho_offset=Fraction(0, 1), "
        "coeffs=(Fraction(1, 1), Fraction(0, 1), Fraction(1, 1)), support_modulus=2, provenance=None))",
    ),
    RoundTripReport: (
        dict(stages=(("newton", True, "orders [1/3]"),), analysis=ANALYSIS, polygon=POLYGON, chi_hat=0.25),
        f"RoundTripReport(ok=True, stages=(('newton', True, 'orders [1/3]'),), analysis={ANALYSIS_REPR}, "
        f"polygon={POLYGON_REPR}, chi_hat=0.25)",
    ),
    DifferenceEquation: (dict(coeffs=([1], [0, 1])), "DifferenceEquation(order=1, degrees=[0, 1])"),
}
# every field but CoefficientRecurrence's ``scale`` is compared and printed
HIDDEN = {CoefficientRecurrence: ("scale",)}

records = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def test_the_cases_cover_every_record():
    public = [getattr(deltaorder, name) for name in deltaorder.__all__]
    assert set(CASES) == {cls for cls in public if isinstance(cls, type) and issubclass(cls, Record)}
    assert len(CASES) == 14


@records
def test_the_repr_is_the_one_the_dataclass_printed(cls):
    fields, text = CASES[cls]
    assert repr(cls(**fields)) == text
    assert repr(cls(*fields.values())) == text


@records
def test_equal_only_to_an_instance_of_the_same_class(cls):
    fields, _ = CASES[cls]
    record = cls(**fields)
    assert record == cls(**fields)
    assert not record != cls(**fields)

    class Other(cls):
        pass

    other = Other(**fields)
    assert record != other and other != record
    assert record != tuple(fields.values())
    assert repr(other) == repr(record).replace(cls.__name__, Other.__qualname__, 1)


@records
def test_equal_records_hash_alike(cls):
    fields, _ = CASES[cls]
    record = cls(**fields)
    if cls is CoefficientRecurrence:
        # ``sums`` is a dict, so the recurrence was unhashable as a dataclass too
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        return
    # the compared fields are the record's fields, derived ones included
    values = tuple(getattr(record, name) for name in cls._fields)
    assert hash(record) == hash(cls(**fields)) == hash(values)


def test_a_recurrence_compares_without_its_scale():
    rec = CoefficientRecurrence({0: (-1, 1), -1: (2,)}, Fraction(1, 2))
    assert rec.scale == 2 and "scale" not in repr(rec)
    assert rec == CoefficientRecurrence({-1: (2,), 0: (-1, 1)}, Fraction(1, 2))
    assert rec != CoefficientRecurrence({0: (-1, 1), -1: (2,)}, Fraction(1, 3))


@records
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    fields, _ = CASES[cls]
    record = cls(**fields)
    for name in (*cls._fields, *HIDDEN.get(cls, ()), "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == CASES[cls][1]


def test_the_validation_of_each_record_still_raises():
    with pytest.raises(ValueError, match="difference power must be non-negative"):
        OperatorTerm(Poly([1]), -1)
    with pytest.raises(ValueError, match="at least one term"):
        GeneralForm(())
    with pytest.raises(ValueError, match="vertex chain invariants violated"):
        NewtonAnalysis((2, 0, 1, 2), (3, 0), (ENTRY,))
    with pytest.raises(ValueError, match="empty recurrence window"):
        CoefficientRecurrence({})
    with pytest.raises(ValueError, match="vanishing entry at the deepest back-shift"):
        CoefficientRecurrence({-1: (), 0: (1,)})
    with pytest.raises(ValueError, match="ends in a zero sum"):
        CoefficientRecurrence({-1: (1,), 0: (1, 0)})
    with pytest.raises(DegenerateEquationError, match="order zero"):
        DifferenceEquation([[1]])


# every parameter that a record now derives from its other fields
DERIVED = [
    (NewtonAnalysis, "p"),
    (NewtonAnalysis, "total_bound"),
    (NewtonAnalysis, "exists_sub1"),
    (PolygonSegment, "slope"),
    (PolygonSegment, "span"),
    (PolygonSegment, "chi"),
    (AdamsPolygon, "note"),
    (GrowthEstimate, "chi_hat"),
    (GrowthEstimate, "converged"),
    (EmpiricalOrder, "scale_hat"),
    (RoundTripReport, "ok"),
    (SeriesSolution, "support_modulus"),
]


@pytest.mark.parametrize("cls, name", DERIVED, ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_a_derived_field_is_not_a_parameter(cls, name):
    fields = CASES[cls][0] if cls in CASES else dict(rho_offset=Fraction(0), coeffs=(Fraction(1),))
    value = getattr(cls(**fields), name)
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        cls(**fields, **{name: value})


def test_derived_fields_follow_the_stored_ones():
    assert (ANALYSIS.p, ANALYSIS.total_bound, ANALYSIS.exists_sub1) == (2, 1, True)
    single = NewtonAnalysis((0, 1), (1,), ())
    assert (single.p, single.total_bound, single.exists_sub1) == (1, 0, False)
    assert (SEGMENT.slope, SEGMENT.span, SEGMENT.chi) == (3, 1, Fraction(1, 3))
    assert PolygonSegment((0, 0), (2, 0), ()).chi is None
    assert GrowthEstimate((3, 9), (-1.0, 0.0, 0.0, 0.0), 0.5).chi_hat == float("inf")
    assert not GrowthEstimate((3, 9), (2.0, 0.0, 0.0, 0.0), float("nan")).converged
    failed = RoundTripReport((("newton", True, ""), ("chi", False, "")), ANALYSIS, POLYGON, 0.25)
    assert not failed.ok
