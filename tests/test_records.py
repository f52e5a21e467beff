"""Record semantics of the package's immutable value classes: field-tuple
equality and hashing, no assignment or deletion, the
``Name(field=value, ...)`` repr, and construction by position or keyword,
all of it inherited from `Record`."""

from fractions import Fraction

import pytest

from joinspectra import (
    CompareResult,
    CoupledBlocks,
    Graph,
    JoinSpec,
    Polynomial,
    RationalMatrix,
    ResolventForm,
    SpectrumReport,
    UniversalParams,
    VertexSubset,
    resolvent_form,
)
from joinspectra.errors import SpecError
from joinspectra.fixtures import FixtureResult
from joinspectra.matrices import ClearedRows, cleared_rows
from joinspectra.records import Record
from joinspectra.verification import VerifyCase

X = Polynomial.x()
ONE_FORM = [resolvent_form(RationalMatrix.from_rows([[0, 1], [1, 0]]), (1, 1), (1, 0))]

# class -> (its fields in order, a factory of two equal records, and a record differing in one field)
CASES = {
    Graph: (("n", "edges"), lambda: Graph(3, [(1, 0), (1, 2)]), Graph(3, [(0, 1)])),
    VertexSubset: (("parent_size", "members"), lambda: VertexSubset(3, [2, 0, 2]), VertexSubset(4, (0, 2))),
    UniversalParams: (
        ("alpha", "beta", "gamma", "delta", "allow_zero_alpha"),
        lambda: UniversalParams(-1, 0, "0", Fraction(1)),
        UniversalParams(-1, 0, 0, 1, allow_zero_alpha=True),
    ),
    JoinSpec: (
        ("host", "components", "subsets", "universal", "rho_override"),
        lambda: JoinSpec(Graph.path(2), [Graph(1), Graph.path(2)], rho_override=[[0, "1/2"], [1, 0]]),
        JoinSpec(Graph.path(2), [Graph(1), Graph.path(2)], rho_override=[[0, 1], [1, 0]]),
    ),
    ResolventForm: (
        ("num", "den", "cofactor", "hermitian"),
        lambda: ResolventForm(Polynomial((2,)), X - 1, X, True),
        ResolventForm(Polynomial((2,)), X - 1, X, False),
    ),
    CoupledBlocks: (
        ("forms", "rho"),
        lambda: CoupledBlocks(ONE_FORM * 2, [[0, 1], ["1/2", 0]]),
        CoupledBlocks(ONE_FORM * 2, [[0, 1], [1, 0]]),
    ),
    ClearedRows: (
        ("fs", "gs", "scales", "den", "degree"),
        lambda: cleared_rows([X, Polynomial()], [X - 1, Polynomial.one()], [[0, Fraction(1, 2)], [1, 0]]),
        ClearedRows((X, Polynomial()), (X - 1, Polynomial.one()), ((2, -1), (0, 1)), 2, 0),
    ),
    SpectrumReport: (
        ("charpoly", "inherited", "reduced", "coupling", "coupling_roots"),
        lambda: SpectrumReport(X * X - 1, ((0.0, 1, 0),), (), X - 1, (1.0,)),
        SpectrumReport(X * X - 1, ((0.0, 1, 1),), (), X - 1, (1.0,)),
    ),
    CompareResult: (
        ("equal", "first_mismatch", "detail"),
        lambda: CompareResult(False, 2, "coefficient of x^2 differs"),
        CompareResult(False, 1, "coefficient of x^2 differs"),
    ),
    VerifyCase: (("name", "passed", "detail"), lambda: VerifyCase("case-0001", True, "exact match"), VerifyCase("case-0001", False, "exact match")),
    FixtureResult: (
        ("name", "route", "passed", "detail"),
        lambda: FixtureResult("mixed-join charpoly", "universal-join", True, "exact match"),
        FixtureResult("mixed-join charpoly", "universal-join", True, "mismatch"),
    ),
}

CLASSES = list(CASES)


def viewed_polynomial():
    p = Polynomial((1, "1/2"))
    p.coeffs  # builds the cached view, so every slot is set
    return p


def viewed_matrix():
    m = RationalMatrix.from_rows([[0, "1/3"], [2, 1]])
    m.entries
    return m


# class -> (its slots, a factory): every record, and the two classes that keep
# their own repr and equality but share Record's immutability
IMMUTABLE = {cls: (fields, make) for cls, (fields, make, _) in CASES.items()}
IMMUTABLE[Polynomial] = (("nums", "den", "_coeffs"), viewed_polynomial)
IMMUTABLE[RationalMatrix] = (("rows", "cols", "nums", "den", "_entries"), viewed_matrix)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_records_with_equal_hashes(cls):
    fields, make, other = CASES[cls]
    a, b = make(), make()
    assert a is not b and type(a) is cls
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, f) for f in fields))
    assert a != other and hash(a) != hash(other)
    assert len({a, b, other}) == 2
    for changed in fields:
        # every field takes part: a record differing in that field alone is not equal
        twin = object.__new__(cls)
        for f in fields:
            object.__setattr__(twin, f, object() if f == changed else getattr(a, f))
        assert a != twin and not a == twin


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_another_class_is_not_equal(cls):
    fields, make, _ = CASES[cls]
    a = make()
    values = tuple(getattr(a, f) for f in fields)
    assert a != values
    assert a.__eq__(values) is NotImplemented
    for other_cls in CLASSES:
        if other_cls is not cls:
            b = CASES[other_cls][1]()
            assert a != b and a.__eq__(b) is NotImplemented

    class Sub(cls):
        __slots__ = ()

    twin = object.__new__(Sub)
    for f in fields:
        object.__setattr__(twin, f, getattr(a, f))
    assert a != twin and twin != a


@pytest.mark.parametrize("cls", list(IMMUTABLE), ids=lambda c: c.__name__)
def test_records_are_immutable(cls):
    fields, make = IMMUTABLE[cls]
    a = make()
    before = tuple(getattr(a, f) for f in fields)
    for f in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert tuple(getattr(a, f) for f in fields) == before
    assert cls.__slots__ == fields
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_names_every_field(cls):
    fields, make, _ = CASES[cls]
    a = make()
    body = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
    assert repr(a) == f"{cls.__name__}({body})"


def test_repr_examples():
    assert repr(VertexSubset(3, [2, 0])) == "VertexSubset(parent_size=3, members=(0, 2))"
    assert repr(CompareResult(True, None, "exact match")) == "CompareResult(equal=True, first_mismatch=None, detail='exact match')"
    assert repr(UniversalParams(1)) == (
        "UniversalParams(alpha=Fraction(1, 1), beta=Fraction(0, 1), gamma=Fraction(0, 1), "
        "delta=Fraction(0, 1), allow_zero_alpha=False)"
    )
    assert repr(VerifyCase("a", True, "ok")) == "VerifyCase(name='a', passed=True, detail='ok')"


def test_keyword_construction():
    form = ResolventForm(num=Polynomial((1,)), den=X, cofactor=Polynomial.one(), hermitian=True)
    assert form == ResolventForm(Polynomial((1,)), X, Polynomial.one(), True)
    assert CompareResult(equal=True, first_mismatch=None, detail="d") == CompareResult(True, None, "d")


def test_with_universal_runs_the_join_spec_checks():
    spec = JoinSpec(Graph.path(2), [Graph(1), Graph.path(2)], rho_override=[[0, "1/2"], [1, 0]])
    lap = UniversalParams.laplacian()
    assert spec.with_universal(lap) == JoinSpec(spec.host, spec.components, None, lap, spec.rho_override)
    assert spec.with_universal(lap).with_universal(None) == spec

    # a spec whose fields never went through __init__: with_universal builds anew and the checks reject it
    broken = object.__new__(JoinSpec)
    for name, value in zip(JoinSpec.__slots__, (Graph.path(2), (Graph(1),), None, None, None)):
        object.__setattr__(broken, name, value)
    with pytest.raises(SpecError, match="host has 2 vertices but 1 components given"):
        broken.with_universal(lap)


# the records whose constructor only stores its arguments
PLAIN = [ResolventForm, ClearedRows, SpectrumReport, CompareResult, VerifyCase, FixtureResult]


def test_every_record_compares_and_hashes_through_record():
    assert set(Record.__subclasses__()) == set(CLASSES) | {Polynomial, RationalMatrix}
    for cls in CLASSES:
        assert cls.__eq__ is Record.__eq__ and cls.__hash__ is Record.__hash__, cls
        assert cls.__repr__ is Record.__repr__, cls
    for cls in (Polynomial, RationalMatrix):
        assert "__eq__" in vars(cls) and "__hash__" in vars(cls) and "__init__" in vars(cls)


@pytest.mark.parametrize("cls", PLAIN, ids=lambda c: c.__name__)
def test_plain_records_take_their_fields_by_position_or_keyword(cls):
    fields, make, _ = CASES[cls]
    assert cls.__init__ is Record.__init__
    a = make()
    values = tuple(getattr(a, f) for f in fields)
    assert cls(*values) == a
    assert cls(**dict(zip(fields, values))) == a
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == a
    bad = [
        ((), {}),
        (values[:-1], {}),
        (values + values[:1], {}),
        (values, {"extra": None}),
        (values[:-1], {fields[-1]: values[-1], "extra": None}),
        (values[:-1], {fields[0]: values[0]}),
        (values, {fields[0]: values[0]}),
    ]
    for args, kwargs in bad:
        with pytest.raises(TypeError, match=rf"^{cls.__name__} takes the fields \({', '.join(fields)}\)"):
            cls(*args, **kwargs)
