"""The frozen-record helper behind the package's value types, checked
against ``dataclasses.dataclass(frozen=True)`` on the same class bodies."""

import copy
import dataclasses
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxorder import bernstein, lattice, measures, orders, polynomials
from cxorder.measures import FrozenInstanceError, _frozen


def _bodies():
    """Fresh class bodies: plain fields, defaults, and a __post_init__ that
    normalises through object.__setattr__ and may refuse its input."""

    class Pair:
        left: object
        right: object

    class Span:
        lo: Fraction
        hi: Fraction = Fraction(1)
        label: str = "span"
        tags: tuple = ()

        def __post_init__(self):
            object.__setattr__(self, "lo", Fraction(self.lo))
            object.__setattr__(self, "hi", Fraction(self.hi))
            object.__setattr__(self, "tags", tuple(sorted(self.tags)))
            if self.lo > self.hi:
                raise ValueError("empty span")

        @property
        def width(self):
            return self.hi - self.lo

    return Pair, Span


def _both():
    ours = [_frozen(cls) for cls in _bodies()]
    theirs = [dataclasses.dataclass(frozen=True)(cls) for cls in _bodies()]
    return ours, theirs


def _outcome(cls, args, kwargs):
    try:
        return "ok", cls(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc), None


values = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=5), st.text(max_size=2),
                   st.none())
span_kwargs = st.fixed_dictionaries({}, optional={
    "hi": st.integers(-3, 3), "label": st.text(max_size=2),
    "tags": st.lists(st.integers(0, 3), max_size=3).map(tuple),
})


@settings(max_examples=300, deadline=None)
@given(
    pair_calls=st.lists(st.tuples(
        st.lists(values, max_size=3),
        st.dictionaries(st.sampled_from(["left", "right", "middle"]), values, max_size=2),
    ), min_size=1, max_size=3),
    span_calls=st.lists(st.tuples(
        st.one_of(st.integers(-3, 3), st.fractions(max_denominator=5)),
        span_kwargs,
        st.sampled_from(["positional", "keyword", "all positional"]),
    ), min_size=1, max_size=3),
)
def test_helper_matches_frozen_dataclass(pair_calls, span_calls):
    (our_pair, our_span), (dc_pair, dc_span) = _both()
    calls = [(our_pair, dc_pair, list(args), kwargs) for args, kwargs in pair_calls]
    for lo, kwargs, form in span_calls:
        if form == "positional":
            calls.append((our_span, dc_span, [lo], kwargs))
        elif form == "keyword":
            calls.append((our_span, dc_span, [], {"lo": lo, **kwargs}))
        else:
            calls.append((our_span, dc_span, [lo, *kwargs.values()], {}))
    built = []
    for ours, theirs, args, kwargs in calls:
        (our_kind, mine), (their_kind, reference) = (
            _outcome(ours, args, kwargs), _outcome(theirs, args, kwargs))
        assert our_kind == their_kind  # a missing or unknown argument: TypeError in both
        if mine is None:
            continue
        built.append((mine, reference))
        assert repr(mine) == repr(reference)
        assert hash(mine) == hash(reference)
        assert vars(mine) == vars(reference)
        assert mine == ours(*args, **kwargs)
        assert mine.__eq__(reference) is NotImplemented  # another class
        assert mine != reference and mine != tuple(vars(mine).values())
        for name in [*vars(mine), "new_field"]:
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(mine, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(reference, name, 0)
            with pytest.raises(AttributeError):  # FrozenInstanceError is one
                delattr(mine, name)
        assert vars(mine) == vars(reference)
    for (a, a_ref), (b, b_ref) in itertools.product(built, repeat=2):
        assert (a == b) == (a_ref == b_ref)
        assert (a != b) == (a_ref != b_ref)


def test_post_init_normalises_and_may_refuse():
    (_, span), _ = _both()
    s = span(1, "3/2", tags=(2, 0))
    assert (s.lo, s.hi, s.tags, s.width) == (Fraction(1), Fraction(3, 2), (0, 2), Fraction(1, 2))
    assert type(s.lo) is Fraction
    with pytest.raises(ValueError, match="empty span"):
        span(2)
    with pytest.raises(TypeError, match=r"Span.__init__\(\) missing 1 required positional"):
        span()
    with pytest.raises(TypeError, match="unexpected keyword argument 'width'"):
        span(0, width=1)


RECORDS = [
    measures.DiscreteMeasure, orders.Witness, orders.OrderVerdict,
    orders.PiecewiseLinear, orders.ConvexTestFn, lattice.LatticeSeq, polynomials.MVPolynomial,
    polynomials.SosDecomposition, bernstein.BivariateFn, bernstein.IntervalValue,
]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_package_records_use_the_helper(cls):
    assert not dataclasses.is_dataclass(cls)
    assert cls.__setattr__ is measures._refuse_set
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"


def _samples():
    """One record of each class of RECORDS, each built by the function
    that builds it in the package."""
    mu = measures.make_measure([(0, 1), (3, 1)])
    nu = measures.make_measure([(1, 1), (2, 1)])
    verdict, profile = orders.rasa_criterion(mu, nu)
    return [
        mu, verdict.witness, verdict, profile,
        orders.hinge_fn("1/2", 2), lattice.as_lattice(mu), polynomials.w_polynomial((2, 1)),
        polynomials.sos_step_decomposition((2, 1), (3, 0)), bernstein.absdiff_surface(1),
        bernstein.IntervalValue(Fraction(-1, 3), Fraction(1, 2)),
    ]


@pytest.mark.parametrize("duplicate", [copy.copy, lambda record: pickle.loads(pickle.dumps(record))],
                         ids=["copy", "pickle"])
def test_copied_and_unpickled_records_compare_hash_and_print_as_the_original(duplicate):
    samples = _samples()
    assert [type(record) for record in samples] == RECORDS
    for record in samples:
        twin = duplicate(record)
        assert twin is not record and type(twin) is type(record)
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
        assert repr(twin) == repr(record)
        assert twin in {record}
        with pytest.raises(AttributeError):
            setattr(twin, "extra", 0)


def test_a_record_built_without_its_constructor_reads_its_fields():
    # copy and pickle set the fields with __dict__.update, bypassing __init__;
    # here the class has not compiled its constructor yet
    (pair, _), _ = _both()
    blank = pair.__new__(pair)
    blank.__dict__.update(left=1, right=Fraction(1, 2))
    assert repr(blank).endswith("Pair(left=1, right=Fraction(1, 2))")
    assert hash(blank) == hash((1, Fraction(1, 2)))
    built = pair(1, Fraction(1, 2))
    assert blank == built and repr(blank) == repr(built)
