"""The package's record types behave as frozen dataclasses did.

Each record is one sample construction, written as the keyword arguments
of its constructor in field order.  Its fields are compared, hashed and
shown in that order, except ``PowerRecord.terms``, which stays out of all
three.  A record is equal only to a record of its own class, its hash is the
hash of its compared fields as a tuple (so hash values and set orders are
those of the dataclasses), and no field can be assigned or deleted.  Copies
and pickles are equal to the original and stay frozen.  Only
``MonomialPrime`` and ``IrreducibleComponent`` are ordered, by their one
field.
"""

import copy
import pickle

import pytest

from monofilt.closure import NewtonPolyhedron, NoetherianExponentResult
from monofilt.decomposition import IrreducibleComponent, MonomialPrime
from monofilt.epsilon import BoundCheckRow, EpsilonEstimate
from monofilt.filtration import CmCertificate, PrimeFiltration, ValidationResult
from monofilt.powers import AssStabilityReport, PowerRecord, PowersReport
from monofilt.ring import MonomialIdeal, Record, RingContext, context, ideal, zero_ideal
from monofilt.superficial import (
    CyclicFilteredModule,
    SpliceCertificate,
    SuperficialCertificate,
    TermSystem,
)

CTX = context("x", "y")
I = ideal(CTX, [(2, 0), (1, 1)])
PX, PXY = MonomialPrime((0,)), MonomialPrime((0, 1))
FILTRATION = PrimeFiltration(I, (((1, 0), PX), ((0, 0), PXY)))
LEDGER = ((PX, 1), (PXY, 1))
RECORD = dict(n=1, primes=(PX, PXY), ledger=LEDGER, fallback=False, steps=2, terms=TermSystem(I))

SAMPLES = {
    RingContext: dict(variable_names=("x", "y")),
    MonomialIdeal: dict(ctx=CTX, generators=((2, 0), (1, 1))),
    MonomialPrime: dict(support=(0, 1)),
    IrreducibleComponent: dict(bounds=((0, 2), (1, 3))),
    CyclicFilteredModule: dict(annihilator=zero_ideal(CTX), filtration_ideal=I),
    SuperficialCertificate: dict(element=(1, 0), order=1, c=1, colon_threshold=1, verified_to=4),
    SpliceCertificate: dict(element=(1, 1), order=2, colon_threshold=1, verified_to=4),
    PrimeFiltration: dict(base=I, steps=FILTRATION.steps),
    ValidationResult: dict(ok=False, step=1, reason="colon is larger than the claimed prime"),
    CmCertificate: dict(
        element=(0, 1), minh_primes=(PX,), quotient_dim=1, per_n=((1, ((PX, 1),), True),)
    ),
    PowerRecord: RECORD,
    PowersReport: dict(
        ctx=CTX,
        ideal=I,
        mode="naive",
        n_max=1,
        window=1,
        records=(PowerRecord(**RECORD),),
        primes_union=(PX, PXY),
        stabilization={"onset": None},
        growth=((PX, None, 1),),
        superficial=None,
        fallback_nodes=(),
        filtrations={1: FILTRATION},
        engine=None,
    ),
    AssStabilityReport: dict(
        ctx=CTX,
        ideal=I,
        n_max=2,
        window=1,
        per_n=((1, (PX, PXY)), (2, (PX, PXY))),
        union=(PX, PXY),
        onset=1,
    ),
    EpsilonEstimate: dict(
        ideal=I,
        n_max=2,
        dim=2,
        lengths=((1, 1), (2, 2)),
        normalized=((1, 2.0), (2, 1.0)),
        window=1,
        estimate=1.0,
    ),
    BoundCheckRow: dict(n=1, length=1, maximal_multiplicity=1, ok=True),
    NewtonPolyhedron: dict(
        ctx=CTX,
        generators=I.generators,
        facets=(((1, 1), 2), ((0, 1), 0)),
        vertices=((2, 0), (1, 1)),
    ),
    NoetherianExponentResult: dict(exponent=None, l_max=2, n_max=3, failures=((1, 2), (2, 3))),
}
HIDDEN = {PowerRecord: ("terms",)}  # fields outside ==, hash and repr
ORDERED = (MonomialPrime, IrreducibleComponent)
UNHASHABLE = (PowersReport,)  # dict fields

CLASSES = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)


def _compared(cls) -> list:
    return [f for f in SAMPLES[cls] if f not in HIDDEN.get(cls, ())]


@CLASSES
def test_equality_reads_each_compared_field_and_the_class(cls):
    kwargs = SAMPLES[cls]
    record = cls(**kwargs)
    assert record == cls(**kwargs) and not record != cls(**kwargs)
    assert record == cls(*kwargs.values())
    assert record != tuple(kwargs[f] for f in _compared(cls))
    assert not isinstance(record, tuple)
    other = next(r for c, r in ((c, c(**SAMPLES[c])) for c in SAMPLES) if c is not cls)
    assert record != other
    for name in kwargs:
        changed = copy.copy(record)
        vars(changed)[name] = object()
        assert (changed == record) is (name in HIDDEN.get(cls, ()))


@CLASSES
def test_hash_is_the_hash_of_the_compared_fields(cls):
    record = cls(**SAMPLES[cls])
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == hash(tuple(SAMPLES[cls][f] for f in _compared(cls)))


@CLASSES
def test_repr_names_the_compared_fields(cls):
    kwargs = SAMPLES[cls]
    fields = ", ".join(f"{f}={kwargs[f]!r}" for f in _compared(cls))
    assert repr(cls(**kwargs)) == f"{cls.__name__}({fields})"


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    kwargs = SAMPLES[cls]
    original = cls(**kwargs)
    for record in (original, copy.copy(original), pickle.loads(pickle.dumps(original))):
        for name in (*kwargs, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in kwargs:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert all(getattr(record, name) == kwargs[name] for name in _compared(cls))


@CLASSES
def test_pickle_and_copies_round_trip(cls):
    record = cls(**SAMPLES[cls])
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record


@CLASSES
def test_only_primes_and_components_are_ordered(cls):
    record = cls(**SAMPLES[cls])
    if cls in ORDERED:
        assert record <= record and record >= record and not record < record and not record > record
        with pytest.raises(TypeError):
            record < tuple(SAMPLES[cls].values())
    else:
        with pytest.raises(TypeError):
            record < record


def test_primes_and_components_sort_by_their_field():
    supports = [(1,), (0, 1), (), (0,), (0, 1, 2)]
    assert [p.support for p in sorted(map(MonomialPrime, supports))] == sorted(supports)
    assert MonomialPrime((0,)) < MonomialPrime((1,)) and MonomialPrime((1,)) > MonomialPrime((0, 1))
    bounds = [((1, 2),), ((0, 3), (1, 1)), ((0, 1),)]
    assert [c.bounds for c in sorted(map(IrreducibleComponent, bounds))] == sorted(bounds)
    assert max(map(IrreducibleComponent, bounds)) == IrreducibleComponent(((1, 2),))


def test_list_arguments_become_tuples():
    assert RingContext(["x", "y"]).variable_names == ("x", "y")
    assert MonomialIdeal(CTX, [(1, 0), (0, 1)]).generators == ((1, 0), (0, 1))
    assert MonomialPrime([0, 2]).support == (0, 2)
    assert hash(MonomialPrime([0, 2])) == hash(MonomialPrime((0, 2)))


UNSORTED = "prime support must be strictly increasing variable indices"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RingContext(()), "a ring needs at least one variable"),
        (lambda: RingContext(("x", "x")), "variable names must be distinct"),
        (lambda: RingContext(("x", "")), "variable names must be nonempty"),
        (lambda: MonomialPrime((1, 0)), UNSORTED),
        (lambda: MonomialPrime((0, 0)), UNSORTED),
    ],
)
def test_constructors_keep_their_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_validation_result_defaults():
    assert ValidationResult(True) == ValidationResult(True, None, None)
    assert repr(ValidationResult(True)) == "ValidationResult(ok=True, step=None, reason=None)"
    assert bool(ValidationResult(True)) and not ValidationResult(False, 0, "why")


def test_power_record_ignores_its_term_system():
    other = dict(RECORD, terms=TermSystem(ideal(CTX, [(1, 0)])))
    assert PowerRecord(**other) == PowerRecord(**RECORD)
    assert hash(PowerRecord(**other)) == hash(PowerRecord(**RECORD))
    assert PowerRecord(**other).terms is other["terms"]


# Records that write their own constructor, each for its reason: ideals are
# built by every ring operation, rings and primes check their input,
# validation results have defaults and power records keep a field outside
# ``_fields``.  Every other record takes ``Record.__init__``.
OWN_CONSTRUCTOR = {RingContext, MonomialIdeal, MonomialPrime, ValidationResult, PowerRecord}


@CLASSES
def test_constructors_take_each_field_exactly_once(cls):
    kwargs = SAMPLES[cls]
    first, *rest = kwargs
    builds = {
        "missing": lambda: cls(**{f: kwargs[f] for f in rest}),
        "extra positional": lambda: cls(*kwargs.values(), None),
        "unknown keyword": lambda: cls(**kwargs, unknown=None),
        "doubled": lambda: cls(kwargs[first], **kwargs),
    }
    for case, build in builds.items():
        with pytest.raises(TypeError) as caught:
            build()
        message = str(caught.value)
        assert cls.__name__ in message, case
        if cls not in OWN_CONSTRUCTOR:
            assert all(f in message for f in kwargs), case


def test_only_the_listed_records_write_a_constructor():
    records, stack = set(), Record.__subclasses__()
    while stack:
        cls = stack.pop()
        records.add(cls)
        stack.extend(cls.__subclasses__())
    assert set(SAMPLES) <= records
    assert {cls for cls in records if "__init__" in vars(cls)} == OWN_CONSTRUCTOR
