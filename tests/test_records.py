"""The frozen records of the package behave as `@dataclass(frozen=True)`
records with the same fields would: the same `repr`, `==` and `hash`, no
attribute assignment, and `copy` and `pickle` round trips.  The dataclass
twins are built here only; the package itself does not import `dataclasses`."""

import copy
import pickle
import random
from dataclasses import field, make_dataclass
from fractions import Fraction
from typing import Any

import pytest

from bdsweyl.bdspair import ReflectionChain, build_pair
from bdsweyl.srring import ClosedForm, HilbertSeries, SimplicialComplex, SRPresentation, Weight0
from bdsweyl.verify import CheckResult, draw_eval_params
from bdsweyl.weylcrit import (DeltaWeight, EvalParams, EvalPoint, IdealPoint, LocalDimReport,
                              RecordedConstant, ideal_point_from_params, local_weyl_dim_report,
                              record_constants)

B3 = build_pair("B", 3, rank=3)
LAM = Weight0({2: 1, 0: 1})
NO_DEFAULT = object()

# every field in declaration order, with its default where it has one
FIELDS = {
    ReflectionChain: [("entries", NO_DEFAULT)],
    SimplicialComplex: [("vertices", NO_DEFAULT), ("facets", NO_DEFAULT)],
    ClosedForm: [("numerator", NO_DEFAULT), ("denominator", NO_DEFAULT)],
    HilbertSeries: [("truncation_degree", NO_DEFAULT), ("coefficients", NO_DEFAULT),
                    ("closed_form", None)],
    CheckResult: [("name", NO_DEFAULT), ("ok", NO_DEFAULT), ("detail", "")],
    DeltaWeight: [("values", NO_DEFAULT)],
    EvalPoint: [("z_power", NO_DEFAULT), ("weight", NO_DEFAULT)],
    EvalParams: [("mu", NO_DEFAULT), ("points", NO_DEFAULT)],
    IdealPoint: [("lam", NO_DEFAULT), ("mu_h0", NO_DEFAULT), ("pi", NO_DEFAULT)],
    LocalDimReport: [(name, NO_DEFAULT) for name in ("node", "multiplicity", "value",
                                                     "displayed_value", "mismatch", "spin_value")],
    RecordedConstant: [(name, NO_DEFAULT) for name in ("pair_name", "weight", "ideal_kind", "dim",
                                                       "computed", "note")],
}


def twin_class(cls):
    specs = [(name, Any) if default is NO_DEFAULT else (name, Any, field(default=default))
             for name, default in FIELDS[cls]]
    return make_dataclass(cls.__name__, specs, frozen=True)


def values(record):
    return [getattr(record, name) for name, _ in FIELDS[type(record)]]


def samples(cls):
    """At least two unequal records of `cls`, and an equal copy of the first
    that is a different object."""
    params = draw_eval_params(B3, LAM, random.Random(0), 2)
    pres = SRPresentation(B3, LAM)
    chain = B3.reflection_chain()
    made = {
        ReflectionChain: [chain, ReflectionChain(chain.entries[:1]), ReflectionChain(())],
        SimplicialComplex: [pres.facets(), SimplicialComplex((), (frozenset({1}), frozenset({2})))],
        ClosedForm: [ClosedForm((1, 2), (2, 4)), ClosedForm((1,), ()), ClosedForm((1, 2), (4, 2))],
        HilbertSeries: [pres.hilbert_series(6), HilbertSeries(2, (1, 3, 5)),
                        HilbertSeries(2, (1, 3, 5), ClosedForm((1, 1), (1,)))],
        CheckResult: [CheckResult("shellings", True), CheckResult("shellings", True, "3 pairs"),
                      CheckResult("shellings", False)],
        DeltaWeight: [DeltaWeight((1, -2, 0)), DeltaWeight((1, 2, 0)), DeltaWeight(())],
        EvalPoint: [params.points[0], params.points[1],
                    EvalPoint(Fraction(1, 2), DeltaWeight((0, 1, 0)))],
        EvalParams: [params, EvalParams(LAM, params.points[:1])],
        IdealPoint: [ideal_point_from_params(B3, LAM, params),
                     IdealPoint(LAM, 1, ((Fraction(1),), (), ()))],
        LocalDimReport: [local_weyl_dim_report(B3, 2, 1), local_weyl_dim_report(B3, 2, 2),
                         local_weyl_dim_report(B3, 0, 1)],
        RecordedConstant: list(record_constants()),
    }[cls]
    return made + [cls(*values(made[0]))]


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_record_matches_its_frozen_dataclass_twin(cls):
    twin = twin_class(cls)
    records = samples(cls)
    twins = [twin(*values(r)) for r in records]
    assert records[0] is not records[-1]
    for r, t in zip(records, twins):
        assert repr(r) == repr(t)
        assert hash(r) == hash(t)
        fields = tuple(values(r))
        for a, b in ((r, t), (t, r), (r, fields), (fields, r)):
            assert a != b and not a == b  # a record never equals another class, nor a tuple
        assert len({r, fields}) == 2
        for name in [name for name, _ in FIELDS[cls]] + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(r, name, None)
            with pytest.raises(AttributeError):
                setattr(t, name, None)
        for name, _ in FIELDS[cls]:
            with pytest.raises(AttributeError):
                delattr(r, name)
    for r, t in zip(records, twins):
        for r2, t2 in zip(records, twins):
            assert (r == r2) == (t == t2)
            assert (r != r2) == (t != t2)
    assert records[0] == records[-1]


@pytest.mark.parametrize("cls", [c for c, fields in FIELDS.items()
                                 if fields[-1][1] is not NO_DEFAULT], ids=lambda c: c.__name__)
def test_record_defaults_and_keywords_match_the_twin(cls):
    twin = twin_class(cls)
    record = samples(cls)[0]
    required = {name: getattr(record, name) for name, d in FIELDS[cls] if d is NO_DEFAULT}
    assert repr(cls(**required)) == repr(twin(**required))
    assert cls(**required) == cls(*required.values())


@pytest.mark.parametrize("cls, make", [
    (SimplicialComplex, lambda: SRPresentation(B3, LAM).facets()),
    (HilbertSeries, lambda: SRPresentation(B3, LAM).hilbert_series(6)),
], ids=["SimplicialComplex", "HilbertSeries"])
def test_post_init_patched_on_the_class_sees_each_construction(monkeypatch, cls, make):
    # the traced benchmark times these checks by rebinding the class attribute
    seen = []
    check = cls.__post_init__

    def counted(self):
        seen.append(self)
        check(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    made = [make(), make()]
    assert [id(r) for r in seen] == [id(r) for r in made]


def test_records_of_different_classes_with_the_same_fields_differ():
    same = [ClosedForm((), ()), EvalPoint((), ()), EvalParams((), ()), SimplicialComplex((), ())]
    assert len(set(same)) == len(same)
    assert all(a != b and not a == b for a in same for b in same if a is not b)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_record_survives_copy_and_pickle(cls):
    for r in samples(cls):
        for back in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(back) is cls
            assert back == r and repr(back) == repr(r)
