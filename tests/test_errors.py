"""Every DeepwaveError survives pickle and copy with its type, message,
code and extra attributes, so errors can cross process boundaries."""

from __future__ import annotations

import copy
import pickle

import pytest

from deepwave import errors

# One instance of each error class, with its extra attributes set.
INSTANCES = [
    errors.DeepwaveError("internal failure"),
    errors.ParameterDomainError("k must be positive"),
    errors.DegenerateRootsError("double root"),
    errors.ContractViolationError("negative square-root argument"),
    errors.AsymptoteProximityError("too close to t = 1.5", nearest_time=1.5),
    errors.StiffnessError(
        "adaptive step size underflow", t_last=0.25, state_last=(1.0, -2.0)
    ),
    errors.EmptyReportError("no stagnation level"),
]
EXTRA_ATTRIBUTES = ("nearest_time", "t_last", "state_last")


def _all_error_classes():
    found, todo = set(), [errors.DeepwaveError]
    while todo:
        cls = todo.pop()
        found.add(cls)
        todo.extend(cls.__subclasses__())
    return found


def test_instances_cover_every_error_class():
    assert {type(e) for e in INSTANCES} == _all_error_classes()


@pytest.mark.parametrize(
    "clone",
    [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
@pytest.mark.parametrize("exc", INSTANCES, ids=lambda e: type(e).__name__)
def test_error_round_trip(exc, clone):
    got = clone(exc)
    assert type(got) is type(exc)
    assert str(got) == str(exc)
    assert got.args == exc.args == (str(exc),)
    assert got.code == exc.code
    for name in EXTRA_ATTRIBUTES:
        assert getattr(got, name, None) == getattr(exc, name, None)
