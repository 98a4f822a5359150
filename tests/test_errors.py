import pickle

import pytest

import mmspace  # noqa: F401  (imports every module that may define an error type)
from mmspace.errors import DisconnectedGraphError, MmError


def error_types(root=MmError):
    found = [root]
    for sub in root.__subclasses__():
        found += error_types(sub)
    return found


def example(cls):
    if issubclass(cls, DisconnectedGraphError):
        return cls("graph is disconnected", [[3, 1], [2], [0]])
    return cls("something went wrong")


@pytest.mark.parametrize("cls", error_types(), ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle(cls):
    # errors raised in experiment worker processes reach the caller pickled
    exc = example(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    assert back.exit_code == exc.exit_code
    assert getattr(back, "components", None) == getattr(exc, "components", None)


def test_every_error_type_is_covered():
    names = {cls.__name__ for cls in error_types()}
    assert {"InvalidArgumentError", "BudgetExceededError", "DisconnectedGraphError", "SolverError"} <= names

