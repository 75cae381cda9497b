"""Package exceptions survive pickling, as a failure in a training share
reaches its parent process pickled."""

import inspect
import pickle

import pytest

from noisesift import errors

# Constructor arguments of the subclasses whose __init__ takes more than a message.
ARGS = {errors.TrainingDivergedError: (5,), errors.StageError: ("eval", "x")}
SUBCLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.NoisesiftError)
]


@pytest.mark.parametrize("cls", SUBCLASSES, ids=lambda cls: cls.__name__)
def test_every_package_error_survives_pickle(cls):
    exc = cls(*ARGS.get(cls, ("a message",)))
    exc.add_note("a note")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert getattr(back, "epoch", None) == getattr(exc, "epoch", None)
    assert getattr(back, "stage", None) == getattr(exc, "stage", None)
    assert back.__notes__ == ["a note"]

