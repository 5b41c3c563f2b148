import inspect
import pickle

import pytest

from readmit import errors

ERROR_TYPES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.ReadmitError)]


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_error_survives_pickle(cls):
    # evaluation workers hand errors to the caller through pickle
    error = cls(3, float("inf")) if cls is errors.TrainingDivergedError else cls("bad input")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.args == error.args
    if cls is errors.TrainingDivergedError:
        assert (copy.epoch, copy.loss) == (3, float("inf"))
        assert str(copy) == "training diverged at epoch 3: loss=inf"
