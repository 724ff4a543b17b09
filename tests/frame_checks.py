"""
The checks ``StiefelMatrix(values)`` makes, asserted on frames the package
builds without making them.

``haar_sample``, ``haar_samples``, ``orthonormalize``, ``local_descent``
and ``multistart_search`` build their frames from a sign-fixed
Householder Q factor and skip the constructor's finiteness and Gram
checks; these helpers show that the checks would have passed.
"""
import numpy as np
import pytest

from goodsub import StiefelMatrix, gram_deviation
from goodsub.stiefel import ORTHONORMALITY_TOL


def assert_frame_values(values):
    # A finite orthonormal array that the public constructor accepts and
    # copies unchanged.
    assert np.isfinite(values).all()
    assert gram_deviation(values) <= ORTHONORMALITY_TOL
    checked = StiefelMatrix(values)
    assert checked.values is not values
    assert checked.values.tobytes() == values.tobytes()


def assert_package_frame(frame):
    # A package-made StiefelMatrix: frame values as above, and read-only.
    assert isinstance(frame, StiefelMatrix)
    assert_frame_values(frame.values)
    assert not frame.values.flags.writeable
    with pytest.raises(ValueError):
        frame.values[0, 0] = 0.0
