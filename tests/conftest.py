"""Fixtures shared by the test modules."""

import pytest

from fractalcalc import StaircaseFn


@pytest.fixture(scope="session")
def sf():
    """The Cantor staircase at its default depth; it holds no state."""
    return StaircaseFn()
