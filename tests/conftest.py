"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from unclab import CoefficientFamily


@pytest.fixture
def evaluations(monkeypatch):
    """The index arrays of every coefficients call, recorded as made."""
    calls = []
    real = CoefficientFamily.coefficients

    def coefficients(self, n, alpha):
        calls.append(np.asarray(n).copy())
        return real(self, n, alpha)

    monkeypatch.setattr(CoefficientFamily, "coefficients", coefficients)
    return calls
