"""Fixtures shared by the test modules."""

import sys

import numpy as np
import pytest
from hypothesis import settings

from unclab import CoefficientFamily

# Every property test draws the same examples on every run, and no example
# database replays the failures of an earlier one.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


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


@pytest.fixture
def counted(monkeypatch):
    """counted(real): the list of calls of ``real`` made through any unclab
    module's name for it, recorded as made."""

    def count(real) -> list:
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("unclab"):
                for key, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, key, wrapper)
        return calls

    return count


_SINGLE = {"name": "s", "symmetric": True, "real": True, "entries": [{"n": 0, "expr": "exp"}]}
_TABLE = dict(_SINGLE, entries=[{"n": 0, "expr": "table"}])
_MALFORMED = {
    "scale-text": (dict(_SINGLE, entries=[{"n": 0, "expr": "exp", "scale": "x"}]), "scale"),
    "scale-null": (dict(_SINGLE, entries=[{"n": 0, "expr": "exp", "scale": None}]), "scale"),
    "scale-bool": (
        dict(_SINGLE, entries=[{"n": 0, "expr": "exp", "scale": True}]),
        "scale must be a real number, got True",
    ),
    "scale-numeric-text": (
        dict(_SINGLE, entries=[{"n": 0, "expr": "exp", "scale": "2.0"}]),
        "scale must be a real number, got '2.0'",
    ),
    "real-text": (dict(_SINGLE, real="false"), "real must be true or false, got 'false'"),
    "symmetric-text": (dict(_SINGLE, symmetric="no"), "symmetric must be true or false"),
    "symmetric-number": (dict(_SINGLE, symmetric=1), "symmetric must be true or false, got 1"),
    "real-null": (dict(_SINGLE, real=None), "real must be true or false, got None"),
    "table-row-text": (dict(_TABLE, table={"1.0": [[0, "a", 0]]}), "table alpha"),
    "table-rows-number": (dict(_TABLE, table={"1.0": 5}), "table alpha"),
    "table-list": (dict(_TABLE, table=[1]), "table must map"),
    "entries-number": (dict(_SINGLE, entries=5), "entries"),
    "entry-number": (dict(_SINGLE, entries=[3]), "bad entry 3"),
    "entry-without-expr": (dict(_SINGLE, entries=[{"n": 0}]), "bad entry {'n': 0}"),
    "table-key-text": (dict(_TABLE, table={"x": [[0, 1, 0]]}), "table key 'x' is not a number"),
    "table-key-negative": (
        dict(_TABLE, table={"-1": [[0, 1, 0]]}), "table alpha '-1' must be positive"
    ),
    "top-level-array": ([_SINGLE], "JSON object"),
    "entry-index-fraction": (
        dict(_SINGLE, entries=[{"n": 1.5, "expr": "exp"}]), "n must be an integer, got 1.5"
    ),
    "entry-index-bool": (
        dict(_SINGLE, entries=[{"n": True, "expr": "exp"}]), "n must be an integer, got True"
    ),
    "entry-index-past-int64": (
        dict(_SINGLE, entries=[{"n": 2**63, "expr": "exp"}]),
        "entry n=9223372036854775808 is outside the index range",
    ),
    "entry-index-int64-min": (
        dict(_SINGLE, entries=[{"n": 0, "expr": "exp"}, {"n": -2**63, "expr": "exp"}]),
        "entry n=-9223372036854775808 is outside the index range",
    ),
    "table-index-fraction": (
        dict(_TABLE, table={"1.0": [[0, 1, 0], [1.5, 1, 0]]}),
        "table alpha '1.0': n must be an integer, got 1.5",
    ),
}


@pytest.fixture(params=list(_MALFORMED), ids=list(_MALFORMED))
def malformed_spec(request):
    """A family document of the wrong shape, and the field its error names."""
    return _MALFORMED[request.param]


_UNREADABLE = {
    "not-utf8": (b"\xff\xfe{}", "can't decode byte 0xff"),
    "nested-5000-deep": (b"[" * 5000 + b"]" * 5000, "maximum recursion depth"),
}


@pytest.fixture(params=list(_UNREADABLE), ids=list(_UNREADABLE))
def unreadable_document(request, tmp_path):
    """A family document file no JSON reader accepts, and what its error says."""
    raw, reason = _UNREADABLE[request.param]
    path = tmp_path / "unreadable.json"
    path.write_bytes(raw)
    return path, reason
