"""One-parameter Fourier-coefficient families and their JSON interface.

A family is a value: a rule (n, alpha) -> complex amplitude, defined for
every integer n and every alpha > 0, plus symmetry metadata.  The built-in
exponential decay e^{-alpha |n|} and polynomial decay |n|^{-alpha} (n = 0
removed) are module-level constants, which the closed-form engines
recognise by value, not by name.  Tables, single modes and JSON documents
share one finite-support rule: the amplitudes at the listed indices, placed
by one sorted lookup, and zero elsewhere.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InvalidParameter

# Matching tolerance for alpha keys of tabulated families.
_TABLE_ALPHA_TOL = 1e-12
# Largest amplitude modulus a rule may return.  A state's normalization
# makes any overall scale unobservable, and below this every square and every
# n^2 |C_n|^2 window sum stays far inside binary64.
_AMPLITUDE_MAX = 1e100
# Largest index modulus: an int64 holds +-(2^63 - 1), and np.abs of it does
# not wrap as it does at -2^63.
_INDEX_MAX = 2**63 - 1


@dataclass(frozen=True)
class CoefficientFamily:
    """Rule (n, alpha) -> complex amplitude plus symmetry metadata.

    ``rule`` must accept an integer ndarray and a positive float and return
    a complex ndarray of the same shape, whose real and imaginary parts are
    finite and at most 1e100 in modulus (only the amplitudes' ratios are
    observable, so any family can be scaled to that).  ``is_symmetric``
    (|C_n| = |C_{-n}|) and ``is_real`` (exactly zero imaginary parts) are
    descriptive metadata: no moment is computed from them, and realness and
    symmetry are read from the coefficients themselves.  They take part in
    the dataclass ==, by which ``spectrum._exact_tails`` and ``analysis._engine``
    (the grid evaluator of every analysis driver) match the built-ins, so a
    copy with other flags is another family to them.  ``support_hint``, when set,
    promises C_n = 0 for |n| > support_hint, so spectrum construction keeps
    the whole support and no tail past it.  A rule whose only amplitudes
    past the first ring (|n| <= 16) and its probes are isolated modes (at
    n = +-1000, say) must set it: the fitted rings of ``build_spectrum`` and
    ``tail_second_moment`` see only the indices they sample, and would read
    it as ending early.
    """

    name: str
    rule: Callable[[np.ndarray, float], np.ndarray] = field(repr=False)
    is_real: bool = True
    is_symmetric: bool = True
    support_hint: int | None = None

    def coefficients(self, n, alpha: float) -> np.ndarray:
        """Evaluate the rule on an array of integer indices."""
        if not (alpha > 0.0):
            raise InvalidParameter(f"alpha must be positive, got {alpha!r}")
        n_arr = np.atleast_1d(np.asarray(n, dtype=np.int64))
        out = np.asarray(self.rule(n_arr, float(alpha)), dtype=np.complex128)
        if out.shape != n_arr.shape:
            raise InvalidParameter(
                f"family {self.name!r}: rule returned shape {out.shape}, "
                f"expected {n_arr.shape}"
            )
        # a NaN part gives a NaN modulus, which fails the test; no square comes first
        peak = np.abs(out).max(initial=0.0)
        if not peak <= _AMPLITUDE_MAX:
            raise InvalidParameter(
                f"family {self.name!r} at alpha={alpha}: amplitude modulus {peak:g} "
                f"is not a finite number of at most {_AMPLITUDE_MAX:g}; rescale the family"
            )
        return out


def _exp_rule(n: np.ndarray, alpha: float) -> np.ndarray:
    # every |n| >= 1 amplitude is exactly 0.0 past alpha ~ 745.2; the clamp stops overflow
    return np.exp(-min(alpha, 746.0) * np.abs(n)).astype(np.complex128)


def _poly_rule(n: np.ndarray, alpha: float) -> np.ndarray:
    # one float temporary: the power overwrites |n|, then n = 0 goes to 0.0
    absn = np.abs(n).astype(np.float64)
    with np.errstate(divide="ignore"):
        np.power(absn, -alpha, out=absn)
    absn[n == 0] = 0.0
    return absn.astype(np.complex128)


# Frozen, so one shared value each; the closed-form engines match these by ==.
_EXPONENTIAL = CoefficientFamily(name="exp", rule=_exp_rule)
_POLYNOMIAL = CoefficientFamily(name="poly", rule=_poly_rule)


def exponential_family() -> CoefficientFamily:
    """C_n(alpha) = e^{-alpha |n|}: dominant index 0, delta-like as alpha->0."""
    return _EXPONENTIAL


def polynomial_family() -> CoefficientFamily:
    """C_n(alpha) = |n|^{-alpha} for n != 0, C_0 = 0: tied indices +-1."""
    return _POLYNOMIAL


def _finite_support(
    name: str,
    indices: Sequence[int],
    amplitudes: Callable[[float], Sequence[complex]],
    is_real: bool,
    is_symmetric: bool,
) -> CoefficientFamily:
    """Family with ``amplitudes(alpha)`` at the sorted ``indices``, zero elsewhere."""
    far = [n for n in indices if abs(n) > _INDEX_MAX]
    if far:
        raise InvalidParameter(
            f"family {name!r}: entry n={far[0]} is outside the index range +-(2^63 - 1)"
        )
    keys = np.asarray(indices, dtype=np.int64)

    def rule(n: np.ndarray, alpha: float) -> np.ndarray:
        vals = np.asarray(amplitudes(alpha), dtype=np.complex128)
        out = np.zeros(n.shape, dtype=np.complex128)
        if keys.size:
            pos = np.minimum(np.searchsorted(keys, n), keys.size - 1)
            hit = keys[pos] == n
            out[hit] = vals[pos[hit]]
        return out

    support = int(np.abs(keys).max(initial=0))
    return CoefficientFamily(name, rule, is_real, is_symmetric, support_hint=support)


def single_mode_family(m: int = 0) -> CoefficientFamily:
    """C_m = 1 and all other amplitudes zero: an L_z eigenstate."""
    return table_family(f"mode{m}", {m: 1.0})


def table_family(name: str, coeffs: Mapping[int, complex]) -> CoefficientFamily:
    """Family with fixed (alpha-independent) amplitudes from a dict.

    The symmetry flags are read from the amplitudes.
    """
    fixed = {int(k): complex(v) for k, v in coeffs.items()}
    is_real = all(v.imag == 0.0 for v in fixed.values())
    is_symmetric = all(abs(v) == abs(fixed.get(-k, 0.0)) for k, v in fixed.items())
    keys = sorted(fixed)
    values = np.array([fixed[k] for k in keys], dtype=np.complex128)
    return _finite_support(name, keys, lambda alpha: values, is_real, is_symmetric)


def two_mode_family() -> CoefficientFamily:
    """C_{+-1} = 0.5, everything else zero."""
    return table_family("two_mode", {1: 0.5, -1: 0.5})


# --------------------------------------------------------------------------
# JSON interface.  Schema (documented in the README):
#
# {
#   "name":      str,
#   "symmetric": bool,
#   "real":      bool,
#   "entries":   [{"n": int, "expr": "exp" | "poly" | "table",
#                  "scale": float (optional, default 1.0)}, ...],
#   "table":     {"<alpha>": [[n, re, im], ...], ...}   (iff any "table" entry)
# }
#
# Amplitudes at indices without an entry are zero.  "exp" gives
# scale * e^{-alpha |n|}, "poly" gives scale * |n|^{-alpha} (n != 0 only),
# "table" looks up [n, re, im] rows under the alpha key (exact match
# within 1e-12).
# --------------------------------------------------------------------------

_VALID_EXPRS = ("exp", "poly", "table")


def _parse_table(raw: Mapping) -> dict[float, dict[int, complex]]:
    if not isinstance(raw, Mapping):
        raise InvalidParameter(f"table must map alpha keys to row lists, got {raw!r}")
    table: dict[float, dict[int, complex]] = {}
    for key, rows in raw.items():
        try:
            a = float(key)
        except (TypeError, ValueError):
            raise InvalidParameter(f"table key {key!r} is not a number")
        if not a > 0.0:
            raise InvalidParameter(f"table alpha {key!r} must be positive")
        try:
            values = [(n, complex(float(re), float(im))) for n, re, im in rows]
        except (TypeError, ValueError) as exc:
            raise InvalidParameter(
                f"table alpha {key!r}: rows must be [n, re, im] numbers, got {rows!r}"
            ) from exc
        table[a] = {_index(n, f"table alpha {key!r}"): v for n, v in values}
    return table


def _index(value, where: str) -> int:
    """A document's index n: an integer, not a float or bool that int() truncates."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameter(f"{where}: n must be an integer, got {value!r}")
    return int(value)


def _flag(spec: Mapping, key: str) -> bool:
    """A document's flag: a boolean, not a string or number that bool() reads."""
    value = spec[key]
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidParameter(f"family spec {key} must be true or false, got {value!r}")
    return bool(value)


def _table_lookup(
    table: dict[float, dict[int, complex]], alpha: float
) -> dict[int, complex]:
    for a, entry in table.items():
        if abs(a - alpha) <= _TABLE_ALPHA_TOL * max(1.0, abs(a)):
            return entry
    raise InvalidParameter(
        f"alpha={alpha} is not tabulated (known: {sorted(table)})"
    )


def family_from_dict(spec: Mapping) -> CoefficientFamily:
    """Build a CoefficientFamily from a parsed JSON document."""
    if not isinstance(spec, Mapping):
        raise InvalidParameter(f"family spec must be a JSON object, got {type(spec).__name__}")
    try:
        name = str(spec["name"])
        symmetric = _flag(spec, "symmetric")
        real = _flag(spec, "real")
        entries = list(spec["entries"])
    except KeyError as exc:
        raise InvalidParameter(f"family spec is missing key {exc}") from exc
    except TypeError as exc:
        raise InvalidParameter(
            f"family spec entries must be a list, got {spec['entries']!r}"
        ) from exc
    if not entries:
        raise InvalidParameter("family spec needs at least one entry")

    parsed = []
    needs_table = False
    seen: set[int] = set()
    for e in entries:
        try:
            n, expr = e["n"], str(e["expr"])
        except (KeyError, TypeError) as exc:
            raise InvalidParameter(f"bad entry {e!r}") from exc
        n = _index(n, f"entry {e!r}")
        if expr not in _VALID_EXPRS:
            raise InvalidParameter(
                f"entry n={n}: expr must be one of {_VALID_EXPRS}, got {expr!r}"
            )
        if expr == "poly" and n == 0:
            raise InvalidParameter("poly entries are undefined at n = 0")
        if n in seen:
            raise InvalidParameter(f"duplicate entry for n = {n}")
        seen.add(n)
        scale = e.get("scale", 1.0)
        if isinstance(scale, bool) or not isinstance(scale, numbers.Real):
            raise InvalidParameter(f"entry n={n}: scale must be a real number, got {scale!r}")
        needs_table |= expr == "table"
        parsed.append((n, expr, float(scale)))

    table = _parse_table(spec.get("table") or {}) if needs_table else {}
    if needs_table and not table:
        raise InvalidParameter("entries reference a table but none was given")

    parsed.sort()

    def amplitudes(alpha: float) -> list[complex]:
        tab = _table_lookup(table, alpha) if needs_table else {}
        return [
            scale * math.exp(-alpha * abs(n)) if expr == "exp"
            else scale * abs(n) ** (-alpha) if expr == "poly"
            else scale * tab.get(n, 0.0)
            for n, expr, scale in parsed
        ]

    if real:  # fail fast on a table that contradicts the declared metadata
        for a in table:
            bad = [n for n, v in table[a].items() if v.imag != 0.0]
            if bad:
                raise InvalidParameter(
                    f"family declared real but table at alpha={a} has "
                    f"imaginary parts at n={bad}"
                )
    return _finite_support(name, [n for n, _, _ in parsed], amplitudes, real, symmetric)


def load_family(path: str | Path) -> CoefficientFamily:
    """Load a custom family from a UTF-8 JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        # json recurses once per nesting level: a deep document raises RecursionError
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise InvalidParameter(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    return family_from_dict(spec)
