"""Independent reference values that the library itself does not need."""

import math

import numpy as np

from unclab import InvalidParameter, NonConvergent

_PHI_SLACK = 1e-12


def evaluate_state(s, phi: float) -> complex:
    """f(phi) = A sum_{|n|<=N} C_n e^{i n phi} of a TruncatedSpectrum, phi in [-pi, pi]."""
    if not (-math.pi - _PHI_SLACK <= phi <= math.pi + _PHI_SLACK):
        raise InvalidParameter(f"phi must lie in [-pi, pi], got {phi!r}")
    phases = np.exp(1j * phi * np.arange(-s.cutoff, s.cutoff + 1))
    return math.sqrt(s.norm_sq) * complex(np.dot(s.coeffs, phases))


def exp_xi_resummed(alpha: float, k_max: int = 200_000) -> float:
    """xi(alpha) for the exponential family via the single-shell resummation.

        xi = 2 sum_{k>=1} (-1)^k k^{-2} (coth(alpha) + k) e^{-alpha k}

    Terms alternate with decreasing magnitude, so the remainder is bounded
    by the first omitted term; NonConvergent if that bound is still above
    the rounding floor at k_max.
    """
    if not (alpha > 0.0) or math.isnan(alpha):
        raise InvalidParameter(f"alpha must be positive, got {alpha!r}")
    coth = 1.0 / math.tanh(alpha)
    terms: list[float] = []
    k = 1
    sign = -1.0
    while k <= k_max:
        t = sign * (coth + k) / (k * k) * math.exp(-alpha * k)
        terms.append(t)
        if abs(t) <= 1e-17 * max(1.0, coth):
            return 2.0 * math.fsum(terms)
        sign = -sign
        k += 1
    raise NonConvergent(
        f"xi resummation: remainder bound {abs(terms[-1]):.3e} above the "
        f"rounding floor after k_max={k_max} terms at alpha={alpha}"
    )


def dominance_by_loop(mags: np.ndarray, ns: np.ndarray) -> tuple[int | None, str]:
    """(dominant index, verdict) of the grid-tail dominance rule, one trace at a
    time: ``mags`` holds |C_n(alpha)| with one row per grid alpha and one
    column per n in ``ns``.  Thresholds are those of unclab.analysis."""
    from unclab.analysis import _TIE_MARGIN, DOMINANCE_THRESHOLD

    g = mags.shape[0]
    k_pos = int(np.argmax(mags[-1]))
    ref = mags[:, k_pos]
    if mags[-1, k_pos] <= 0.0 or np.any(ref <= 0.0):
        return None, "inconclusive"
    others = [j for j in range(ns.size) if j != k_pos]
    if max(mags[-1, j] / ref[-1] for j in others) >= 1.0 - _TIE_MARGIN:
        return None, "no_unique_dominant"
    third = max(1, g // 3)
    for j in others:
        ratios = mags[:, j] / ref
        if ratios[-1] >= DOMINANCE_THRESHOLD:
            return None, "inconclusive"
        if float(np.mean(ratios[-third:])) > float(np.mean(ratios[:third])) + 1e-15:
            return None, "inconclusive"
    return int(ns[k_pos]), "dominant"


def decreasing_run_by_pairs(mags: np.ndarray, strict: bool) -> bool:
    """Condition (iii) one pair of grid points at a time: every row of ``mags``
    below the one before it, or else a greedy run (from each start, take each
    later point below the run's last) over at least max(3, G // 2) points."""
    g = mags.shape[0]

    def below(i: int, j: int) -> bool:
        return bool(np.all(mags[j] < mags[i]) if strict else np.all(mags[j] <= mags[i]))

    if all(below(i, i + 1) for i in range(g - 1)):
        return True
    best = 1
    for start in range(g):
        length, cur = 1, start
        for j in range(start + 1, g):
            if below(cur, j):
                length += 1
                cur = j
        best = max(best, length)
    return best >= max(3, g // 2)
