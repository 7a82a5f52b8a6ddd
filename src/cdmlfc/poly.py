"""Polynomial arithmetic and the CDM algebraic quantities.

Coefficients are stored in ascending powers of s: coeffs[i] multiplies s**i.
All values are immutable; every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidGamma, ZeroCoefficient

# Trailing coefficients below this fraction of the largest magnitude are
# numerical dust from least-squares synthesis and get trimmed.
TRIM_RTOL = 1e-12


def _trim(coeffs: Sequence[float]) -> tuple[float, ...]:
    vals = [float(c) for c in coeffs]
    if not vals:
        return (0.0,)
    top = max(abs(c) for c in vals)
    if top == 0.0:
        return (0.0,)
    cut = top * TRIM_RTOL
    last = len(vals) - 1
    while last > 0 and abs(vals[last]) <= cut:
        last -= 1
    return tuple(vals[: last + 1])


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial in ascending powers of s."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float]):
        object.__setattr__(self, "coeffs", _trim(list(coeffs)))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls((0.0,))

    @classmethod
    def _exact(cls, coeffs: Iterable[float]) -> "Polynomial":
        """Bypass trailing-dust trimming (for polynomials exact by construction)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "coeffs", tuple(float(c) for c in coeffs))
        return obj

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> float:
        """Coefficient of s**i (0.0 beyond the stored degree)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0.0

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.coeff(i) + other.coeff(i) for i in range(n))

    def __call__(self, s0: float) -> float:
        """Evaluate at s0 by Horner's rule."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * s0 + c
        return acc

    def as_json(self) -> list[float]:
        return list(self.coeffs)

    def __str__(self) -> str:
        """Render as "a0 + a1*s + a2*s^2 + ..." for reports."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0.0 and not (i == 0 and self.is_zero):
                continue
            if i == 0:
                parts.append(f"{c:.6g}")
            elif i == 1:
                parts.append(f"{c:.6g}*s")
            else:
                parts.append(f"{c:.6g}*s^{i}")
        return " + ".join(parts) if parts else "0"


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Product of two polynomials (coefficient convolution)."""
    if p.is_zero or q.is_zero:
        return Polynomial.zero()
    out = [0.0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Polynomial(out)


def _require_nonzero_coeffs(p: Polynomial) -> None:
    for i, c in enumerate(p.coeffs):
        if c == 0.0:
            raise ZeroCoefficient(f"coefficient a_{i} is zero")


def stability_indices(p: Polynomial) -> list[float]:
    """gamma_i = a_i^2 / (a_{i+1} * a_{i-1}) for i = 1..n-1."""
    n = p.degree
    if n < 2:
        raise ValueError("stability indices need degree >= 2")
    _require_nonzero_coeffs(p)
    a = p.coeffs
    return [a[i] * a[i] / (a[i + 1] * a[i - 1]) for i in range(1, n)]


def equivalent_tau(p: Polynomial) -> float:
    """Equivalent time constant a_1/a_0 (seconds)."""
    if p.coeff(0) == 0.0:
        raise ZeroCoefficient("a_0 is zero")
    return p.coeff(1) / p.coeff(0)


def stability_limits(p: Polynomial) -> list[float]:
    """gamma*_i = 1/gamma_{i-1} + 1/gamma_{i+1} with gamma_0 = gamma_n = inf."""
    gamma = stability_indices(p)
    inverse = [0.0] + [1.0 / g for g in gamma] + [0.0]
    return [inverse[i] + inverse[i + 2] for i in range(len(gamma))]


def target_poly(gamma: Sequence[float], tau: float, a0: float) -> Polynomial:
    """Closed-loop target polynomial from (gamma, tau, a0).

    a_0 = a0, a_1 = a0*tau, and for i >= 2
        a_i = a0 * tau^i / (gamma_{i-1} * gamma_{i-2}^2 * ... * gamma_1^(i-1)).
    gamma is ordered gamma_1 first; the result has degree len(gamma) + 1.
    """
    gamma = [float(g) for g in gamma]
    if len(gamma) < 1:
        raise InvalidGamma("need at least one stability index")
    if any(g <= 0.0 for g in gamma):
        raise InvalidGamma("all stability indices must be > 0")
    if tau <= 0.0:
        raise ValueError("tau must be > 0")
    if a0 <= 0.0:
        raise ValueError("a0 must be > 0")
    n = len(gamma) + 1
    coeffs = [a0, a0 * tau]
    for i in range(2, n + 1):
        denom = 1.0
        for j in range(1, i):
            denom *= gamma[i - j - 1] ** j  # gamma_{i-j}, list is 0-based
        coeffs.append(a0 * tau**i / denom)
    # The contract promises degree n even when high-order terms are tiny,
    # so skip the dust trim here.
    return Polynomial._exact(coeffs)


def is_hurwitz(p: Polynomial) -> bool:
    """True iff all roots of p have strictly negative real part, by the exact
    Routh-Hurwitz test.

    Zero detection is relative: an entry below 1e-12 of its row's magnitude
    counts as zero. A degenerate table (zero leading entry or an identically
    zero row) is not Hurwitz.
    """
    n = p.degree
    if n < 1:
        raise ValueError("stability test needs degree >= 1")
    coeffs = list(p.coeffs)
    if coeffs[-1] < 0.0:
        coeffs = [-c for c in coeffs]
    # Necessary condition: every coefficient strictly positive.
    if any(c <= 0.0 for c in coeffs):
        return False
    if n == 1:
        return True

    # First two rows hold descending even/odd coefficients.
    row_hi = coeffs[n::-2]
    row_lo = coeffs[n - 1 :: -2]
    width = len(row_hi)
    row_lo += [0.0] * (width - len(row_lo))

    for _ in range(n - 1):
        scale = max(max(abs(v) for v in row_hi), max(abs(v) for v in row_lo))
        if scale == 0.0 or abs(row_lo[0]) <= 1e-12 * scale:
            return False
        nxt = []
        for k in range(width - 1):
            nxt.append((row_lo[0] * row_hi[k + 1] - row_hi[0] * row_lo[k + 1]) / row_lo[0])
        nxt.append(0.0)
        if row_lo[0] < 0.0:
            return False
        row_hi, row_lo = row_lo, nxt

    # Last pivot is a_0 up to positive factors; sign decides stability.
    return row_lo[0] > 0.0


def lipatov_sufficient(p: Polynomial) -> bool:
    """CDM sufficiency margin: gamma_i > 1.5 * gamma*_i for all i.

    Requires a uniformly signed coefficient sequence (Lipatov's setting);
    mixed signs fail the check outright. True implies is_hurwitz.
    """
    signs = {math.copysign(1.0, c) for c in p.coeffs if c != 0.0}
    if len(signs) != 1 or any(c == 0.0 for c in p.coeffs):
        return False
    if p.degree < 2:
        return True
    return all(g > 1.5 * gs for g, gs in zip(stability_indices(p), stability_limits(p)))
