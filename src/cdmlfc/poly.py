"""Polynomial arithmetic and the CDM algebraic quantities.

Coefficients are stored in ascending powers of s: coeffs[i] multiplies s**i.
All values are immutable; every function here is pure.

The trim, the product, the target factors and the Routh test are written
once, over a lanes axis: each lane a row of coefficients, 0.0 past its
degree (the trim as a mask). Polynomial, poly_mul, target_poly and
is_hurwitz are their one-lane calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidGamma, ZeroCoefficient

# Trailing coefficients below this fraction of the largest magnitude are
# numerical dust from least-squares synthesis and get trimmed.
TRIM_RTOL = 1e-12


def _first_max(a: np.ndarray) -> np.ndarray:
    """Python's max over the last axis of a: NaN where the entries start with
    NaN, else the largest entry that is not NaN (max keeps its first argument
    until a later one compares greater, which NaN never does)."""
    return np.where(np.isnan(a[..., 0]), np.nan, np.fmax.reduce(a, axis=-1))


def trim_lanes(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polynomial's trim of each row of coeffs (lanes, width) as a mask: the
    rows with every trimmed coefficient set to 0.0, and each row's degree.
    A row keeps its entries up to the last one above TRIM_RTOL times its
    largest magnitude, and at least its constant; a row of zeros is 0.0."""
    mag = np.abs(coeffs)
    top = _first_max(mag)
    keep = ~(mag <= (top * TRIM_RTOL)[:, None])
    keep[:, 0] = True
    degree = keep.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1)
    kept = (np.arange(keep.shape[1]) <= degree[:, None]) & (top != 0.0)[:, None]
    return np.where(kept, coeffs, 0.0), degree


def _trim(coeffs: Sequence[float]) -> tuple[float, ...]:
    if not len(coeffs):
        return (0.0,)
    row, (degree,) = trim_lanes(np.array([coeffs], dtype=float))
    return tuple(row[0, : degree + 1].tolist())


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


def mul_lanes(a: np.ndarray, b: Sequence[float]) -> np.ndarray:
    """The coefficient convolution of each row of a (lanes, width) with b,
    untrimmed: entry k sums a_i * b_(k - i) onto 0.0 in ascending i, each
    product rounded on its own, as poly_mul's loop does."""
    b = np.asarray(b, dtype=float)
    out = np.zeros((len(a), a.shape[1] + len(b) - 1))
    for i in range(a.shape[1]):
        out[:, i : i + len(b)] += a[:, i : i + 1] * b
    return out


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Product of two polynomials (coefficient convolution)."""
    if p.is_zero or q.is_zero:
        return Polynomial.zero()
    return Polynomial(mul_lanes(np.array([p.coeffs]), q.coeffs)[0])


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


def _power(x: float, j: int) -> float:
    """Python float's x ** j, inf where it overflows."""
    try:
        return x**j
    except OverflowError:
        return math.inf


def target_factors(gammas: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """target_poly's factors for each row of gammas (lanes, n - 1), gamma_1
    first, and taus (lanes,): (2, lanes, n + 1), tau^i and the gamma product
    that divides a_i, so that a_i = (a0 * tau^i) / product. The powers are
    Python float's **, once per row (numpy's power may round them
    differently); both areas' targets share them. Every row gets its
    factors: a power that overflows is inf (where ** raises OverflowError),
    and a product may underflow to 0.0, so that a_i is not finite."""
    gammas = np.asarray(gammas, dtype=float)
    n = gammas.shape[1] + 1
    out = np.empty((2, len(gammas), n + 1))
    for lane, (gamma, tau) in enumerate(zip(gammas.tolist(), np.asarray(taus, dtype=float).tolist())):
        powers, denoms = [1.0, tau], [1.0, 1.0]
        for i in range(2, n + 1):
            denom = 1.0
            for j in range(1, i):
                denom *= _power(gamma[i - j - 1], j)  # gamma_{i-j}, list is 0-based
            powers.append(_power(tau, i))
            denoms.append(denom)
        out[:, lane] = powers, denoms
    return out


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
    powers, denoms = target_factors([gamma], [tau])[:, 0]
    if (denoms == 0.0).any():
        raise ZeroDivisionError("float division by zero")  # a gamma product underflowed
    # The contract promises degree n even when high-order terms are tiny,
    # so skip the dust trim here.
    return Polynomial._exact((a0 * powers) / denoms)


def _routh(c: np.ndarray) -> np.ndarray:
    """is_hurwitz on each row of c (lanes, n + 1), a degree-n polynomial with
    n >= 1, each early return a mask."""
    n = c.shape[1] - 1
    c = np.where(c[:, -1:] < 0.0, -c, c)
    # Necessary condition: every coefficient strictly positive.
    ok = ~(c <= 0.0).any(axis=1)
    if n == 1:
        return ok

    # First two rows hold descending even/odd coefficients.
    row_hi = c[:, n::-2]
    row_lo = np.zeros_like(row_hi)
    odd = c[:, n - 1 :: -2]
    row_lo[:, : odd.shape[1]] = odd

    top_hi = _first_max(np.abs(row_hi))
    for _ in range(n - 1):
        top_lo = _first_max(np.abs(row_lo))
        scale = np.where(top_lo > top_hi, top_lo, top_hi)  # Python's max(top_hi, top_lo)
        pivot = row_lo[:, :1]
        ok &= ~((scale == 0.0) | (np.abs(pivot[:, 0]) <= 1e-12 * scale) | (pivot[:, 0] < 0.0))
        nxt = np.zeros_like(row_hi)
        nxt[:, :-1] = (pivot * row_hi[:, 1:] - row_hi[:, :1] * row_lo[:, 1:]) / pivot
        row_hi, row_lo, top_hi = row_lo, nxt, top_lo

    # Last pivot is a_0 up to positive factors; sign decides stability.
    return ok & (row_lo[:, 0] > 0.0)


def hurwitz_lanes(coeffs: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """is_hurwitz of each row of coeffs (lanes, width) read as a polynomial of
    that lane's degree (entries past it ignored), as a bool array: the Routh
    test runs once per degree, over every lane of that degree."""
    if (degree < 1).any():
        raise ValueError("stability test needs degree >= 1")
    out = np.zeros(len(coeffs), dtype=bool)
    with np.errstate(all="ignore"):  # a lane past its early return may still divide by 0
        for n in np.unique(degree).tolist():
            at = degree == n
            out[at] = _routh(coeffs[at, : n + 1])
    return out


def is_hurwitz(p: Polynomial) -> bool:
    """True iff all roots of p have strictly negative real part, by the exact
    Routh-Hurwitz test (hurwitz_lanes on one lane).

    Zero detection is relative: an entry below 1e-12 of its row's magnitude
    counts as zero. A degenerate table (zero leading entry or an identically
    zero row) is not Hurwitz.
    """
    return bool(hurwitz_lanes(np.array([p.coeffs]), np.array([p.degree]))[0])


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
