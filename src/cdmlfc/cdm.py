"""CDM controller synthesis from a design plant and the tunable gain triple.

The two-parameter controller is u = (F*r - Bc(s)*y) / Ac(s) with Ac(0) = 0
(integral action) and Bc(0) = K_B0. Synthesis forces the closed-loop
characteristic polynomial Ac*Dp + Bc*N toward the target polynomial built
from (gamma, tau): the square subsystem formed by the tau row (s^1), the
k_1..k_{r-1} rows, the highest feedback row (s^(r+m)) and the top q rows is
solved exactly; the remaining rows are reported through the residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ImproperController, SingularSystem
from .plant import DesignPlant
from .poly import Polynomial, hurwitz_lanes, is_hurwitz, mul_lanes, target_factors, trim_lanes


@dataclass(frozen=True)
class CdmGains:
    """Tunable triple: stability indices, equivalent time constant, Bc(0)."""

    gamma: tuple[float, ...]  # gamma_1 first
    tau: float  # seconds
    k_b0: float

    def __init__(self, gamma: Sequence[float], tau: float, k_b0: float):
        object.__setattr__(self, "gamma", tuple(float(g) for g in gamma))
        object.__setattr__(self, "tau", float(tau))
        object.__setattr__(self, "k_b0", float(k_b0))
        if any(g <= 0.0 for g in self.gamma):
            raise ValueError("all gamma_i must be > 0")
        if self.tau <= 0.0:
            raise ValueError("tau must be > 0")
        if self.k_b0 <= 0.0:
            raise ValueError("k_b0 must be > 0")


@dataclass(frozen=True)
class CdmController:
    Ac: Polynomial  # forward denominator, Ac(0) = 0
    Bc: Polynomial  # feedback numerator, Bc(0) = k_b0
    F: float  # constant reference prefilter
    residual: float  # ||target - realized||_2 / ||target||_2
    target: Polynomial
    realized: Polynomial  # Ac*Dp + Bc*N
    stable: bool  # is_hurwitz(realized); False marks an UnstableDesign
    gains: Optional[CdmGains] = None

    def to_json(self) -> dict:
        return {
            "ac": self.Ac.as_json(),
            "bc": self.Bc.as_json(),
            "ac_display": str(self.Ac),
            "bc_display": str(self.Bc),
            "f": self.F,
            "residual": self.residual,
            "target": self.target.as_json(),
            "realized": self.realized.as_json(),
            "stable": self.stable,
            "gains": None
            if self.gains is None
            else {"gamma": list(self.gains.gamma), "tau": self.gains.tau, "k_b0": self.gains.k_b0},
        }

    @classmethod
    def from_polynomials(cls, ac: Polynomial, bc: Polynomial, plant: DesignPlant) -> "CdmController":
        """Wrap explicitly given controller polynomials (e.g. fixed baselines)."""
        realized = closed_loop_poly(plant, ac, bc)
        return cls(
            Ac=ac,
            Bc=bc,
            F=bc.coeff(0),
            residual=0.0,
            target=realized,
            realized=realized,
            stable=is_hurwitz(realized),
        )


@dataclass(frozen=True)
class Designs:
    """synthesize over a lanes axis: lane i is the synthesis from row i of
    the gains. Each polynomial is a row of coefficients in ascending powers,
    0.0 past its degree (Polynomial's trim as a mask)."""

    ac: np.ndarray  # (lanes, q + 1)
    bc: np.ndarray  # (lanes, r + 1)
    target: np.ndarray  # (lanes, n + 1)
    realized: np.ndarray  # (lanes, n + 1), Ac*Dp + Bc*N
    residual: np.ndarray  # (lanes,)
    stable: np.ndarray  # (lanes,) bool, False on a singular lane
    # (lanes,) bool: the lanes synthesize raises SingularSystem on, a failed solve or a residual not
    # finite in floats (a target coefficient or a norm that overflows)
    singular: np.ndarray

    def realizable(self) -> np.ndarray:
        """The lanes statespace_lanes realizes at order q: Ac of its full
        degree q, Bc of no higher degree."""
        q = self.ac.shape[1] - 1
        return (self.ac[:, q] != 0.0) & ~self.bc[:, q + 1 :].any(axis=1)


def synthesize_lanes(
    plant: DesignPlant,
    factors: np.ndarray,
    k_b0: np.ndarray,
    ac_degree: int = 2,
    bc_degree: int = 2,
) -> Designs:
    """synthesize for each lane of the target factors (target_factors of the
    lanes' gamma and tau) and k_b0 (lanes,), in a fixed number of numpy calls
    whatever the lane count, each lane's values the bits of its own
    synthesize call. The selected rows depend on the plant only, so one
    matrix serves every lane; a plant on which synthesize raises for any
    gains raises here, and a lane whose solve fails its check is marked
    singular.
    """
    q, r = ac_degree, bc_degree
    p = plant.Dp.degree
    m = plant.N.degree
    if q < 1 or r < 1:
        raise ValueError("controller degrees must be >= 1")
    if r + m > p:
        raise ValueError(f"structure ({q},{r}) is infeasible for plant degrees ({p},{m})")
    n = q + p
    if factors.shape[-1] != n + 1:
        raise ValueError(f"need {n - 1} stability indices for a degree-{n} closed loop, got {factors.shape[-1] - 2}")
    if plant.Dp.coeff(0) != 0.0:
        raise ValueError("design plant must carry a free integrator (Dp(0) = 0)")

    n0 = plant.N.coeff(0)
    if n0 == 0.0:
        raise SingularSystem("N(0) = 0: the s^0 row cannot pin a0")
    k0 = np.asarray(k_b0, dtype=float)
    a0 = k0 * n0  # forced by the s^0 row since Dp(0) = 0 and Ac(0) = 0
    if (a0 <= 0.0).any():
        raise ValueError("a0 must be > 0")
    powers, denoms = factors
    with np.errstate(all="ignore"):  # inf where Python's float arithmetic gives inf
        t = (a0[:, None] * powers) / denoms  # target_poly's coefficients

    # Row j (coefficient of s^j), unknowns x = [l_1..l_q, k_1..k_r].
    rows = np.zeros((n, q + r))
    for j in range(1, n + 1):
        for i in range(1, q + 1):
            rows[j - 1, i - 1] = plant.Dp.coeff(j - i)
        for i in range(1, r + 1):
            rows[j - 1, q + i - 1] = plant.N.coeff(j - i)
    rhs = t[:, 1:] - k0[:, None] * [plant.N.coeff(j) for j in range(1, n + 1)]

    selected = list(range(1, r)) + [r + m] + list(range(n - q + 1, n + 1))
    idx = [j - 1 for j in selected]
    sub = rows[idx]
    sub_rhs = rhs[:, idx]
    try:
        x = np.linalg.solve(np.broadcast_to(sub, (len(k0), *sub.shape)), sub_rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None

    with np.errstate(all="ignore"):  # a singular lane's values may be inf or NaN
        check = np.matmul(sub, x[..., None])[..., 0] - sub_rhs
        top = np.max(np.abs(sub_rhs), axis=1)
        scale = np.where(top > 1e-30, top, 1e-30)  # Python's max(1e-30, top)
        singular = ~np.isfinite(x).all(axis=1) | (np.max(np.abs(check), axis=1) > 1e-6 * scale)
        ac, _ = trim_lanes(np.concatenate([np.zeros((len(k0), 1)), x[:, :q]], axis=1))
        bc, _ = trim_lanes(np.concatenate([k0[:, None], x[:, q:]], axis=1))
        realized, degree = closed_loop_lanes(plant, ac, bc)
        err = realized - t
        # np.linalg.norm's x.dot(x), stacked
        residual = np.sqrt(np.matmul(err[:, None], err[..., None])[:, 0, 0]) / np.sqrt(np.matmul(t[:, None], t[..., None])[:, 0, 0])
    singular |= ~np.isfinite(residual)
    stable = np.zeros(len(k0), dtype=bool)
    stable[~singular] = hurwitz_lanes(realized[~singular], degree[~singular])
    return Designs(ac, bc, t, realized, residual, stable, singular)


def synthesize(
    plant: DesignPlant,
    gains: CdmGains,
    ac_degree: int = 2,
    bc_degree: int = 2,
) -> CdmController:
    """Synthesize (Ac, Bc, F) for the plant from the gain triple.

    len(gains.gamma) must equal ac_degree + degree(Dp) - 1 so the target
    polynomial matches the closed loop's degree. The realized polynomial is
    evaluated with the exact solved coefficients; stable=False flags an
    UnstableDesign without raising. synthesize_lanes on one lane.
    """
    factors = target_factors([gains.gamma], [gains.tau])
    design = synthesize_lanes(plant, factors, np.array([gains.k_b0]), ac_degree, bc_degree)
    if design.singular[0]:
        raise SingularSystem("selected synthesis rows are numerically singular, or the target overflows")
    return CdmController(
        Ac=Polynomial(design.ac[0]),
        Bc=Polynomial(design.bc[0]),
        F=gains.k_b0,  # target(0)/N(0) collapses to k_b0 identically
        residual=float(design.residual[0]),
        target=Polynomial._exact(design.target[0]),
        realized=Polynomial(design.realized[0]),
        stable=bool(design.stable[0]),
        gains=gains,
    )


def closed_loop_lanes(plant: DesignPlant, ac: np.ndarray, bc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """closed_loop_poly of each lane's rows of ac and bc (0.0 past their
    degrees): the realized rows, 0.0 past their degrees, and those degrees.
    Each product is trimmed before the sum, as poly_mul's are."""
    left, right = (trim_lanes(mul_lanes(c, factor.coeffs))[0] for c, factor in ((ac, plant.Dp), (bc, plant.N)))
    total = np.zeros((len(left), max(left.shape[1], right.shape[1])))
    total[:, : left.shape[1]] = left
    total[:, : right.shape[1]] += right  # Polynomial's sum, 0.0 past a degree
    return trim_lanes(total)


def closed_loop_poly(plant: DesignPlant, ac: Polynomial, bc: Polynomial) -> Polynomial:
    """Closed-loop characteristic polynomial Ac*Dp + Bc*N."""
    return Polynomial(closed_loop_lanes(plant, np.array([ac.coeffs]), np.array([bc.coeffs]))[0][0])


def _degrees(coeffs: np.ndarray) -> np.ndarray:
    """Each row's degree: the index of its last nonzero entry, 0 for none."""
    return np.where(coeffs != 0.0, np.arange(coeffs.shape[1]), 0).max(axis=1, initial=0)


def statespace_lanes(ac: np.ndarray, bc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """controller_to_statespace for each lane's rows of ac and bc (0.0 past
    their degrees), which must share one order q = degree(Ac): A (lanes, q,
    q), B and C (lanes, q) and D (lanes,). Raises ImproperController where
    degree(Bc) > degree(Ac)."""
    order, bc_order = _degrees(ac), _degrees(bc)
    improper = np.flatnonzero(bc_order > order)
    if improper.size:
        i = improper[0]
        raise ImproperController(f"degree(Bc)={bc_order[i]} > degree(Ac)={order[i]}")
    if (order < 1).any():
        raise ValueError("Ac must have degree >= 1")
    if (order != order[:1]).any():
        raise ValueError("the controllers must share one order")
    q = int(order[0]) if len(order) else ac.shape[1] - 1
    ac = ac[:, : q + 1]
    bc = np.concatenate([bc, np.zeros((len(bc), q + 1 - bc.shape[1]))], axis=1) if bc.shape[1] <= q else bc[:, : q + 1]
    lead = ac[:, q : q + 1]
    d = bc[:, q : q + 1] / lead
    a = np.zeros((len(ac), q, q))
    a[:, :-1, 1:] = np.eye(q - 1)
    a[:, q - 1] = -(ac[:, :q] / lead)  # the monic denominator, negated
    b = np.zeros((len(ac), q))
    b[:, q - 1] = 1.0
    # remainder Bc - d*Ac has degree <= q-1
    c = (bc[:, :q] - d * ac[:, :q]) / lead
    return a, b, c, d[:, 0]


def controller_to_statespace(ctrl: CdmController) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Controllable-canonical realization (A, B, C, D) of Bc(s)/Ac(s):
    xdot = A x + B y, v = C x + D y.

    v is the raw transfer-function output Bc/Ac * y; the loop applies
    u = -v (regulation sign convention). The ratio may be biproper; the
    direct feedthrough is split off and the strictly proper remainder
    realized in companion form. Raises ImproperController when
    degree(Bc) > degree(Ac). statespace_lanes on one lane.
    """
    a, b, c, d = statespace_lanes(np.array([ctrl.Ac.coeffs]), np.array([ctrl.Bc.coeffs]))
    return a[0], b[0], c[0], float(d[0])
