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
from .poly import Polynomial, is_hurwitz, poly_mul, target_poly


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
    UnstableDesign without raising.
    """
    q, r = ac_degree, bc_degree
    p = plant.Dp.degree
    m = plant.N.degree
    if q < 1 or r < 1:
        raise ValueError("controller degrees must be >= 1")
    if r + m > p:
        raise ValueError(f"structure ({q},{r}) is infeasible for plant degrees ({p},{m})")
    n = q + p
    if len(gains.gamma) != n - 1:
        raise ValueError(f"need {n - 1} stability indices for a degree-{n} closed loop, got {len(gains.gamma)}")
    if plant.Dp.coeff(0) != 0.0:
        raise ValueError("design plant must carry a free integrator (Dp(0) = 0)")

    n0 = plant.N.coeff(0)
    if n0 == 0.0:
        raise SingularSystem("N(0) = 0: the s^0 row cannot pin a0")
    k0 = gains.k_b0
    a0 = k0 * n0  # forced by the s^0 row since Dp(0) = 0 and Ac(0) = 0
    target = target_poly(gains.gamma, gains.tau, a0)
    t = [target.coeff(i) for i in range(n + 1)]

    # Row j (coefficient of s^j), unknowns x = [l_1..l_q, k_1..k_r].
    rows = np.zeros((n, q + r))
    rhs = np.zeros(n)
    for j in range(1, n + 1):
        for i in range(1, q + 1):
            rows[j - 1, i - 1] = plant.Dp.coeff(j - i)
        for i in range(1, r + 1):
            rows[j - 1, q + i - 1] = plant.N.coeff(j - i)
        rhs[j - 1] = t[j] - k0 * plant.N.coeff(j)

    selected = list(range(1, r)) + [r + m] + list(range(n - q + 1, n + 1))
    idx = [j - 1 for j in selected]
    sub = rows[idx]
    sub_rhs = rhs[idx]
    try:
        x = np.linalg.solve(sub, sub_rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    check = sub @ x - sub_rhs
    scale = max(1e-30, float(np.max(np.abs(sub_rhs))))
    if not np.all(np.isfinite(x)) or float(np.max(np.abs(check))) > 1e-6 * scale:
        raise SingularSystem("selected synthesis rows are numerically singular")

    ac = Polynomial([0.0, *x[:q]])
    bc = Polynomial([k0, *x[q:]])
    realized = closed_loop_poly(plant, ac, bc)
    rvec = np.array([realized.coeff(i) for i in range(n + 1)])
    residual = float(np.linalg.norm(rvec - np.array(t)) / np.linalg.norm(t))
    return CdmController(
        Ac=ac,
        Bc=bc,
        F=k0,  # target(0)/N(0) collapses to k_b0 identically
        residual=residual,
        target=target,
        realized=realized,
        stable=is_hurwitz(realized),
        gains=gains,
    )


def closed_loop_poly(plant: DesignPlant, ac: Polynomial, bc: Polynomial) -> Polynomial:
    """Closed-loop characteristic polynomial Ac*Dp + Bc*N."""
    return poly_mul(ac, plant.Dp) + poly_mul(bc, plant.N)


def controller_to_statespace(ctrl: CdmController) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Controllable-canonical realization (A, B, C, D) of Bc(s)/Ac(s):
    xdot = A x + B y, v = C x + D y.

    v is the raw transfer-function output Bc/Ac * y; the loop applies
    u = -v (regulation sign convention). The ratio may be biproper; the
    direct feedthrough is split off and the strictly proper remainder
    realized in companion form. Raises ImproperController when
    degree(Bc) > degree(Ac).
    """
    ac, bc = ctrl.Ac, ctrl.Bc
    q = ac.degree
    if bc.degree > q:
        raise ImproperController(f"degree(Bc)={bc.degree} > degree(Ac)={q}")
    if q < 1 or ac.coeff(q) == 0.0:
        raise ValueError("Ac must have degree >= 1")
    lead = ac.coeff(q)
    d = bc.coeff(q) / lead
    a = np.eye(q, k=1)
    a[q - 1] = [-(ac.coeff(i) / lead) for i in range(q)]  # the monic denominator, negated
    b = np.zeros(q)
    b[q - 1] = 1.0
    # remainder Bc - d*Ac has degree <= q-1
    c = np.array([(bc.coeff(i) - d * ac.coeff(i)) / lead for i in range(q)])
    return a, b, c, d
