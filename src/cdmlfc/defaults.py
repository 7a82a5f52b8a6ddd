"""Bundled defaults: the two-area network constants, benchmark controller
gains, optimizer settings, and the nonlinearity configurations.

Two GRC presets ship side by side. The nominal physical value (10% per
minute, 0.1/60 pu/s) is the model default; the bundled case definitions
use a non-binding 0.1 pu/s, the only rate compatible with the benchmark
response values (a 1% step rate-limited at 0.1/60 pu/s starves generation
for seconds and forces frequency dips an order of magnitude beyond
anything those benchmarks show).
"""

from __future__ import annotations

from .plant import AreaParams, NonlinearityConfig, TieLine
from .poly import Polynomial

AREA1 = AreaParams(D=0.015, M=0.1667, R=3.0, Tg=0.08, Tt=0.4)
AREA2 = AreaParams(D=0.016, M=0.2017, R=2.73, Tg=0.06, Tt=0.44)
TIE = TieLine(T12=0.2)

GRC_STATED = 0.1 / 60.0  # 10% per minute
GRC_NONBINDING = 0.1  # the rate the benchmark response values are consistent with

NONLIN_DEFAULT = NonlinearityConfig(grc_rate=GRC_STATED, gdb_width=0.05)
NONLIN_CASES = NonlinearityConfig(grc_rate=GRC_NONBINDING, gdb_width=0.05)
# tuning happens in the regime the benchmark gains are optimal for: every
# benchmark controller row matches the linear-effective model within ~10%
NONLIN_OBJECTIVE = NonlinearityConfig(grc_rate=GRC_NONBINDING, gdb_width=0.0)

OPT_GAMMA = (25.33, 0.01, 17.62, 9.88, 29.98)
OPT_TAU = 0.8832
OPT_KB0 = (20.5126, 39.9347)

PID_GAINS = ((3.8830, 8.9908, 2.9089), (4.4420, 8.1478, 1.0651))  # Kp, Ki, Kd per area
INTEGRAL_GAINS = (0.3, 0.2)

# classic CDM baseline polynomials (ascending powers)
CLASSIC_AC = (Polynomial([0.0, 150.0, 2.0]), Polynomial([0.0, 60.0, 3.0]))
CLASSIC_BC = (Polynomial([40.0, 69.0, 100.0]), Polynomial([32.0, 54.0, 100.0]))

SETTLE_BANDS = {"df1": 1e-4, "df2": 1e-4, "dptie": 5e-5}
OVERSHOOT_FLOOR = 1e-6  # below this magnitude reports print N.O

# decision vector [gamma_1..gamma_5, tau, k_b0 area1, k_b0 area2]
OPT_BOUNDS = [(0.01, 40.0)] * 5 + [(0.1, 5.0)] + [(1.0, 100.0)] * 2

DT_DEFAULT = 0.01
CONTROLLER_DT_DEFAULT = 0.01
OBJECTIVE_DT = 0.02
OBJECTIVE_HORIZON = 60.0
OBJECTIVE_PERTURB = 1.5  # governor/turbine time constant factor of the tuning model
CASE_HORIZONS = {1: 60.0, 2: 60.0, 3: 60.0, 4: 100.0, 5: 100.0, 6: 30.0}
CASE_SEED = 2016
CONTROLLER_SET_NAMES = ("cdm_opt", "cdm", "pid", "pi")

