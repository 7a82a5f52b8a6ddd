"""The closed loop's affine step maps, on which simulate takes its linear
stretches in closed form.

While the generation-rate clamp is idle and the governor dead band is closed
(or linear: no band, or the describing-function backlash), one step of the
loop that simulate runs with controller_dt = dt is affine,

    z' = F z + G w,

with z the seven plant states in state order followed by area 1's and area
2's controller states, and w the step's load_samples row read as six values
(dPL1, dPL2 at the step's start, midpoint and end). The plant steps by
classic RK4 under the control u held over the step, which the controllers
compute from the state before their update. Under a closed dead zone the
droop term is 0; with no band, or under backlash, the droop is linear. A
sine in the loads keeps the map constant as the output of a two-state
oscillator carried in z (sine_maps; the internal model principle): w is
then the rest of the load, constant over a stretch.

step_maps builds F and G, the ACE and control rows and the affine
arguments of the clamp and the dead zone at each of the four RK4 stages,
for a leading axis of lanes (controller pairs on one plant). block_table
turns them into the coefficients of chosen affine rows after 0..B-1
steps under one load row, z_j = F^j z_0 + sum_{i<j} F^i G w, built by
doubling on the powers step_squares gives, and sum_rows adds their
products up; sine_maps appends each sine's two exosystem states to F and
G. Every matrix product is elementwise, each product rounded on its own
and summed in a fixed order: no BLAS or LAPACK call, so no result depends
on the CPU kernel. block_predictor
predicts a block of simulate's steps from them and checks the prediction;
simulate (closed_form=True) steps exactly wherever the check fails.
step_powers gives the state after a whole block, for
BatchCdmSimulator.closed_form_iae, and spectral_radius bounds F's spectral
radius from above, on which the tuning objective screens its candidates.

_rk4_maps reads the plant's linear mode off sim's own step, rk4_step of
plant_rhs, so the plant is written nowhere here. This module binds both at
import; sim imports it only for a closed-form run, and scenarios only in
the tuning objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .plant import AreaParams, NonlinearityConfig, TieLine, frequency_bias
from .sim import plant_rhs, rk4_step

# the length in steps of simulate's closed-form blocks: measured at 25, 50 and 100 on cases 2-5
_BLOCK = 50


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes, leading axes broadcast, with no BLAS call:
    each product rounded on its own, summed in inner-index order."""
    out = a[..., :, :1] * b[..., :1, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k : k + 1] * b[..., k : k + 1, :]
    return out


def sum_rows(y: np.ndarray) -> np.ndarray:
    """y's sum over its first axis, in place in y, in one fixed order: a
    halving tree (row i + row m - h + i for the first h = m // 2 of m rows)."""
    m = len(y)
    while m > 1:
        h = m // 2
        np.add(y[:h], y[m - h : m], out=y[:h])
        m -= h
    return y[0]


def _rk4_maps(
    areas: tuple[AreaParams, AreaParams], tie: TieLine, nonlin: NonlinearityConfig, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One rk4_step of plant_rhs in its linear mode as matrices over v =
    [state (7); u (2); loads at the step's start, midpoint and end (6)]: the
    step map (7, 15), and the mode arguments (K, 15) with their limits (K,):
    each area's clamp argument, its turbine derivative (dpg - dpm) / Tt, at
    the four stages when the rate is finite, then its droop input df / R at
    the four stages under a dead zone of nonzero width.

    The linear mode is plant_rhs with no clamp and, under a dead zone, one
    of infinite width, closed at any input. Its step is linear in v, so
    column j of each matrix is that step, or a stage of it, at v's unit
    vector j, read off rk4_step and the stages it passes to plant_rhs."""
    half = 0.5 * nonlin.gdb_width
    zone = half != 0.0 and nonlin.gdb_mode == "deadzone"
    rhs = plant_rhs(areas, tie, replace(nonlin, grc_rate=math.inf, gdb_width=math.inf if zone else nonlin.gdb_width))
    stages = []  # each stage's (state, derivative), four per step

    def recording(state, loads, u):
        k = rhs(state, loads, u)
        stages.append((state, k))
        return k

    units = np.eye(15).tolist()
    phi = [rk4_step(recording, tuple(v[:7]), (v[9:11], v[11:13], v[13:]), tuple(v[7:9]), h) for v in units]
    states, derivatives = np.array(stages).reshape(15, 4, 2, 7).transpose(2, 3, 1, 0)  # each (7, 4, 15)
    modes, limits = [], []
    if math.isfinite(nonlin.grc_rate):
        modes.append(derivatives[2:4])
        limits += [nonlin.grc_rate] * 8
    if zone:
        modes.append(states[0:2] / np.array([[[area.R]] for area in areas]))
        limits += [half] * 8
    return np.array(phi).T, np.array(modes).reshape(-1, 15), np.array(limits)


@dataclass(frozen=True)
class StepMaps:
    """The closed loop's one-step affine map for `lanes` controller pairs on
    one plant, z' = F z + G w (see the module docstring for z and w), with z
    of size n = 7 + n1 + n2.

    f (lanes, n, n) and g (lanes, n, 6) are the map; ace (2, n) gives both
    areas' ACE from z, and u (lanes, 2, n) their control signals; modes
    (lanes, K, n + 6) gives, from [z; w], the clamp and dead-zone arguments
    at each RK4 stage of the step, and the step is in the linear mode while
    each lies within its limit (K,) in magnitude.
    """

    f: np.ndarray
    g: np.ndarray
    ace: np.ndarray
    u: np.ndarray
    modes: np.ndarray
    limits: np.ndarray

    def take(self, lanes) -> StepMaps:
        """These maps for the lanes picked by lanes, an index array or a slice."""
        return replace(self, f=self.f[lanes], g=self.g[lanes], u=self.u[lanes], modes=self.modes[lanes])


def step_maps(
    areas: tuple[AreaParams, AreaParams],
    tie: TieLine,
    nonlin: NonlinearityConfig,
    rows1: np.ndarray,
    rows2: np.ndarray,
    h: float,
) -> StepMaps:
    """The step maps of the closed loop whose controllers step by the
    realization rows rows1 (lanes, n1 + 1, n1 + 1) in area 1 and rows2 in
    area 2 (DiscreteController.rows, stacked over the lanes), each once per
    plant step h, on ACE = B df +- dptie."""
    lanes, n1, n2 = len(rows1), rows1.shape[-1] - 1, rows2.shape[-1] - 1
    n = 7 + n1 + n2
    phi, modes, limits = _rk4_maps(areas, tie, nonlin, h)
    ace = np.zeros((2, n))
    ace[0, 0], ace[0, 6] = frequency_bias(areas[0]), 1.0
    ace[1, 1], ace[1, 6] = frequency_bias(areas[1]), -1.0
    ctrl = ((rows1, 7, n1), (rows2, 7 + n1, n2))

    # u_i = -(c_i x_i + d_i ace_i)
    u = np.zeros((lanes, 2, n))
    for i, (rows, at, order) in enumerate(ctrl):
        u[:, i] = -rows[:, 0, order:] * ace[i]
        u[:, i, at : at + order] = -rows[:, 0, :order]

    def close(x):
        """Rows x over v as rows over [z; w], per lane."""
        out = np.zeros((lanes, len(x), n + 6))
        out[:, :, :7] = x[:, :7]
        out[:, :, :n] += _matmul(x[:, 7:9], u)
        out[:, :, n:] = x[:, 9:]
        return out

    plant = close(phi)
    f = np.zeros((lanes, n, n))
    f[:, :7] = plant[:, :, :n]
    # x_i' = A_i x_i + B_i ace_i
    for i, (rows, at, order) in enumerate(ctrl):
        f[:, at : at + order] = rows[:, 1:, order:] * ace[i]
        f[:, at : at + order, at : at + order] = rows[:, 1:, :order]
    g = np.zeros((lanes, n, 6))
    g[:, :7] = plant[:, :, n:]
    return StepMaps(f, g, ace, u, close(modes), limits)


def step_squares(maps: StepMaps, count: int) -> list[np.ndarray]:
    """S^(2^i) for i = 0..count-1, S = [[F, G], [0, I]] the step map of [z;
    w], each (lanes, n + 6, n + 6): S, then each the square of the last."""
    lanes, n = maps.f.shape[:2]
    power = np.zeros((lanes, n + 6, n + 6))
    power[:, :n, :n], power[:, :n, n:], power[:, n:, n:] = maps.f, maps.g, np.eye(6)
    squares = [power]
    while len(squares) < count:
        squares.append(_matmul(squares[-1], squares[-1]))
    return squares


def block_table(maps: StepMaps, observe: np.ndarray, rows: int, squares: Optional[list] = None) -> np.ndarray:
    """The coefficients of the affine rows observe (lanes, R, n + 6) over
    [z; w] after 0..rows-1 steps under one load row w: entry [c, l, j, r] is
    row r's coefficient of [z_0; w]'s entry c after j steps, in lane l, so
    that row r after j steps is the sum over c of table[c, l, j, r] [z_0; w]_c.

    Built by doubling on the step map of [z; w], S: the rows after m + j
    steps are the rows after j steps times S^m, for m = 1, 2, 4, ..., so a
    table's first k rows are the table of k rows, bit for bit. squares holds
    at least the powers S^(2^i) it uses (step_squares); they are built here
    when not given."""
    lanes, n = maps.f.shape[:2]
    if squares is None:
        squares = step_squares(maps, max(1, (rows - 2).bit_length()))
    table = np.empty((lanes, rows, observe.shape[1], n + 6))
    table[:, 0] = observe
    if rows > 1:
        table[:, 1] = _matmul(observe, squares[0])
    m = 1
    for power in squares:
        if m + 1 >= rows:
            break
        j = min(m, rows - 1 - m)
        table[:, m + 1 : m + j + 1] = _matmul(table[:, 1 : j + 1], power[:, None])
        m += j
    return np.ascontiguousarray(table.transpose(3, 0, 1, 2))


def step_powers(maps: StepMaps, lengths, squares: list) -> dict[int, np.ndarray]:
    """The state rows of S^j for each j in lengths (all >= 1), S = [[F, G],
    [0, I]] the step map of [z; w]: entry j (lanes, n, n + 6) maps [z_0; w]
    to the state after j steps under one load row. S^j is the product of
    the powers S^(2^i) over j's bits, lowest first, from squares, which
    holds at least max(lengths).bit_length() of them (step_squares)."""
    n = maps.f.shape[1]
    out = {}
    for j in lengths:
        bits = [square for i, square in enumerate(squares) if j >> i & 1]
        acc = bits[0][:, :n]
        for square in bits[1:]:
            acc = _matmul(acc, square)
        out[j] = acc
    return out


# spectral_radius's squarings, F^(2^20): on the 50 design-stable lanes nearest rho = 1 of 400
# drawn near the objective's reference vector (|rho - 1| from 3.5e-5), 16 and 18 misread 5 and 1
# of them as rho >= 1 and 20 none, reading rho at most 1.1e-5 (relative) high
_SQUARINGS = 20


def spectral_radius(f: np.ndarray) -> np.ndarray:
    """Each lane's ||F^m||^(1/m) for f (lanes, n, n) and m = 2^_SQUARINGS, in
    the largest-row-sum norm: at least F's spectral radius rho, and tending
    to it as m grows (Gelfand's formula), so a value below 1 shows rho < 1.

    F is squared _SQUARINGS times and scaled back to norm 1 after every
    squaring, so that nothing overflows; the norm is the product of the
    scales, the one after squaring i raised to 2^-i, taken through logs."""
    power = f.copy()
    log_norm = np.zeros(len(f))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(_SQUARINGS + 1):
            if i:
                power = _matmul(power, power)
            scale = np.abs(power).transpose(2, 0, 1).copy()
            scale = sum_rows(scale).max(axis=-1)
            power /= scale[:, None, None]
            log_norm += np.log(scale) / 2.0**i
    return np.exp(log_norm)


def sine_maps(maps: StepMaps, sines: list, h: float) -> StepMaps:
    """maps with two exosystem states per sine appended to z, for sines
    (area, amplitude, angular frequency, start) adding to the area's load.

    Sine i's states are q_i = A (sin th, cos th) at the step's start phase
    th: each step rotates them by omega h, and the step's six load samples
    take A sin(th + p) = cos(p) q_i0 + sin(p) q_i1 at the sample's phase
    offset p (0, omega h / 2, omega h). w is then the rest of the load, held
    over the stretch. ace and u take no part of q; the modes take q's part
    of the loads."""
    lanes, n = maps.f.shape[:2]
    m = n + 2 * len(sines)
    loads = np.zeros((6, m - n))  # the step's load samples from q
    f = np.zeros((lanes, m, m))
    for i, (area, _, omega, _) in enumerate(sines):
        for stage, offset in enumerate((0.0, 0.5 * omega * h, omega * h)):
            loads[2 * stage + area, 2 * i : 2 * i + 2] = math.cos(offset), math.sin(offset)
        c, s = math.cos(omega * h), math.sin(omega * h)
        f[:, n + 2 * i : n + 2 * i + 2, n + 2 * i : n + 2 * i + 2] = [[c, s], [-s, c]]
    f[:, :n, :n] = maps.f
    f[:, :n, n:] = _matmul(maps.g, loads)
    g = np.zeros((lanes, m, 6))
    g[:, :n] = maps.g
    pad = [(0, 0)] * (maps.u.ndim - 1) + [(0, m - n)]
    modes = np.concatenate([maps.modes[..., :n], _matmul(maps.modes[..., n:], loads), maps.modes[..., n:]], axis=-1)
    return StepMaps(f, g, np.pad(maps.ace, pad[1:]), np.pad(maps.u, pad), modes, maps.limits)


def block_predictor(model, rows1: list, rows2: list, dt: float, cap: float, sines: list) -> Callable:
    """The closed form of simulate's blocks for the SystemModel model, whose
    controllers step every plant step dt by the realization rows rows1 and
    rows2 (DiscreteController.rows), under loads whose sine terms are sines
    (area, amplitude, angular frequency, start): under(w, on) for a
    load_samples row w of the loads' other terms and the sines on in the
    stretch returns predict(z, t, steps), which predicts the next steps (at
    most _BLOCK) from the state z, in z's order, at time t.

    Each sine rides along as sine_maps' two exosystem states, set at every
    block's start from math.sin and math.cos of the sine's phase at t (zero
    where the sine is off), so their rotation error never outlasts a block.

    A prediction covers every recorded channel, the state after each step,
    and the clamp and dead-zone arguments at all four RK4 stages of each
    step and of one step past the block. It stands if each argument lies
    within its limit and every value is finite, with |df1| and |df2| within
    cap; predict then returns the block's channels df1 df2 dptie ace1 ace2
    u1 u2 dpm1 dpm2, one row each, and its end state, and None otherwise. A
    prediction may overflow on its way to failing the check, so simulate
    calls predict under np.errstate(over="ignore", invalid="ignore").
    """
    n = 7 + (len(rows1) - 1) + (len(rows2) - 1)  # z's size
    maps = step_maps(model.areas, model.tie, model.nonlin, np.array([rows1]), np.array([rows2]), dt)
    if sines:
        maps = sine_maps(maps, sines, dt)
    m = n + 2 * len(sines)  # the size of x = [z; q]
    # observed rows over [x; w]: z, ace1, ace2, u1, u2, the mode arguments
    observe = np.zeros((n + 4 + len(maps.limits), m + 6))
    observe[:n, :n] = np.eye(n)
    observe[n : n + 2, :m] = maps.ace
    observe[n + 2 : n + 4, :m] = maps.u[0]
    observe[n + 4 :] = maps.modes[0]
    table = block_table(maps, observe[None], _BLOCK + 1)[:, 0]
    on_x, on_w = table[:m], table[m:]
    prod = np.empty_like(on_x)
    x = np.zeros(m)
    # what a prediction must keep within, row by row: |df| the cap, every value finite, each mode its limit
    bound = np.full(len(observe), np.finfo(float).max)
    bound[:2] = cap
    bound[n + 4 :] = maps.limits
    channels = [0, 1, 6, n, n + 1, n + 2, n + 3, 2, 3]

    def under(w: np.ndarray, on: list) -> Callable[[np.ndarray, float, int], Optional[tuple[np.ndarray, np.ndarray]]]:
        load_part = sum_rows(on_w * w.reshape(6, 1, 1))  # the load's part of every prediction under w
        waves = [(n + 2 * i, amp, omega, start) for i, ((_, amp, omega, start), o) in enumerate(zip(sines, on)) if o]

        def predict(z: np.ndarray, t: float, steps: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
            x[:n] = z
            x[n:] = 0.0
            for at, amp, omega, start in waves:
                phase = omega * (t - start)
                x[at], x[at + 1] = amp * math.sin(phase), amp * math.cos(phase)
            y = prod[:, : steps + 1]
            np.multiply(on_x[:, : steps + 1], x[:, None, None], out=y)
            y = sum_rows(y)
            y += load_part[: steps + 1]
            # rows 0..steps: the state after every step checked, each mode also one step past the block
            if not (np.abs(y) <= bound).all():
                return None
            return y[:steps, channels].T, y[steps, :n].copy()

        return predict

    return under
