"""Water Cycle Algorithm: box-constrained global minimization.

Population hierarchy: the best candidate is the sea, the next n_sr - 1 are
rivers, the rest are streams permanently assigned to one parent (sea or a
river). Each iteration streams flow toward their parent and rivers toward
the sea; better children swap roles with their parents.

Evaporation and raining are decided at the top of each iteration: a river
evaporates if it lies within d_max of the sea or, with probability
evap_prob, by chance. Its group (the river and its streams) is then redrawn
uniformly in the box instead of flowing, and scored in the iteration's one
cost call; the stream/parent promotion makes the best fresh drop the
river. The chance trigger follows common WCA implementations; its 0.1
default is this toolkit's choice, since the paper's abstract gives no WCA
settings. Without it (evap_prob = 0, the distance-only rule) the bundled
d_max0 = 1e-16 lets no river evaporate within 50 iterations, and a run
whose first population misses the good basin cannot leave it.

Every entry point takes one batch cost function, cost(X) -> costs, where X
is an (n, d) array of positions and costs has length n. minimize_lockstep
runs several configs (seeds) side by side, one cost call per generation
of all of them; minimize is its one-config form. random_search scores its
whole budget in one cost call, once per config in random_search_lockstep.

Determinism contract: one generator seeded from config.seed drives every
draw in a fixed order, so identical (cost, bounds, config) reproduce
identical histories bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ObjectiveFailure

Cost = Callable[[np.ndarray], np.ndarray]

_INIT_RETRY_CAP = 20


@dataclass(frozen=True)
class WcaConfig:
    n_pop: int = 50
    max_it: int = 50
    n_sr: int = 4  # rivers + sea
    d_max0: float = 1e-16  # initial evaporation distance
    c: float = 2.0  # flow coefficient
    seed: int = 0
    fitness_inverted: bool = False  # merit-proportional stream allocation
    evap_prob: float = 0.1  # per-river chance of evaporating each iteration; 0 = distance only

    def __post_init__(self):
        if self.n_sr < 2:
            raise ValueError("n_sr must be >= 2 (a sea plus at least one river)")
        if self.n_pop - self.n_sr < self.n_sr:
            raise ValueError("n_pop - n_sr must be >= n_sr so every parent gets a stream")
        if not (1.0 < self.c <= 2.0):
            raise ValueError("flow coefficient c must satisfy 1 < c <= 2")
        if not self.d_max0 > 0.0:
            raise ValueError("d_max0 must be > 0")
        if self.max_it < 1:
            raise ValueError("max_it must be >= 1")
        if not (0.0 <= self.evap_prob <= 1.0):
            raise ValueError("evap_prob must lie in [0, 1]")


@dataclass
class WcaState:
    """The population as arrays: row 0 is the sea, rows 1..n_sr-1 the
    rivers, the rest the streams; parents[i] is the row stream i flows to."""

    positions: np.ndarray  # n_pop x d
    costs: np.ndarray  # n_pop
    parents: np.ndarray  # n_pop - n_sr, each in [0, n_sr)
    rng: np.random.Generator
    d_max: float
    iteration: int
    history: list[float] = field(default_factory=list)
    rain_events: int = 0


def _as_bounds(bounds: Sequence[Sequence[float]]) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(bounds, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
        raise ValueError("bounds must be a sequence of (low, high) pairs")
    lb, ub = arr[:, 0], arr[:, 1]
    if not np.all(lb < ub):
        raise ValueError("each lower bound must be < its upper bound")
    return lb, ub


def _evaluate(cost: Cost, positions: np.ndarray) -> np.ndarray:
    costs = np.asarray(cost(positions), dtype=float)
    if costs.shape != (positions.shape[0],):
        raise ValueError("cost function returned a mis-shaped cost vector")
    return costs


def assign_streams(costs: Sequence[float], n_raindrops: int, fitness_inverted: bool = False) -> list[int]:
    """Stream counts per parent (sea first), repaired to sum exactly.

    Literal allocation is |cost_n| / sum|cost_i| as printed; the inverted
    variant allocates by merit rank (best parent heaviest). Shares are
    rounded half-up, zero counts bumped to one, then a deficit is handed out
    starting at the sea and an excess collected starting from the last
    river, never dropping a parent below one stream.
    """
    n_sr = len(costs)
    if n_raindrops < n_sr:
        raise ValueError("need at least one raindrop per parent")
    costs = [float(c) for c in costs]
    if fitness_inverted:
        order = sorted(range(n_sr), key=lambda i: costs[i])
        weights = [0.0] * n_sr
        for rank, i in enumerate(order):
            weights[i] = float(n_sr - rank)
    else:
        weights = [abs(c) for c in costs]
    total = 0.0  # left to right, as sum() adds on Python 3.11 (compensated from 3.12)
    for w in weights:
        total += w
    if total == 0.0:
        quotas = [n_raindrops / n_sr] * n_sr
    else:
        quotas = [w / total * n_raindrops for w in weights]
    counts = [max(1, math.floor(q + 0.5)) for q in quotas]
    diff = n_raindrops - sum(counts)
    i = 0
    while diff > 0:
        counts[i % n_sr] += 1
        diff -= 1
        i += 1
    i = 0
    while diff < 0:
        j = n_sr - 1 - (i % n_sr)
        if counts[j] > 1:
            counts[j] -= 1
            diff += 1
        i += 1
    return counts


def _rain(lb: np.ndarray, ub: np.ndarray, config: WcaConfig) -> tuple[np.random.Generator, np.ndarray]:
    """The seeded generator and the initial population it draws."""
    rng = np.random.default_rng(config.seed)
    return rng, lb + rng.random((config.n_pop, lb.size)) * (ub - lb)


def _populate(
    cost: Cost,
    rng: np.random.Generator,
    positions: np.ndarray,
    costs: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    config: WcaConfig,
) -> WcaState:
    """Redraw non-finite initial drops one at a time, then rank the
    population into sea, rivers and streams."""
    for i in range(config.n_pop):
        retries = 0
        while not math.isfinite(costs[i]):
            if retries >= _INIT_RETRY_CAP:
                raise ObjectiveFailure(f"non-finite cost at initialization (candidate {i})")
            positions[i] = lb + rng.random(lb.size) * (ub - lb)
            costs[i] = _evaluate(cost, positions[i : i + 1])[0]
            retries += 1

    order = np.argsort(costs, kind="stable")
    positions, costs = positions[order], costs[order]
    counts = assign_streams(
        costs[: config.n_sr],
        config.n_pop - config.n_sr,
        fitness_inverted=config.fitness_inverted,
    )
    return WcaState(
        positions=positions,
        costs=costs,
        parents=np.repeat(np.arange(config.n_sr), counts),
        rng=rng,
        d_max=config.d_max0,
        iteration=0,
        history=[float(costs[0])],
    )


def initialize(cost: Cost, bounds: Sequence[Sequence[float]], config: WcaConfig) -> WcaState:
    """Rain the initial population and build the sea/river/stream hierarchy."""
    lb, ub = _as_bounds(bounds)
    rng, positions = _rain(lb, ub, config)
    return _populate(cost, rng, positions, _evaluate(cost, positions), lb, ub, config)


def _swap(positions: np.ndarray, costs: np.ndarray, i: int, j: int) -> None:
    positions[[i, j]] = positions[[j, i]]
    costs[[i, j]] = costs[[j, i]]


def _moving_rows(n_sr: int, n_pop: int) -> np.ndarray:
    """The rows that move each iteration: the streams, then the rivers."""
    return np.concatenate((np.arange(n_sr, n_pop), np.arange(1, n_sr)))


def _draw(state: WcaState, lb: np.ndarray, ub: np.ndarray, config: WcaConfig) -> tuple[np.ndarray, np.ndarray]:
    """The first half of step: which rivers rain, and the moved rows."""
    n_sr = config.n_sr
    positions, parents = state.positions, state.parents

    # evaporation: rivers near the sea, or picked by chance, rain afresh
    raining = np.array([np.linalg.norm(positions[0] - positions[j]) < state.d_max for j in range(1, n_sr)])
    if config.evap_prob > 0.0:
        raining |= state.rng.random(n_sr - 1) < config.evap_prob

    # streams flow to their parent, rivers to the sea, all toward positions
    # from before the move (fresh rand per component, then clamped); a
    # raining group (river and its streams) reuses the draw to rain instead
    targets = np.concatenate((parents, np.zeros(n_sr - 1, dtype=int)))
    groups = np.concatenate((parents, np.arange(1, n_sr)))
    rains = np.concatenate(([False], raining))[groups]
    old = positions[_moving_rows(n_sr, len(positions))]
    r = state.rng.random(old.shape)
    flowed = np.clip(old + r * config.c * (positions[targets] - old), lb, ub)
    return raining, np.where(rains[:, None], lb + r * (ub - lb), flowed)


def _settle(
    state: WcaState, raining: np.ndarray, moved: np.ndarray, moved_costs: np.ndarray, config: WcaConfig
) -> WcaState:
    """The second half of step: place the scored rows, promote, decay d_max."""
    if not np.all(np.isfinite(moved_costs)):
        raise ObjectiveFailure(f"non-finite cost at iteration {state.iteration + 1}")
    n_sr = config.n_sr
    positions = state.positions.copy()
    costs = state.costs.copy()
    rows = _moving_rows(n_sr, len(costs))
    positions[rows] = moved
    costs[rows] = moved_costs

    # promotions: stream <-> parent, then rivers <-> sea; sequential, since
    # two streams of one parent can both beat it. The sea ends as the
    # population best.
    for row, parent in zip(range(n_sr, len(costs)), state.parents):
        if costs[row] < costs[parent]:
            _swap(positions, costs, row, parent)
    for row in range(1, n_sr):
        if costs[row] < costs[0]:
            _swap(positions, costs, row, 0)

    return WcaState(
        positions=positions,
        costs=costs,
        parents=state.parents,
        rng=state.rng,
        d_max=max(state.d_max - state.d_max / config.max_it, 0.0),
        iteration=state.iteration + 1,
        history=state.history + [float(costs[0])],
        rain_events=state.rain_events + int(raining.sum()),
    )


def step(state: WcaState, cost: Cost, bounds: Sequence[Sequence[float]], config: WcaConfig) -> WcaState:
    """Advance one iteration: evaporate/rain or flow, promote, decay d_max.

    Draw order: one chance draw per river (only when evap_prob > 0), then
    one rng.random((n_pop - 1, d)) whose rows go to the streams and then the
    rivers, whether they flow or rain. The moved rows, streams first, are
    scored in a single cost call.
    """
    lb, ub = _as_bounds(bounds)
    raining, moved = _draw(state, lb, ub, config)
    return _settle(state, raining, moved, _evaluate(cost, moved), config)


def _score_together(cost: Cost, blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Each block's costs, from one cost call on the blocks stacked in order."""
    ends = np.cumsum([len(b) for b in blocks])
    return np.split(_evaluate(cost, np.concatenate(blocks)), ends[:-1])


class _Shared:
    """The lead run's cost in a lockstep generation: its first call scores
    the other runs' rows after its own, in one call of `cost`, and keeps
    their costs in `costs` (one array per run); later calls pass through."""

    def __init__(self, cost: Cost, rows: list[np.ndarray]):
        self.cost = cost
        self.rows = rows
        self.costs: Optional[list[np.ndarray]] = None

    def __call__(self, positions: np.ndarray) -> np.ndarray:
        if self.costs is not None:
            return self.cost(positions)
        head, *self.costs = _score_together(self.cost, [positions, *self.rows])
        return head


def _check_lockstep(configs: Sequence[WcaConfig]) -> None:
    if not configs:
        raise ValueError("need at least one config")
    if any(c.max_it != configs[0].max_it for c in configs):
        raise ValueError("lockstep runs must share max_it")


def minimize_lockstep(
    cost: Cost, bounds: Sequence[Sequence[float]], configs: Sequence[WcaConfig]
) -> list[tuple[np.ndarray, float, list[float]]]:
    """minimize() for several configs at once, one cost call per generation.

    Each run draws from its own generator in minimize()'s order, and the
    generation's rows of every run are scored together: the first run's
    initialize() and step() make the call, the others' rows ride after its
    own. With a cost whose rows do not depend on their batch, each run's
    result equals its minimize() result bit for bit. All configs share
    max_it.
    """
    _check_lockstep(configs)
    lb, ub = _as_bounds(bounds)
    lead, rest = configs[0], configs[1:]

    rains = [_rain(lb, ub, c) for c in rest]
    shared = _Shared(cost, [positions for _, positions in rains])
    states = [initialize(shared, bounds, lead)]
    for (rng, positions), costs, c in zip(rains, shared.costs, rest):
        states.append(_populate(cost, rng, positions, costs, lb, ub, c))

    for _ in range(lead.max_it):
        draws = [_draw(s, lb, ub, c) for s, c in zip(states[1:], rest)]
        shared = _Shared(cost, [moved for _, moved in draws])
        lead_state = step(states[0], shared, bounds, lead)
        states = [lead_state] + [
            _settle(s, raining, moved, costs, c)
            for s, (raining, moved), costs, c in zip(states[1:], draws, shared.costs, rest)
        ]
    return [(s.positions[0], float(s.costs[0]), s.history) for s in states]


def minimize(
    cost: Cost, bounds: Sequence[Sequence[float]], config: WcaConfig
) -> tuple[np.ndarray, float, list[float]]:
    """Run max_it iterations; return the sea's position and cost and the
    best-cost history.

    history[k] is the best cost after k iterations (k = 0 is the initial
    population best), length max_it + 1.
    """
    return minimize_lockstep(cost, bounds, [config])[0]


def random_search_lockstep(
    cost: Cost, bounds: Sequence[Sequence[float]], configs: Sequence[WcaConfig]
) -> list[tuple[np.ndarray, float, list[float]]]:
    """random_search() once per config; all configs share max_it."""
    _check_lockstep(configs)
    return [random_search(cost, bounds, c) for c in configs]


def random_search(
    cost: Cost, bounds: Sequence[Sequence[float]], config: WcaConfig
) -> tuple[np.ndarray, float, list[float]]:
    """Seeded uniform random search with the same evaluation budget.

    Sanity baseline standing in for the out-of-scope GA/PSO comparisons:
    (max_it + 1) blocks of n_pop draws, all scored in one cost call, history
    tracking the best-so-far after each block so profiles are comparable
    with minimize()'s. The best is the first row, block by block, that
    reaches the minimum. A non-finite cost raises ObjectiveFailure naming
    its first block, as in step().
    """
    lb, ub = _as_bounds(bounds)
    rng = np.random.default_rng(config.seed)
    positions = lb + rng.random(((config.max_it + 1) * config.n_pop, lb.size)) * (ub - lb)
    costs = _evaluate(cost, positions).reshape(config.max_it + 1, config.n_pop)
    bad = ~np.isfinite(costs).all(axis=1)
    if bad.any():
        raise ObjectiveFailure(f"non-finite cost in random-search block {int(np.argmax(bad))}")
    i = int(np.argmin(costs))
    return positions[i], float(costs.flat[i]), np.minimum.accumulate(costs.min(axis=1)).tolist()
