"""Bourgain systems and the Birkhoff pseudo-metric built from them.

A system samples a monotone radius family on the ternary grid {2} u {3^-k} u
{2*3^-k} (the dyadic points exist so the growth axiom has on-grid pairs) and
audits the four axioms: symmetric neighborhood, nesting, subadditivity,
dyadic growth. A grid radius is the float u / 3^depth of an integer unit u:
the family is called with it and the levels are keyed by it, in grid order,
while the audits run on the units, so the pair checks add, compare and
bisect plain ints. The subadditivity audit checks S_r + S_r' inside S_t for
every pair r <= r' with r + r' <= 2, where t is the least grid radius
>= r + r' (found by bisection). Each row r runs one of two ways, whichever
is modelled cheaper:

- the pair loop walks r' upward, stops at the first sum past 2, and sums
  S_r + S_r' only when S_r' differs from the level before it, so a constant
  run of levels costs one sumset per r. The levels are registered with an
  OperandCache made for the audit and forgotten after the last row that sums
  them, so each is transformed at most once per call.
- one dilation serves the whole row when the family passes nesting. Then
  L(x) = min{j : x in S_j} has {L <= j} = S_j, so D(x) = min over s in S_r
  of L(x - s) has {D <= j} = S_r + S_j for every j at once, and each pair is
  read off the least D outside its target. A family that fails nesting has
  no such L, so all its rows keep the pair loop.

The metric: rho*(x) = inf{2^-k : x in S_{3^-k}, k >= 0}, and rho is the
chain infimum, the least total rho*(y) over chains of steps y from 0 to x.
A family that is still constant twelve ternary levels below the grid is
treated as eventually constant, and its bottom level gets rho* = 0 (the true
infimum for e.g. subgroup systems). A step in S_{3^-k} costs at most 2^-k, so
rho is computed level by level rather than step by step: distances are
integers in units of 2^-depth, the level S_k = S_{3^-k} weighs 2^(depth-k),
and top = 2^depth is the weight of S_0.

The ball lemma. On an axiom-clean system, subadditivity at (3^-(k+1),
3^-(k+1)) and nesting give S_{k+1} + S_{k+1} <= S_{2*3^-(k+1)} <= S_k, so two
steps of weight w reach no further than one of weight 2w, at the same cost.
Carrying equal steps upward like binary digits, every ball has the closed form

    {dist <= D} = H + c*S_0 + sum of S_k over the bits 2^(depth-k) of D mod top,

with c = floor(D / top) and H the additive closure of the core ({0} without
one); at D = 2^(depth-k) it reads {rho <= 2^-k} = H + S_{3^-k}.

So dist is a min-plus convolution of the levels. It is 0 on H, and each
distinct level S of weight w, from heavy to light, dilates it once:

    dist <- min(dist, w + min over s in S of dist(. - s)),

except that the heaviest repeats until it reaches nothing new, which gives
c*S_0. The minimum over using each level or not is the least D whose closed
form holds x, and every choice is a chain, so the result is rho. A level
equal to the next deeper one is skipped, since that one reaches the same at
half the weight; if S_0 is skipped so, the heaviest distinct level takes its
repeats, for the same reason. Each dilation runs one of two exact ways,
whichever is modelled cheaper:

- translations: one np.minimum of dist with the translate of dist + w by
  each nonzero s in S, a strided view of dist tiled twice along each axis,
  so no translation allocates. They cost about |S| * |G| (TRANSLATE_COST),
  so the light levels take them.
- threshold sums: S is added to each level set {dist = v} by sets.sumset,
  and dist is lowered to v + w on the sum. They cost about one sumset per
  distinct distance, so the heavy levels, whose dilations see few
  distances, take them. The levels are registered with an OperandCache made
  for the call, so each is transformed at most once.

The depth is at most MAX_DEPTH = 31, so |G| * 2^depth <= 2^53 under the
group order cap, every distance fits int64, and rho is exact in float64.
Once the heaviest level is done, every distance left to find lies below
its last layer plus its weight w; when that plus w again is at most 2^30,
the array narrows to int32, so each translation moves half the memory.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .groups import FinAbGroup, GroupElement, _check_number
from .sets import GroupSet, OperandCache, _coords, sumset, sumset_seconds

#: default cap on the ternary grid depth.
GRID_DEPTH_CAP = 20

#: deepest ternary grid a system may have: 31 = 53 - 22, so that
#: |G| * 2^depth <= 2^53 under the group order cap, and every chain sum of
#: the metric is an exact float64 and fits int64.
MAX_DEPTH = 31

#: extra ternary levels probed below the grid to attest a constant tail.
TAIL_PROBE_LEVELS = 12

#: slack for comparing exact dyadic rho values against float radii.
RHO_SLACK = 2.0 ** -45

#: the metric's distance of an element no chain reaches: above every
#: distance (< 2^53), and a step's weight (<= 2^MAX_DEPTH) added stays in int64.
UNREACHED = 1 << 62

#: the same in int32, which the metric narrows to when every distance left
#: to find, plus a step's weight, stays below it.
NARROW_UNREACHED = 1 << 30

#: Seconds-per-unit constants (c_call, c_byte, c_row) of one translation: the
#: minimum of an array of |G| items of b bytes with a translate of another
#: costs about c_call + |G| * (c_byte * b + c_row / n_1), where the first
#: cycle n_1 is the grid's contiguous axis, so |G| / n_1 is its rows.
TRANSLATE_COST = (1.2e-6, 4.2e-11, 3.0e-8)

#: Seconds-per-unit constants (c_call, c_elem) of the O(|G|) passes around
#: one threshold sum (the level set, the sum's mask, the masked minimum or
#: the subset test), or around the translations of one audit row (the ranks
#: and their least value per level): about c_call + c_elem * |G|.
DENSE_COST = (2.0e-5, 1.2e-9)


@dataclass(frozen=True)
class SystemAudit:
    symmetric_ok: bool
    nesting_ok: bool
    subadditive_ok: bool
    growth_ok: bool
    violations: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return (self.symmetric_ok and self.nesting_ok
                and self.subadditive_ok and self.growth_ok)


@dataclass(frozen=True)
class BourgainSystem:
    """A radius-indexed family sampled on the ternary grid, with axiom audits."""

    group: FinAbGroup
    d: float
    levels: dict[float, GroupSet]  # radius u / 3^depth -> S_r, in grid order
    audit: SystemAudit
    depth: int                 # K: deepest ternary level 3^-K
    core: GroupSet | None      # attested constant tail, None when not attested

    def ternary_radii(self) -> list[float]:
        """The rho* levels 3^-k, k = 0..depth, shallow to deep."""
        return [1 / 3 ** k for k in range(self.depth + 1)]

    def to_jsonable(self) -> dict:
        return {
            "group": {"cycles": list(self.group.invariants)},
            "d": self.d,
            "depth": self.depth,
            "core_attested": self.core is not None,
            "audit": asdict(self.audit),
            "levels": [
                {"radius": r, "measure": S.measure} for r, S in self.levels.items()
            ],
        }


def _grid_units(depth: int) -> list[int]:
    """The grid radii in units of 3^-depth, ascending: 3^j and 2 * 3^j, j <= depth."""
    return sorted(m * 3 ** j for j in range(depth + 1) for m in (1, 2))


def system_from_balls(family: Callable[[float], GroupSet], d: float,
                      K: int | None = None, cap: int = GRID_DEPTH_CAP) -> BourgainSystem:
    """Sample a monotone ball family into a Bourgain system and audit the axioms.

    K defaults to the first ternary level whose set is {0} (stabilization),
    capped. K and cap must be integers in 1..MAX_DEPTH and d a finite number
    >= 0; anything else raises ValueError. Audit failures do not raise; they
    are recorded on the system, which is then only usable for diagnostics.
    """
    _check_number(d, "system_from_balls", "d", 0)
    for name, value in (("K", K), ("cap", cap)):
        if value is not None:
            _check_number(value, "system_from_balls", name, 1, high=MAX_DEPTH,
                          integral=True)
    group = family(1.0).group
    if K is not None:
        depth = K
    else:
        zero_only = GroupSet.singleton(group, 0)
        depth = cap
        for k in range(cap + 1):
            if family(1 / 3 ** k) == zero_only:
                depth = k
                break
    scale = 3 ** depth
    units = _grid_units(depth)
    radii = [u / scale for u in units]
    sets = [family(r) for r in radii]
    names = [f"{r:g}" for r in radii]

    violations: list[str] = []

    symmetric_ok = True
    for S, name in zip(sets, names):
        if not S.contains_zero():
            symmetric_ok = False
            violations.append(f"level {name} misses 0")
        if not S.is_symmetric():
            symmetric_ok = False
            violations.append(f"level {name} is not symmetric")

    nesting_ok = True
    for i in range(len(sets) - 1):
        if not sets[i].is_subset_of(sets[i + 1]):
            nesting_ok = False
            violations.append(f"nesting fails at {names[i]} vs {names[i + 1]}")

    subadditive_ok = True
    two = 2 * scale
    # same[j]: the level at units[j] equals the one below it, so its sums repeat
    same = [False] + [hi == lo for lo, hi in zip(sets, sets[1:])]
    # row i sums sets[i] with the levels above it, so the last row that
    # holds a level is the last at which it appears; it is cached until then
    cache = OperandCache(sets)
    last_row = {id(S): i for i, S in enumerate(sets)}
    ranks = None  # the _LevelRanks of the levels, once a row dilates
    for i, u1 in enumerate(units):
        # the units are sorted, so the pairs of row i are j in [i, end)
        end = bisect.bisect_right(units, two - u1)
        targets = [bisect.bisect_left(units, u1 + units[j]) for j in range(i, end)]
        summed = [j for j in range(i, end) if j == i or not same[j]]
        if nesting_ok and (_translation_seconds(len(sets[i]), group, 1)
                           + _dense_seconds(group)
                           < sum(_sum_seconds(len(sets[i]), len(sets[j]), group)
                                 for j in summed)):
            ranks = ranks or _LevelRanks(sets)
            reach = ranks.reach(sets[i])
            fails = [reach[t + 1] <= j for j, t in zip(range(i, end), targets)]
        else:
            fails = []
            for j, t in zip(range(i, end), targets):
                if j == i or not same[j]:
                    total = sumset(sets[i], sets[j], cache=cache)
                fails.append(not total.is_subset_of(sets[t]))
        for j, t, fail in zip(range(i, end), targets, fails):
            if fail:
                subadditive_ok = False
                violations.append(
                    f"subadditivity fails: S_{names[i]} + S_{names[j]} "
                    f"not in S_{names[t]}")
        if last_row[id(sets[i])] == i:
            cache.forget(sets[i])

    growth_ok = True
    bound = 2.0 ** d
    position = {u: i for i, u in enumerate(units)}
    for i, u in enumerate(units):
        if 2 * u not in position:
            continue
        small, big = sets[i].measure, sets[position[2 * u]].measure
        if small <= 1:
            continue  # single-element floors only measure discreteness
        if big > bound * small * (1 + 1e-12):
            growth_ok = False
            violations.append(
                f"growth fails at {names[i]}: {big} > 2^{d:g} * {small}")

    # constant-tail attestation: probe well below the grid, whose unit 1 is
    # the deepest level 3^-depth
    bottom = sets[0]
    core = bottom if family(1 / 3 ** (depth + TAIL_PROBE_LEVELS)) == bottom else None

    audit = SystemAudit(symmetric_ok, nesting_ok, subadditive_ok, growth_ok,
                        tuple(violations))
    return BourgainSystem(group, float(d), dict(zip(radii, sets)), audit, depth, core)


class _LevelRanks:
    """The nested levels S_0 <= S_1 <= ... of an audit as one array,
    L(x) = min{j : x in S_j} (n, the number of levels, off every level), so
    that {L <= j} = S_j, and one dilation of L by a set T gives T + S_j =
    {min over t in T of L(. - t) <= j} for every j at once."""

    def __init__(self, sets: list[GroupSet]):
        n = len(sets)  # at most 2 * (MAX_DEPTH + 1) < 256
        self.group, self.n = sets[0].group, n
        self.level = np.full(self.group.order, n, dtype=np.uint8)
        for j in reversed(range(n)):
            self.level[sets[j].mask] = j
        # the elements ordered by level, and where each level that holds any starts
        counts = np.bincount(self.level, minlength=n + 1)
        self.held = np.flatnonzero(counts)
        self.order = np.argsort(self.level, kind="stable")
        self.starts = (np.cumsum(counts) - counts)[self.held]

    def reach(self, T: GroupSet) -> list[int]:
        """reach[t] = the least j with (T + S_j) outside S_(t-1), for t in
        0..n + 1 (n when there is none): T + S_j <= S_t iff reach[t + 1] > j."""
        dilated = np.full(self.group.order, self.n, dtype=np.uint8)
        _translate_min(dilated, self.level, _coords(T), self.group)
        lows = np.minimum.reduceat(np.take(dilated, self.order), self.starts)
        least = [self.n] * (self.n + 2)
        for level, low in zip(self.held.tolist(), lows.tolist()):
            least[level] = low
        for t in reversed(range(self.n + 1)):
            least[t] = min(least[t], least[t + 1])
        return least


# -- convenience families -------------------------------------------------------------


def interval_family(group: FinAbGroup, scale: float) -> Callable[[float], GroupSet]:
    """delta -> {x : |x|_circ <= floor(scale * delta)} on a cyclic group."""
    if group.rank != 1:
        raise ValueError("interval_family needs a cyclic group")
    _check_number(scale, "interval_family", "scale", 0)

    def family(delta: float) -> GroupSet:
        return GroupSet.linf_ball(group, int(math.floor(scale * delta + 1e-12)))

    return family


def constant_family(S: GroupSet) -> Callable[[float], GroupSet]:
    """The family that is S at every radius (subgroups give clean systems)."""
    return lambda _delta: S


def subgroup_generated(group: FinAbGroup, generators: list[GroupElement]) -> GroupSet:
    """The subgroup generated by the given elements (closure under addition)."""
    H = GroupSet.singleton(group, 0)
    gens = GroupSet.from_elements(group, generators)
    step = gens | GroupSet.from_elements(group, [-t for t in generators])
    while True:
        nxt = sumset(H, H | step)
        if nxt == H:
            return H
        H = nxt


# -- the Birkhoff metric ---------------------------------------------------------------


@dataclass(frozen=True)
class BirkhoffMetric:
    """rho* (single-level depth cost) and rho (shortest-chain cost) per element."""

    system: BourgainSystem
    rho_star: np.ndarray  # float64, +inf where no ternary level contains x
    rho: np.ndarray       # float64, +inf where unreachable from 0 by finite steps

    def ball(self, radius: float) -> GroupSet:
        return GroupSet(self.system.group, self.rho <= radius + RHO_SLACK)

    def factor_two(self) -> tuple[bool, bool]:
        """(rho <= rho*, rho >= rho*/2) wherever rho* is finite, to 1e-12."""
        finite = np.isfinite(self.rho_star)
        rho, rho_star = self.rho[finite], self.rho_star[finite]
        return (bool(np.all(rho <= rho_star + 1e-12)),
                bool(np.all(rho >= rho_star / 2 - 1e-12)))

    def dump_jsonable(self) -> list:
        """[coordinates, rho*, rho] per element in index order; None for +inf."""
        coords = self.system.group.coords_table().T.tolist()
        rho_star = np.where(np.isinf(self.rho_star), None, self.rho_star).tolist()
        rho = np.where(np.isinf(self.rho), None, self.rho).tolist()
        return [list(row) for row in zip(coords, rho_star, rho)]


def birkhoff_metric(system: BourgainSystem) -> BirkhoffMetric:
    """Exact chain-infimum metric of an axiom-clean system.

    rho* assigns 2^-k at the deepest ternary level containing the element
    (0 on an attested constant core). rho is the least total rho* over
    chains from 0, found as the min-plus form of the ball lemma (module
    docstring): distances in units of 2^-depth start at 0 on the additive
    closure H of the core, the heaviest distinct level dilates them layer by
    layer until a layer is empty (a breadth-first search from H), and each
    lighter distinct level dilates them once. _dilate runs each dilation by
    translations or by threshold sums, whichever it models cheaper; both are
    exact. A system has depth <= MAX_DEPTH, so every distance is an integer
    below 2^53 and rho = distance * 2^-depth is exact in float64.
    """
    if not system.audit.all_pass:
        raise ValueError(f"system failed its axiom audit: {system.audit.violations}")
    g, depth, core = system.group, system.depth, system.core
    rho_star = np.full(g.order, np.inf)
    for k, r in enumerate(system.ternary_radii()):
        rho_star[system.levels[r].mask] = 2.0 ** -k
    if core is not None:
        rho_star[core.mask] = 0.0

    # The distinct step levels, heavy to light, with weights in units of
    # 2^-depth; the core, when attested, is the bottom level at weight 0. A
    # level equal to the next deeper one reaches nothing that one does not,
    # at a higher weight.
    steps: list[tuple[GroupSet, int]] = []
    deeper = core
    for k in reversed(range(depth + 1 if core is None else depth)):
        S = system.levels[1 / 3 ** k]
        if S != deeper:
            steps.insert(0, (S, 1 << (depth - k)))
        deeper = S
    cache = OperandCache(S for S, _ in steps)

    # every level holds 0, so a one-element core is {0} and closes nothing
    closure = GroupSet.singleton(g, 0) if core is None else core
    if len(closure) > 1:
        while (closed := sumset(closure, closure)) != closure:
            closure = closed
    unreached = UNREACHED
    dist = np.full(g.order, unreached, dtype=np.int64)
    dist[closure.mask] = 0
    values = [0]  # the distances dist may hold, ascending
    if steps:
        # the heaviest step, one layer of distance at a time, until a layer
        # is empty or all of G is reached
        (S, w), lighter = steps[0], steps[1:]
        layer = reached = len(closure)
        while layer and reached < g.order:
            _dilate(dist, S, w, values[-1:], layer, cache)
            layer = int(np.count_nonzero(dist == values[-1] + w))
            if layer:
                values.append(values[-1] + w)
                reached += layer
        # every level lies in the heaviest, so the lighter ones reach nothing
        # new, and their weights sum below w: every distance to come is below
        # values[-1] + w, and int32 holds it when that plus w is at most
        # NARROW_UNREACHED (the translations then move half the memory)
        if lighter and values[-1] + 2 * w <= NARROW_UNREACHED:
            dist = np.where(dist == unreached, NARROW_UNREACHED, dist).astype(np.int32)
            unreached = NARROW_UNREACHED
        for S, w in lighter:
            values = _dilate(dist, S, w, values, reached, cache)
            if len(values) > reached:  # more candidates than elements: read them off
                values = np.unique(dist[dist < unreached]).tolist()
    rho = np.where(dist == unreached, np.inf, dist * 2.0 ** -depth)
    return BirkhoffMetric(system, rho_star, rho)


def _dilate(dist: np.ndarray, S: GroupSet, w: int, values: list[int], size: int,
            cache: OperandCache) -> list[int]:
    """dist <- min(dist, w + min over s in S of dist(. - s)), in place, where
    values (ascending) holds every finite value of dist that the dilation
    must carry, on size elements in all; S is a level, so it holds 0, and it
    is registered in cache.

    Translations take the minimum of dist with each nonzero translate of
    dist + w. Threshold sums add S to each level set {dist = v}, from the
    largest v down, and lower dist to v + w on the sum. The values are all
    multiples of 2w, or one value, so a sum lowers only elements above
    v + w, whose level sets are done: each level set is read unchanged.
    The route of lower modelled cost runs: |S| - 1 translations against one
    sum per value, on level sets of size / len(values) elements. Returns the
    values dist may hold afterwards: those whose level set was nonempty,
    with each plus w.
    """
    g = S.group
    if (_translation_seconds(len(S) - 1, g, dist.itemsize)
            <= len(values) * _sum_seconds(size // len(values), len(S), g)):
        _translate_min(dist, dist + w, _coords(S)[:, 1:], g)  # S's first index is 0
        kept = values
    else:
        kept = []
        for v in reversed(values):
            level = GroupSet(g, dist == v)
            if level:
                kept.append(v)
                np.minimum(dist, v + w, out=dist,
                           where=sumset(level, S, cache=cache).mask)
    return sorted(kept + [v + w for v in kept])


def _translate_min(out: np.ndarray, src: np.ndarray, offsets: np.ndarray,
                   g: FinAbGroup) -> None:
    """out <- min(out, src(. - s)) for each column s of offsets, in place.

    src is tiled twice along each axis of G's grid, so that on a cycle of
    length n, src(x - s) is tile entry n - s + x: each translate is one
    strided view of the tiles, and a translation allocates nothing.
    """
    shape = g.invariants[::-1]  # C order: cycle j is axis rank - 1 - j
    grid = out.reshape(shape)
    tiles = src.reshape(shape)
    for axis in range(g.rank):
        tiles = np.concatenate((tiles, tiles), axis=axis)
    # windows[a] is the block of tiles from corner a, the translate by n - a
    windows = np.ndarray(tuple(n + 1 for n in shape) + shape, tiles.dtype, tiles,
                         strides=tiles.strides * 2)
    starts = np.array(shape)[:, None] - offsets[::-1]
    for start in starts.T.tolist():
        np.minimum(grid, windows[tuple(start)], out=grid)


def _translation_seconds(count: int, g: FinAbGroup, itemsize: int) -> float:
    """Modelled seconds of count translations of an array of itemsize-byte
    items over G, with the tiling (TRANSLATE_COST)."""
    c_call, c_byte, c_row = TRANSLATE_COST
    each = c_call + g.order * (c_byte * itemsize + c_row / g.invariants[0])
    return (count + 2 ** g.rank) * each


def _sum_seconds(a: int, b: int, g: FinAbGroup) -> float:
    """Modelled seconds of one threshold sum of sets of a and b elements: the
    sumset's route (sets.sumset_seconds) and the dense passes around it."""
    return _dense_seconds(g) + sumset_seconds(min(a, b), max(a, b), g)


def _dense_seconds(g: FinAbGroup) -> float:
    """Modelled seconds of the O(|G|) passes around one threshold sum, or
    around the translations of one audit row (DENSE_COST)."""
    c_call, c_elem = DENSE_COST
    return c_call + c_elem * g.order


# -- the two-sided sandwich audit ----------------------------------------------------


@dataclass(frozen=True)
class SandwichVerdict:
    delta: float
    left_ok: bool | None   # S_{delta/4 floored to grid} inside the rho-ball
    right_ok: bool         # the rho-ball inside S_delta
    note: str | None

    @property
    def passed(self) -> bool:
        return (self.left_ok is not False) and self.right_ok


def sandwich_audit(metric: BirkhoffMetric) -> list[SandwichVerdict]:
    """Check S_{delta/4} <= {rho <= delta} <= S_delta at every grid radius.

    delta/4 is rounded down onto the ternary levels (the only radii the
    metric itself sees); below the deepest level the audit falls back to the
    attested constant core, or skips the left inclusion with a note when no
    attestation exists.
    """
    system = metric.system
    depth = system.depth
    verdicts = []
    for u, (r, S) in zip(_grid_units(depth), system.levels.items()):
        ball = metric.ball(r)
        right_ok = ball.is_subset_of(S)
        # the shallowest ternary level 3^-k at or below r/4 = u / (4 * 3^depth)
        k = next((k for k in range(depth + 1) if 4 * 3 ** (depth - k) <= u), None)
        note = None
        if k is not None:
            left_ok = system.levels[1 / 3 ** k].is_subset_of(ball)
        elif system.core is not None:
            left_ok = system.core.is_subset_of(ball)
            note = "delta/4 below grid; used attested core"
        else:
            left_ok = None
            note = "delta/4 below grid and no attested core; left check skipped"
        verdicts.append(SandwichVerdict(r, left_ok, right_ok, note))
    return verdicts
