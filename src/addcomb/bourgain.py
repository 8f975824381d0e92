"""Bourgain systems and the Birkhoff pseudo-metric built from them.

A system samples a monotone radius family on the ternary grid {2} u {3^-k} u
{2*3^-k} (the dyadic points exist so the growth axiom has on-grid pairs) and
audits the four axioms: symmetric neighborhood, nesting, subadditivity,
dyadic growth. A grid radius is the float u / 3^depth of an integer unit u:
the family is called with it and the levels are keyed by it, in grid order,
while the audits run on the units, so the pair loop adds, compares and
bisects plain ints. The subadditivity audit checks S_r + S_r' inside S_t for
every pair r <= r' with r + r' <= 2, where t is the least grid radius
>= r + r' (found by bisection). For each r it walks r' upward, stops at the first
sum past 2, and sums S_r + S_r' only when S_r' differs from the level before
it, so a constant run of levels costs one sumset per r. The levels are
registered with an OperandCache made for the audit and forgotten after the
last row that sums them, so each is transformed at most once per call.

The metric: rho*(x) = inf{2^-k : x in S_{3^-k}, k >= 0}, and rho is the
chain infimum, the least total rho*(y) over chains of steps y from 0 to x.
A family that is still constant twelve ternary levels below the grid is
treated as eventually constant, and its bottom level gets rho* = 0 (the true
infimum for e.g. subgroup systems). A step in S_{3^-k} costs at most 2^-k, so
rho is computed level by level rather than step by step: distances are
integers in units of 2^-depth, the level S_k = S_{3^-k} weighs 2^(depth-k),
and top = 2^depth is the weight of S_0. Each round settles every element at
the least open distance t at once, closes them under the zero-cost core, and
relaxes t + w onto their sumset with distinct levels of weight w. Every
finite distance is 0 or such a t + w, so the rounds pop t from a heap of the
distances pushed so far, and G is never scanned for the next one.

The ball lemma. On an axiom-clean system, subadditivity at (3^-(k+1),
3^-(k+1)) and nesting give S_{k+1} + S_{k+1} <= S_{2*3^-(k+1)} <= S_k, so two
steps of weight w reach no further than one of weight 2w, at the same cost.
Carrying equal steps upward like binary digits, every ball has the closed form

    {dist <= D} = H + c*S_0 + sum of S_k over the bits 2^(depth-k) of D mod top,

with c = floor(D / top) and H the additive closure of the core ({0} without
one); at D = 2^(depth-k) it reads {rho <= 2^-k} = H + S_{3^-k}. So an element
y at distance D > 0 is y = x + s with s in S_b, b = D & -D (b = top when top
divides D), and x at distance exactly D - b, whose lowest set bit is above b
or which is 0 or a multiple of top: were x nearer, so would y be. Relaxing
an element settled at t with the levels of weight below t & -t therefore
finds every distance; only 0 and the multiples of top take every level.

The levels (and a core larger than {0}) are registered with an OperandCache
made for the call, so each is transformed at most once however many rounds
sum it, and each round's frontier once for all the levels it is summed with;
a {0} core closes nothing, and the closure is skipped. The depth is at most
MAX_DEPTH = 31, so |G| * 2^depth <= 2^53 under the group order cap, every
distance fits int64, and rho is exact in float64.
"""

from __future__ import annotations

import bisect
import heapq
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .groups import FinAbGroup, GroupElement
from .sets import GroupSet, OperandCache, sumset

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

    @property
    def radii(self) -> list[float]:
        return list(self.levels)

    def ternary_radii(self) -> list[float]:
        """The rho* levels 3^-k, k = 0..depth, shallow to deep."""
        return [1 / 3 ** k for k in range(self.depth + 1)]

    def to_jsonable(self) -> dict:
        return {
            "group": {"cycles": list(self.group.invariants)},
            "d": self.d,
            "depth": self.depth,
            "core_attested": self.core is not None,
            "audit": {
                "symmetric_ok": self.audit.symmetric_ok,
                "nesting_ok": self.audit.nesting_ok,
                "subadditive_ok": self.audit.subadditive_ok,
                "growth_ok": self.audit.growth_ok,
                "violations": list(self.audit.violations),
            },
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
    if not (math.isfinite(d) and d >= 0):
        raise ValueError(f"system_from_balls needs a finite d >= 0, got {d}")
    for name, value in (("K", K), ("cap", cap)):
        if value is None:
            continue
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"system_from_balls needs an integer {name}, got {value!r}")
        if not 1 <= value <= MAX_DEPTH:
            raise ValueError(f"system_from_balls needs 1 <= {name} <= {MAX_DEPTH}, "
                             f"got {value}")
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
    for i, u1 in enumerate(units):
        for j in range(i, len(units)):
            s = u1 + units[j]
            if s > two:
                break  # the units are sorted, so every later sum is past 2 too
            if j == i or not same[j]:
                total = sumset(sets[i], sets[j], cache=cache)
            target = bisect.bisect_left(units, s)  # round up to the grid
            if not total.is_subset_of(sets[target]):
                subadditive_ok = False
                violations.append(
                    f"subadditivity fails: S_{names[i]} + S_{names[j]} "
                    f"not in S_{names[target]}")
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


# -- convenience families -------------------------------------------------------------


def interval_family(group: FinAbGroup, scale: float) -> Callable[[float], GroupSet]:
    """delta -> {x : |x|_circ <= floor(scale * delta)} on a cyclic group."""
    if group.rank != 1:
        raise ValueError("interval_family needs a cyclic group")

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
    chains from 0, found by settling whole distance buckets: distances are
    integers in units of 2^-depth, and each round pops the least distance t
    from a heap of the distances 0 and t' + w pushed by earlier rounds,
    closes the elements at t under the zero-weight core steps, and relaxes
    t + w onto one sumset with each distinct level of weight w, pushing
    t + w. A round at t relaxes only the levels lighter than t & -t, and
    t = 0 and the multiples of top = 2^depth relax every level; see the ball
    lemma in the module docstring. A round with no such level and no core to
    close touches no per-element state, and one whose distance every
    element pushed there has since left builds no frontier. An element is
    settled once t reaches its distance, so dist is the only per-element
    state. Each level's half spectrum (and coordinate block) is built at
    most once per call, and each frontier's at most once per round, in a
    cache dropped on return; a core that is {0}, as on every auto-depth
    system, gets no closure sumsets. A system has depth <= MAX_DEPTH, so
    every distance is an integer below 2^53 and rho = distance * 2^-depth
    is exact in float64.
    """
    if not system.audit.all_pass:
        raise ValueError(f"system failed its axiom audit: {system.audit.violations}")
    g, depth, core = system.group, system.depth, system.core
    rho_star = np.full(g.order, np.inf)
    for k, r in enumerate(system.ternary_radii()):
        rho_star[system.levels[r].mask] = 2.0 ** -k
    if core is not None:
        rho_star[core.mask] = 0.0

    # The distinct step levels, deep to shallow, with weights in units of
    # 2^-depth; the core, when attested, is the bottom level at weight 0. A
    # level equal to the next deeper one costs more for the same steps.
    cache = OperandCache()
    steps: list[tuple[GroupSet, int]] = []
    deeper = core
    for k in reversed(range(depth + 1 if core is None else depth)):
        S = system.levels[1 / 3 ** k]
        if S != deeper:
            steps.append((cache.register(S), 1 << (depth - k)))
        deeper = S
    # every level holds 0, so a one-element core is {0} and closes nothing
    closing = cache.register(core) if core is not None and len(core) > 1 else None

    top = 1 << depth
    unreached = np.iinfo(np.int64).max
    dist = np.full(g.order, unreached, dtype=np.int64)
    dist[0] = 0
    # every finite distance is 0 or a t + w some round relaxed, so the
    # distances pushed so far, in a heap, hold the next one
    pushed = [0]
    while pushed:
        t = heapq.heappop(pushed)
        while pushed and pushed[0] == t:
            heapq.heappop(pushed)
        # the elements with dist <= t are settled, and dist == t is the
        # frontier; by the ball lemma only the steps lighter than t's lowest
        # set bit can settle anything, so a round with none of them and no
        # core to close does nothing
        limit = t & -t if t % top else 2 * top
        lighter = [(S, w) for S, w in steps if w < limit]
        if not lighter and closing is None:
            continue
        at_t = dist == t
        if not at_t.any():
            continue  # every element pushed to t was later pushed lower
        frontier = GroupSet(g, at_t)
        if closing is not None:
            while True:
                closed = frontier | sumset(frontier, closing, cache=cache)
                if closed == frontier:
                    break
                frontier = closed
            dist[frontier.mask] = t
        # the frontier is cached for its own round only
        cache.register(frontier)
        for S, w in lighter:
            np.minimum(dist, t + w, out=dist, where=sumset(frontier, S, cache=cache).mask)
            heapq.heappush(pushed, t + w)
        cache.forget(frontier)
    rho = np.where(dist == unreached, np.inf, dist * 2.0 ** -depth)
    return BirkhoffMetric(system, rho_star, rho)


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
