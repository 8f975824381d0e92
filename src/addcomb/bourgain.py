"""Bourgain systems and the Birkhoff pseudo-metric built from them.

A system samples a monotone radius family on the ternary grid {2} u {3^-k} u
{2*3^-k} (the dyadic points exist so the growth axiom has on-grid pairs) and
audits the four axioms: symmetric neighborhood, nesting, subadditivity,
dyadic growth. A grid radius is the float u / 3^depth of an integer unit u:
the family is called with it and the levels are keyed by it, in grid order,
while the audits run on the units, so the pair checks add, compare and
bisect plain ints. The subadditivity audit checks S_r + S_r' inside S_t for
every pair r <= r' with r + r' <= 2, where t is the least grid radius
>= r + r' (found by bisection). On a family that passes nesting,
L(x) = min{j : x in S_j} has {L <= j} = S_j, so D(x) = min over s in S_r of
L(x - s) has {D <= j} = S_r + S_j for every j at once: each row r is one
dilation, each pair is read off the least D outside its target, and a row
whose level equals the one below it reuses that row's. A row's pairs read D
only from its own level up to its last pair's, so the levels outside that
span are merged first; a row past r = 1 has no pair and is skipped. A
family that fails nesting has no such L, so each row walks r' upward,
stops at the first sum past 2, and sums S_r + S_r' only when S_r' differs
from the level before it.

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
repeats, for the same reason.

Every dilation, of the metric and of the audit, is one window minimum
(_window_min). S is cut into runs of consecutive columns along cycle 0, the
grid's contiguous axis; a run through the last column n_0 - 1 goes on at
column 0 of its row. The minimum over a run of L columns from column a is
W_L(. - a), where W_L(y) = min over j < L of src(y - j) along cycle 0. So
each distinct run length costs one window minimum, and each run one
translation: a strided view of W_L tiled twice along the last two axes of
the grid, rolled first along any earlier ones. The window
minima come from W_1 = src by doubling, W_2k(y) = min(W_k(y), W_k(y - k)),
and one last shifted minimum per length, so all the lengths of a call share
about log2 of the longest in passes over the grid. Rows that S holds whole
take the minimum of src over each row, one rank lower.

A set of many short runs, such as a subgroup 2G, would cost one pass over
the grid per run, about |G|^2 / 2 operations. A translation is |G|
operations and a sum by FFT three real transforms of about 5/2 |G| log2 |G|
each (the radix-2 count), so a set of more than 7.5 log2 |G| runs (cut at
column 0, whole rows not counted) per value of src that can lower out
(those below the largest of out) is dilated by threshold sums instead: each such value v
lowers out to v on {src = v} + S (sets.sumset). Both ways are exact. The
heaviest level of the metric dilates only its last layer, so its sums
read one value each.

The depth is at most MAX_DEPTH = 31, so |G| * 2^depth <= 2^53 under the
group order cap, every distance fits int64, and rho is exact in float64.
Once the heaviest level is done, every distance left to find lies below
its last layer plus its weight w; when that plus w again is at most 2^30,
the array narrows to int32, so each pass moves half the memory.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .groups import FinAbGroup, GroupElement, _check_number
from .sets import GroupSet, _unique, sumset

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
    # 1.0 and the depth probe's 1/3^k are grid radii too, as the same floats
    family = functools.cache(family)
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
    # same[j]: the level at units[j] equals the one below it, so its row's
    # dilation, or its sums in a row, repeat the one before
    same = [False] + [hi == lo for lo, hi in zip(sets, sets[1:])]
    ranks = _LevelRanks(sets) if nesting_ok else None
    for i, u1 in enumerate(units):
        # the units are sorted, so the pairs of row i are j in [i, end)
        end = bisect.bisect_right(units, two - u1)
        if end <= i:
            break  # no pairs here, nor in any later row
        targets = [bisect.bisect_left(units, u1 + units[j]) for j in range(i, end)]
        if ranks is not None:
            if not same[i]:
                reach = ranks.reach(sets[i], i, end)
            fails = [reach[t + 1] <= j for j, t in zip(range(i, end), targets)]
        else:
            fails = []
            for j, t in zip(range(i, end), targets):
                if j == i or not same[j]:
                    total = sumset(sets[i], sets[j])
                fails.append(not total.is_subset_of(sets[t]))
        for j, t, fail in zip(range(i, end), targets, fails):
            if fail:
                subadditive_ok = False
                violations.append(
                    f"subadditivity fails: S_{names[i]} + S_{names[j]} "
                    f"not in S_{names[t]}")

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

    def reach(self, T: GroupSet, lo: int, end: int) -> list[int]:
        """reach[t] = the least j in lo..end - 1 with (T + S_j) outside
        S_(t-1), for t in 0..n + 1 (end when there is none): for such j,
        T + S_j <= S_t iff reach[t + 1] > j. The levels below lo and from end
        on are not told apart, so a dilation by threshold sums sums only
        the levels a row's pairs could."""
        dilated = np.full(self.group.order, end, dtype=np.uint8)
        _window_min(dilated, np.maximum(self.level, lo), T)
        lows = np.minimum.reduceat(np.take(dilated, self.order), self.starts)
        least = [end] * (self.n + 2)
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
    return _closure(GroupSet.from_elements(group, [group.zero, *generators]))


def _closure(S: GroupSet) -> GroupSet:
    """The subgroup generated by S, which holds 0: S doubled until a sum adds
    nothing, in about log2 of its diameter sums ({0} takes none)."""
    while len(S) > 1 and (doubled := sumset(S, S)) != S:
        S = doubled
    return S


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
    lighter distinct level dilates them once, each dilation one
    _window_min. A system has depth <= MAX_DEPTH, so every distance is an
    integer below 2^53 and rho = distance * 2^-depth is exact in float64.
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

    # every level holds 0, so a one-element core is {0} and closes nothing
    closure = GroupSet.singleton(g, 0) if core is None else _closure(core)
    unreached = UNREACHED
    dist = np.full(g.order, unreached, dtype=np.int64)
    dist[closure.mask] = 0
    if steps:
        # the heaviest step, one layer of distance at a time, until a layer
        # is empty or all of G is reached; last is the last layer's distance
        (S, w), lighter = steps[0], steps[1:]
        layer = reached = len(closure)
        last = 0
        while layer and reached < g.order:
            # the layers before the last were dilated already
            _window_min(dist, np.where(dist == last, last + w, unreached), S)
            layer = int(np.count_nonzero(dist == last + w))
            if layer:
                last += w
                reached += layer
        # every level lies in the heaviest, so the lighter ones reach nothing
        # new, and their weights sum below w: every distance to come is below
        # last + w, and int32 holds it when that plus w is at most
        # NARROW_UNREACHED (each pass then moves half the memory)
        if lighter and last + 2 * w <= NARROW_UNREACHED:
            dist = np.where(dist == unreached, NARROW_UNREACHED, dist).astype(np.int32)
            unreached = NARROW_UNREACHED
        for S, w in lighter:
            _window_min(dist, dist + w, S)
    rho = np.where(dist == unreached, np.inf, dist * 2.0 ** -depth)
    return BirkhoffMetric(system, rho_star, rho)


def _window_min(out: np.ndarray, src: np.ndarray, S: GroupSet) -> None:
    """out <- min(out, min over s in S of src(. - s)), in place, for integer
    arrays out and src over S's group (the module docstring's runs)."""
    shape = S.group.invariants[::-1]  # C order: cycle 0 is the last axis
    _grid_window_min(out.reshape(shape), src.reshape(shape), S.indices())


def _grid_window_min(out: np.ndarray, src: np.ndarray, idx: np.ndarray) -> None:
    """_window_min on grids whose last axis is cycle 0, for the set of
    ascending flat indices idx.

    Each run is one view of its window minimum tiled twice along the last
    two axes, the translate by (row, column) on them being the block of the
    tiles from corner shape - (row, column); so the tiles hold at most
    4 |G| items, as the window buffers do, whatever the rank. Along the
    axes before those, the window minimum is first rolled by the run's
    offset, once per distinct offset. A set of more than 7.5 log2 |G| runs
    per value of src that can lower out takes the threshold sums instead
    (the module docstring).
    """
    if not idx.size:
        return
    shape, n = out.shape, out.shape[-1]
    # a run starts where an index does not follow the one before it, or at
    # column 0; the rows S holds whole are the runs of n columns
    cut = np.ones(idx.size + 1, dtype=bool)
    cut[1:-1] = (idx[1:] - idx[:-1] != 1) | (idx[1:] % n == 0)
    bounds = np.flatnonzero(cut)
    starts, lengths = idx[bounds[:-1]], np.diff(bounds)
    part = lengths < n
    # a translation is |G| operations, a sum by FFT three real transforms
    # of about 5/2 |G| log2 |G| each (the radix-2 count)
    pieces, passes = int(np.count_nonzero(part)), 7.5 * math.log2(out.size)
    if pieces > passes:
        # the distinct values that can lower out
        values = _unique(src[src < out.max()])
        if pieces > passes * values.size:
            _threshold_min(out, src, idx, values.tolist())
            return
    whole = starts[~part] // n
    if whole.size and len(shape) == 1:  # S is all of G
        np.minimum(out, src.min(), out=out)
    elif whole.size:
        low = np.full(shape[:-1], out.max(), dtype=out.dtype)
        _grid_window_min(low, src.min(axis=-1), whole)
        np.minimum(out, low[..., None], out=out)
    if whole.size == starts.size:
        return
    rolled = max(len(shape) - 2, 0)
    corners = _runs(starts[part], lengths[part], shape, rolled)
    tiles = np.empty(shape[:rolled] + tuple(2 * m for m in shape[rolled:]), dtype=out.dtype)
    block = tiles[(slice(None),) * rolled + tuple(slice(m) for m in shape[rolled:])]
    windows = np.ndarray(tuple(m + 1 for m in shape[rolled:]) + shape, tiles.dtype, tiles,
                         strides=tiles.strides[rolled:] + tiles.strides)
    win = np.empty(shape, dtype=out.dtype) if rolled else block
    # ext is src led by its last pad columns, ext[..., pad + y] = src(y) for
    # y >= -pad, so each doubling is one shifted minimum; after it,
    # ext[..., pad + y] = W_width(y) for y >= width - 1 - pad, and every read
    # below stays there, since L - 1 <= pad
    pad = max(corners) - 1
    ext = np.empty(shape[:-1] + (n + pad,), dtype=out.dtype)
    ext[..., :pad] = src[..., n - pad:]
    ext[..., pad:] = src
    spare = np.empty_like(ext)
    width = 1
    for L in sorted(corners):
        while 2 * width <= L:
            np.minimum(ext[..., width:], ext[..., :-width], out=spare[..., width:])
            ext, spare = spare, ext
            width *= 2
        # W_L(y) = min(W_width(y), W_width(y - (L - width)))
        back = pad - (L - width)
        np.minimum(ext[..., pad:], ext[..., back:back + n], out=win)
        for offset, group in corners[L].items():
            if rolled:
                shifted = win
                for axis, c in enumerate(offset):
                    if c:
                        shifted = np.roll(shifted, c, axis)
                block[...] = shifted
            # copy the block to the other tiles, one tiled axis at a time
            for axis in range(rolled, len(shape)):
                done = (slice(None),) * axis
                rest = tuple(slice(k) for k in shape[axis + 1:])
                m = shape[axis]
                tiles[done + (slice(m, None),) + rest] = tiles[done + (slice(m),) + rest]
            for corner in group:
                np.minimum(out, windows[corner], out=out)


def _runs(starts: np.ndarray, lengths: np.ndarray, shape: tuple[int, ...], rolled: int
          ) -> dict[int, dict[tuple, list[tuple]]]:
    """The runs along the last axis of a grid of this shape, from their
    flat starts and lengths, ascending, none a whole row: for each run
    length, by the run's offset along the first rolled axes, the tile
    corners of its runs. A run ending at the last column goes on at column
    0 of its row."""
    n = shape[-1]
    rows: dict[int, list[list[int]]] = {}  # row -> its runs [column, length]
    for start, length in zip(starts.tolist(), lengths.tolist()):
        row, col = divmod(start, n)
        rows.setdefault(row, []).append([col, length])
    corners = {}
    for row, runs in rows.items():
        if len(runs) > 1 and runs[0][0] == 0 and sum(runs[-1]) == n:
            col, length = runs.pop()
            runs[0] = [col, length + runs[0][1]]
        at = []  # the row's coordinates, outermost first
        for m in shape[-2::-1]:
            row, c = divmod(row, m)
            at.insert(0, c)
        offset = tuple(at[:rolled])
        lead = tuple(m - c for m, c in zip(shape[rolled:-1], at[rolled:]))
        for col, length in runs:
            corners.setdefault(length, {}).setdefault(offset, []).append(lead + (n - col,))
    return corners


def _threshold_min(out: np.ndarray, src: np.ndarray, idx: np.ndarray,
                   values: list[int]) -> None:
    """_grid_window_min by threshold sums: out <- min(out, v) on
    {src = v} + S for each v in values, S the set of flat indices idx."""
    g = FinAbGroup(out.shape[::-1])
    S = GroupSet.from_sorted(g, idx)
    for v in values:
        total = sumset(GroupSet(g, (src == v).reshape(-1)), S)
        np.minimum(out, v, out=out, where=total.mask.reshape(out.shape))


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
