"""Dense subsets of a finite abelian group with Minkowski arithmetic.

A GroupSet is a bit vector over the canonical element enumeration. Sumsets
run through one of two exact routes. The direct route adds the uint32
coordinates of every pair at once, as one numpy outer sum per block of
about SUMSET_BLOCK_CELLS pairs (rows of the smaller operand against all of
the larger one); a coordinate sum is below 2n, so one wrapped subtract
reduces it, and each block is encoded and marked in one call. The spectral
route is a real FFT convolution of the two indicators cut at 1/2 (the
convolution counts representations, so its values are integers and the cut
is exact). It runs on the operands' bounding box: on each cycle j, with A's
projection on an arc of length L_A from a and B's on an arc of length L_B
from b, the cycle shrinks to m, the least 5-smooth number 2^a 3^b 5^c at
or above L_A + L_B - 1 (and at least 2, the shortest cycle), when
m < n_j. numpy's FFT costs about the same per point at 5-smooth lengths
as at powers of two, and they lie closer together. There the convolution
of the cropped indicators is linear, hence exact, and box point k is the
sum at a + b + k mod n_j (the wrap-back). Other cycles stay whole, and
with none shrunk the route is the full-grid convolution. sumset picks the
route of lower modelled cost,

    direct   ~ |small| * (c0 + c1 * |big| * rank)
    spectral ~ c2 * P * log2 P + c3,   P the FFT's grid points,

with the constants SUMSET_COST fitted by tools/sumset_cost_fit.py. P is
|G| first. Where that picks direct, the box is planned when the direct
cost beats both the FFT on the least box the operand sizes allow and one
O(|G|) pass (c2 * |G|), what planning costs; the FFT is then priced on
the box's points, and a spectral sum takes the planned box along. No rule
on |A| * |B| alone can choose well: the direct cost grows with the smaller
operand times the larger one, while the FFT cost depends on the grid only.

A computation that sums the same sets again and again registers them with
an OperandCache and passes it to sumset, so each one's coordinates and half
spectrum are built once per call. A spectral sum with a registered operand
runs on all of G, so that set keeps its one full-grid half spectrum, and
its auto route is never probed for a box. Its FFT is priced by the
transforms it runs, since c2 is fitted on sums that run all three: the
inverse, plus the forward transform of each unregistered operand, so k of
them cost k/3 of c2 * |G| * log2|G|.

Multiples is the one route to the n-fold sumsets nA: it keeps every
multiple it has built, reuses known ones, and halves where none fits, so
iterate(n, A) is Multiples(A)[n].
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .groups import ORDER_CAP, FinAbGroup, GroupElement, GroupMismatchError

#: prog() refuses generator lists longer than this.
PROG_GUARD = 24

#: Seconds-per-unit constants (c0, c1, c2, c3) of the sumset cost model:
#: direct ~ |small| * (c0 + c1 * |big| * rank), spectral ~ c2 * P log2 P + c3
#: on an FFT grid of P points.
SUMSET_COST = (1.32e-6, 2.63e-9, 2.06e-9, 5.49e-5)

#: Pairs the direct sumset route adds in one block (rows of the smaller
#: operand against all of the larger one; at least one row per block).
SUMSET_BLOCK_CELLS = 1 << 14


def _smooth_numbers(limit: int) -> list[int]:
    """The 5-smooth numbers 2^a 3^b 5^c from 2 to limit, ascending."""
    found = [1]
    for p in (2, 3, 5):
        for m in list(found):
            m *= p
            while m <= limit:
                found.append(m)
                m *= p
    return sorted(found)[1:]


#: The cycle lengths a spectral box can take: the 5-smooth numbers up to
#: twice the order cap, which bounds L_A + L_B - 1.
_BOX_SIDES = _smooth_numbers(2 * ORDER_CAP)


class GuardExceededError(ValueError):
    """prog was asked to enumerate more generators than its guard allows."""


class GroupSet:
    """A subset of a FinAbGroup (or of its dual) as a dense bool mask.

    mu(A) is the cardinality, the counting-measure convention.
    """

    __slots__ = ("group", "mask", "_card")

    def __init__(self, group: FinAbGroup, mask: np.ndarray):
        if mask.shape != (group.order,):
            raise ValueError(f"mask length {mask.shape} != group order {group.order}")
        self.group = group
        self.mask = mask.astype(bool, copy=False)
        self.mask.setflags(write=False)
        self._card = int(np.count_nonzero(self.mask))

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, group: FinAbGroup) -> "GroupSet":
        return cls(group, np.zeros(group.order, dtype=bool))

    @classmethod
    def full(cls, group: FinAbGroup) -> "GroupSet":
        return cls(group, np.ones(group.order, dtype=bool))

    @classmethod
    def from_indices(cls, group: FinAbGroup, indices: Iterable[int]) -> "GroupSet":
        mask = np.zeros(group.order, dtype=bool)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= group.order:
                raise ValueError("element index out of range")
            mask[idx] = True
        return cls(group, mask)

    @classmethod
    def from_coords(cls, group: FinAbGroup, coords: Iterable[Sequence[int]]) -> "GroupSet":
        return cls.from_indices(group, (group.encode(c) for c in coords))

    @classmethod
    def from_elements(cls, group: FinAbGroup, elems: Iterable[GroupElement]) -> "GroupSet":
        idx = []
        for e in elems:
            if e.group != group:
                raise GroupMismatchError(f"element of {e.group!r} in set over {group!r}")
            idx.append(e.index)
        return cls.from_indices(group, idx)

    @classmethod
    def singleton(cls, group: FinAbGroup, element: GroupElement | int) -> "GroupSet":
        idx = element.index if isinstance(element, GroupElement) else int(element)
        return cls.from_indices(group, [idx])

    @classmethod
    def linf_ball(cls, group: FinAbGroup, r: int) -> "GroupSet":
        """{x : every coordinate is within r of 0 on its cycle} (sup word metric)."""
        coords = group.coords_table()
        mask = np.ones(group.order, dtype=bool)
        for col, n in zip(coords, group.invariants):
            mask &= np.minimum(col, n - col) <= r
        return cls(group, mask)

    @classmethod
    def interval(cls, group: FinAbGroup, r: int) -> "GroupSet":
        """{-r..r} in a cyclic group; the JSON shorthand."""
        if group.rank != 1:
            raise ValueError("interval shorthand needs a cyclic group")
        return cls.linf_ball(group, r)

    # -- queries ---------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        return self._card

    @property
    def measure(self) -> int:
        """mu(A) under the counting-measure convention."""
        return self._card

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def coords_list(self) -> list[tuple[int, ...]]:
        return [self.group.decode(int(i)) for i in self.indices()]

    def contains_zero(self) -> bool:
        return bool(self.mask[0])

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.mask, self.mask[self.group.negation_permutation()]))

    def is_subset_of(self, other: "GroupSet") -> bool:
        _same_group(self, other)
        return not np.any(self.mask & ~other.mask)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupSet) and self.group == other.group
                and np.array_equal(self.mask, other.mask))

    def __hash__(self):
        return hash((self.group, self.mask.tobytes()))

    def __contains__(self, x: GroupElement | int) -> bool:
        idx = x.index if isinstance(x, GroupElement) else int(x)
        return bool(self.mask[idx])

    def __len__(self) -> int:
        return self._card

    def __repr__(self) -> str:
        return f"GroupSet({self.group!r}, |A|={self._card})"

    # -- boolean algebra ---------------------------------------------------------

    def union(self, other: "GroupSet") -> "GroupSet":
        _same_group(self, other)
        return GroupSet(self.group, self.mask | other.mask)

    __or__ = union

    def intersection(self, other: "GroupSet") -> "GroupSet":
        _same_group(self, other)
        return GroupSet(self.group, self.mask & other.mask)

    __and__ = intersection

    def translate(self, a: GroupElement | int) -> "GroupSet":
        """The translate a + A (exact index permutation via axis rolls)."""
        idx = a.index if isinstance(a, GroupElement) else int(a)
        g = self.group
        shape = g.invariants
        arr = self.mask.reshape(shape, order="F")
        arr = np.roll(arr, g.decode(idx), axis=tuple(range(g.rank)))
        return GroupSet(g, arr.ravel(order="F"))


def _same_group(a: GroupSet, b: GroupSet) -> None:
    if a.group != b.group:
        raise GroupMismatchError(f"sets over different groups: {a.group!r} vs {b.group!r}")


# -- Minkowski arithmetic ----------------------------------------------------------


def negate(A: GroupSet) -> GroupSet:
    """{-a : a in A}; an involution, fixes symmetric sets."""
    return GroupSet(A.group, A.mask[A.group.negation_permutation()])


def _route_seconds(small: int, big: int, g: FinAbGroup,
                   cost: tuple[float, float, float, float] = SUMSET_COST,
                   points: int | None = None, transforms: int = 3) -> tuple[float, float]:
    """The modelled (direct, spectral) seconds (constants c0..c3) for sizes
    small <= big, with the FFT on a grid of points (all of G by default)
    running the given number of its three transforms (c2 is fitted on sums
    that run all three)."""
    c0, c1, c2, c3 = cost
    points = g.order if points is None else points
    return (small * (c0 + c1 * big * g.rank),
            transforms / 3 * c2 * points * math.log2(points) + c3)


def _sumset_route(small: int, big: int, g: FinAbGroup,
                  cost: tuple[float, float, float, float] = SUMSET_COST,
                  points: int | None = None, transforms: int = 3) -> str:
    """The route of lower modelled cost, as priced by _route_seconds."""
    direct, spectral = _route_seconds(small, big, g, cost, points, transforms)
    return "spectral" if spectral < direct else "direct"


def sumset_seconds(small: int, big: int, g: FinAbGroup, transforms: int) -> float:
    """The modelled seconds of the cheaper full-grid route of a sum of sets of
    sizes small <= big whose FFT would run the given number of transforms."""
    return min(_route_seconds(small, big, g, transforms=transforms))


def _auto_route(A: GroupSet, B: GroupSet, cache: "OperandCache | None",
                cost: tuple[float, float, float, float] = SUMSET_COST
                ) -> tuple[str, list[tuple[int, int, int]] | None]:
    """(route, box) for sumset's auto method: the full-grid model's route,
    unless it picks direct for a sum whose FFT would run on a smaller box.

    A sum with an operand registered in cache runs its FFT on all of G and
    is never probed for a box. Its FFT is priced by the transforms the call
    runs: the inverse, and the forward transform of each unregistered
    operand, since cache builds a registered operand's half spectrum at most
    once per call. Otherwise the box is planned (an O(|G|) probe) only when
    the modelled direct cost beats both c2 * |G| and the FFT on the least
    box the operand sizes allow; then the FFT is priced on the box's points,
    and a spectral pick returns the box so that it is not planned again.
    """
    g = A.group
    small, big = sorted((len(A), len(B)))
    if _registered(A, B, cache):
        transforms = 1 + (A not in cache) + (B is not A and B not in cache)
        return _sumset_route(small, big, g, cost, transforms=transforms), None
    if _sumset_route(small, big, g, cost) == "spectral":
        return "spectral", None
    c0, c1, c2, c3 = cost
    # an FFT on any box costs at least c3, so a direct cost below that needs
    # no least box either
    if (small * (c0 + c1 * big * g.rank) <= max(c2 * g.order, c3)
            or _sumset_route(small, big, g, cost,
                             math.prod(_least_sides(small, big, g))) == "direct"):
        return "direct", None
    box = _spectral_box(A, B)
    if box is not None and _sumset_route(small, big, g, cost,
                                         math.prod(m for m, _, _ in box)) == "spectral":
        return "spectral", box
    return "direct", None


def _registered(A: GroupSet, B: GroupSet, cache: "OperandCache | None") -> bool:
    return cache is not None and (A in cache or B in cache)


def sumset(A: GroupSet, B: GroupSet, method: str = "auto", *,
           cache: "OperandCache | None" = None) -> GroupSet:
    """{a + b : a in A, b in B}. Empty inputs give the empty set, and a {0}
    operand gives the other operand itself.

    method: "auto" picks the route of lower modelled cost (_auto_route),
    pricing the FFT on the box it would use where the full-grid model picks
    direct, and by the transforms it runs when an operand is registered;
    "direct" forces the blocked outer sum, "spectral" forces the FFT route,
    and neither probes. Both routes are exact. The FFT route
    convolves on the operands' bounding box, each cycle cropped to the least
    5-smooth length that holds the sum of their arcs, and wraps the result
    back to G; it uses all of G when no cycle shrinks.
    cache: an OperandCache whose registered operands reuse their stored
    coordinates or half spectrum instead of building them again. A spectral
    sum with a registered operand runs on all of G.
    """
    _same_group(A, B)
    if method not in ("auto", "direct", "spectral"):
        raise ValueError(f"unknown sumset method {method!r}")
    g = A.group
    if A.cardinality == 0 or B.cardinality == 0:
        return GroupSet.empty(g)
    # {0} + S = S: no route needs to run
    if A.cardinality == 1 and A.mask[0]:
        return B
    if B.cardinality == 1 and B.mask[0]:
        return A
    box = None
    if method == "auto":
        method, box = _auto_route(A, B, cache)
    if method == "spectral":
        return _spectral_sumset(A, B, cache, box)
    small, big = (A, B) if A.cardinality <= B.cardinality else (B, A)
    # direct: every pair at once, in blocks of rows of small against all of big
    small_coords, big_coords = (_coords(S) if cache is None else cache.get(S, "coords", _coords)
                                for S in (small, big))
    cycles = np.array(g.invariants, dtype=np.uint32)[:, None, None]
    mask = np.zeros(g.order, dtype=bool)
    rows = max(1, SUMSET_BLOCK_CELLS // big.cardinality)
    for start in range(0, small.cardinality, rows):
        block = small_coords[:, start:start + rows, None] + big_coords[:, None, :]
        # a coordinate sum s < 2n is s or s - n mod n; below n, s - n wraps
        # past s in uint32, so the minimum is the reduced coordinate
        np.minimum(block, block - cycles, out=block)
        mask[g.encode_array(block, reduced=True)] = True
    return GroupSet(g, mask)


def _spectral_sumset(A: GroupSet, B: GroupSet, cache: "OperandCache | None",
                     box: list[tuple[int, int, int]] | None = None) -> GroupSet:
    """The spectral route: the convolution of the indicators cut at 1/2, on
    the given box or else the box of _spectral_box when there is one, and on
    all of G when there is none or an operand is registered with cache."""
    from . import fourier  # local import; fourier depends on this module

    # the exact counts are integers, so the unsnapped convolution cut at 1/2
    # is exact
    g = A.group
    if box is None and not _registered(A, B, cache):
        box = _spectral_box(A, B)
    if box is None:
        return GroupSet(g, fourier.convolve(A, B, snap_integers=False, cache=cache) >= 0.5)
    crop_A = _crop(A, [(m, a) for m, a, _ in box])
    crop_B = crop_A if B is A else _crop(B, [(m, b) for m, _, b in box])
    counts = fourier.convolve(crop_A, crop_B, FinAbGroup([m for m, _, _ in box]),
                              snap_integers=False)
    # box point k on cycle j is the sum with coordinate a_j + b_j + k mod n_j
    grid = np.zeros(g.invariants[::-1], dtype=bool)
    sides = [m for m, _, _ in box[::-1]]
    grid[tuple(slice(m) for m in sides)] = (counts >= 0.5).reshape(sides)
    grid = np.roll(grid, [a + b for _, a, b in box[::-1]], axis=tuple(range(g.rank)))
    return GroupSet(g, grid.ravel())


def _box_side(length: int) -> int:
    """The least 5-smooth number 2^a 3^b 5^c at or above length (at least 2):
    a cropped cycle's grid."""
    return _BOX_SIDES[bisect.bisect_left(_BOX_SIDES, length)]


def _least_sides(a: int, b: int, g: FinAbGroup) -> list[int]:
    """Per cycle, the least side any box of operands of a and b points can
    have there (n_j where no such box shrinks the cycle): a projection on
    cycle j has at least ceil(|S| n_j / |G|) points."""
    return [min(n, _box_side((a * n - 1) // g.order + (b * n - 1) // g.order + 1))
            for n in g.invariants]


def _spectral_box(A: GroupSet, B: GroupSet) -> list[tuple[int, int, int]] | None:
    """The grid of the spectral route of A + B: per cycle j, (m, a, b) where
    A's projection lies on the arc of length L_A from a, B's on the arc of
    length L_B from b, and m = _box_side(L_A + L_B - 1) is below n_j; else
    (n_j, 0, 0). None when no cycle shrinks. Cycles that the operand sizes
    alone keep whole (_least_sides) are not scanned.
    """
    g = A.group
    shrinkable = [j for j, (m, n) in enumerate(zip(_least_sides(len(A), len(B), g),
                                                   g.invariants)) if m < n]
    if not shrinkable:
        return None
    box = [(n, 0, 0) for n in g.invariants]
    for j in shrinkable:
        a, la = _arc(A, j)
        b, lb = (a, la) if B is A else _arc(B, j)
        m = _box_side(la + lb - 1)
        if m < g.invariants[j]:
            box[j] = (m, a, b)
    return box if any(m < n for (m, _, _), n in zip(box, g.invariants)) else None


def _arc(S: GroupSet, j: int) -> tuple[int, int]:
    """(start, length) of the shortest arc of cycle j holding S's projection."""
    g = S.group
    n = g.invariants[j]
    grid = S.mask.reshape(g.invariants[::-1])  # C order: cycle j is axis rank - 1 - j
    axes = tuple(i for i in range(g.rank) if i != g.rank - 1 - j)
    occupied = np.flatnonzero(grid.any(axis=axes) if axes else grid)
    first, last = int(occupied[0]), int(occupied[-1])
    # the arc starts after the longest step between cyclically consecutive points
    steps = occupied[1:] - occupied[:-1]
    i = int(steps.argmax()) if steps.size else 0
    if steps.size == 0 or first + n - last >= steps[i]:
        return first, last - first + 1
    return int(occupied[i + 1]), n - int(steps[i]) + 1


def _crop(S: GroupSet, axes: list[tuple[int, int]]) -> np.ndarray:
    """S's indicator on the grid of per-cycle (m, start): the m points of cycle
    j from start, as float64 in the little-endian layout of that grid."""
    g = S.group
    grid = S.mask.reshape(g.invariants[::-1])
    for j, ((m, start), n) in enumerate(zip(axes, g.invariants)):
        if m < n:
            grid = np.take(grid, np.arange(start, start + m), axis=g.rank - 1 - j,
                           mode="wrap")
    return grid.astype(np.float64).ravel()


def _coords(S: GroupSet) -> np.ndarray:
    """The (rank, |S|) uint32 coordinates of the elements of S."""
    return S.group.coords_table()[:, S.indices()].astype(np.uint32, order="C")


class OperandCache:
    """Per-call store of what sumset builds from its operands, for sets that
    one computation sums again and again.

    A registered set keeps each derived array (its coordinate block, its
    half spectrum) from the first time a sumset route needs it, until it is
    forgotten; other operands pass through uncached. So a spectral sum
    transforms a registered operand at most once per call, and sumset's
    auto route prices only its other transforms. Sets are matched by
    identity and held while registered. The caller makes one cache per call
    and drops it on return, so nothing outlives the computation.
    """

    __slots__ = ("_entries",)

    def __init__(self, sets: Iterable[GroupSet] = ()):
        self._entries: dict[int, tuple[GroupSet, dict]] = {}
        for S in sets:
            self.register(S)

    def register(self, S: GroupSet) -> GroupSet:
        """Cache S's derived arrays from now on; returns S."""
        self._entries.setdefault(id(S), (S, {}))
        return S

    def __contains__(self, S: GroupSet) -> bool:
        return id(S) in self._entries

    def forget(self, S: GroupSet) -> None:
        """Drop S and its arrays."""
        self._entries.pop(id(S), None)

    def get(self, S: GroupSet, key: str, build):
        """build(S), stored under key when S is registered."""
        entry = self._entries.get(id(S))
        if entry is None:
            return build(S)
        store = entry[1]
        if key not in store:
            store[key] = build(S)
        return store[key]


def difference(A: GroupSet, B: GroupSet) -> GroupSet:
    """A - B = A + (-B). A symmetric B is passed itself, so that the spectral
    route transforms a symmetric set's A - A once."""
    neg = negate(B)
    return sumset(A, B if neg == B else neg)


def iterate(n: int, A: GroupSet) -> GroupSet:
    """The n-fold sumset nA; iterate(1, A) = A."""
    return Multiples(A)[n]


def multiples(t: GroupElement, L: int) -> GroupSet:
    """{sigma * t : |sigma| <= L} as a set."""
    g = t.group
    return GroupSet.from_indices(g, {t.scale(s).index for s in range(-L, L + 1)})


def prog(T: Sequence[GroupElement], L: int, group: FinAbGroup | None = None) -> GroupSet:
    """Prog(T, L) = {sum_t sigma_t * t : sigma integer, |sigma_t| <= L}.

    The ball of radius L in the sup-coefficient metric over generators T.
    Always contains 0 and is symmetric. For empty T the group must be given.
    """
    if L < 0:
        raise ValueError(f"prog needs L >= 0, got {L}")
    if len(T) > PROG_GUARD:
        raise GuardExceededError(f"|T| = {len(T)} exceeds prog guard {PROG_GUARD}")
    if not T:
        if group is None:
            raise ValueError("prog with empty T needs an explicit group")
        return GroupSet.singleton(group, 0)
    g = T[0].group
    if group is not None and group != g:
        raise GroupMismatchError("generators do not live over the stated group")
    for t in T[1:]:
        if t.group != g:
            raise GroupMismatchError("prog generators span different groups")
    out = multiples(T[0], L)
    for t in T[1:]:
        out = sumset(out, multiples(t, L))
    return out


# -- growth profiling -----------------------------------------------------------


@dataclass(frozen=True)
class GrowthRow:
    n: int
    mu_nA: int
    bound: float  # n^d * mu(A)
    satisfied: bool


@dataclass(frozen=True)
class GrowthProfile:
    """mu(nA) against the polynomial bound n^d * mu(A), row by row."""

    base: GroupSet
    d: float
    rows: tuple[GrowthRow, ...]
    window_start: int  # n >= max(1, ceil(d ln d)), the hypothesis window

    @property
    def satisfied_on_window(self) -> bool:
        return all(r.satisfied for r in self.rows if r.n >= self.window_start)

    def to_jsonable(self) -> dict:
        return {
            "d": self.d,
            "window_start": self.window_start,
            "satisfied_on_window": self.satisfied_on_window,
            "rows": [
                {"n": r.n, "mu": r.mu_nA, "bound": r.bound, "satisfied": r.satisfied}
                for r in self.rows
            ],
        }


def growth_window_start(d: float, floor: int = 1) -> int:
    """First n of the growth-hypothesis window n >= d*ln(d), floored."""
    if d > 1:
        return max(floor, math.ceil(d * math.log(d)))
    return floor


def growth_window_end(d: float) -> int:
    """Last n of the default growth scan, max(4, ceil(2 d ln d))."""
    return max(4, math.ceil(2 * d * math.log(d))) if d > 1 else 4


class Multiples:
    """The multiples nA of one set, each built once, for one computation's lifetime.

    multiples[n] is mA + (n-m)A for the largest known m with (n-m)A known,
    so asking for n = 2, 3, ... in turn steps by A and asking for 2l, 3l, ...
    after l steps by lA. With no such m it is (n//2)A + (n - n//2)A, which
    builds a fresh nA in as many sumsets as binary doubling for n <= 16.
    Once a multiple is all of G, every later one is.
    """

    __slots__ = ("A", "_known")

    def __init__(self, A: GroupSet):
        self.A = A
        self._known = {1: A}

    def __getitem__(self, n: int) -> GroupSet:
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"multiples need an integer n >= 1, got {n!r}")
        known = self._known
        if n not in known:
            splits = [m for m in known if m < n and n - m in known]
            m = max(splits, default=n // 2)
            part, rest = self[m], self[n - m]
            bigger = max(part, rest, key=len)
            known[n] = bigger if len(bigger) == self.A.group.order else sumset(part, rest)
        return known[n]


def growth_profile(multiples: Multiples, d: float, n_max: int) -> GrowthProfile:
    """Check mu(nA) <= n^d * mu(A) for n = 1..n_max; wraparound just saturates."""
    A = multiples.A
    if A.cardinality == 0:
        raise ValueError("growth_profile needs a nonempty set")
    if isinstance(n_max, bool) or not isinstance(n_max, numbers.Integral) \
            or n_max < 2:
        raise ValueError(f"growth_profile needs an integer n_max >= 2, got {n_max!r}")
    if isinstance(d, bool) or not isinstance(d, numbers.Real) \
            or not math.isfinite(d) or d <= 0:
        raise ValueError(f"growth_profile needs a finite d > 0, got {d!r}")
    rows = []
    for n in range(1, n_max + 1):
        mu = multiples[n].measure
        bound = float(n) ** d * A.measure
        rows.append(GrowthRow(n, mu, bound, mu <= bound))
    return GrowthProfile(A, d, tuple(rows), growth_window_start(d))
