"""Subsets of a finite abelian group with Minkowski arithmetic.

A GroupSet is a bit vector over the canonical element enumeration, the
canonical form for serialization and for the FFT, or, when it holds a
small share of a large group, its sorted indices, with the bit vector built
on first read. The form is picked from what the input shows, the set's
size s and the group's order: an operation on sorted indices costs about
INDEX_COST = (fixed, per index) points of a pass over a mask, so a set takes
them when fixed + per_index * s < |G| (_sparse), and groups below 2^14
always take the mask. Such a set answers its cardinality, ==, subset
checks, membership, negation and symmetry from its indices alone; a
direct sum of few pairs and a spectral sum of few points build their
result as indices too. Negation on a mask keeps index 0 of every axis of
the grid and reverses the rest (groups.negated_grid).

Sumsets run through one of two exact routes. The direct route adds the uint32
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
sum at a + b + k mod n_j (the wrap-back: a sum of few points is mapped
to its indices, a larger one rolled onto a mask; operands read through
their indices are cropped from their coordinates). Other cycles stay
whole; a box of whole cycles is G itself, whose convolution is the sum's
mask with no wrap-back. sumset picks the route of lower modelled cost,

    direct   ~ |small| * (c0 + c1 * |big| * rank)
    spectral ~ c2 * P * log2 P + c3,   P the points of the FFT's box,

with the constants SUMSET_COST fitted by tools/ladder.py (sumset). The box
is planned only when the FFT on the least box the operand sizes allow is
priced below the direct route, from each operand's coordinates, read once
per sum and shared with the direct route. No rule on |A| * |B| alone can
choose well: the direct cost grows with the smaller operand times the
larger one, while the FFT cost depends on the grid only. Tests and tools
force a route by rebinding SUMSET_COST, read at call time (a set form, by
rebinding INDEX_COST).

Multiples is the one route to the n-fold sumsets nA: it keeps every
multiple it has built, reuses known ones, and halves where none fits, so
iterate(n, A) is Multiples(A)[n].
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .groups import (ORDER_CAP, Character, FinAbGroup, GroupElement, GroupMismatchError,
                     _check_number, _require_same_group, negated_grid)

#: prog() refuses generator lists longer than this.
PROG_GUARD = 24

#: Seconds-per-unit constants (c0, c1, c2, c3) of the sumset cost model:
#: direct ~ |small| * (c0 + c1 * |big| * rank), spectral ~ c2 * P log2 P + c3
#: on an FFT grid of P points.
SUMSET_COST = (1.32e-6, 2.63e-9, 2.06e-9, 5.49e-5)

#: The cost, in points of one pass over a bool mask, of one operation on a
#: set's sorted indices: a fixed part (about 8 numpy calls, each of a fixed
#: cost near that of a 2048-point pass) and a part per index (a sort step of
#: about log2 |G| compares and the gathers of an encode, about 32 points).
#: A set of s points is read through its indices when that is below |G|
#: (_sparse), so groups below 2^14 always take the mask.
INDEX_COST = (8 * 2048, 32)

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
    """A subset of a FinAbGroup (or of its dual): a bool mask, or the sorted
    indices of a set that holds a small share of the group (_sparse), which
    builds its mask on first read and keeps its indices once read.

    mu(A) is the cardinality, the counting-measure convention.
    """

    __slots__ = ("group", "_mask", "_idx", "_card")

    def __init__(self, group: FinAbGroup, mask: np.ndarray):
        if mask.shape != (group.order,):
            raise ValueError(f"mask length {mask.shape} != group order {group.order}")
        self.group = group
        self._mask = mask.astype(bool, copy=False)
        self._mask.setflags(write=False)
        self._idx = None
        self._card = int(np.count_nonzero(self._mask))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_sorted(cls, group: FinAbGroup, idx: np.ndarray) -> "GroupSet":
        """The set of the strictly increasing int64 indices idx (not checked):
        held as those indices when they are a small share of the group
        (_sparse), else as its mask."""
        if not _sparse(idx.size, group):
            return cls(group, _scatter(group, idx))
        S = cls.__new__(cls)
        S.group, S._mask, S._idx, S._card = group, None, idx, idx.size
        idx.setflags(write=False)
        return S

    @classmethod
    def empty(cls, group: FinAbGroup) -> "GroupSet":
        return cls.from_sorted(group, np.empty(0, dtype=np.int64))

    @classmethod
    def full(cls, group: FinAbGroup) -> "GroupSet":
        return cls(group, np.ones(group.order, dtype=bool))

    @classmethod
    def from_indices(cls, group: FinAbGroup, indices: Iterable[int]) -> "GroupSet":
        """The set of the given integer indices 0..|G| - 1: an integer ndarray
        is checked by dtype, other input index by index (no bool, float or str)."""
        if not (isinstance(indices, np.ndarray) and indices.dtype.kind in "iu"):
            indices = list(indices)
            for x in indices:
                if type(x) is not int:
                    _check_number(x, "GroupSet.from_indices", "index", 0,
                                  high=group.order - 1, integral=True)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= group.order):
            raise ValueError("element index out of range")
        if _sparse(idx.size, group):
            return cls.from_sorted(group, _unique(idx))
        return cls(group, _scatter(group, idx))

    @classmethod
    def from_coords(cls, group: FinAbGroup, coords: Iterable[Sequence[int]]) -> "GroupSet":
        return cls.from_indices(group, (group.encode(c) for c in coords))

    @classmethod
    def from_elements(cls, group: FinAbGroup, elems: Iterable[GroupElement]) -> "GroupSet":
        return cls.from_indices(group, [_index_in(group, e, "GroupSet.from_elements")
                                        for e in elems])

    @classmethod
    def singleton(cls, group: FinAbGroup, element: GroupElement | int) -> "GroupSet":
        return cls.from_indices(group, [_index_in(group, element, "GroupSet.singleton")])

    @classmethod
    def linf_ball(cls, group: FinAbGroup, r: int) -> "GroupSet":
        """{x : every coordinate is within r of 0 on its cycle} (sup word metric).

        The product of one arc {-r..r} per cycle, with no pass over
        coords_table: a small product (_sparse) is the outer sum of the
        arcs' sorted index steps, slowest cycle first, which comes out
        sorted; a larger one the outer product of the cycles' masks, each
        cleared off its arc by one slice write."""
        r = math.floor(r)
        if r < 0:
            return cls.empty(group)
        sides = [min(n, 2 * r + 1) for n in group.invariants]
        if _sparse(math.prod(sides), group):
            idx = np.zeros(1, dtype=np.int64)
            for n, side, stride in zip(group.invariants[::-1], sides[::-1],
                                       group._strides[::-1]):
                arc = np.arange(-r, r + 1) % n if side < n else np.arange(n)
                idx = np.add.outer(idx, np.sort(arc) * stride).ravel()
            return cls.from_sorted(group, idx)
        grid = None
        for n in group.invariants[::-1]:
            cycle = np.ones(n, dtype=bool)
            cycle[r + 1:n - r] = False
            grid = cycle if grid is None else np.logical_and.outer(grid, cycle)
        return cls(group, grid.ravel())

    @classmethod
    def interval(cls, group: FinAbGroup, r: int) -> "GroupSet":
        """{-r..r} in a cyclic group; the JSON shorthand."""
        if group.rank != 1:
            raise ValueError("interval shorthand needs a cyclic group")
        return cls.linf_ball(group, r)

    # -- queries ---------------------------------------------------------------

    @property
    def mask(self) -> np.ndarray:
        """The read-only bool mask over the group's indices."""
        if self._mask is None:
            self._mask = _scatter(self.group, self._idx)
            self._mask.setflags(write=False)
        return self._mask

    @property
    def cardinality(self) -> int:
        return self._card

    @property
    def measure(self) -> int:
        """mu(A) under the counting-measure convention."""
        return self._card

    def indices(self) -> np.ndarray:
        """The sorted element indices; a small set keeps them (read-only)."""
        if self._idx is not None:
            return self._idx
        idx = np.flatnonzero(self._mask)
        if _sparse(self._card, self.group):
            idx.setflags(write=False)
            self._idx = idx
        return idx

    def has_indices(self, idx: np.ndarray) -> np.ndarray:
        """Which of the indices idx are in the set, as a bool array."""
        if self._mask is not None:
            return self._mask[idx]
        own = self._idx
        pos = np.minimum(np.searchsorted(own, idx), max(own.size - 1, 0))
        return own[pos] == idx if own.size else np.zeros(np.shape(idx), dtype=bool)

    def coords_list(self) -> list[tuple[int, ...]]:
        return [self.group.decode(int(i)) for i in self.indices()]

    def contains_zero(self) -> bool:
        if self._mask is not None:
            return bool(self._mask[0])
        return bool(self._card and self._idx[0] == 0)

    def is_symmetric(self) -> bool:
        if _sparse(self._card, self.group):
            idx = self.indices()
            return bool(np.array_equal(_negated_indices(self.group, idx), idx))
        return bool(np.array_equal(self.mask, _negated_mask(self)))

    def is_subset_of(self, other: "GroupSet") -> bool:
        _require_same_group(self, other)
        if self._card > other._card:
            return False
        if _sparse(self._card, self.group):
            return bool(other.has_indices(self.indices()).all())
        return not np.any(self.mask & ~other.mask)

    def __eq__(self, other) -> bool:
        if not (isinstance(other, GroupSet) and self._card == other._card
                and self.group == other.group):
            return False
        # equal cardinalities take the same path on both sides
        if _sparse(self._card, self.group):
            return bool(np.array_equal(self.indices(), other.indices()))
        return bool(np.array_equal(self.mask, other.mask))

    def __hash__(self):
        form = self.indices() if _sparse(self._card, self.group) else self.mask
        return hash((self.group, form.tobytes()))

    def __contains__(self, x: GroupElement | Character | int) -> bool:
        """Membership of an element or character of this set's group (the
        indexing is self-dual), or of an index 0..|G| - 1."""
        return bool(self.has_indices(_index_in(self.group, x, "GroupSet membership")))

    def __len__(self) -> int:
        return self._card

    def __repr__(self) -> str:
        return f"GroupSet({self.group!r}, |A|={self._card})"

    # -- boolean algebra ---------------------------------------------------------

    def union(self, other: "GroupSet") -> "GroupSet":
        _require_same_group(self, other)
        return GroupSet(self.group, self.mask | other.mask)

    __or__ = union

    def intersection(self, other: "GroupSet") -> "GroupSet":
        _require_same_group(self, other)
        return GroupSet(self.group, self.mask & other.mask)

    __and__ = intersection

    def translate(self, a: GroupElement | int) -> "GroupSet":
        """The translate a + A (exact index permutation via axis rolls)."""
        idx = _index_in(self.group, a, "GroupSet.translate")
        g = self.group
        arr = self.mask.reshape(g.invariants, order="F")
        arr = np.roll(arr, g.decode(idx), axis=tuple(range(g.rank)))
        return GroupSet(g, arr.ravel(order="F"))


def _sparse(points: int, g: FinAbGroup) -> bool:
    """Whether an operation on points sorted indices costs less than a pass
    over the mask of g (INDEX_COST)."""
    fixed, per_index = INDEX_COST
    return fixed + per_index * points < g.order


def _scatter(g: FinAbGroup, idx: np.ndarray) -> np.ndarray:
    """The bool mask over g of the indices idx."""
    mask = np.zeros(g.order, dtype=bool)
    mask[idx] = True
    return mask


def _unique(idx: np.ndarray) -> np.ndarray:
    """The distinct values of idx, ascending (a sort and one compare;
    np.unique would import numpy.ma, about 1 MB more resident)."""
    idx = np.sort(idx)
    return idx[np.concatenate(([True], idx[1:] != idx[:-1]))] if idx.size else idx


def _negated_indices(g: FinAbGroup, idx: np.ndarray) -> np.ndarray:
    """The sorted indices of -x for the elements x at idx."""
    return np.sort(g.encode_array(-g.decode_array(idx)))


def _negated_mask(S: "GroupSet") -> np.ndarray:
    """The mask of -S (groups.negated_grid on every axis of the grid)."""
    g = S.group
    return negated_grid(S.mask.reshape(g.invariants[::-1]), range(g.rank)).ravel()


def _index_in(group: FinAbGroup, x: GroupElement | Character | int, caller: str) -> int:
    """The index of x in group: x is an element or a character of group (the
    indexing is self-dual), or an index 0..|G| - 1. A member of another group
    raises GroupMismatchError, any other value ValueError."""
    if isinstance(x, (GroupElement, Character)):
        if x.group != group:
            raise GroupMismatchError(f"{caller}: {x!r} is not a member of {group!r}")
        return x.index
    _check_number(x, caller, "index", 0, high=group.order - 1, integral=True)
    return int(x)


# -- Minkowski arithmetic ----------------------------------------------------------


def negate(A: GroupSet) -> GroupSet:
    """{-a : a in A}; an involution, fixes symmetric sets."""
    if _sparse(len(A), A.group):
        return GroupSet.from_sorted(A.group, _negated_indices(A.group, A.indices()))
    return GroupSet(A.group, _negated_mask(A))


def _sumset_route(small: int, big: int, g: FinAbGroup, points: int) -> str:
    """The route of lower modelled cost (SUMSET_COST, read at call time) for
    sizes small <= big, with the FFT on a grid of points."""
    c0, c1, c2, c3 = SUMSET_COST
    direct = small * (c0 + c1 * big * g.rank)
    return "spectral" if c2 * points * math.log2(points) + c3 < direct else "direct"


def _auto_route(A: GroupSet, B: GroupSet) -> tuple[str, list | None, tuple | None]:
    """(route, box, coords) for sumset: the direct route or the FFT on the
    box it would use (_spectral_box), whichever is priced lower. The box is
    planned only when the FFT on the least box the sizes allow (_least_sides)
    is priced below the direct route, from coords (_coords), which the
    direct route then adds; coords is None where none were read."""
    g = A.group
    small, big = sorted((len(A), len(B)))
    sides = _least_sides(small, big, g)
    if _sumset_route(small, big, g, math.prod(sides)) == "direct":
        return "direct", None, None
    # where no cycle can shrink there is nothing to plan: the box is G
    coords = None if sides == list(g.invariants) else _coords(A, B)
    box = _spectral_box(A, B, coords, sides)
    return _sumset_route(small, big, g, math.prod(m for m, _, _ in box)), box, coords


def sumset(A: GroupSet, B: GroupSet) -> GroupSet:
    """{a + b : a in A, b in B}. Empty inputs give the empty set, and a {0}
    operand gives the other operand itself. Otherwise the route of lower
    modelled cost runs (_auto_route): the blocked outer sum, or the FFT on
    the operands' bounding box (_spectral_sumset). Both routes are exact."""
    _require_same_group(A, B)
    g = A.group
    if A.cardinality == 0 or B.cardinality == 0:
        return GroupSet.empty(g)
    # {0} + S = S: no route needs to run
    if A.cardinality == 1 and A.contains_zero():
        return B
    if B.cardinality == 1 and B.contains_zero():
        return A
    route, box, coords = _auto_route(A, B)
    if route == "spectral":
        return _spectral_sumset(A, B, box, coords)
    # direct: every pair at once, in blocks of rows of small against all of big
    coords_A, coords_B = coords or _coords(A, B)
    small, big = sorted((coords_A, coords_B), key=lambda c: c.shape[1])
    cycles = np.array(g.invariants, dtype=np.uint32)[:, None, None]
    # few pairs are sorted into the sum's indices, many marked on a mask
    sparse = _sparse(small.shape[1] * big.shape[1], g)
    hits = [] if sparse else np.zeros(g.order, dtype=bool)
    rows = max(1, SUMSET_BLOCK_CELLS // big.shape[1])
    for start in range(0, small.shape[1], rows):
        block = small[:, start:start + rows, None] + big[:, None, :]
        # a coordinate sum s < 2n is s or s - n mod n; below n, s - n wraps
        # past s in uint32, so the minimum is the reduced coordinate
        np.minimum(block, block - cycles, out=block)
        index = g.encode_array(block, reduced=True)
        if sparse:
            hits.append(index.ravel())
        else:
            hits[index] = True
    if sparse:
        return GroupSet.from_sorted(g, _unique(np.concatenate(hits)))
    return GroupSet(g, hits)


def _spectral_sumset(A: GroupSet, B: GroupSet, box: list[tuple[int, int, int]],
                     coords: tuple[np.ndarray, np.ndarray] | None) -> GroupSet:
    """The spectral route: the convolution of the indicators cropped to the
    box (_spectral_box), cut at 1/2, with the operands' coordinates (_coords)
    when they were read. A box of whole cycles is G, whose convolution is
    the sum's mask. Otherwise a sum of few points is read off the box as
    indices, a larger one rolled from it onto a mask."""
    from . import fourier  # local import; fourier depends on this module

    g = A.group
    coords_A, coords_B = coords or (None, None)
    crop_A = _crop(A, [(m, a) for m, a, _ in box], coords_A)
    crop_B = crop_A if B is A else _crop(B, [(m, b) for m, _, b in box], coords_B)
    sides = [m for m, _, _ in box]
    grid = g if sides == list(g.invariants) else FinAbGroup(sides)
    # the exact counts are integers, so the unsnapped convolution cut at 1/2
    # is exact
    hit = fourier.convolve(crop_A, crop_B, grid, snap_integers=False) >= 0.5
    if grid is g:
        return GroupSet(g, hit)
    # box point k on cycle j is the sum with coordinate a_j + b_j + k mod n_j
    offsets = [a + b for _, a, b in box]
    if _sparse(int(np.count_nonzero(hit)), g):
        at = grid.decode_array(np.flatnonzero(hit))
        at += np.array(offsets, dtype=np.int64)[:, None]
        return GroupSet.from_sorted(g, np.sort(g.encode_array(at)))
    out = np.zeros(g.invariants[::-1], dtype=bool)
    out[tuple(slice(m) for m in sides[::-1])] = hit.reshape(sides[::-1])
    return GroupSet(g, np.roll(out, offsets[::-1], axis=tuple(range(g.rank))).ravel())


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


def _spectral_box(A: GroupSet, B: GroupSet, coords: tuple[np.ndarray, np.ndarray] | None,
                  sides: list[int]) -> list[tuple[int, int, int]]:
    """The grid of the spectral route of A + B: per cycle j, (m, a, b) where
    A's projection lies on the arc of length L_A from a, B's on the arc of
    length L_B from b, and m = _box_side(L_A + L_B - 1) is below n_j; else
    (n_j, 0, 0), a whole cycle. Only the cycles the least sides
    (_least_sides) can shrink are scanned, through coords (_coords), which
    is None when there are none."""
    g = A.group
    box = [(n, 0, 0) for n in g.invariants]
    for j, (least, n) in enumerate(zip(sides, g.invariants)):
        if least < n:
            a, la = _arc(coords[0], g, j)
            b, lb = (a, la) if B is A else _arc(coords[1], g, j)
            m = _box_side(la + lb - 1)
            if m < n:
                box[j] = (m, a, b)
    return box


def _arc(coords: np.ndarray, g: FinAbGroup, j: int) -> tuple[int, int]:
    """(start, length) of the shortest arc of cycle j holding the projection
    of a set with these coordinates (one side of _coords)."""
    n = g.invariants[j]
    # on rank 1 the coordinates are the set's sorted indices
    occupied = coords[0] if g.rank == 1 else np.flatnonzero(np.bincount(coords[j], minlength=n))
    first, last = int(occupied[0]), int(occupied[-1])
    # the arc starts after the longest step between cyclically consecutive points
    steps = occupied[1:] - occupied[:-1]
    i = int(steps.argmax()) if steps.size else 0
    if steps.size == 0 or first + n - last >= steps[i]:
        return first, last - first + 1
    return int(occupied[i + 1]), n - int(steps[i]) + 1


def _crop(S: GroupSet, axes: list[tuple[int, int]], coords: np.ndarray | None = None
          ) -> np.ndarray:
    """S's indicator on the grid of per-cycle (m, start): the m points of cycle
    j from start, as float64 in the little-endian layout of that grid. A
    set read through its indices (_sparse) is scattered from its
    coordinates (one side of _coords), when given, instead of cut from its
    mask."""
    g = S.group
    if coords is not None and _sparse(len(S), g):
        flat = np.zeros(math.prod(m for m, _ in axes))
        at, stride = np.zeros(coords.shape[1], dtype=np.int64), 1
        for (m, start), c, n in zip(axes, coords, g.invariants):
            at += (c.astype(np.int64) - start) % n * stride
            stride *= m
        flat[at] = 1.0
        return flat
    grid = S.mask.reshape(g.invariants[::-1])
    for j, ((m, start), n) in enumerate(zip(axes, g.invariants)):
        if m < n:
            grid = np.take(grid, np.arange(start, start + m), axis=g.rank - 1 - j,
                           mode="wrap")
    return grid.astype(np.float64).ravel()


def _coords(A: GroupSet, B: GroupSet) -> tuple[np.ndarray, np.ndarray]:
    """The (rank, |S|) uint32 coordinates of the elements of A and of B, in
    index order: one read of each operand's indices (one in all when B is A).
    On rank 1 an element's coordinate is its index."""
    read = []
    for S in (A,) if B is A else (A, B):
        idx = S.indices()
        read.append((idx[None] if S.group.rank == 1
                     else np.take(S.group.coords_table(), idx, axis=1)).astype(np.uint32))
    return read[0], read[-1]


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
        _check_number(n, "Multiples", "n", 1, integral=True)
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
    _check_number(n_max, "growth_profile", "n_max", 2, integral=True)
    _check_number(d, "growth_profile", "d", 0, strict=True)
    rows = []
    for n in range(1, n_max + 1):
        mu = multiples[n].measure
        bound = float(n) ** d * A.measure
        rows.append(GrowthRow(n, mu, bound, mu <= bound))
    return GrowthProfile(A, d, tuple(rows), growth_window_start(d))
