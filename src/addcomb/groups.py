"""Explicit finite abelian groups Z_{n1} x ... x Z_{nk} and their characters.

Elements and characters are both indexed 0..order-1 through the same
little-endian mixed-radix encoding (first coordinate varies fastest), which
makes the group self-dual at the index level: character m evaluated at
element x is exp(2*pi*i * sum_j m_j*x_j/n_j).

Measure conventions used throughout the package: the Haar measure mu on G is
counting measure, the dual measure nu is counting measure divided by |G|.
With these choices Parseval and the convolution theorem hold exactly.

Character phases are computed with exact integer arithmetic over the common
denominator M = lcm(n_1..n_k), so circle-norm comparisons are reproducible
bit for bit across platforms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Hard cap on group order; guards exhaustive scans against accidental blow-up.
#: Fixed, because other bounds rest on it: bourgain.MAX_DEPTH (|G| * 2^depth
#: <= 2^53) and the int32 rows of bohr.bohr_distance_table (2|G| < 2^31).
ORDER_CAP = 1 << 22


class GroupMismatchError(ValueError):
    """Raised when operands live over different groups."""


def _require_same_group(a, b) -> None:
    if a.group != b.group:
        raise GroupMismatchError(
            f"incompatible operands: {a.group} vs {b.group}"
        )


def _check_number(value, caller: str, name: str, low, *, strict: bool = False,
                  high=None, integral: bool = False) -> None:
    """Reject a number arriving from outside that is not usable as name.

    value must be an integer when integral, else a finite real (an integer
    too large for a float is not one); a bool or a string is neither. It must
    lie at or above low (above it when strict) and, when high is given, at
    or below high. Otherwise ValueError names caller and name, and states
    the rule.
    """
    if (isinstance(value, bool)
            or not isinstance(value, numbers.Integral if integral else numbers.Real)
            or not (integral or _finite(value))
            or value < low or (strict and value == low)
            or (high is not None and value > high)):
        kind = "an integer" if integral else "a finite"
        if high is None:
            rule = f"{kind} {name} {'>' if strict else '>='} {low}"
        else:
            rule = f"{kind} {name} and needs {low} {'<' if strict else '<='} {name} <= {high}"
        raise ValueError(f"{caller} needs {rule}, got {value!r}")


def negated_grid(grid: np.ndarray, axes) -> np.ndarray:
    """grid at minus its coordinates along axes, each axis a cycle: index 0
    stays and 1..n-1 reverse, one slice copy per axis (negation_permutation
    on flat indices)."""
    for axis in axes:
        lead = (slice(None),) * axis
        grid = np.concatenate((grid[lead + (slice(1),)], grid[lead + (slice(None, 0, -1),)]),
                              axis=axis)
    return grid


def mirrored(half: np.ndarray, group: "FinAbGroup") -> np.ndarray:
    """The flat values on all of group of a function with f(-x) = conj f(x)
    (an int one is even), given on its half x_0 <= n_0 / 2 as a grid of the
    reversed factor shape (coordinate 0 last, as the real FFT's half
    spectrum is laid out), by _mirror."""
    full = np.empty(group.invariants[::-1], dtype=half.dtype)
    full[..., :half.shape[-1]] = half
    _mirror(full)
    return full.ravel()


def _mirror(grid: np.ndarray) -> None:
    """Fill grid[..., m] for m > n / 2 (n = grid.shape[-1]) with the conjugate
    of the point at minus its coordinates (for a real or int grid, such as
    moduli or distance numerators, the point itself).

    On the last axis, -m = n - m runs from n - kept down to 1: a reversed
    slice. The other axes are negated by negated_grid, one slice copy each
    (there are none on one cycle). The columns m = 0 and m = n / 2 are their
    own negations, so each is mirrored in turn on the axes before it. Every
    pair {x, -x} then holds a value and its exact conjugate, so |f(x)| =
    |f(-x)| bit for bit.
    """
    n = grid.shape[-1]
    kept = n // 2 + 1
    source = negated_grid(grid[..., n - kept:0:-1], range(grid.ndim - 1))
    np.conjugate(source, out=grid[..., kept:])
    if grid.ndim > 1:
        for m in ((0, n // 2) if n % 2 == 0 else (0,)):
            _mirror(grid[..., m])


def _finite(value: numbers.Real) -> bool:
    """Whether value converts to a finite float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class FinAbGroup:
    """The group Z_{n1} x ... x Z_{nk}, each cycle length >= 2.

    Instances are immutable; derived tables (coordinate arrays, negation
    permutation) are cached lazily and shared by all operations.
    """

    __slots__ = ("invariants", "order", "phase_denominator",
                 "_strides", "_coords", "_neg_perm")

    def __init__(self, cycles: Sequence[int]):
        for n in cycles:
            _check_number(n, "FinAbGroup", "cycle length", 2, integral=True)
        cycles = tuple(int(n) for n in cycles)
        if not cycles:
            raise ValueError("need at least one cycle length")
        order = math.prod(cycles)
        if order > ORDER_CAP:
            raise ValueError(f"group order {order} exceeds cap {ORDER_CAP}")
        self.invariants = cycles
        self.order = order
        self.phase_denominator = math.lcm(*cycles)
        strides = [1]
        for n in cycles[:-1]:
            strides.append(strides[-1] * n)
        self._strides = tuple(strides)
        self._coords = None
        self._neg_perm = None

    # -- identity / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, FinAbGroup) and self.invariants == other.invariants

    def __hash__(self) -> int:
        return hash(self.invariants)

    def __repr__(self) -> str:
        return "Z" + "x".join(f"_{n}" for n in self.invariants)

    @property
    def rank(self) -> int:
        return len(self.invariants)

    def dual(self) -> "FinAbGroup":
        """The dual group; identical invariants under the self-dual indexing."""
        return self

    # -- mixed-radix encoding ------------------------------------------------

    def encode(self, coords: Sequence[int]) -> int:
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        return sum((int(c) % n) * s
                   for c, n, s in zip(coords, self.invariants, self._strides))

    def decode(self, index: int) -> tuple[int, ...]:
        index = int(index)
        if not 0 <= index < self.order:
            raise ValueError(f"index {index} out of range for {self!r}")
        return tuple((index // s) % n
                     for n, s in zip(self.invariants, self._strides))

    def decode_array(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized decode: int64 array of shape (rank, len(indices))."""
        idx = np.asarray(indices, dtype=np.int64)
        return np.stack([(idx // s) % n for n, s in zip(self.invariants, self._strides)])

    def coords_table(self) -> np.ndarray:
        """int64 array of shape (rank, order): coordinates of every index."""
        if self._coords is None:
            self._coords = self.decode_array(np.arange(self.order, dtype=np.int64))
            self._coords.setflags(write=False)
        return self._coords

    def encode_array(self, coords: np.ndarray, reduced: bool = False) -> np.ndarray:
        """Vectorized encode; coords has shape (rank, ...), entries any ints.

        reduced: every entry is already in 0..n_j - 1, so no modulo is taken.
        """
        out = np.zeros(coords.shape[1:], dtype=np.int64)
        for c, n, s in zip(coords, self.invariants, self._strides):
            out += (c if reduced else c % n) * s
        return out

    def negation_permutation(self) -> np.ndarray:
        """Permutation p with p[encode(x)] = encode(-x)."""
        if self._neg_perm is None:
            # index(-x) = sum_j ((-x_j) mod n_j) * stride_j, one outer sum per
            # cycle from the last (the slowest digit) to the first
            perm = np.zeros((), dtype=np.int64)
            for n, s in zip(self.invariants[::-1], self._strides[::-1]):
                perm = np.add.outer(perm, (-np.arange(n, dtype=np.int64)) % n * s)
            self._neg_perm = perm.ravel()
            self._neg_perm.setflags(write=False)
        return self._neg_perm

    # -- element/character constructors ---------------------------------------

    @property
    def zero(self) -> "GroupElement":
        return GroupElement(self, 0)

    def element(self, spec) -> "GroupElement":
        """Element from a raw index or a coordinate sequence."""
        return GroupElement(self, self._index(spec))

    def character(self, spec) -> "Character":
        return Character(self, self._index(spec))

    def _index(self, spec) -> int:
        if isinstance(spec, (int, np.integer)):
            idx = int(spec)
            if not 0 <= idx < self.order:
                raise ValueError(f"index {idx} out of range for {self!r}")
            return idx
        return self.encode(spec)

    # -- exact phase arithmetic ------------------------------------------------

    def phase_numerator(self, m_index: int, x_index: int) -> int:
        """n with character phase = n / phase_denominator mod 1, exact."""
        M = self.phase_denominator
        mc = self.decode(m_index)
        xc = self.decode(x_index)
        total = 0
        for m, x, n in zip(mc, xc, self.invariants):
            total += ((m * x) % n) * (M // n)
        return total % M


@dataclass(frozen=True)
class _Indexed:
    """A group or dual member identified by its mixed-radix index.

    Sums, negatives and differences keep the class of the left operand, and
    equality is class-strict, so an element never equals a character.
    """

    group: FinAbGroup
    index: int

    @property
    def coords(self) -> tuple[int, ...]:
        return self.group.decode(self.index)

    def __add__(self, other):
        _require_same_group(self, other)
        coords = tuple((a + b) % n for a, b, n in
                       zip(self.coords, other.coords, self.group.invariants))
        return type(self)(self.group, self.group.encode(coords))

    def __neg__(self):
        coords = tuple((-a) % n for a, n in
                       zip(self.coords, self.group.invariants))
        return type(self)(self.group, self.group.encode(coords))

    def __sub__(self, other):
        return self + (-other)


class GroupElement(_Indexed):
    """An element of a FinAbGroup, identified by its mixed-radix index."""

    def scale(self, r: int) -> "GroupElement":
        """Integer multiple r*x."""
        coords = tuple((r * a) % n for a, n in
                       zip(self.coords, self.group.invariants))
        return GroupElement(self.group, self.group.encode(coords))

    def __repr__(self) -> str:
        return f"{self.coords}@{self.group!r}"


class Character(_Indexed):
    """A character of a FinAbGroup: index m takes x to exp(2*pi*i*sum m_j x_j/n_j),
    whose exact phase is FinAbGroup.phase_numerator(m, x) / phase_denominator."""

    def __repr__(self) -> str:
        return f"chi{self.coords}@{self.group!r}"
