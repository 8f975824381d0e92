import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import addcomb.sets
from addcomb.groups import FinAbGroup, GroupMismatchError
from addcomb.sets import (SUMSET_BLOCK_CELLS, SUMSET_COST, GroupSet, GuardExceededError,
                          Multiples, _auto_route, _box_side, _coords, _least_sides,
                          _spectral_box, _sumset_route, difference, growth_profile, iterate,
                          negate, prog, sumset)


def brute_sumset(A: GroupSet, B: GroupSet) -> set[int]:
    """Oracle: double loop over element pairs in plain Python."""
    g = A.group
    out = set()
    for a in A.indices():
        for b in B.indices():
            ca = g.decode(int(a))
            cb = g.decode(int(b))
            out.add(g.encode([x + y for x, y in zip(ca, cb)]))
    return out


def interval16(*vals):
    g = FinAbGroup([16])
    return GroupSet.from_indices(g, [v % 16 for v in vals])


def pairs_sumset(A: GroupSet, B: GroupSet) -> set[int]:
    """Oracle: every pair a + b over A x B, through numpy's own index arithmetic.

    The little-endian element index is the C-order index on the reversed
    cycle list, so unravel/ravel with wraparound add coordinates mod n_j.
    """
    dims = A.group.invariants[::-1]
    ca = np.array(np.unravel_index(A.indices(), dims))
    cb = np.array(np.unravel_index(B.indices(), dims))
    sums = (ca[:, :, None] + cb[:, None, :]).reshape(len(dims), -1)
    return set(np.ravel_multi_index(tuple(sums), dims, mode="wrap").tolist())


@st.composite
def sumset_operands(draw):
    """(A, B, route): sets over a group of rank 1-3, odd and even cycles alike,
    with the smaller size drawn on either side of the cost-model boundary."""
    rank = draw(st.integers(1, 3))
    top = {1: 700, 2: 30, 3: 10}[rank]
    g = FinAbGroup(draw(st.lists(st.integers(2, top), min_size=rank, max_size=rank)))
    big = draw(st.integers(1, g.order))
    by_route = {"direct": [], "spectral": []}
    for small in range(1, big + 1):
        by_route[_sumset_route(small, big, g, g.order)].append(small)
    route = draw(st.sampled_from(sorted(r for r, sizes in by_route.items() if sizes)))
    small = draw(st.sampled_from(by_route[route]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = GroupSet.from_indices(g, rng.choice(g.order, size=small, replace=False))
    B = GroupSet.from_indices(g, rng.choice(g.order, size=big, replace=False))
    return A, B, route


@st.composite
def direct_operands(draw):
    """(A, B) for the direct route over a group of rank 1-3: the smaller set
    one short of, at or one past a whole number of blocks of
    SUMSET_BLOCK_CELLS // |big| rows, or a single element; the larger set
    sometimes a divisor of the budget, sometimes all of G."""
    rank = draw(st.integers(1, 3))
    lo, hi = {1: (128, 5000), 2: (12, 70), 3: (6, 17)}[rank]
    g = FinAbGroup(draw(st.lists(st.integers(lo, hi), min_size=rank, max_size=rank)))
    big = draw(st.one_of(
        st.integers(128, g.order),
        st.just(g.order),
        st.sampled_from([b for b in (128, 256, 512, 1024, 2048, 4096) if b <= g.order])))
    rows = max(1, SUMSET_BLOCK_CELLS // big)
    small = draw(st.one_of(
        st.just(1),
        st.builds(lambda k, off: min(big, max(1, k * rows + off)),
                  st.integers(1, 3), st.integers(-1, 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = GroupSet.from_indices(g, rng.choice(g.order, size=small, replace=False))
    B = GroupSet.from_indices(g, rng.choice(g.order, size=big, replace=False))
    return A, B


def arc_set(g: FinAbGroup, arcs, rng=None, density: float = 1.0) -> GroupSet:
    """The product of arcs (start, length), one per cycle, thinned to density
    by rng with its first and last points on every arc kept."""
    grid = np.ones(g.invariants[::-1], dtype=bool)
    if rng is not None:
        grid &= rng.random(grid.shape) < density
    for j, ((start, length), n) in enumerate(zip(arcs, g.invariants)):
        on = np.zeros(n, dtype=bool)
        on[(start + np.arange(length)) % n] = True
        shape = [1] * g.rank
        shape[g.rank - 1 - j] = n
        grid &= on.reshape(shape)
    mask = grid.ravel()
    ends = [np.array([start, start + length - 1]) % n
            for (start, length), n in zip(arcs, g.invariants)]
    mask[g.encode_array(np.array(np.meshgrid(*ends, indexing="ij")), reduced=True)] = True
    return GroupSet(g, mask)


@st.composite
def box_operands(draw):
    """(A, B) over a group of rank 1-3, each the thinned product of one arc
    per cycle: short or long, wrapping through 0 or not; B sometimes A."""
    rank = draw(st.integers(1, 3))
    top = {1: 3000, 2: 80, 3: 20}[rank]
    g = FinAbGroup(draw(st.lists(st.integers(2, top), min_size=rank, max_size=rank)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def operand():
        arcs = [(draw(st.integers(0, n - 1)),
                 draw(st.one_of(st.integers(1, min(n, 9)), st.integers(1, n // 3 + 1),
                                st.integers(1, n))))
                for n in g.invariants]
        return arc_set(g, arcs, rng, draw(st.sampled_from([1.0, 0.5, 0.05])))

    A = operand()
    return A, A if draw(st.booleans()) else operand()


def by_route(forced, route: str, A: GroupSet, B: GroupSet) -> GroupSet:
    """sumset(A, B) with route forced."""
    with forced(route=route):
        return sumset(A, B)


@pytest.fixture
def assert_box_route_exact(forced, record_calls):
    """assert_box_route_exact(A, B, box_sides): the spectral route of A + B,
    forced, runs on a box of the given sides (None for all of G), and its
    sum, returned, equals the pairs oracle and the forced direct route."""
    runs = record_calls(addcomb.sets, "_spectral_sumset")

    def check(A: GroupSet, B: GroupSet, box_sides) -> GroupSet:
        S = by_route(forced, "spectral", A, B)
        assert [m for m, _, _ in runs[-1][2]] == (box_sides or list(A.group.invariants))
        assert set(S.indices()) == pairs_sumset(A, B)
        assert S == by_route(forced, "direct", A, B)
        return S

    return check


class TestSpectralBox:
    @settings(max_examples=250, deadline=None)
    @given(box_operands())
    def test_matches_pairs_oracle_and_direct_route(self, forced, operands):
        A, B = operands
        S = by_route(forced, "spectral", A, B)
        assert set(S.indices()) == pairs_sumset(A, B)
        assert S == by_route(forced, "direct", A, B)

    @pytest.mark.parametrize("a,b,side", [
        ((250, 12), (3, 5), 16),     # A wraps through 0
        ((240, 16), (200, 40), 60),  # A ends at n - 1; the sum wraps through 0
        ((255, 1), (255, 2), 2),     # both start at n - 1
        ((0, 30), (226, 40), 72),    # B ends at n - 1, A starts at 0
        ((100, 20), (90, 30), 50),   # no wrapping
    ])
    def test_arcs_through_the_ends_of_the_cycle(self, assert_box_route_exact, a, b, side):
        g = FinAbGroup([256])
        S = assert_box_route_exact(arc_set(g, [a]), arc_set(g, [b]), [side])
        assert len(S) == a[1] + b[1] - 1

    def test_one_cropped_axis_and_one_whole(self, assert_box_route_exact):
        g = FinAbGroup([512, 6])
        rng = np.random.default_rng(3)
        A = arc_set(g, [(500, 20), (0, 6)], rng, 0.5)
        B = arc_set(g, [(7, 9), (4, 3)], rng, 0.5)
        assert_box_route_exact(A, B, [30, 6])
        # a whole cycle stays whole, however short the partner's arc on it
        assert_box_route_exact(A, arc_set(g, [(7, 9), (4, 2)]), [30, 6])

    @pytest.mark.parametrize("la,lb,side", [
        (9, 8, 16),     # L_A + L_B - 1 5-smooth: the sum fills its grid
        (9, 9, 18),     # one more than a power of two
        (64, 65, 128),  # exactly n / 2
        (65, 65, 135),  # past n / 2, and a box of 135 = 3^3 * 5 still shrinks
        (125, 125, 250),  # the largest 5-smooth side below n = 256
        (126, 126, None),  # 251: no 5-smooth side below n, the cycle stays whole
    ])
    def test_sides_at_and_past_5_smooth_lengths(self, assert_box_route_exact, la, lb, side):
        g = FinAbGroup([256])
        rng = np.random.default_rng(la * lb)
        for starts in ((0, 0), (250, 200), (128, 129)):
            A = arc_set(g, [(starts[0], la)], rng, 0.3)
            B = arc_set(g, [(starts[1], lb)], rng, 0.3)
            assert_box_route_exact(A, B, None if side is None else [side])

    def test_degenerate_operands(self, assert_box_route_exact):
        g = FinAbGroup([64, 32])
        point = GroupSet.singleton(g, g.encode([63, 31]))
        assert_box_route_exact(point, point, [2, 2])
        assert_box_route_exact(point, GroupSet.singleton(g, 5), [2, 2])
        column = arc_set(g, [(60, 8), (0, 32)])  # a whole second axis
        assert_box_route_exact(column, point, [8, 32])
        assert_box_route_exact(column, column, [15, 32])
        assert_box_route_exact(GroupSet.full(g), point, None)

    def test_operand_passed_twice_is_cropped_and_transformed_once(self, monkeypatch,
                                                                  forced):
        g = FinAbGroup([4096])
        A = GroupSet.interval(g, 100)
        shapes, rfftn = [], np.fft.rfftn
        monkeypatch.setattr(np.fft, "rfftn", lambda a, *args, **kwargs: (
            shapes.append(np.shape(a)) or rfftn(a, *args, **kwargs)))
        assert by_route(forced, "spectral", A, A) == GroupSet.interval(g, 200)
        assert shapes == [(405,)]

    @pytest.mark.parametrize("cycles,arcs", [
        ([64, 64], None),        # dense sets: the sizes alone keep every cycle whole
        ([256], [(0, 126), (128, 126)]),  # planned, but 251 has no 5-smooth side below 256
        ([40, 30], [(3, 30), (35, 25)]),  # planned, and the arcs' sums fill both cycles
    ])
    def test_whole_box_is_the_convolution_over_g(self, forced, record_calls, cycles,
                                                 arcs):
        from addcomb import fourier
        g = FinAbGroup(cycles)
        rng = np.random.default_rng(g.order)
        if arcs is None:
            A, B = (GroupSet(g, rng.random(g.order) < 0.6) for _ in range(2))
        else:
            A, B = (arc_set(g, [arc] + [(0, n) for n in cycles[1:]], rng, 0.5)
                    for arc in arcs)
        planned = record_calls(addcomb.sets, "_coords")  # planning reads the coordinates
        calls = record_calls(fourier, "convolve")
        S = by_route(forced, "spectral", A, B)
        assert len(planned) == (arcs is not None)
        assert len(calls) == 1 and calls[0][2] is g
        assert np.array_equal(S.mask, fourier.convolve(A, B) >= 0.5)

    def test_box_side_is_the_least_5_smooth_length(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        for length in range(1, 5001):
            want = max(2, length)
            while not smooth(want):
                want += 1
            assert _box_side(length) == want



class TestAutoRoute:
    """sumset's auto route prices the direct route against the FFT on the box
    it would use, plans that box only where the least box the sizes allow
    could win, and hands the planned box to the spectral route."""

    @staticmethod
    def dual_arcs():
        # the shape of the 629 + 943 sum of spectra in run_freiman on Z_2^18
        # (interval 16, eps 0.05): two arcs around 0
        g = FinAbGroup([2 ** 18])
        return g, GroupSet.interval(g, 314), GroupSet.interval(g, 471)

    def test_dual_arcs_take_one_convolution_on_their_box(self, record_calls, forced):
        from addcomb import fourier
        g, A, B = self.dual_arcs()
        assert _sumset_route(len(A), len(B), g, g.order) == "direct"  # on the full grid
        calls = record_calls(fourier, "convolve")
        S = sumset(A, B)
        assert len(calls) == 1 and calls[0][2].order <= 2048
        assert S == GroupSet.interval(g, 314 + 471) == by_route(forced, "direct", A, B)
        assert set(S.indices()) == pairs_sumset(A, B)

    def test_probed_sum_plans_its_box_once(self, record_calls):
        g, A, B = self.dual_arcs()
        planned = record_calls(addcomb.sets, "_spectral_box")
        sumset(A, B)
        assert len(planned) == 1

    def test_sum_priced_below_c2_times_the_order_takes_its_box(self, record_calls):
        # on Z_2^20 the direct cost of 629 + 629 is modelled at 1.87 ms, below
        # c2 * |G| = 2.16 ms, and the FFT on its box of 1280 points at 0.08 ms
        from addcomb import fourier
        g = FinAbGroup([2 ** 20])
        A, B = GroupSet.interval(g, 314), GroupSet.interval(g, 314)
        calls = record_calls(fourier, "convolve")
        S = sumset(A, B)
        assert [c[2].order for c in calls] == [1280]
        assert S == GroupSet.interval(g, 628)

    def test_each_operand_is_read_once_per_sum(self, monkeypatch, forced):
        g = FinAbGroup([2 ** 18])
        rng = np.random.default_rng(7)
        spread = [GroupSet.from_indices(g, rng.choice(g.order, size, False))
                  for size in (32, 1024)]
        _, arc, other = self.dual_arcs()
        wants = {}
        for A, B, route in ((*spread, "direct"), (arc, other, "spectral"),
                            (arc, arc, "spectral")):
            picked, _, coords = _auto_route(A, B)
            assert picked == route and coords is not None  # planned
            wants[A, B] = by_route(forced, "direct", A, B)
        reads, indices = [], GroupSet.indices
        monkeypatch.setattr(GroupSet, "indices", lambda S: reads.append(S) or indices(S))
        for (A, B), want in wants.items():
            reads.clear()
            S = sumset(A, B)
            assert reads == ([A] if B is A else [A, B])
            assert S == want  # == reads the indices of S and want

    @staticmethod
    def reference_route(A: GroupSet, B: GroupSet):
        """Reference: the auto rule in one stage, as (route, box, planned):
        the FFT priced on the least box the sizes allow and, only where that
        beats the direct cost, on the box it would use (all of G unless a
        cycle can shrink)."""
        g = A.group
        small, big = sorted((len(A), len(B)))
        c0, c1, c2, c3 = SUMSET_COST
        direct = small * (c0 + c1 * big * g.rank)
        least = _least_sides(small, big, g)
        if c2 * math.prod(least) * math.log2(math.prod(least)) + c3 >= direct:
            return "direct", None, False
        box = _spectral_box(A, B, _coords(A, B), least)
        points = math.prod(m for m, _, _ in box)
        route = "spectral" if c2 * points * math.log2(points) + c3 < direct else "direct"
        return route, box, least != list(g.invariants)

    def test_unregistered_picks_are_unchanged(self):
        rng = np.random.default_rng(15)
        picks = set()
        for cycles in ([4096], [2 ** 14], [729], [64, 64], [16, 16, 16]):
            g = FinAbGroup(cycles)
            # at 3/4 the operand sizes alone keep a cycle of 729 whole
            for frac in (1 / 256, 1 / 32, 1 / 4, 3 / 4):
                big = max(1, int(g.order * frac))
                for small in (2, 8, 32, 128, 512):
                    if small > big:
                        continue
                    for A, B in ((arc_set(g, [(0, small)] + [(0, 1)] * (g.rank - 1)),
                                  arc_set(g, [(n - big // 2, big) for n in g.invariants[:1]]
                                          + [(0, 1)] * (g.rank - 1))),
                                 (GroupSet.from_indices(g, rng.choice(g.order, small, False)),
                                  GroupSet.from_indices(g, rng.choice(g.order, big, False)))):
                        route, box, coords = _auto_route(A, B)
                        want = self.reference_route(A, B)
                        assert (route, box, coords is not None) == want
                        shrunk = box is not None and box != [(n, 0, 0) for n in cycles]
                        picks.add((route, shrunk, want[2]))
        # every outcome of the rule is exercised
        assert picks == {("direct", False, False), ("direct", False, True),
                         ("spectral", False, False), ("spectral", False, True),
                         ("spectral", True, True)}

    def test_forced_methods_never_probe(self, record_calls, forced):
        g, A, B = self.dual_arcs()
        planned = record_calls(addcomb.sets, "_spectral_box")
        assert by_route(forced, "direct", A, B) == GroupSet.interval(g, 314 + 471)
        assert planned == []
        # a forced spectral sum plans its box once, before the route runs
        assert by_route(forced, "spectral", A, B) == GroupSet.interval(g, 314 + 471)
        assert len(planned) == 1


class TestSumset:
    def test_wraparound_example(self):
        A = interval16(15, 0, 1)
        S = sumset(A, A)
        assert set(S.indices()) == {14, 15, 0, 1, 2}
        assert S.measure == 5
        assert set(S.indices()) == brute_sumset(A, A)

    def test_identity_element(self):
        g = FinAbGroup([9, 3])
        A = GroupSet.from_indices(g, [0, 5, 13, 20])
        assert sumset(A, GroupSet.singleton(g, 0)) == A

    def test_small_example(self):
        g = FinAbGroup([5])
        S = sumset(GroupSet.from_indices(g, [1, 2]), GroupSet.from_indices(g, [0, 1]))
        assert sorted(S.indices()) == [1, 2, 3]

    def test_empty_operand(self):
        g = FinAbGroup([8])
        A = GroupSet.from_indices(g, [1])
        assert sumset(A, GroupSet.empty(g)).cardinality == 0

    @pytest.mark.parametrize("route", ["auto", "direct", "spectral"])
    def test_zero_operand_runs_no_route(self, monkeypatch, forced, route):
        from addcomb import fourier
        for name, module in (("_coords", addcomb.sets), ("convolve", fourier)):
            monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("a route ran"))
        rng = np.random.default_rng(41)
        for cycles in ([2], [97], [10, 12], [5, 4, 6]):
            g = FinAbGroup(cycles)
            zero = GroupSet.singleton(g, 0)
            some = GroupSet(g, rng.random(g.order) < 0.3) | GroupSet.singleton(g, g.order - 1)
            for S in (zero, some, GroupSet.full(g)):
                for A, B in ((zero, S), (S, zero)):
                    out = sumset(A, B) if route == "auto" else by_route(forced, route, A, B)
                    assert out is S
                    assert set(out.indices()) == pairs_sumset(A, B)

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            sumset(GroupSet.full(FinAbGroup([4])), GroupSet.full(FinAbGroup([5])))

    def test_direct_and_spectral_routes_agree(self, forced):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = FinAbGroup([int(rng.integers(2, 17)), int(rng.integers(2, 17))])
            A = GroupSet(g, rng.random(g.order) < rng.uniform(0.05, 0.7))
            B = GroupSet(g, rng.random(g.order) < rng.uniform(0.05, 0.7))
            d = by_route(forced, "direct", A, B)
            s = by_route(forced, "spectral", A, B)
            assert d == s
            if A.cardinality and B.cardinality:
                assert set(d.indices()) == brute_sumset(A, B)

    @settings(max_examples=80, deadline=None)
    @given(sumset_operands())
    def test_all_routes_agree_with_brute_force(self, forced, operands):
        A, B, route = operands
        auto = sumset(A, B)
        assert (auto == by_route(forced, "direct", B, A)
                == by_route(forced, "spectral", A, B))
        assert set(auto.indices()) == pairs_sumset(A, B)
        assert _sumset_route(A.cardinality, B.cardinality, A.group, A.group.order) == route

    @settings(max_examples=120, deadline=None)
    @given(direct_operands())
    def test_blocked_direct_route_matches_pairs_oracle(self, forced, operands):
        A, B = operands
        direct = by_route(forced, "direct", A, B)
        assert set(direct.indices()) == pairs_sumset(A, B)
        assert by_route(forced, "direct", B, A) == direct

    def test_block_edges_on_a_small_budget(self, monkeypatch, forced):
        # several short blocks, the last one partial, on every rank
        monkeypatch.setattr(addcomb.sets, "SUMSET_BLOCK_CELLS", 7)
        rng = np.random.default_rng(23)
        for cycles in ([97], [10, 12], [5, 4, 6]):
            g = FinAbGroup(cycles)
            for small, big in ((1, 3), (2, 3), (3, 3), (4, 8), (7, 7), (9, 40), (11, g.order)):
                A = GroupSet.from_indices(g, rng.choice(g.order, size=small, replace=False))
                B = GroupSet.from_indices(g, rng.choice(g.order, size=big, replace=False))
                direct = by_route(forced, "direct", A, B)
                assert set(direct.indices()) == pairs_sumset(A, B)

    @pytest.mark.parametrize("cycles,small,big,route", [
        ([2 ** 18], 8193, 24577, "spectral"),  # direct 0.61 s, FFT 17 ms
        ([2 ** 18], 10, 100000, "direct"),      # direct 4.0 ms, FFT 23 ms
        ([4096], 50, 200, "direct"),            # direct 0.078 ms, FFT 0.23 ms
        ([4096], 2, 200, "direct"),
        ([4096], 256, 1024, "spectral"),        # direct 1.2 ms, FFT 0.15 ms
    ])
    def test_cost_model_routes(self, cycles, small, big, route):
        g = FinAbGroup(cycles)
        assert _sumset_route(small, big, g, g.order) == route

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(5)
        g = FinAbGroup([8, 4])
        for _ in range(10):
            A = GroupSet(g, rng.random(g.order) < 0.2)
            B = GroupSet(g, rng.random(g.order) < 0.2)
            C = GroupSet(g, rng.random(g.order) < 0.2)
            assert sumset(A, B) == sumset(B, A)
            assert sumset(sumset(A, B), C) == sumset(A, sumset(B, C))

    def test_contains_operands_with_zero(self):
        g = FinAbGroup([30])
        A = GroupSet.from_indices(g, [2, 7, 11])
        B = GroupSet.from_indices(g, [0, 4])
        S = sumset(A, B)
        assert A.is_subset_of(S)
        assert S.measure >= max(A.measure, B.measure)


class TestNegate:
    def test_examples(self):
        g = FinAbGroup([5])
        assert sorted(negate(GroupSet.from_indices(g, [1, 2])).indices()) == [3, 4]
        sym = GroupSet.from_indices(g, [0, 1, 4])
        assert negate(sym) == sym
        z = GroupSet.singleton(g, 0)
        assert negate(z) == z

    def test_involution(self):
        rng = np.random.default_rng(3)
        g = FinAbGroup([6, 5])
        A = GroupSet(g, rng.random(g.order) < 0.3)
        assert negate(negate(A)) == A


class TestMembership:
    def test_element_of_another_group_raises(self):
        A = GroupSet.interval(FinAbGroup([64]), 3)
        with pytest.raises(GroupMismatchError):
            FinAbGroup([4, 4]).element((3, 0)) in A

    def test_character_of_another_group_raises(self):
        A = GroupSet.interval(FinAbGroup([64]), 3)
        with pytest.raises(GroupMismatchError):
            FinAbGroup([16]).character(1) in A

    def test_character_of_the_same_group_is_read_by_its_index(self):
        from addcomb.spectrum import lspec
        g = FinAbGroup([64])
        members = lspec(GroupSet.interval(g, 3), 0.5).members
        assert g.character(0) in members and g.character(32) not in members
        assert [m in members for m in range(g.order)] == members.mask.tolist()

    @pytest.mark.parametrize("index", [-1, -64, 64, 1000])
    def test_index_outside_the_group_raises(self, index):
        A = GroupSet.interval(FinAbGroup([64]), 3)
        with pytest.raises(ValueError, match="index"):
            index in A

    def test_element_and_index_in_range(self):
        g = FinAbGroup([64])
        A = GroupSet.interval(g, 3)
        assert g.element(61) in A and 3 in A and np.int64(63) in A
        assert g.element(4) not in A and 60 not in A

    @pytest.mark.parametrize("read", ["singleton", "translate", "from_elements"])
    def test_every_index_read_rejects_a_member_of_another_group(self, read):
        # (3, 1) in Z_4^2 has index 7: read as an index, it would shift by 7
        g = FinAbGroup([64])
        A = GroupSet.interval(g, 3)
        foreign = FinAbGroup([4, 4]).element((3, 1))
        calls = {"singleton": lambda: GroupSet.singleton(g, foreign),
                 "translate": lambda: A.translate(foreign),
                 "from_elements": lambda: GroupSet.from_elements(g, [g.element(1), foreign])}
        with pytest.raises(GroupMismatchError, match=read):
            calls[read]()

    @pytest.mark.parametrize("index", [-1, 64, True, 2.0])
    def test_singleton_and_translate_reject_a_bad_index(self, index):
        g = FinAbGroup([64])
        with pytest.raises(ValueError, match="index"):
            GroupSet.singleton(g, index)
        with pytest.raises(ValueError, match="index"):
            GroupSet.interval(g, 3).translate(index)

    @pytest.mark.parametrize("indices", [[1.5, 2.9], [2.0], [True], [0, False], ["2"],
                                         np.array([1.5]), np.array([True, False]),
                                         [1, np.float64(2.0)], [-1], [64]])
    def test_from_indices_rejects_a_non_integer_or_outside_index(self, indices):
        # a float used to be truncated, a bool read as 0 or 1 and "2" as 2
        with pytest.raises(ValueError, match="index"):
            GroupSet.from_indices(FinAbGroup([64]), indices)

    def test_from_indices_reads_integers_of_any_kind(self):
        g = FinAbGroup([64])
        want = GroupSet.from_indices(g, [3, 7])
        for indices in ([7, 3, 3], (np.int64(3), np.uint8(7)), {3, 7}, iter([3, 7]),
                        np.array([7, 3], dtype=np.uint16), np.array([[3], [7]])):
            assert GroupSet.from_indices(g, indices) == want
        assert len(GroupSet.from_indices(g, [])) == 0
        assert len(GroupSet.from_indices(g, np.array([], dtype=np.int32))) == 0

    def test_from_indices_checks_an_integer_array_by_its_dtype(self):
        class NoIteration(np.ndarray):
            def __iter__(self):
                raise AssertionError("an integer array was read element by element")

        g = FinAbGroup([2 ** 16])
        idx = np.arange(0, g.order, 5).view(NoIteration)
        assert GroupSet.from_indices(g, idx).indices().tolist() == list(range(0, g.order, 5))

    def test_singleton_and_translate_read_elements_and_indices_alike(self):
        g = FinAbGroup([8, 6])
        A = GroupSet.from_coords(g, [(0, 0), (7, 5)])
        for t in (g.element((3, 2)), g.encode([3, 2]), np.int64(g.encode([3, 2]))):
            assert GroupSet.singleton(g, t).coords_list() == [(3, 2)]
            assert sorted(A.translate(t).coords_list()) == [(2, 1), (3, 2)]


def pairs_multiple(n: int, A: GroupSet) -> GroupSet:
    """Oracle: nA as n - 1 all-pairs sums with A."""
    out = A
    for _ in range(n - 1):
        out = GroupSet.from_indices(A.group, pairs_sumset(out, A))
    return out


def doubling_sumsets(n: int, A: GroupSet) -> int:
    """How many sumsets binary doubling with a full-group exit makes for nA."""
    full = GroupSet.full(A.group)
    made, result, power = 0, None, A
    while n:
        if n & 1:
            if result is None:
                result = power
            else:
                result, made = sumset(result, power), made + 1
            if result == full:
                return made
        n >>= 1
        if n:
            power, made = sumset(power, power), made + 1
    return made


class TestMultiples:
    def test_matches_oracle_in_any_order(self):
        g = FinAbGroup([9, 7])
        A = GroupSet.from_indices(g, [0, 1, 10, 20])
        multiples = Multiples(A)
        for n in (5, 2, 12, 3, 9, 1, 24):
            assert multiples[n] == pairs_multiple(n, A)

    @pytest.mark.parametrize("cycles", [[61], [256], [6, 10], [2, 32], [4, 3, 5], [2, 2, 16]])
    def test_fresh_multiple_matches_oracle_within_doubling_budget(self, record_calls,
                                                                  cycles):
        g = FinAbGroup(cycles)
        rng = np.random.default_rng(g.order)
        A = GroupSet.from_indices(g, rng.choice(g.order, size=3, replace=False))
        budget = [doubling_sumsets(n, A) for n in range(17)]
        sums = record_calls(addcomb.sets, "sumset")
        for n in range(2, 17):
            before = len(sums)
            assert Multiples(A)[n] == pairs_multiple(n, A)
            assert len(sums) - before <= budget[n]

    def test_saturation_is_kept(self):
        g = FinAbGroup([16])
        multiples = Multiples(GroupSet.from_indices(g, [0, 1, 2, 3]))
        assert multiples[5] == GroupSet.full(g)
        assert multiples[40] == GroupSet.full(g)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Multiples(interval16(0, 1))[0]

    @pytest.mark.parametrize("n", [2.5, 2.0, 1.0, True, "2", -1])
    def test_rejects_a_non_integer_n(self, n):
        # a float n used to halve its way down to "n >= 1, got 0.0"
        with pytest.raises(ValueError, match="integer n >= 1"):
            Multiples(interval16(0, 1))[n]


class TestIterate:
    def test_triple_wraparound(self):
        A = interval16(15, 0, 1)
        S = iterate(3, A)
        # oracle: brute triple loop
        want = brute_sumset(GroupSet.from_indices(A.group, brute_sumset(A, A)), A)
        assert set(S.indices()) == want == {13, 14, 15, 0, 1, 2, 3}
        assert S.measure == 7

    def test_single_copy(self):
        A = interval16(2, 5)
        assert iterate(1, A) == A

    def test_identity_fixed_point(self):
        g = FinAbGroup([9])
        z = GroupSet.singleton(g, 0)
        assert iterate(17, z) == z

    def test_doubling_consistency(self):
        rng = np.random.default_rng(9)
        g = FinAbGroup([40])
        A = GroupSet(g, rng.random(g.order) < 0.1)
        for m, n in ((1, 2), (2, 3), (3, 4)):
            assert iterate(m + n, A) == sumset(iterate(m, A), iterate(n, A))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            iterate(0, interval16(0))


class TestProg:
    def test_two_generator_example(self):
        g = FinAbGroup([16])
        P = prog([g.element(3), g.element(5)], 1)
        # oracle: all 3^2 sign vectors; +8 and -8 coincide mod 16, so 8 members
        want = {(s1 * 3 + s2 * 5) % 16 for s1 in (-1, 0, 1) for s2 in (-1, 0, 1)}
        assert set(P.indices()) == want == {0, 2, 3, 5, 8, 11, 13, 14}
        assert P.measure == 8

    def test_radius_zero(self):
        g = FinAbGroup([16])
        assert prog([g.element(3)], 0) == GroupSet.singleton(g, 0)

    def test_empty_generators(self):
        g = FinAbGroup([16])
        assert prog([], 5, group=g) == GroupSet.singleton(g, 0)
        with pytest.raises(ValueError):
            prog([], 5)

    def test_contains_zero_and_symmetric(self):
        g = FinAbGroup([12, 3])
        P = prog([g.element(7), g.element(20)], 2)
        assert P.contains_zero()
        assert P.is_symmetric()

    def test_subadditive_in_radius(self):
        g = FinAbGroup([64])
        T = [g.element(3), g.element(11)]
        lhs = sumset(prog(T, 1), prog(T, 2))
        assert lhs.is_subset_of(prog(T, 3))

    def test_guard(self):
        g = FinAbGroup([2, 2, 2])
        with pytest.raises(GuardExceededError):
            prog([g.element(1)] * 25, 1)

    def test_generator_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            prog([FinAbGroup([4]).element(1), FinAbGroup([6]).element(1)], 1)


class TestGrowthProfile:
    def test_interval_linear_growth(self):
        g = FinAbGroup([64])
        A = GroupSet.from_indices(g, [63, 0, 1])
        prof = growth_profile(Multiples(A), d=1.0, n_max=12)
        # mu(nA) = 2n+1 <= 3n for every n >= 1, wraparound only saturates
        for row in prof.rows:
            assert row.mu_nA == min(2 * row.n + 1, 64)
            assert row.satisfied
        assert prof.satisfied_on_window

    def test_full_group_saturation(self):
        g = FinAbGroup([10])
        prof = growth_profile(Multiples(GroupSet.full(g)), d=0.5, n_max=4)
        assert all(r.mu_nA == 10 for r in prof.rows)
        assert all(r.satisfied for r in prof.rows)

    def test_large_d_always_satisfied(self):
        g = FinAbGroup([32])
        A = GroupSet.from_indices(g, [0, 1, 5, 11])
        prof = growth_profile(Multiples(A), d=6.0, n_max=6)
        assert all(r.satisfied for r in prof.rows if r.n >= 2)

    def test_window_start(self):
        g = FinAbGroup([32])
        A = GroupSet.from_indices(g, [0, 1])
        assert growth_profile(Multiples(A), 1.0, 4).window_start == 1
        assert growth_profile(Multiples(A), 3.0, 4).window_start == math.ceil(3 * math.log(3))

    def test_violation_detected(self):
        g = FinAbGroup([128])
        A = GroupSet.from_indices(g, [0, 1, 17, 40, 77])  # scattered: fast growth
        prof = growth_profile(Multiples(A), d=0.3, n_max=4)
        assert not prof.satisfied_on_window

    def test_measures_nondecreasing_and_capped(self):
        rng = np.random.default_rng(14)
        g = FinAbGroup([48])
        A = GroupSet(g, rng.random(48) < 0.1)
        if A.cardinality == 0:
            A = GroupSet.singleton(g, 3)
        prof = growth_profile(Multiples(A), 1.0, 8)
        mus = [r.mu_nA for r in prof.rows]
        assert mus == sorted(mus)
        assert all(m <= g.order for m in mus)

    def test_rejects_bad_input(self):
        g = FinAbGroup([8])
        with pytest.raises(ValueError):
            growth_profile(Multiples(GroupSet.empty(g)), 1.0, 4)
        with pytest.raises(ValueError):
            growth_profile(Multiples(GroupSet.full(g)), 1.0, 1)


class TestGroupSetBasics:
    def test_interval_and_linf(self):
        g = FinAbGroup([17, 17])
        B = GroupSet.linf_ball(g, 2)
        assert B.measure == 25
        with pytest.raises(ValueError):
            GroupSet.interval(g, 1)
        c = FinAbGroup([10])
        assert sorted(GroupSet.interval(c, 2).indices()) == [0, 1, 2, 8, 9]

    def test_translate(self):
        g = FinAbGroup([4, 3])
        A = GroupSet.from_coords(g, [(0, 0), (1, 2)])
        t = g.element((2, 1))
        shifted = A.translate(t)
        assert sorted(shifted.coords_list()) == sorted([(2, 1), (3, 0)])

    def test_symmetry_predicates(self):
        g = FinAbGroup([9])
        assert GroupSet.interval(g, 3).is_symmetric()
        assert not GroupSet.from_indices(g, [0, 1]).is_symmetric()
        assert GroupSet.interval(g, 1).contains_zero()

    def test_difference(self):
        g = FinAbGroup([20])
        A = GroupSet.from_indices(g, [3, 5])
        D = difference(A, A)
        assert set(D.indices()) == {0, 2, 18}

    def test_symmetric_difference_is_transformed_once(self, monkeypatch):
        g = FinAbGroup([4096])
        B = GroupSet.interval(g, 100)
        shapes, rfftn = [], np.fft.rfftn
        monkeypatch.setattr(np.fft, "rfftn", lambda a, *args, **kwargs: (
            shapes.append(np.shape(a)) or rfftn(a, *args, **kwargs)))
        assert difference(B, B) == GroupSet.interval(g, 200)
        assert shapes == [(405,)]
        A = GroupSet.from_indices(g, [7, 4000])
        assert set(difference(A, B).indices()) == pairs_sumset(A, negate(B))


class TestIndexForm:
    """A set held as its sorted indices answers every operation as its mask
    does: each is run with the index path forced on and forced off."""

    @staticmethod
    def masks(g: FinAbGroup, rng) -> list[np.ndarray]:
        """Random sets of three densities, arcs through column 0 on every
        cycle, a box off 0, the empty set, {0} and G."""
        out = [np.zeros(g.order, dtype=bool), np.eye(1, g.order, dtype=bool)[0],
               np.ones(g.order, dtype=bool)]
        out += [rng.random(g.order) < p for p in (0.002, 0.02, 0.4)]
        for length in (1, 3, 9):
            out.append(arc_set(g, [(n - length // 2 - 1, length) for n in g.invariants]).mask)
        out.append(arc_set(g, [(2, 5)] * g.rank, rng, 0.5).mask)
        return out

    @classmethod
    def reads(cls, g: FinAbGroup, masks: list[np.ndarray], rng, forced) -> list:
        """Every read of every set and pair, on sets built afresh (half from
        masks, half from indices), as canonical bytes and Python values."""
        made = [GroupSet(g, m.copy()) if i % 2 else GroupSet.from_indices(g, np.flatnonzero(m))
                for i, m in enumerate(masks)]
        probe = rng.integers(0, g.order, size=8).tolist() + [0, g.order - 1]
        t = g.element(int(rng.integers(g.order)))
        out = []
        for A in made:
            out += [A, A.contains_zero(), A.is_symmetric(), negate(A), A.translate(t),
                    [x in A for x in probe], hash(A) == hash(GroupSet(g, A.mask.copy()))]
            for B in made:
                out += [A == B, A.is_subset_of(B), A | B, A & B, sumset(A, B),
                        by_route(forced, "spectral", A, B)]
                if len(A) * len(B) <= 1 << 16:
                    out.append(by_route(forced, "direct", A, B))
        # a set read as its size, its mask and its indices
        return [(len(x), x.mask.tobytes(), x.indices().tolist()) if isinstance(x, GroupSet)
                else x for x in out]

    @pytest.mark.parametrize("cycles", [[2 ** 16], [64, 64], [16, 16, 16]], ids=str)
    def test_index_path_matches_mask_path(self, forced, cycles):
        g = FinAbGroup(cycles)
        masks = self.masks(g, np.random.default_rng(len(cycles)))
        results = []
        for side in ("indices", "mask"):
            with forced(index=side):
                results.append(self.reads(g, masks, np.random.default_rng(5), forced))
        assert results[0] == results[1]

    def test_forms_follow_the_share_of_the_group(self):
        g = FinAbGroup([2 ** 16])
        fixed, per_index = addcomb.sets.INDEX_COST
        most = (g.order - fixed - 1) // per_index  # the largest set the rule indexes
        for size, indexed in ((0, True), (most, True), (most + 1, False)):
            S = GroupSet.from_indices(g, range(size))
            assert (S._mask is None) == indexed and len(S) == size
        # a set built from a mask keeps its indices once read, if it is small
        for size, kept in ((most, True), (most + 1, False)):
            S = GroupSet(g, np.arange(g.order) < size)
            S.indices()
            assert (S._idx is not None) == kept
        # groups below INDEX_COST's fixed part always take the mask
        assert GroupSet.empty(FinAbGroup([fixed]))._mask is not None

    def test_small_sums_and_negations_never_read_the_mask(self):
        # on Z_2^18, the 129 + 65 sum of freiman_spectral and its negation
        g = FinAbGroup([2 ** 18])
        A = GroupSet.from_indices(g, [x % g.order for x in range(-64, 65)])
        B = GroupSet.from_indices(g, [x % g.order for x in range(-32, 33)])
        S, D = sumset(A, B), negate(GroupSet.from_indices(g, [1, 5, g.order - 2]))
        assert all(X._mask is None for X in (A, B, S, D))
        assert S == GroupSet.from_indices(g, [x % g.order for x in range(-96, 97)])
        assert S.is_symmetric()
        assert D.indices().tolist() == [2, g.order - 5, g.order - 1]
        assert all(X._mask is None for X in (A, B, S, D))
