import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import addcomb.sets
from addcomb.covering import chang_cover, ruzsa_cover
from addcomb.groups import FinAbGroup, GroupMismatchError
from addcomb.sets import GroupSet, difference, iterate, prog, sumset


def brute_dissociated(T, Bp):
    """Oracle: enumerate every nonzero {-1,0,1} coefficient vector."""
    g = Bp.group
    Dp = {int(i) for i in difference(Bp, Bp).indices()}
    for signs in itertools.product((-1, 0, 1), repeat=len(T)):
        if not any(signs):
            continue
        total = g.zero
        for s, t in zip(signs, T):
            total = total + t.scale(s)
        if total.index in Dp:
            return False
    return True


class TestRuzsaCover:
    def test_singleton(self):
        g = FinAbGroup([16])
        cert = ruzsa_cover(GroupSet.singleton(g, 0))
        assert [t.index for t in cert.T] == [0]
        assert cert.containment_verified

    def test_subgroup_needs_one_translate(self):
        g = FinAbGroup([32])
        H = GroupSet.from_indices(g, range(0, 32, 8))
        cert = ruzsa_cover(H)
        assert [t.index for t in cert.T] == [0]
        assert cert.containment_verified

    def test_interval_example(self):
        # frozen greedy trace on Z_32, B = {-2..2}: candidates scanned in
        # index order 0,1,...,8,24,...,31 pick 0, 5, 24
        g = FinAbGroup([32])
        B = GroupSet.interval(g, 2)
        cert = ruzsa_cover(B)
        assert [t.index for t in cert.T] == [0, 5, 24]
        assert cert.containment_verified
        # independent exhaustive oracle for the containment
        S = difference(iterate(2, B), iterate(2, B))
        BmB = difference(B, B)
        covered = set()
        for t in cert.T:
            covered |= {int(i) for i in BmB.translate(t).indices()}
        assert {int(i) for i in S.indices()} <= covered
        # chosen translates are pairwise disjoint (B-separatedness)
        for t1, t2 in itertools.combinations(cert.T, 2):
            assert (B.translate(t1) & B.translate(t2)).cardinality == 0

    def test_three_sumsets(self, record_calls):
        B = GroupSet.interval(FinAbGroup([32]), 2)
        sums = record_calls(addcomb.sets, "sumset")
        ruzsa_cover(B)
        assert len(sums) == 3  # B - B, (B - B) + (B - B) and 2B, each once

    def test_random_containment_always(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            g = FinAbGroup([int(rng.integers(8, 200))])
            mask = rng.random(g.order) < rng.uniform(0.02, 0.4)
            mask[int(rng.integers(0, g.order))] = True
            cert = ruzsa_cover(GroupSet(g, mask))
            assert cert.containment_verified
            assert cert.size_bound_verified

    def test_determinism(self):
        g = FinAbGroup([60])
        B = GroupSet.from_indices(g, [0, 7, 11, 58])
        c1, c2 = ruzsa_cover(B), ruzsa_cover(B)
        assert [t.index for t in c1.T] == [t.index for t in c2.T]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ruzsa_cover(GroupSet.empty(FinAbGroup([8])))


class TestChangCover:
    def test_interval_example(self):
        # Z_64, B = {-4..4}, B' = {-8..8}, k = 3:
        # oracle mu(3B + B') = |{-20..20}| = 41 < 2^3 * 17 = 136
        g = FinAbGroup([64])
        B = GroupSet.interval(g, 4)
        Bp = GroupSet.interval(g, 8)
        cert, _, _ = chang_cover(B, Bp, 3)
        assert cert.parameters["mu_kB_plus_Bp"] == 41
        assert cert.parameters["precondition_held"]
        # B sits inside B'-B' = {-16..16}, so the greedy finds nothing to add
        assert cert.T == ()
        assert cert.containment_verified and cert.size_bound_verified

    def test_b_inside_difference_set(self):
        g = FinAbGroup([40])
        B = GroupSet.interval(g, 2)
        Bp = GroupSet.interval(g, 5)
        cert, _, _ = chang_cover(B, Bp, 2)
        assert cert.T == ()
        assert cert.containment_verified

    def test_singleton_b(self):
        g = FinAbGroup([16])
        cert, _, _ = chang_cover(GroupSet.singleton(g, 0), GroupSet.interval(g, 1), 1)
        assert cert.T == ()
        assert cert.containment_verified

    def test_nontrivial_cover(self):
        g = FinAbGroup([256])
        B = GroupSet.from_indices(g, [0, 40, 80, 120, 160])
        Bp = GroupSet.interval(g, 4)
        cert, P, target = chang_cover(B, Bp, 6)
        assert len(cert.T) >= 1
        assert cert.containment_verified
        assert P == prog(list(cert.T), 1, group=g)
        assert target == sumset(P, difference(Bp, Bp))
        # greedy output really is dissociated, and maximally so within B
        assert brute_dissociated(list(cert.T), Bp)
        chosen = {t.index for t in cert.T}
        for x in B.indices():
            if int(x) not in chosen:
                assert not brute_dissociated(list(cert.T) + [g.element(int(x))], Bp)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_greedy_is_maximal_dissociated_by_brute_force(self, data):
        cycles = data.draw(st.lists(st.integers(2, 9), min_size=1, max_size=3))
        g = FinAbGroup(cycles)
        element = st.integers(0, g.order - 1)
        B = GroupSet.from_indices(g, data.draw(st.lists(element, min_size=1, max_size=6)))
        Bp = GroupSet.from_indices(g, data.draw(st.lists(element, min_size=1, max_size=4)))
        cert, _, _ = chang_cover(B, Bp, data.draw(st.integers(1, 3)))
        T = list(cert.T)
        assert brute_dissociated(T, Bp)
        chosen = {t.index for t in T}
        for x in B.indices():
            if int(x) not in chosen:
                assert not brute_dissociated(T + [g.element(int(x))], Bp)

    def test_sumset_count(self, record_calls):
        g = FinAbGroup([256])
        B = GroupSet.from_indices(g, [0, 40, 80, 120, 160])
        sums = record_calls(addcomb.sets, "sumset")
        cert, _, _ = chang_cover(B, GroupSet.interval(g, 4), 6)
        assert [t.index for t in cert.T] == [40, 80, 160]
        # 6B in three, 6B + B', B' - B', Prog(T, 1) in two and the target;
        # 9 while prog summed {0} with its first generator
        assert len(sums) == 8

    def test_size_bound_under_precondition_random(self):
        rng = np.random.default_rng(47)
        done = 0
        while done < 25:
            g = FinAbGroup([int(rng.integers(16, 256))])
            Bp = GroupSet(g, rng.random(g.order) < 0.3)
            if Bp.cardinality == 0:
                continue
            B = GroupSet.from_indices(
                g, rng.integers(0, g.order, size=int(rng.integers(1, 5))))
            k = int(rng.integers(4, 10))
            cert, _, _ = chang_cover(B, Bp, k)
            if not cert.parameters["precondition_held"]:
                continue
            done += 1
            assert len(cert.T) <= k
            assert cert.containment_verified

    def test_containment_even_without_precondition(self):
        g = FinAbGroup([128])
        B = GroupSet.from_indices(g, [0, 13, 41, 77, 101])
        Bp = GroupSet.singleton(g, 5)
        cert, _, _ = chang_cover(B, Bp, 1)  # 2 * mu(B') tiny: precondition fails
        assert not cert.parameters["precondition_held"]
        assert cert.containment_verified
        assert not cert.parameters["size_bound_applicable"]

    def test_guard_flagged(self):
        g = FinAbGroup([1000])
        B = GroupSet.from_indices(g, [1, 10, 100, 500])
        Bp = GroupSet.singleton(g, 0)
        cert, _, _ = chang_cover(B, Bp, 8, guard=3)
        assert cert.parameters["guard_exceeded"]
        assert not cert.containment_verified  # partial result, flagged

    def test_determinism(self):
        g = FinAbGroup([100])
        B = GroupSet.from_indices(g, [0, 9, 33, 61, 87])
        Bp = GroupSet.interval(g, 1)
        t1 = [t.index for t in chang_cover(B, Bp, 5)[0].T]
        t2 = [t.index for t in chang_cover(B, Bp, 5)[0].T]
        assert t1 == t2

    def test_rejects_bad_input(self):
        g = FinAbGroup([8])
        with pytest.raises(ValueError):
            chang_cover(GroupSet.empty(g), GroupSet.full(g), 2)
        with pytest.raises(ValueError):
            chang_cover(GroupSet.full(g), GroupSet.full(g), 0)
        with pytest.raises(GroupMismatchError):
            chang_cover(GroupSet.full(g), GroupSet.full(FinAbGroup([9])), 2)

    def test_certificate_serialization(self):
        g = FinAbGroup([64])
        cert, _, _ = chang_cover(GroupSet.interval(g, 4), GroupSet.interval(g, 8), 3)
        payload = cert.to_jsonable()
        assert payload["kind"] == "chang"
        assert payload["containment_verified"] is True
        assert payload["T"] == []
