"""Bohr sets, dimension estimation, and the radius-rescaling identities.

A Bohr set pins every frequency's phase within delta of zero. Its measure
profile over a dyadic radius grid gives the empirical ball dimension, and
the k-fold rescaling equality is audited exactly.
"""

from addcomb import (FinAbGroup, GroupSet, bohr_family, bohr_set,
                     dimension_estimate, dyadic_dimension_grid, nested_bohr_audit,
                     rounding_check)
from addcomb.oracles import bohr_distance

g = FinAbGroup([64])
freqs = GroupSet.from_indices(g, [0, 1, 9])

B = bohr_set(freqs, 0.1)
print("Bohr({0,1,9}, 0.1):", sorted(B.members.indices()))
print("distance of 7 from 0:", bohr_distance(g.element(7), g.zero, freqs))

# empirical dimension of the one-frequency family: an interval, so about 1
fam = bohr_family(GroupSet.from_indices(g, [1]))
measure = lambda r: fam(r).measure
grid = dyadic_dimension_grid(measure, 0.25)
est = dimension_estimate(measure, grid)
print("interval-like Bohr family dimension:", round(est.empirical_dim, 4))

# word-metric squares in Z_17^2 measure close to 2
g2 = FinAbGroup([17, 17])
est2 = dimension_estimate(lambda r: GroupSet.linf_ball(g2, int(r)).measure, [1, 2, 3])
print("word balls in Z_17^2 dimension:", round(est2.empirical_dim, 4))

# rounding: multiples near integers force the base point near an integer
chk = rounding_check(t=0.05, k=3, delta=0.06)
print("rounding check (premise, conclusion):", chk.premise, chk.conclusion)

# Bohr(k Lambda, k delta) = Bohr(Lambda, delta) whenever k delta < 1/3
audit = nested_bohr_audit(GroupSet.from_indices(g, [0, 1]), k=3, delta=0.1)
print("rescaled Bohr sets equal:", audit.equal)
