"""Large spectra and the spectral pseudo-metric on the dual group.

LSpec(A, delta) keeps the characters whose transform magnitude is at least
sqrt(1 - delta^2/2) mu(A); equivalently the delta-ball of the L^2 metric
around the trivial character.
"""

from addcomb import FinAbGroup, GroupSet, lspec, spectral_distance
from addcomb import oracles

g = FinAbGroup([64])
A = GroupSet.interval(g, 2)

# nested spectra at increasing radii
for delta in (0.25, 0.5, 1.0, 1.414):
    spec = lspec(A, delta)
    print(f"LSpec(A, {delta}): {spec.count:3d} characters, threshold {spec.threshold:.3f}")

# the closed form and the literal double sum agree
d_closed = spectral_distance(g.character(3), g.character(0), A)
d_direct = oracles.spectral_distance(g.character(3), g.character(0), A)
print(f"distance(chi_3, chi_0): closed={d_closed:.12f} direct={d_direct:.12f}")
