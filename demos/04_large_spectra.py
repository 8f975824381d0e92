"""Large spectra and the spectral pseudo-metric on the dual group.

LSpec(A, delta) keeps the characters whose transform magnitude is at least
sqrt(1 - delta^2/2) mu(A); equivalently the delta-ball of the L^2 metric
around the trivial character. The moment machinery splits spectral mass
across that threshold.
"""

from addcomb import (FinAbGroup, GroupSet, claim_audit, find_k, lspec,
                     moment_split, spectral_distance)
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

# splitting the 2k-th moment across LSpec(A, eta)
split = moment_split(A, eta=0.5, k=12)
print(f"eta=0.5, k=12: inside={split.inside:.4g} total={split.total:.4g} "
      f"tail_bound={split.tail_bound:.4g}")
print("inside holds at least half the mass:", split.meets_half)
print("tail inequality holds:", split.tail_ok)

# the minimal exponent making the tail small: (1-eta^2/2)^{k-1} <= 1/(2k^d)
res = find_k(eta=0.5, d=1.0)
print(f"find_k(1/2, 1) = {res.k} (window starts at {res.window_start})")

# and the split at that witness really does concentrate inside the spectrum
res, split = claim_audit(A, eta=0.5, d=1.0)
print(f"claim audit at k={res.k}: meets_half={split.meets_half}")
