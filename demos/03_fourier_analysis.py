"""Exact Fourier analysis of set indicators.

With counting measure on G and counting/|G| on the dual, Parseval and the
convolution theorem are exact identities; indicator convolutions are
integer-valued and snapped back to exact integers after the FFT round trip.
"""

import numpy as np

from addcomb import (FinAbGroup, GroupSet, convolve, moment,
                     moment_lower_bound_audit, parseval_audit, sumset,
                     transform)
from addcomb.oracles import naive_transform

g = FinAbGroup([16])
A = GroupSet.from_indices(g, [15, 0, 1])

# the transform of a symmetric interval is a cosine sum, real and explicit
fhat = transform(A)
print("1_A^ values:", np.round(fhat.values.real, 6))

# fast factor-wise route vs the quadratic definition
naive = naive_transform(A.mask.astype(float), g)
print("fast vs naive max gap:", float(np.abs(fhat.values - naive.values).max()))

# convolution counts representations: supp(1_A * 1_A) is the sumset
conv = convolve(A, A)
print("1_A * 1_A:", conv.astype(int))
assert GroupSet(g, conv >= 0.5) == sumset(A, A)

# Parseval, exactly
audit = parseval_audit(A)
print(f"Parseval: lhs={audit.lhs:.12f} rhs={audit.rhs} gap={audit.gap:.2e}")

# spectral moments against the Cauchy-Schwarz floor mu(A)^{2k} / mu(kA)
for k in (1, 2, 3):
    a = moment_lower_bound_audit(A, k)
    print(f"k={k}: moment={a.moment:10.3f} >= bound={a.bound:10.3f}  holds={a.holds}")
print("moment(A, 2) equals sum of squared convolution values:",
      moment(A, 2), "=", float(np.sum(conv ** 2)))
