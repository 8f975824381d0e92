"""Set arithmetic: sumsets, iterated sumsets, progressions, growth profiles.

The carrier is a dense bit vector per set, so sumsets stay exact whether
they run through the translate loop or the FFT route.
"""

from addcomb import (FinAbGroup, GroupSet, Multiples, growth_profile, iterate, negate,
                     prog, sumset)

g = FinAbGroup([64])
A = GroupSet.interval(g, 1)  # {-1, 0, 1}, wrapping around 0

print("A:", sorted(A.indices()))
print("A + A:", sorted(sumset(A, A).indices()))
print("-A == A (symmetric):", negate(A) == A)

# iterated sumsets grow linearly for an interval: mu(nA) = 2n + 1 until wrap
for n in (1, 2, 4, 8, 16, 32, 64):
    print(f"mu({n}A) = {iterate(n, A).measure}")

# a two-generator progression: all +-1/0 combinations of 5 and 11
P = prog([g.element(5), g.element(11)], 1)
print("Prog({5,11}, 1):", sorted(P.indices()))

# the growth profile checks mu(nA) <= n^d mu(A) row by row
prof = growth_profile(Multiples(A), d=1.0, n_max=10)
for row in prof.rows:
    mark = "ok" if row.satisfied else "VIOLATED"
    print(f"n={row.n:2d}  mu={row.mu_nA:3d}  bound={row.bound:6.1f}  {mark}")
print("hypothesis satisfied on the window:", prof.satisfied_on_window)

# a scattered set grows too fast for d = 1
B = GroupSet.from_indices(g, [0, 1, 5, 23, 40])
print("scattered set satisfies d=1:",
      growth_profile(Multiples(B), d=1.0, n_max=4).satisfied_on_window)
