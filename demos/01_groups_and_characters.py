"""Groups, elements, characters, and their exact phases.

Every group here is an explicit product of cycles Z_{n1} x ... x Z_{nk}.
Elements and characters share one mixed-radix index space (the group is
self-dual), and character phases are exact rationals over
M = lcm(n_1..n_k), so nothing below depends on floating-point luck.
"""

from addcomb import FinAbGroup

# a cyclic group and a product group
g = FinAbGroup([12])
h = FinAbGroup([4, 3])
print("groups:", g, "order", g.order, "|", h, "order", h.order)

# elements add componentwise mod the cycle lengths
x = h.element((3, 1))
y = h.element((1, 2))
print(f"{x.coords} + {y.coords} = {(x + y).coords}")
print(f"-{x.coords} = {(-x).coords}")

# characters are indexed the same way; chi_m(x) = exp(2 pi i sum m_j x_j / n_j),
# whose phase is the exact fraction phase_numerator(m, x) / M
M = h.phase_denominator
chi = h.character((1, 1))


def phase(m, z):
    return h.phase_numerator(m.index, z.index)


print(f"phase of chi at x = {phase(chi, x)}/{M}")

# the homomorphism law chi(x + y) = chi(x) chi(y): phases add mod M
assert phase(chi, x + y) == (phase(chi, x) + phase(chi, y)) % M

# the circle norm ||chi_m(1)|| is the distance of the phase to the nearest integer
for m in (0, 1, 6, 11):
    num = g.phase_numerator(m, 1)
    print(f"chi_{m}(1): phase {num}/{g.phase_denominator}, "
          f"||chi_{m}(1)|| = {min(num, g.phase_denominator - num)}/{g.phase_denominator}")

# the dual group law: adding character indices multiplies the characters
m1, m2 = h.character((1, 0)), h.character((0, 2))
assert phase(m1 + m2, x) == (phase(m1, x) + phase(m2, x)) % M
print("dual group law holds")
