"""Greedy covering certificates: Ruzsa separation and Chang dissociation.

Both greedies scan candidates in canonical index order and return
certificates whose containments are verified exhaustively, so a run is a
proof for its instance.
"""

from addcomb import FinAbGroup, GroupSet, chang_cover, ruzsa_cover

g = FinAbGroup([32])
B = GroupSet.interval(g, 2)

# Ruzsa: a maximal B-separated subset T of 2B-2B covers it by T + B - B
cert = ruzsa_cover(B)
print("Ruzsa T:", [t.index for t in cert.T])
print("2B-2B covered:", cert.containment_verified)
print("doubling exponent:", round(cert.parameters["doubling_k"], 4))

# Chang: under mu(kB + B') < 2^k mu(B'), a k-element dissociated set covers B
g2 = FinAbGroup([256])
B2 = GroupSet.from_indices(g2, [0, 40, 80, 120, 160])
Bp2 = GroupSet.interval(g2, 4)
cert2, _, _ = chang_cover(B2, Bp2, k=6)
print("Chang T:", [t.index for t in cert2.T])
print("precondition held:", cert2.parameters["precondition_held"])
print("B inside Prog(T,1) + B'-B':", cert2.containment_verified)
print("|T| <= k:", cert2.size_bound_verified)
