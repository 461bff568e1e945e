"""
Walsh matrices by block doubling
================================

The order-2 seed [[1, 1], [1, -1]] doubles into [[H, H], [H, -H]] at every
step.  Every matrix built this way is a Hadamard matrix: its rows are
pairwise orthogonal, so M times its transpose is the order times the
identity.
"""

from minkgeom import is_hadamard, walsh_matrix

for k in (1, 2, 3):
    M = walsh_matrix(k)
    print(f"order {len(M)}:")
    for row in M:
        print("   ", " ".join(f"{x:+d}" for x in row))
    print()

# The defining identity, checked in exact integer arithmetic.
M = walsh_matrix(3)
P = [[sum(a * b for a, b in zip(r, s)) for s in M] for r in M]
print("M * M^T for order 8 has diagonal", P[0][0], "and off-diagonal", P[0][1])
print("is_hadamard:", is_hadamard(M))

# The identity survives every doubling.
for k in range(1, 7):
    assert is_hadamard(walsh_matrix(k))
print("orders 2 .. 64 all verified")
