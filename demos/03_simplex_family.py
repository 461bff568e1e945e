"""
A family of complete but not reduced simplices
==============================================

Dropping the first column of a Walsh matrix of order 2^n and reading the
rows as points gives a regular simplex with 2^n vertices in dimension
2^n - 1.  Under the l1 norm each one is diametrically complete, has
thickness exactly 2, and admits a thickness-preserving cut, while the
thickness-to-diameter ratio 2^(1-n) shrinks geometrically: completeness
does not force the proportions of a constant-width body.
"""

from minkgeom import verify_proposition, walsh_simplex

print("n  dim  vertices  diameter  thickness  ratio  complete  witness")
for n in (2, 3):
    rep = verify_proposition(n)
    S = walsh_simplex(n)
    print(
        f"{n}  {rep.dim:3d}  {len(S.vertices):8d}  {str(rep.diameter):>8s}"
        f"  {str(rep.thickness):>9s}  {str(rep.ratio):>5s}  {str(rep.complete):>8s}"
        f"  {'valid' if rep.witness and rep.witness.valid else '-'}"
    )

# Dimension 15 is verified through certificates: the inscribed ball gives
# the lower thickness bound, a single width the matching upper bound, and
# the completeness decision is skipped since the ball hull there has 2^15
# facets.
rep = verify_proposition(4)
print(
    f"4  {rep.dim:3d}  {2**4:8d}  {str(rep.diameter):>8s}  {str(rep.thickness):>9s}"
    f"  {str(rep.ratio):>5s}  {'n/a':>8s}  {'valid' if rep.witness.valid else '-'}"
)
print()
print("n=4 thickness bounds (lower, upper):", rep.thickness_bounds)
for item in rep.items:
    print(f"  [{'pass' if item.passed else 'FAIL'}] {item.name}: {item.computed}")
