#!/usr/bin/env python3
"""Convex sets, metric projections, and the nonexpansivity residuals.

Each set kind carries an exact nearest-point map.  Projections
in CAT(0) spaces are firmly nonexpansive and satisfy the quadratic property

    2 d^2(Px, Py) <= d^2(x, Py) + d^2(y, Px) - d^2(x, Px) - d^2(y, Py),

which the checkers below measure as a signed residual (nonpositive = holds),
judged against REL_TOL times the residual's own terms.
"""

import random

import cat0feas as cf
from cat0feas.spaces import REL_TOL

rng = random.Random(1)

e2 = cf.EuclideanSpace(2)
tri = cf.tripod()
disk = cf.PoincareDiskSpace()

# -- closed forms ---------------------------------------------------------------

print("Euclidean closed forms")
halfplane = cf.Halfspace(e2, (1.0, 0.0), 0.0)           # x1 <= 0
ball = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
line = cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),))  # the line y = 1
print("  halfplane:", halfplane.project(e2.point((2, 0))).payload)
print("  ball:     ", ball.project(e2.point((2, 0))).payload)
print("  line:     ", line.project(e2.point((3, 5))).payload)

# -- exact tree projections -----------------------------------------------------

print("\nTree projections (exact path arithmetic)")
seg = cf.TreeSegment(tri, tri.at(0, 0.5), tri.at(0, 1.0))   # outer half of leg A
sub = cf.Subtree(tri, ("O", "A"))                           # the whole A-leg
from_leg_b = tri.at(1, 1.0)
print("  leg B tip -> segment:", seg.project(from_leg_b).payload)
print("  leg B tip -> subtree gate:", sub.project(from_leg_b) == tri.vertex("O"))

# -- disk projections -------------------------------------------------------------

print("\nDisk projections")
dball = cf.DiskBall(disk, complex(0.0, 0.0), 1.0)
dseg = cf.DiskGeodesicSegment(disk, disk.point((-0.3, 0.2)), disk.point((0.4, 0.1)))
far = disk.point((0.9, 0.0))
print("  hyperbolic ball (exact, radial):", dball.project(far).payload)
print("  geodesic segment (1-D search):  ", dseg.project(far).payload)

# -- residual quantiles ------------------------------------------------------------

print(
    "\nQuadratic-property residuals over 500 random pairs (each must be at most"
    f" REL_TOL = {REL_TOL:.1e} times the sum of its five squared-distance terms):"
)
cases = [
    ("halfplane", halfplane), ("ball", ball), ("line", line),
    ("tree segment", seg), ("subtree", sub),
    ("disk ball", dball), ("disk segment", dseg),
]
for label, cset in cases:
    space = cset.space
    proj = cf.ProjectionMap(cset)
    checks = [
        cf.check_p2(proj, space.random_point(rng), space.random_point(rng))
        for _ in range(500)
    ]
    worst = max(c.residual for c in checks)
    print(f"  {label:13s} max residual {worst:+.2e}, all pass: {all(checks)}")

print("\nFirm-nonexpansivity residuals (degree 1: the scale is the two distances compared):")
for label, cset in cases[:3]:
    proj = cf.ProjectionMap(cset)
    checks = [
        cf.check_firmly_nonexpansive(proj, e2.random_point(rng), e2.random_point(rng))
        for _ in range(200)
    ]
    worst = max(c.residual for c in checks)
    print(f"  {label:13s} max residual {worst:+.2e}, all pass: {all(checks)}")
