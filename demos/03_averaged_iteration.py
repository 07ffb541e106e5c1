#!/usr/bin/env python3
"""Picard iteration of averaged projections, with recorded diagnostics.

The averaged map (1-lam) P_A + lam P_B sends x to the geodesic point between
its two projections.  When its fixed-point set is nonempty the iteration is
asymptotically regular (step sizes vanish) and converges.  A trace records
the iterates and the step residuals; the distances to a known fixed point and
the projection gaps d(P_A x_n, P_B x_n) are computed from the iterates.
"""

import cat0feas as cf

e2 = cf.EuclideanSpace(2)

# Unit ball and the halfplane x1 >= 2: disjoint sets, best pair ((1,0),(2,0)).
ball = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
half = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
t_map = cf.averaged_projections(ball, half, lam=0.5)

start = e2.point((5.0, 5.0))
trace = cf.picard(t_map, start, n_max=20_000)
fix = e2.point((1.5, 0.0))
to_fix = [e2.distance(x, fix) for x in trace.points]
gaps = [e2.distance(ball.project(x), half.project(x)) for x in trace.points]

print("ball/halfplane averaged iteration from (5, 5):")
print(f"  {'n':>6s} {'residual':>12s} {'dist to fix':>12s} {'proj gap':>10s}")
for n in [0, 1, 2, 5, 10, 50, 200, 1000, len(trace.points) - 2]:
    if n < len(trace.residuals):
        print(
            f"  {n:6d} {trace.residuals[n]:12.3e} "
            f"{to_fix[n]:12.6f} {gaps[n]:10.6f}"
        )

print("  recorded steps:", len(trace.points) - 1)
print("  exact fixed point reached at step:", trace.stationary_from)
print("  final iterate:", trace.points[-1].payload)
print("  final projection gap (the set distance):", gaps[-1])

# The distance to the fixed point never increases (Fejer monotonicity).
drift = max(b - a for a, b in zip(to_fix, to_fix[1:]))
print("  worst one-step increase of the fixed-point distance:", max(drift, 0.0))

# The same machinery runs verbatim on a tree.
tri = cf.tripod()
seg_a = cf.TreeSegment(tri, tri.at(0, 0.5), tri.at(0, 1.0))
seg_b = cf.TreeSegment(tri, tri.at(1, 0.5), tri.at(1, 1.0))
tree_trace = cf.picard(
    cf.averaged_projections(seg_a, seg_b, 0.5), tri.vertex("C"), 100,
)
print("\ntripod averaged iteration from leaf C:")
print("  iterates:", [p.payload for p in tree_trace.points])
print("  the center is reached exactly after one step:",
      tree_trace.points[1] == tri.vertex("O"))
