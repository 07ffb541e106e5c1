#!/usr/bin/env python3
"""The product-space reduction: averaging as projection onto a diagonal.

Averaging two maps on X is the same computation as alternating two maps on
the weighted square (X^2, D): the componentwise pair map U followed by the
metric projection Q onto the diagonal.  Iterating Q o U from a diagonal
start reproduces the averaged iteration exactly, step by step, and best
approximation pairs lift to best pairs between the diagonal and a rectangle.
"""

import math

import cat0feas as cf

e2 = cf.EuclideanSpace(2)
lam = 0.5
cs = cf.ConvexCombinationSpace(e2, lam)

ball = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
half = cf.Halfspace(e2, (-1.0, 0.0), -2.0)

# U acts componentwise; Q collapses a pair to its weighted combination.
u_map = cf.PairMap(cs, cf.ProjectionMap(ball), cf.ProjectionMap(half))
q_map = cf.diagonal_projection(cs)

p = cs.pair(e2.point((0, 3)), e2.point((0, 3)))
print("U maps ((0,3),(0,3)) to", list(u_map(p).payload))
print("Q maps that to        ", list(q_map(u_map(p)).payload))

t_map = cf.averaged_projections(ball, half, lam)
print("averaged map sends (0,3) to", t_map(e2.point((0, 3))).payload)

# The distance from any pair to the diagonal has a closed form.
pair = cs.pair(e2.point((0, 0)), e2.point((2, 0)))
qp = q_map(pair)
print("\ndiagonal-projection identity:")
print("  D(p, Qp)^2          =", cs.distance(pair, qp) ** 2)
print("  lam(1-lam) d(x1,x2)^2 =", lam * (1 - lam) * 4.0)

# Step-by-step agreement of the two iterations (they share the arithmetic).
# A trace that reaches an exact fixed point stops there; its constant
# extension stands for the remaining steps.
start = e2.point((5.0, 5.0))
base = cf.picard(t_map, start, 200).points
twin = cf.picard(cf.ComposeMap(q_map, u_map), cf.embed_diagonal(cs, start), 200).points
base += base[-1:] * (201 - len(base))
twin += twin[-1:] * (201 - len(twin))
gaps = cf.reduction_deviations(cs, base, twin)
print("\nreduction identity over 200 steps: max deviation =", max(gaps))

# Fixed points correspond: p on the base side, (p, p) on the product side.
fix = e2.point((1.5, 0.0))
print("base fixed-point residual:   ", cf.fixed_point_residual(t_map, fix))
print("product fixed-point residual:",
      cs.distance(cf.embed_diagonal(cs, fix),
                  q_map(u_map(cf.embed_diagonal(cs, fix)))))
print("extract back:", cf.extract_diagonal(cs, cf.embed_diagonal(cs, fix)).payload)

# Best pairs lift to the diagonal-vs-rectangle picture with a sqrt factor.
a_star, b_star = e2.point((1.0, 0.0)), e2.point((2.0, 0.0))
lifted, pair = cf.lift_best_pair(cs, a_star, b_star)
print("\nlifted best pair realizes sqrt(lam(1-lam)) * d(a*, b*):")
print("  product distance:", cs.distance(lifted, pair))
print("  sqrt(0.25) * 1    =", math.sqrt(lam * (1 - lam)) * 1.0)
print("squared diagonal gap (q):", cf.squared_diagonal_gap(cs, ball, half))
