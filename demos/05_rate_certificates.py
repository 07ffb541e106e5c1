#!/usr/bin/env python3
"""Uniform convergence rates and their certification against real traces.

The rates are fully explicit.  With k = ceil(2b / eps), a Picard iteration of
an averaged pair of quadratically firmly nonexpansive maps started within b
of a fixed point satisfies d(x_n, x_{n+1}) <= eps for every

    n >= k * ceil(2b (1 + 2^k) / eps) + 1,

and for averaged projections the projection gap is within eps of the set
distance once n >= floor(64 M^2 b / (eps^4 lam (1-lam))) + 2.  The bounds are
uniform (no dependence on the particular space) and grow fast as eps shrinks;
observed convergence is typically far faster, which the certificates record
through observed_first_n.
"""

import cat0feas as cf

print("rate formula values:")
for b, eps in [(1, 1), (1, 0.5), (1, 0.1), (3.5, 0.01)]:
    value = cf.asymptotic_regularity_rate(b, eps)
    shown = value if value < 10**9 else f"~10^{len(str(value)) - 1}"
    print(f"  regularity rate  b={b:<4} eps={eps:<5} -> {shown}")
for m, b, eps, lam in [(1, 1, 1, 0.5), (1, 1, 0.5, 0.5), (1, 1, 1, 0.25)]:
    print(
        f"  projection-gap rate M={m} b={b} eps={eps:<5} lam={lam:<5} ->",
        cf.averaged_projection_gap_rate(m, b, eps, lam),
    )

# Certify a concrete run: two parallel lines, averaged projections.
e2 = cf.EuclideanSpace(2)
a = cf.AffineSubspace(e2, (0.0, 0.0), ((1.0, 0.0),))
b_set = cf.AffineSubspace(e2, (0.0, 1.0), ((1.0, 0.0),))
t_map = cf.averaged_projections(a, b_set, 0.5)
start = e2.point((0.0, 4.0))
trace = cf.picard(t_map, start, 2000)

print("\nline/line trace: residuals", trace.residuals[:3],
      "stationary from step", trace.stationary_from)

b_val = 3.5  # distance from the start to the nearest fixed point
print(f"certificates with b = {b_val}:")
for cert in cf.certify_asymptotic_regularity(trace, b_val, [1, 0.5, 0.1, 0.01]):
    bound = cert.bound_n if cert.bound_n < 10**9 else f"~10^{len(str(cert.bound_n)) - 1}"
    print(
        f"  eps={cert.epsilon:<5} bound n >= {bound:<12} "
        f"first observed at n={cert.observed_first_n}  -> {cert.status}"
    )

# The projection-gap certificate on the ball/halfplane instance.
ball = cf.EuclideanBall(e2, (0.0, 0.0), 1.0)
half = cf.Halfspace(e2, (-1.0, 0.0), -2.0)
start = e2.point((5.0, 5.0))
trace = cf.picard(cf.averaged_projections(ball, half, 0.5), start, 20_000)
gaps = [e2.distance(ball.project(x), half.project(x)) for x in trace.points]
m_val = e2.distance(start, e2.point((1.5, 0.0)))
print("\nball/halfplane projection-gap certificates (r = 1):")
for cert in cf.certify_best_approx_rate(
    trace, gaps, m_val, gaps[0] ** 2, 1.0, [1, 0.5, 0.25], 0.5
):
    print(
        f"  eps={cert.epsilon:<5} bound n >= {cert.bound_n:<10} "
        f"first observed at n={cert.observed_first_n}  -> {cert.status}"
    )
print("(bounds dwarf the horizon; the exact stationary tail decides them)")
