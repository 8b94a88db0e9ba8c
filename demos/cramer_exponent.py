"""Moment-curve walkthrough: where kappa(s) = E|M|^s crosses one.

The crossing point alpha is the tail exponent of the stationary law
once the standing assumptions hold, and the normalized slope
m_alpha = E M^alpha log M feeds every tail-constant formula later.
This script solves the root for a discrete law and a lognormal
family, compares the Monte Carlo solver against the closed form, and
solves a model with no law of |M| from its theta draws.
"""

import numpy as np

from liprec import cramer, models
from liprec import randomness as rnd
from liprec.randomness import stream

letac_a = rnd.discrete((1.0 / 3.0, 2.0), (0.75, 0.25))
curve = cramer.moments(letac_a)  # closed form: no stream needed
alpha = cramer.solve_cramer(curve, (1.0, 3.0))
m_al, _ = curve.m_alpha(alpha)
print("discrete law A in {1/3, 2} with weights {3/4, 1/4}:")
print(f"  alpha = {alpha:.10f}, m_alpha = {m_al:.10f}")

print("\nkappa(s) along the way (note the log-convex dip below 1):")
for s in np.linspace(0.25, 2.25, 9):
    k, _ = curve(s)
    marker = "<-- root near here" if abs(s - alpha) < 0.25 else ""
    print(f"  s={s:4.2f}  kappa={k:8.5f}  {marker}")

# lognormal(mu, 1): kappa(s) = exp(mu s + s^2/2), so the root is -2 mu
print("\nlognormal(mu, 1) family, closed root alpha = -2 mu:")
for mu in (-0.4, -0.75, -1.0):
    a = cramer.solve_cramer(cramer.moments(rnd.lognormal(mu, 1.0)), (0.1, 5.0))
    print(f"  mu={mu:5.2f}  alpha={a:.6f}  expected {-2 * mu:.6f}")

law = rnd.lognormal(-0.75, 1.0)
mc = cramer.moments(law, "monte_carlo", stream(7, 0, "demo"), 400_000)
a_mc = cramer.solve_cramer(mc, (0.5, 4.0))
m_mc, _ = mc.m_alpha(a_mc)
print(f"\nmonte carlo solve on the same law: alpha = {a_mc:.4f} (closed 1.5)")
print(f"and m_alpha = {m_mc:.4f} (closed 0.75), read from the same |M| sample")
print("common random numbers keep the empirical curve convex, so")
print("bisection is safe even though every kappa evaluation is noisy.")

# arch1 with a ~ normal(0, 1): |M| = |0.1 + a| has no law in the
# algebra, so the curve is one sample of |M| over theta draws
arch1 = models.make_model(
    "arch1", laws={"a": rnd.normal(0.0, 1.0)},
    constants={"gamma": 0.1, "beta": 1.0, "lambda": 1.0},
)
theta_curve = cramer.moment_curve(None, "auto", 11, 200_000, arch1)
a_th = cramer.solve_cramer(theta_curve, (0.5, 4.0))
m_th, _ = theta_curve.m_alpha(a_th)
print("\narch1 with a ~ normal(0, 1) has no law of |M| = |0.1 + a|:")
print(f"  alpha = {a_th:.4f}, m_alpha = {m_th:.4f}, from |M| of theta draws")
