#!/usr/bin/env python3
"""Fields on the torus: building blocks, norms, projections, cubic integrals.

Every field is mean-zero and real by construction; amplitudes are stored for
positive frequencies only, normalised against the orthonormal basis
c_n = cos(nx)/sqrt(pi), s_n = sin(nx)/sqrt(pi).
"""

import numpy as np

from kdvlab import (
    cosine_mode,
    evaluate,
    hamiltonian,
    integral_u3,
    linf_norm,
    project,
    sine_mode,
    sobolev_norm,
)

print("== basis fields ==")
c1, c2, s3 = cosine_mode(1), cosine_mode(2), sine_mode(3)
print(f"|c_1|_L2      = {sobolev_norm(c1, 0.0):.12f}   (orthonormal basis)")
print(f"|s_3|_H^0.5   = {sobolev_norm(s3, 0.5):.12f}   (weight 3^0.5)")
print(f"max |c_1|     = {linf_norm(c1):.12f}   (= 1/sqrt(pi))")

print("\n== a combined field u = c_1 + c_2 ==")
u = c1 + c2
print(f"max |u|                  = {linf_norm(u):.12f}  (= 2/sqrt(pi), at x = 0)")
print(f"integral of u^3 (modes)  = {integral_u3(u):.12f}")
print(f"closed form 3/(2 sqrt(pi)) = {3 / (2 * np.sqrt(np.pi)):.12f}")
print(f"energy H(u)              = {hamiltonian(u):.12f}")
print(f"closed form 2.5 - 1/(4 sqrt(pi)) = {2.5 - 1 / (4 * np.sqrt(np.pi)):.12f}")

print("\n== projections ==")
for n_keep in (0, 1, 2):
    print(f"|P_{n_keep} u|_L2 = {sobolev_norm(project(u, n_keep), 0.0):.6f}")

print("\n== grid reconstruction is real ==")
vals = evaluate(u, 64)
print(f"dtype {vals.dtype}, min {vals.min():+.4f}, max {vals.max():+.4f}")
