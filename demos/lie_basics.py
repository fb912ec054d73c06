#!/usr/bin/env python3
"""Tour of the SO(3)/SE(3) toolbox: exponential and logarithmic maps,
rigid transforms, and adjoints.

Run: python demos/lie_basics.py
"""
import numpy as np

from radiopose import lie

np.set_printoptions(precision=4, suppress=True)
rng = np.random.default_rng(42)

print("=== axis-angle <-> rotation matrix ===")
r = np.array([0.0, 0.0, np.pi / 2])
rot = lie.so3_exp(r)
print("quarter turn about z:\n", rot)
print("log recovers the vector:", lie.so3_log(rot))

# round trips stay tight even near the pi shell where naive formulas break
r_tricky = np.array([1.0, -0.3, 0.2])
r_tricky *= (np.pi - 1e-7) / np.linalg.norm(r_tricky)
back = lie.so3_log(lie.so3_exp(r_tricky))
print(f"near-pi round trip error: {np.linalg.norm(back - r_tricky):.2e}")

print("\n=== rigid transforms ===")
# tangent vectors are ordered [rho, r]; poses store the block b = R p
xi = np.array([1.0, 0.5, 0.0, 0.0, 0.0, np.pi / 3])
pose = lie.se3_exp(xi)
print("exp([rho, r]) rotation:\n", pose.rotation)
print("translation block (J_l rho):", pose.translation_block)
print("device position R^T b:     ", pose.position)
print("se3_log round trip error:", np.linalg.norm(lie.se3_log(pose) - xi))

print("\n=== adjoints move tangents across frames ===")
t1 = lie.se3_exp(rng.standard_normal(6))
v = rng.standard_normal(6)
lhs = lie.adjoint(t1) @ v
rhs = lie.se3_vee(t1.matrix() @ lie.se3_hat(v) @ t1.inverse().matrix())
print(f"Ad(T) xi vs vee(T xi^ T^-1): max diff {np.abs(lhs - rhs).max():.2e}")
