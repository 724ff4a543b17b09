"""From a 4-by-2 frame to minor coordinates, spheres, and sector angles.

The six 2-by-2 row minors of a frame satisfy one quadratic relation and
one normalization; a linear change of variables turns that pair into two
unit spheres, and each coordinate pair admits a radius/angle form in
which the key quadratic becomes (3/4) R^2.
"""
import math

import numpy as np

from goodsub import (
    elliptic_params,
    eq3_sums,
    eval_system,
    extremal_matrix,
    from_elliptic,
    from_transformed,
    invariant_residuals,
    nonnegative_representative,
    pluecker4x2,
    to_transformed,
)
from goodsub.pluecker import DEFAULT_FORM_BOUND

# 1. Minors of the attaining frame.  The relation and normalization hold
#    to machine precision for any genuine frame.
frame = extremal_matrix()
p = pluecker4x2(frame)
rel, norm = invariant_residuals(p)
print("minor vector:", [f"{v:+.6f}" for v in p.as_tuple()])
print(f"quadric residual {rel:.1e}, norm residual {norm:.1e}")

# 2. Sum/difference variables: two unit spheres.
v = to_transformed(p)
s1 = v.x1**2 + v.y1**2 + v.z1**2
s2 = v.x2**2 + v.y2**2 + v.z2**2
print()
print("transformed:", [f"{t:+.6f}" for t in v.as_tuple()])
print(f"sphere sums: {s1:.15f}, {s2:.15f}")

# 3. The six quadratic forms a^2 +/- ab + b^2, one +/- pair per
#    coordinate pair.  For the attaining frame five of them sit exactly
#    at the sharp constant 3/4.
report = eval_system(v)
print()
print("form values:", [f"{q:.4f}" for q in report.qform_values])
print(f"bound {DEFAULT_FORM_BOUND}, satisfied: {report.satisfied}")

# 4. Radius/angle form of each nonnegative pair: a = R sin(t + pi/3),
#    b = R sin(t - pi/3).  The attaining frame has unit radii and sector
#    angles (pi/2, pi/3, 2pi/3), and a^2 + ab + b^2 = (3/4) R^2 makes the
#    forms' 3/4 equalities the same thing as R = 1.
w = nonnegative_representative(v)
params = elliptic_params(w)
print()
print("radii :", [f"{r:.9f}" for r in params.radii()])
print("angles:", [f"{t:.9f}" for t in params.angles()])
print("pi/2, pi/3, 2pi/3 =", f"{math.pi/2:.9f}, {math.pi/3:.9f}, {2*math.pi/3:.9f}")

# 5. The parametrization inverts cleanly.
w2 = from_elliptic(params)
roundtrip = max(abs(a - b) for a, b in zip(w.as_tuple(), w2.as_tuple()))
print(f"roundtrip error: {roundtrip:.1e}")
back = from_transformed(v)
print(f"minor roundtrip: {max(abs(a-b) for a, b in zip(back.as_tuple(), p.as_tuple())):.1e}")

# 6. The squared-sine sums of the sector angles: the attaining angles are
#    the contact configuration where both sums equal 1 simultaneously.
sp, sm = eq3_sums(*params.angles())
print()
print(f"squared-sine sums at the attaining angles: {float(sp):.12f}, {float(sm):.12f}")

# 7. Off the contact configuration the sums move apart.
xs = np.linspace(math.pi / 3, 2 * math.pi / 3, 5)
print("sweep of the first angle, others fixed:")
for x in xs:
    sp, sm = eq3_sums(float(x), math.pi / 3, 2 * math.pi / 3)
    print(f"  x = {float(x):.4f}: plus {float(sp):.4f}  minus {float(sm):.4f}")
