"""Export the boundary surfaces of the squared-sine consistency system.

Over the angle cube [pi/3, 2pi/3]^3 the two equations
sin^2(x +/- pi/3) + sin^2(y +/- pi/3) + sin^2(z +/- pi/3) = 1 each carve
out a surface; the surfaces touch exactly at the six permutations of
(pi/2, pi/3, 2pi/3), the contact configurations of the sharpness
argument.  This writes plot-ready CSV and summarizes it.
"""
import math
from collections import Counter

from goodsub import figure_eq3_data

# 1. Generate at moderate resolution.  Each row is surface,x,y,z with one
#    closed-form z (an arcsine) per grid (x, y) that admits a root.
text = figure_eq3_data(61)
lines = text.splitlines()
print(f"header: {lines[0]}")
counts = Counter(line.split(",")[0] for line in lines[1:])
print(f"rows  : {dict(counts)}")

# 2. Every emitted point satisfies its equation to ~1e-9 or better.
third = math.pi / 3
worst = 0.0
for line in lines[1:]:
    surface, xs, ys, zs = line.split(",")
    x, y, z = float(xs), float(ys), float(zs)
    signs = {"plus": (1,), "minus": (-1,), "contact": (1, -1)}[surface]
    for s in signs:
        total = (
            math.sin(x + s * third) ** 2
            + math.sin(y + s * third) ** 2
            + math.sin(z + s * third) ** 2
        )
        worst = max(worst, abs(total - 1.0))
print(f"worst |equation - 1|: {worst:.2e}")

# 3. The contact rows.
print("contact points (x, y, z):")
for line in lines[1:]:
    if line.startswith("contact,"):
        _, xs, ys, zs = line.split(",")
        print(f"  ({float(xs):.6f}, {float(ys):.6f}, {float(zs):.6f})")
print(f"pi/3 = {third:.6f}, pi/2 = {math.pi / 2:.6f}, 2pi/3 = {2 * third:.6f}")

# 4. Save for plotting.
with open("eq3_surfaces.csv", "w", encoding="utf-8", newline="\n") as fh:
    fh.write(text)
print("wrote eq3_surfaces.csv")
