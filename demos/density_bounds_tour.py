"""Two-sided density bounds on concrete punctured domains.

For each puncture a, the scaled density |z-a| rho(z) is sandwiched
between h(m) and pi/(4m), where m measures how far log|z-a| sits from
the log-distances of the other punctures.  On the twice-punctured
plane the exact density is known on the negative axis, so the bracket
can be watched closing around the truth.
"""

from punctmetric import PuncturedDomain, lambda01_neg, rho_bounds, sigma_lower

dom01 = PuncturedDomain((0.0, 1.0))

print("C \\ {0,1} on the negative axis: bracket vs exact")
print(f"{'x':>6} {'lower':>12} {'exact':>12} {'upper':>12} {'width':>9}")
for x in (0.1, 0.5, 1.0, 2.0, 10.0):
    rb = rho_bounds(dom01, -x)
    exact = lambda01_neg(x)
    print(f"{x:6.2f} {rb.lower:12.8f} {exact:12.8f} {rb.upper:12.8f} "
          f"{rb.upper - rb.lower:9.2e}")
print()

# off the axis there is no closed form; the pair bound sigma still
# gives a certified floor, and rho_bounds a ceiling.  The two floor
# columns are one number: the best pair density is exactly the best
# h(m)/|z-a| over punctures, so sigma_lower reads rho's lower end.
dom3 = PuncturedDomain((0.0, 1.0, 1.0j))
print("C \\ {0,1,i}: certified floor and ceiling")
print(f"{'z':>12} {'sigma_lower':>12} {'rho lower':>12} {'rho upper':>12}")
for z in (-1.0, 3.0 + 2.0j, 10.0, 0.5 - 0.5j):
    rb = rho_bounds(dom3, z)
    print(f"{str(z):>12} {sigma_lower(dom3, z):12.8f} "
          f"{rb.lower:12.8f} {rb.upper:12.8f}")
print()

# the ceiling degenerates where z lies on a critical circle of every
# puncture; the floor never does
z = complex(0.5, 0.75 ** 0.5)
rb = rho_bounds(dom01, z)
print(f"at z = {z} (unit distance from both punctures):")
print(f"  lower = {rb.lower:.8f}, upper = {rb.upper}")
