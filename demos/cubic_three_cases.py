"""
Root finding as a walk over multiplicity shapes
===============================================

Instead of hunting scalar roots one by one, pose each candidate shape
(one triple root, a double and a simple, three simple roots, ...) as a
square system on the coefficients and let a damped Gauss-Newton solver
accept or reject the whole shape.  The first shape that fits, checked
against an independent bisection oracle, is the answer.
"""

from tilelab import (
    enumerate_patterns,
    eval_horner,
    find_roots_report,
    format_poly_text,
    max_norm,
    mul,
    norm_claim_check,
    oracle_real_roots,
    parse_poly_text,
)

# a cubic with irrational coefficients and three real roots
p = parse_poly_text("pi/2, -pi^2, 0, 2")
print("target:", format_poly_text(p))

print("\nshapes tried for a real cubic, most merged first:")
for pattern in enumerate_patterns(3, "real"):
    print(" ", pattern.label())

# the walk rejects the merged shapes and accepts three simple roots
rep = find_roots_report(p)
print("\ncase history:")
for o in rep.outcomes:
    print(f"  {o.pattern.label()}: {o.status}" +
          (f" ({o.reason})" if o.reason else ""))
print("accepted case:", rep.case.label())
for value, m, residual in rep.roots.roots:
    print(f"  root {complex(value).real:+.10f}  mult {m}  |p(r)| = {residual:.2e}")

# an independent check: sign changes in a Sturm chain isolate the same
# three roots without ever running the shape solver
oracle = oracle_real_roots(p)
print("\nbisection oracle finds:", [round(float(v), 10) for v in oracle.values()])

# shapes with no real part fall through to pure even cofactors
q = parse_poly_text("1, 0, 1")
print("\nx^2 + 1 over the reals:", find_roots_report(q).roots.to_json())
print("x^2 + 1 over the complexes:",
      [v for v, _, _ in find_roots_report(q, mode="complex").roots.roots])

# a repeated root shows up as a collision: the all-simple shape welds
# two of its roots together and the walk re-dispatches the merged shape
r = parse_poly_text("2, -5, 4, -1")  # (1 - x)^2 (2 - x) * -1
rep = find_roots_report(r, order="generic")
print("\n(x-1)^2(x-2) walked simple-shapes-first lands on:", rep.case.label())

# the max-norm coda: coefficient size is not multiplicative, merely
# submultiplicative up to the degree factor
a = parse_poly_text("1, 1")
chk = norm_claim_check(a, a)
print("\n|(1+x)^2| =", chk.lhs, "but |1+x| * |1+x| =", chk.rhs,
      "so multiplicativity", "holds" if chk.holds else "fails")
print("product norm stays under (1+deg) * product of norms:",
      max_norm(mul(a, a)) <= 2 * max_norm(a) * max_norm(a))
