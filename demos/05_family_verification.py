"""Verifying closed-form family formulas against brute force.

Each parametric family carries closed forms for the complement's distance
vector, spectral radius, forwarding values, and all seventeen indices. The
verifier recomputes everything from BFS and records field-by-field
agreement; parameters outside a formula's effective domain are flagged
rather than asserted, so the sweep also documents exactly where the
formulas stop applying.
"""

from circan import (
    DomainStatus,
    double_loop_gen_points,
    double_loop_half_points,
    multiplicative_point,
    multiplicative_points,
    records_to_csv,
    verify_point,
    verify_sweep,
)

# --- one point in detail ------------------------------------------------------
record = verify_point(multiplicative_point(2, 4))
print("point:", record.point.label())
for name in ("distance_vector", "rho", "spectral_max", "rs", "xi", "xi_witness", "t_az"):
    check = record.fields[name]
    print(f"  {name:16} match={check.match}  predicted={check.predicted}  computed={check.computed}")

# --- a sweep with a built-in exception ----------------------------------------
records = verify_sweep(double_loop_gen_points(8, 30))
print(f"\ndouble loops n=8..30: {len(records)} points,",
      f"{sum(r.passed for r in records)} passed")
for r in records:
    if r.domain_status is not DomainStatus.IN_DOMAIN:
        print(f"  flagged ({r.point.n},{r.point.a}): {r.domain_status.value} -- {r.note}")

# --- adversarial boundary points ----------------------------------------------
records = verify_sweep(double_loop_half_points(2, 6))
print("\nhalf-jump family around its domain boundary:")
for r in records:
    print(f"  k={r.point.a}: {r.domain_status.value}" + (f" ({r.note})" if r.note else ""))

# --- the multiplicative class up to order 512 ----------------------------------
records = verify_sweep(multiplicative_points(512))
in_domain = sum(1 for r in records if r.domain_status is DomainStatus.IN_DOMAIN)
print(f"\nmultiplicative circulants m^h <= 512: {len(records)} points, "
      f"{in_domain} verified in-domain, failures: {any(not r.passed for r in records)}")

# --- machine-readable reports ---------------------------------------------------
csv_text = records_to_csv(records[:4])
print("\nCSV export (first lines):")
for line in csv_text.splitlines()[:3]:
    print(" ", line[:120] + ("..." if len(line) > 120 else ""))
