"""Error decay and tractability diagnostics.

Two regimes are contrasted.  With weights growing to infinity (a_j = j) the
information-complexity ratio log N(eps, d) / (d + log(1/eps)) drifts to
zero as d grows, the signature of weak tractability in the exponential
setting.  With constant weights it stays bounded away from zero.  Along
rising primes, the minimal error decays faster than any power of 1/N.
"""

from korobov import (
    WeightFamily,
    WeightModel,
    alg_classify,
    convergence_study,
    empirical_info_complexity,
    info_complexity_bound,
    is_prime,
    minkowski_start,
    wt_ratio_trace,
)

growing = WeightModel(omega=0.5, a=WeightFamily("linear", 1.0), b=WeightFamily("constant", 1.0))
constant = WeightModel(omega=0.5, a=WeightFamily("constant", 1.0), b=WeightFamily("constant", 1.0))

# Super-polynomial decay: N^4 e(N) rises briefly, then collapses.
primes = [p for p in range(2, 120) if is_prime(p)]
rows = convergence_study(1, growing, primes)
print("N, e(N), N^4 e(N):")
for r in rows[::3]:
    print(f"  {r['n']:4d}  {r['e']:.3e}  {r['n4_e']:.3e}")

# Bound-source ratio trace: decreasing in d for growing weights...
trace = wt_ratio_trace([4, 8, 16, 32, 64], [1e-3], growing, source="bound")
print("\ngrowing weights, ratio log N / (d + log(1/eps)):")
for rec in trace.records:
    print(f"  d={rec.d:3d}  ratio={rec.ratio:.4f}")

# ...but floored for constant weights (the product term grows geometrically).
trace_c = wt_ratio_trace([4, 8, 16, 32, 64], [1e-3], constant, source="bound")
print("constant weights:")
for rec in trace_c.records:
    print(f"  d={rec.d:3d}  ratio={rec.ratio:.4f}")

# Empirical information complexity (smallest feasible prime) sits between
# the Minkowski start, up to which no rank-1 rule is feasible, and the
# closed-form bound.  One ascending scan over the primes above the starts
# answers both eps.
eps_list = [0.5, 0.2]
for eps, n_emp in zip(eps_list, empirical_info_complexity(eps_list, 2, growing)):
    n_bnd, lam = info_complexity_bound(eps, 2, growing, "korobov")
    start = minkowski_start(eps, 2, growing)
    print(f"\neps={eps}: Minkowski start = {start}, empirical N = {n_emp}, "
          f"bound = {n_bnd} (lambda* = {lam:.4f})")

# Algebraic-notion classification from the weight growth.
report = alg_classify(growing, d_max=256)
print("\ngrowing-weight classification:")
print("  a_j / log j ->", report["a_log_limit"])
print("  eps-exponent bound:", report["spt_eps_exponent_bound"])
print("  S_1(d) growth:", report["growth"]["empirical_class"], "/", report["growth"]["closed_form_class"])
print("  tractability class:", report["growth"]["alg_tractability_class"])
