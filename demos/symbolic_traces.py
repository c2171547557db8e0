"""Trace optimizers with polynomial-valued iterates.

Oracle answers are exact rational polynomials in the instance parameters,
so "degree <= number of oracle calls" is checked as an identity, not a
numeric approximation.  The printed GD iterates are the familiar truncated
geometric series in eta.
"""

from lblab import make_optimizer, trace_gd_toy, trace_oblivious
from lblab.polynomials import poly_to_json

L = 4

print("scalar GD iterates w_k(eta), step 1/L, L = 4:")
for k in range(5):
    p = trace_gd_toy(k, L)
    terms = " + ".join(f"({c})eta^{i}" for i, c in enumerate(p.coeffs))
    print(f"  k={k}: {terms or '0'}")

print("\nSGD on the 8-component family, 10 oracle calls, 3 seeds:")
sched = make_optimizer("sgd", L=100.0, mu=1.0)
for seed in range(3):
    vec = trace_oblivious(sched, "fsm", 10, seed=seed, n=8, d=4,
                          L=100.0, mu=1.0, R=1.0)
    print(f"  seed {seed}: max total degree {vec.max_total_degree()} (budget 10)")

print("\nfirst coordinate of the seed-0 trace as JSON:")
vec = trace_oblivious(sched, "fsm", 4, seed=0, n=8, d=4, L=100.0, mu=1.0, R=1.0)
print(" ", poly_to_json(vec[0]))
