"""Numeric Gauss sums over F_q: absolute values, the product relation, the
additive-character expansion, and the Davenport-Hasse relation.

Run with: python demos/gauss_sums.py
"""

from padichyper import build_field, check_orthogonality, gauss_sum
from padichyper.verify import verify_gauss_dh_record, verify_gauss_gk_record, verify_gauss_theta_record

field = build_field(13, 1)
q = field.q

print(f"Gauss sums over F_{q} (complex doubles):")
print(f"  G(trivial) = {gauss_sum(0, field):.6f}  (always -1)")
for m in (1, 2, 6):
    G = gauss_sum(m, field)
    print(f"  m={m}: G = {G:.6f},  |G|^2 = {abs(G)**2:.9f}  (exactly q in theory)")

print("\nExact orthogonality of the character table:", check_orthogonality(field))

print("\nProduct relation G_k G_(-k) = q T^k(-1):")
for k in (1, 3, 6):
    print(f"  k={k}: {verify_gauss_gk_record(13, 1, k).passed}")

print("\nAdditive character through its Gauss-sum expansion:")
for idx in (1, 5, 12):
    print(f"  alpha={idx}: {verify_gauss_theta_record(13, 1, idx).passed}")

print("\nDavenport-Hasse products over the m-torsion characters:")
# q = 49 = 1 mod 2, 3, 6
for m in (2, 3, 6):
    ok = all(verify_gauss_dh_record(7, 2, m, e).passed for e in range(0, 49 - 1, 7))
    print(f"  q=49, m={m}, sampled psi: {ok}")
