"""Inverse identification of cohesive zone parameters from a response curve.

A "measured" load-CMOD curve is produced by the forward model at
(Tc, Gamma_c) = (237 MPa, 47 N/mm) — a point that is not in the initial
surrogate training design — and the surrogate-assisted loop is asked to
recover it inside the box Tc in [100, 300], Gamma_c in [20, 100].
"""

from fempost.czm import (
    TSLParams,
    cohesive_energy,
    delta_from,
    forward_model,
    inverse_identify,
)

true = TSLParams(Tc=237.0, Gamma_c=47.0)
target = forward_model(true)
print(f"target generated at Tc={true.Tc} MPa, Gamma_c={true.Gamma_c} N/mm")
print(f"  peak load {target.load.max():.1f} at CMOD "
      f"{target.cmod[target.load.argmax()]:.2f} mm")

box = ((100.0, 300.0), (20.0, 100.0))
params, history = inverse_identify(target, box)

print(f"\nouter iterations ({len(history)}):")
for it, step in enumerate(history, start=1):
    print(
        f"  iter {it}: candidate (Tc={step.params.Tc:7.2f}, "
        f"Gc={step.params.Gamma_c:6.2f})  mismatch={step.mismatch:.4e}  "
        f"incumbent mismatch={step.incumbent_mismatch:.4e}"
    )

print(f"\nidentified: Tc={params.Tc:.2f} MPa, Gamma_c={params.Gamma_c:.2f} N/mm")

# the separation law is fully determined: Gamma_c = 0.5 * Tc * delta_c
delta_c = delta_from(params.Tc, params.Gamma_c)
print(f"characteristic separation delta_c = {delta_c:.4f} mm "
      f"(energy check: {cohesive_energy(params.Tc, delta_c):.2f} N/mm)")
