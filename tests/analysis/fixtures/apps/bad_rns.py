"""Seeded rns-kernel dispatch violations (linted, never imported).

Lives under ``apps/`` — above mpn, where the residue-number-system
mul kernels may only be reached through the dispatchers'
``backend="rns"`` resolution, a lowered rns plan, or the
accelerator's batch entry point.  Calling them by name here must trip
RPR012 exactly like calling the limb or packed kernels does.
"""

from repro.mpn.rns import mul_batch_rns, mul_rns


def sneaky_rns_mul(a, b):                          # RPR012
    return mul_rns(a, b)


def sneaky_rns_batch(pairs):                       # RPR012
    return mul_batch_rns(pairs)
