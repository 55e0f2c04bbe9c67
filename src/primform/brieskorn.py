"""Reduction of polynomial top-forms to canonical classes in the formal
Brieskorn lattice model.

The lattice is Omega^n[[z]] modulo (df + z d)Omega^(n-1)[[z]].  Writing an
(n-1)-form through its contraction coefficients h_i, the quotient relation
reads

    [sum_i h_i d_i(f) d^n x]  =  -z [sum_i d_i(h_i) d^n x],

so a class [g d^n x] reduces to canonical form by repeatedly splitting g
into basis part plus Jacobian-ideal part and pushing the ideal part one z
power up.  Each step lowers the weighted degree by exactly 1, so the
reduction of a polynomial always terminates.  The canonical class of every
monomial is memoized on the MilnorData, which is what makes the deep
perturbative recursion affordable.

A class is held on ints: its numerators over one denominator R, the lcm
of its reduced denominators, as the division by the Jacobian ideal
returns them.
"""

from __future__ import annotations

from math import gcd, lcm

from .milnor import MilnorData


def monomial_class(mono: tuple, data: MilnorData) -> tuple[int, list]:
    """Canonical lattice class of [x^mono d^n x] as (R, [(z_power, index,
    int)]): the class is the sum of int / R * z^z_power phi_index, R > 0 the
    lcm of its reduced denominators."""
    cached = data._reduce_cache.get(mono)
    if cached is not None:
        return cached
    den, basis_part, gen_part = data._divider.solve_monomial(mono)
    # Push -sum_i d_i(quotient_i) to the next z power, over den.
    next_terms: dict = {}
    for (var, qm), qc in gen_part.items():
        e = qm[var]
        if e:
            lowered = list(qm)
            lowered[var] = e - 1
            key = tuple(lowered)
            next_terms[key] = next_terms.get(key, 0) - qc * e
    lower = [(nc, monomial_class(nm, data)) for nm, nc in next_terms.items() if nc]
    scale = den * lcm(*(r for _, (r, _) in lower))
    acc = {(0, data.basis_index(m)): c * (scale // den) for m, c in basis_part.items()}
    for nc, (r, entries) in lower:
        factor = nc * (scale // (den * r))
        for zp, idx, c in entries:
            key = (zp + 1, idx)
            acc[key] = acc.get(key, 0) + factor * c
    g = gcd(scale, *acc.values())
    out = (scale // g, [(zp, idx, c // g) for (zp, idx), c in acc.items() if c])
    data._reduce_cache[mono] = out
    return out
