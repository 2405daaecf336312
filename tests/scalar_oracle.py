"""The scalar rules, kept in the tests as the oracle for
`_PrimePowerArrays.rows`: a Python complex product of one engine's local
values over the ideal's factors, with no table and no padding.  A product
engine's local value is computed on its own, one prime power at a time,
from the members' parameters (`product_local`).  A gl1_exact engine's
local values come from the product character itself, built by `multiply`
and `primitive_part` and evaluated prime by prime.

`own_local` keeps the rule a member's own series had before it became the
member's pair with the trivial member: h_e, (-1)^e e_e or the power sum of
the member's parameters alone."""

import math

import numpy as np

from lfunclab.characters import conjugate, multiply, primitive_part
from lfunclab.coeffs import hom_sym_values, poly_from_roots, power_sum, rankin_selberg_local
from lfunclab.ideals import prime_ideal


def local_lambda(params, k: int) -> complex:
    """Complete homogeneous symmetric polynomial h_k of the parameters."""
    if k == 0:
        return 1 + 0j
    return complex(hom_sym_values(params.alphas, k)[k])


def own_local(member, kind: str, pid, e: int) -> complex:
    """The member's own value at p^e: h_e, (-1)^e e_e or the power sum (times
    log Np for biglambda, over e for logl), in Python's complex arithmetic."""
    if e == 0:
        return 1 + 0j
    prime = prime_ideal(member.field, pid)
    pa = member.local_at(prime)
    if kind == "lambda":
        return local_lambda(pa, e)
    if kind == "mu":
        c = poly_from_roots(pa.alphas)
        return complex(c[e]) if e < len(c) else 0j
    ps = power_sum(pa.alphas, e)
    if kind == "biglambda":
        return ps * math.log(prime.norm)
    return ps / e


def own_row(member, kind: str, ideals) -> list[complex]:
    """The member's own coefficients at the ideals, by own_local."""
    local = lambda pid, e: own_local(member, kind, pid, e)
    return [product_over_factors(local, kind, ideal) for ideal in ideals]


def product_local(engine, pid, e: int) -> complex:
    """The product model's value at p^e for one engine: the pair's Cauchy sum,
    np.convolve product polynomial or product of power sums."""
    if e == 0:
        return 1 + 0j
    kind = engine.kind
    prime = prime_ideal(engine.a.field, pid)
    pa = engine.a.local_at(prime)
    pb = engine.b.local_at(prime)
    if kind == "lambda":
        return rankin_selberg_local(pa, pb, e)
    if kind == "mu":
        prod_poly = np.ones(1, dtype=np.complex128)
        for x in pa.alphas:
            for y in pb.alphas:
                prod_poly = np.convolve(prod_poly, [1.0, -x * np.conj(y)])
        return complex(prod_poly[e]) if e < len(prod_poly) else 0j
    ps = power_sum(pa.alphas, e) * np.conj(power_sum(pb.alphas, e))
    if kind == "biglambda":
        return complex(ps * math.log(prime.norm))
    return complex(ps / e)


def product_character(engine):
    """The primitive character inducing chi_a * conj(chi_b) of a gl1_exact engine."""
    return primitive_part(multiply(engine.a.character, conjugate(engine.b.character)))


def gl1_local(psi, kind: str, pid, e: int) -> complex:
    """psi(p)^e times the kind's factor: the GL1 model's local value at p^e."""
    p = pid[0]
    v = psi.value(p)
    if kind == "lambda":
        return v**e
    if kind == "mu":
        return -v if e == 1 else 0j
    if kind == "biglambda":
        return v**e * math.log(p)
    return v**e / e  # logl


def scalar_coefficient(engine, ideal) -> complex:
    """The engine's coefficient at the ideal."""
    return scalar_row(engine, [ideal])[0]


def scalar_row(engine, ideals) -> list[complex]:
    """The engine's coefficients at the ideals, a gl1_exact engine's product
    character built once.

    biglambda and logl vanish off prime powers (the unit ideal included);
    a product that reaches zero stays 0j.
    """
    if engine.model == "gl1_exact":
        psi = product_character(engine)
        local = lambda pid, e: gl1_local(psi, engine.kind, pid, e)
    else:
        local = lambda pid, e: product_local(engine, pid, e)
    return [product_over_factors(local, engine.kind, ideal) for ideal in ideals]


def product_over_factors(local, kind: str, ideal) -> complex:
    if kind in ("biglambda", "logl") and len(ideal.factors) != 1:
        return 0j
    acc = 1 + 0j
    for pid, e in ideal.factors:
        acc *= local(pid, e)
        if acc == 0:
            return 0j
    return acc
