"""The scalar rules, kept in the tests as the oracle for
`_PrimePowerArrays.rows`: a Python complex product of one engine's local
values over the ideal's factors, with no table and no padding.  A
gl1_exact engine's local values come from the product character itself,
built by `multiply` and `primitive_part` and evaluated prime by prime."""

import math

from lfunclab.characters import conjugate, multiply, primitive_part


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
        local = engine._compute
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
