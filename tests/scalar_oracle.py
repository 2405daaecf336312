"""The scalar product rule, kept in the tests as the oracle for
`_PrimePowerArrays.rows`: a Python complex product of one engine's local
values over the ideal's factors, with no table and no padding."""


def scalar_coefficient(engine, ideal) -> complex:
    """The engine's coefficient at the ideal.

    biglambda and logl vanish off prime powers (the unit ideal included);
    a product that reaches zero stays 0j.
    """
    if engine.kind in ("biglambda", "logl") and len(ideal.factors) != 1:
        return 0j
    acc = 1 + 0j
    for pid, e in ideal.factors:
        acc *= engine._compute(pid, e)
        if acc == 0:
            return 0j
    return acc
