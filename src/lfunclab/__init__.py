"""lfunclab: coefficient algebra, sieve bounds, and zero-detection
constants for families of L-functions, with every desk-verifiable
identity and inequality wired to a test.

Import the module that holds a name (`lfunclab.coeffs`, `lfunclab.covers`,
...); the package itself imports none of them, so that `lfunclab.cli`
loads only what a subcommand runs.
"""

__version__ = "0.1.0"
