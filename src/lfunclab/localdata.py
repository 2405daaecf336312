"""L-function family construction and local-parameter bookkeeping.

A family member bundles a degree, a conductor ideal, archimedean
parameters, and a rule producing the local parameter multiset at each
prime ideal.  Everything is unitarily normalized at construction: Hecke
eigenvalues are rescaled by p^((weight-1)/2) on ingestion, and synthetic
parameters are drawn on the unit circle unless a violation is planted on
purpose.

Reproducibility: every synthetic draw is a double of numpy's PCG64 stream
seeded by SeedSequence(entropy=seed, spawn_key=(member, p, slot)),
computed bit for bit without numpy.random, so a member's parameters at a
prime do not depend on materialization order, thread timing, platform or
the numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import characters as chars
from .errors import DataIntegrityError, ResourceLimitError, SpecParseError, UsageError
from .ideals import (
    IDEAL_BYTES_CEILING,
    PRIME_SIEVE_CEILING,
    IdealIndex,
    NumberFieldSpec,
    ideal_from_int,
    is_prime,
    prime_ideals_up_to,
    unit_ideal,
)

MAGNITUDE_TOL = 1e-12
CHARACTER_BYTES_CEILING = IDEAL_BYTES_CEILING  # what a family's character tables may hold


def theta_bound(n: int) -> float:
    """Best unconditional exponent toward |alpha| = 1: 1/2 - 1/(n^2+1)."""
    return 0.5 - 1.0 / (n * n + 1)


@dataclass(frozen=True, eq=False)
class LocalParameters:
    prime: IdealIndex
    alphas: tuple[complex, ...]

    def max_abs(self) -> float:
        return max(abs(a) for a in self.alphas)


@dataclass(frozen=True)
class ArchPlace:
    d: int  # 1 real, 2 complex
    mus: tuple[complex, ...]


@dataclass(frozen=True, eq=False)
class ArchimedeanParameters:
    places: tuple[ArchPlace, ...]


class Representation:
    """A family member: local parameter multisets plus conductor data, named
    by its label in reports and errors.  Local parameters are materialized
    lazily, validated once, and cached per prime.
    """

    def __init__(
        self,
        degree: int,
        field: NumberFieldSpec,
        conductor: IdealIndex,
        arch: ArchimedeanParameters,
        local_rule,
        label: str,
        character: chars.DirichletCharacter | None = None,
        theta_hint: float = 0.0,
    ):
        self.degree = degree
        self.field = field
        self.conductor = conductor
        self.arch = arch
        self.character = character
        self.label = label
        self.theta_hint = theta_hint
        self._local_rule = local_rule
        self._locals: dict[tuple[int, int], LocalParameters] = {}

    def __repr__(self):
        return f"Representation({self.label}, n={self.degree})"

    def local_at(self, prime: IdealIndex) -> LocalParameters:
        if len(prime.factors) != 1 or prime.factors[0][1] != 1:
            raise UsageError(f"{prime} is not a prime ideal")
        pid = prime.factors[0][0]
        cached = self._locals.get(pid)
        if cached is not None:
            return cached
        alphas = tuple(complex(a) for a in self._local_rule(prime))
        if len(alphas) != self.degree:
            raise DataIntegrityError(
                f"{self.label}: local rule returned {len(alphas)} parameters, expected {self.degree}"
            )
        params = LocalParameters(prime, alphas)
        validate_local_parameters(self, params)
        self._locals[pid] = params
        return params

    def is_ramified_at(self, prime: IdealIndex) -> bool:
        pid = prime.factors[0][0]
        return any(fp == pid for fp, _ in self.conductor.factors)


def validate_local_parameters(rep: Representation, params: LocalParameters) -> None:
    """Magnitude ceiling everywhere; no zero parameters at unramified primes."""
    cap = params.prime.norm ** theta_bound(rep.degree) * (1 + MAGNITUDE_TOL)
    for a in params.alphas:
        if abs(a) > cap:
            raise DataIntegrityError(
                f"{rep.label}: |alpha| = {abs(a):.6g} exceeds the ceiling "
                f"N(p)^(1/2 - 1/(n^2+1)) = {cap:.6g} at {params.prime}"
            )
    if not rep.is_ramified_at(params.prime):
        zero = sum(1 for a in params.alphas if a == 0)
        if zero:
            raise DataIntegrityError(
                f"{rep.label}: {zero} zero parameters at unramified prime {params.prime}"
            )


@dataclass(frozen=True, eq=False)
class Family:
    field: NumberFieldSpec
    members: tuple[Representation, ...]
    max_conductor: float  # Q: max analytic conductor over members
    label: str = "family"


def make_family(members, label="family") -> Family:
    members = tuple(members)
    if not members:
        raise UsageError("a family needs at least one member")
    field = members[0].field
    if any(m.field != field for m in members):
        raise UsageError("family members must share a number field")
    q = max(analytic_conductor(m, 0.0) for m in members)
    return Family(field, members, q, label)


def analytic_conductor(rep: Representation, t: float = 0.0) -> float:
    """D_F^n * N(conductor) * prod over places, j of (3 + |it + mu_j|^d(v))."""
    value = abs(rep.field.discriminant) ** rep.degree * rep.conductor.norm
    for place in rep.arch.places:
        for mu in place.mus:
            value *= 3.0 + abs(1j * t + mu) ** place.d
    return float(value)


def _zero_arch(field: NumberFieldSpec, degree: int) -> ArchimedeanParameters:
    places = tuple(ArchPlace(d, (0j,) * degree) for d in field.infinite_place_degrees())
    return ArchimedeanParameters(places)


def trivial_representation(field: NumberFieldSpec | None = None) -> Representation:
    field = field or NumberFieldSpec.rationals()
    rep = Representation(
        degree=1,
        field=field,
        conductor=unit_ideal(field),
        arch=_zero_arch(field, 1),
        local_rule=lambda prime: (1 + 0j,),
        character=chars.trivial_character() if field.is_rationals else None,
        label="trivial",
    )
    return rep


def character_representation(chi: chars.DirichletCharacter) -> Representation:
    """A GL1 member over Q from a primitive Dirichlet character."""
    if not chi.is_primitive:
        raise UsageError("character members must be primitive")
    field = NumberFieldSpec.rationals()
    q = chi.modulus

    def rule(prime: IdealIndex):
        p = prime.factors[0][0][0]
        return (chi.value(p),)

    mu = complex(chi.parity)
    return Representation(
        degree=1,
        field=field,
        conductor=ideal_from_int(field, q),
        arch=ArchimedeanParameters((ArchPlace(1, (mu,)),)),
        local_rule=rule,
        character=chi,
        label=f"chi_{q}_{chi.index}",
    )


def dirichlet_character_family(q_max: float) -> Family:
    """All primitive Dirichlet characters with analytic conductor <= q_max.

    The analytic conductor of a primitive character mod q is q*(3+parity),
    so moduli beyond q_max/3 cannot contribute.  A bound whose character
    tables could pass CHARACTER_BYTES_CEILING is refused before any is built.
    """
    if q_max < 3:
        raise UsageError("no character has analytic conductor below 3")
    moduli = int(q_max // 3)
    _check_character_tables(moduli)
    members = []
    for q in range(1, moduli + 1):
        for chi in chars.primitive_characters(q):
            rep = character_representation(chi)
            if analytic_conductor(rep) <= q_max + 1e-9:
                members.append(rep)
    return make_family(members, label=f"dirichlet(C<={q_max:g})")


def _check_character_tables(moduli: int) -> None:
    """Refuse the characters of modulus <= moduli when their tables could pass
    CHARACTER_BYTES_CEILING, before any is built."""
    # character_group(q) keeps q int64 angles for each of its phi(q) < q characters
    held = 8 * moduli * (moduli + 1) * (2 * moduli + 1) // 6
    if held > CHARACTER_BYTES_CEILING:
        raise ResourceLimitError(
            f"the characters of modulus <= {moduli} could take {held} bytes, "
            f"which exceeds the ceiling of {CHARACTER_BYTES_CEILING} bytes"
        )


def dirichlet_family_by_modulus(q_bound: int) -> Family:
    """All primitive Dirichlet characters of modulus q <= q_bound, refused
    before any is built when their tables could pass CHARACTER_BYTES_CEILING."""
    _check_character_tables(q_bound)
    members = [
        character_representation(chi)
        for chi in chars.primitive_characters_up_to_modulus(q_bound)
    ]
    return make_family(members, label=f"dirichlet(q<={q_bound})")


class _SyntheticDraws:
    """Every member's first doubles at each prime ideal drawn so far, shared
    by the members' rules.

    A miss at norm N just past the drawn range draws, in one
    pcg64.stream_doubles call, every prime ideal of norm <= 2N not drawn
    yet, so a run to norm X makes about log2 X calls; a miss far past the
    range draws its prime ideal alone.  Each draw also keeps cos and sin of
    0.0 + pi * d, numpy's uniform(0, pi) from the double d.
    """

    def __init__(self, field: NumberFieldSpec, seed: int, count: int, width: int):
        self.field = field
        self.seed = seed
        self.count = count
        self.width = width
        self.through = 1  # every prime ideal of norm <= through is drawn
        self.rows: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def at(self, prime: IdealIndex, member: int) -> tuple[list[float], ...]:
        """The member's doubles, their cos and their sin at the prime."""
        pid = prime.factors[0][0]
        if pid not in self.rows:
            self._draw(pid, prime.norm)
        return tuple(x[member].tolist() for x in self.rows[pid])

    def _draw(self, pid: tuple[int, int], norm: int) -> None:
        from . import pcg64  # compiled only by steps that draw

        pids = [pid]
        if norm <= 2 * self.through and 2 * norm <= PRIME_SIEVE_CEILING:
            pids += [q for q, _ in prime_ideals_up_to(self.field, 2 * norm)
                     if q != pid and q not in self.rows]
            self.through = 2 * norm
        members = np.tile(np.arange(self.count), len(pids))
        ps, slots = (np.repeat(np.array([q[i] for q in pids], dtype=np.uint64), self.count)
                     for i in (0, 1))
        doubles = pcg64.stream_doubles(self.seed, members, ps, slots, self.width)
        doubles = doubles.reshape(len(pids), self.count, self.width)
        phi = 0.0 + np.pi * doubles
        cos, sin = np.cos(phi), np.sin(phi)
        for i, q in enumerate(pids):
            self.rows[q] = (doubles[i], cos[i], sin[i])


def _unit_circle_tuple(doubles: list[float], cos: list[float], sin: list[float], n: int) -> list[complex]:
    """Conjugate-stable n-tuple on the unit circle: a pair e^(+-i phi) per
    double, phi = uniform(0, pi), then for odd n the sign of the next double
    (+1 below 1/2)."""
    out: list[complex] = []
    for j in range(n // 2):
        out.extend([complex(cos[j], sin[j]), complex(cos[j], -sin[j])])
    if n % 2:
        out.append(complex(1.0 if doubles[n // 2] < 0.5 else -1.0, 0.0))
    return out


def synthetic_family(
    n: int,
    count: int,
    seed: int,
    model: str | tuple = "grc",
    field: NumberFieldSpec | None = None,
) -> Family:
    """Deterministic synthetic degree-n family.

    Member i's parameters at the prime ideal (p, slot) come from the doubles
    d_0, d_1, ... of numpy's PCG64 stream of SeedSequence(entropy=seed,
    spawn_key=(i, p, slot)), computed in-house by pcg64.stream_doubles: for
    j < n/2 the pair e^(+-i phi_j) with phi_j = 0.0 + pi * d_j (numpy's
    uniform(0, pi)), and for odd n the sign +1 if d_(n//2) < 0.5, else -1.

    model = "grc" draws all parameters on the unit circle.  model =
    ("planted", p, theta) instead sets member 0's parameters at the prime
    above p (slot 0) to magnitudes N(p)^theta and N(p)^-theta, so the
    product of magnitudes stays 1, and fills the other n - 2 by the rule
    above from the same stream.
    """
    field = field or NumberFieldSpec.rationals()
    if count < 1:
        raise UsageError("synthetic families need count >= 1")
    if seed < 0:
        raise UsageError(f"synthetic seeds are non-negative integers, not {seed}")
    planted_pid = None
    theta = 0.0
    if model != "grc":
        tag, p, theta = model
        if tag != "planted":
            raise UsageError(f"unknown synthetic model {model!r}")
        if not 0.0 <= theta <= theta_bound(n) + 1e-15:
            raise UsageError(
                f"planted theta = {theta} outside [0, 1/2 - 1/(n^2+1)] = [0, {theta_bound(n)}]"
            )
        if n < 2:
            raise UsageError("planting needs degree >= 2 to rescale a partner")
        planted_pid = (int(p), 0)

    draws = _SyntheticDraws(field, seed, count, (n + 1) // 2)
    members = []
    for i in range(count):
        def rule(prime: IdealIndex, member=i):
            doubles, cos, sin = draws.at(prime, member)
            if member == 0 and prime.factors[0][0] == planted_pid:
                r = float(prime.norm) ** theta
                alphas = [complex(r, 0.0), complex(1.0 / r, 0.0)]
                alphas.extend(_unit_circle_tuple(doubles, cos, sin, n - 2))
                return tuple(alphas)
            return tuple(_unit_circle_tuple(doubles, cos, sin, n))

        members.append(
            Representation(
                degree=n,
                field=field,
                conductor=unit_ideal(field),
                arch=_zero_arch(field, n),
                local_rule=rule,
                label=f"synthetic_{seed}_{i}",
                theta_hint=theta if (i == 0 and planted_pid) else 0.0,
            )
        )
    tag = "grc" if planted_pid is None else f"planted(p={planted_pid[0]},theta={theta})"
    return make_family(members, label=f"synthetic(n={n},{tag},seed={seed})")


def contragredient(rep: Representation) -> Representation:
    """Conjugate every local and archimedean parameter; conductor unchanged."""

    def rule(prime: IdealIndex):
        return tuple(a.conjugate() for a in rep.local_at(prime).alphas)

    places = tuple(
        ArchPlace(p.d, tuple(m.conjugate() for m in p.mus)) for p in rep.arch.places
    )
    return Representation(
        degree=rep.degree,
        field=rep.field,
        conductor=rep.conductor,
        arch=ArchimedeanParameters(places),
        local_rule=rule,
        character=chars.conjugate(rep.character) if rep.character else None,
        label=f"~{rep.label}",
        theta_hint=rep.theta_hint,
    )


def ingest_hecke_eigenvalues(path: str, weight: int, level: int) -> Representation:
    """GL2 member over Q from a CSV of rows "p,a_p".

    Unitary normalization lambda(p) = a_p / p^((weight-1)/2) is applied on
    read.  For p not dividing the level the Satake pair solves
    x^2 - lambda(p) x + 1 = 0; at p | level the stored pair is
    (lambda(p), 0).
    """
    if weight < 2 or weight % 2:
        raise UsageError("weight must be an even integer >= 2")
    if level < 1:
        raise UsageError("level must be a positive integer")
    field = NumberFieldSpec.rationals()
    data: dict[int, tuple[complex, complex]] = {}
    theta2 = theta_bound(2)
    last_p = 0
    saw_data = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [s.strip() for s in line.split(",")]
            if not saw_data and parts and not _looks_int(parts[0]):
                continue  # optional header row
            saw_data = True
            if len(parts) != 2 or not _looks_int(parts[0]) or not _looks_int(parts[1]):
                raise SpecParseError("expected a row of the form 'p,a_p'", lineno, path)
            p, ap = int(parts[0]), int(parts[1])
            if not is_prime(p):
                raise SpecParseError(f"{p} is not prime", lineno, path)
            if p <= last_p:
                raise SpecParseError("primes must be strictly ascending", lineno, path)
            last_p = p
            lam = ap / p ** ((weight - 1) / 2)
            if level % p != 0:
                # p does not divide the level: unitary Satake pair
                disc = complex(lam * lam - 4.0)
                root = np.sqrt(disc)
                a1, a2 = (lam + root) / 2, (lam - root) / 2
            else:
                a1, a2 = complex(lam), 0j
            if max(abs(a1), abs(a2)) > p**theta2 * (1 + MAGNITUDE_TOL):
                raise DataIntegrityError(
                    f"{path}:{lineno}: normalized eigenvalue at p={p} exceeds "
                    f"the p^(1/2-1/5) magnitude ceiling"
                )
            data[p] = (complex(a1), complex(a2))

    def rule(prime: IdealIndex):
        p = prime.factors[0][0][0]
        if p not in data:
            raise DataIntegrityError(
                f"no Hecke eigenvalue for p = {p} in {path}; extend the input file"
            )
        return data[p]

    k = weight
    mus = ((k - 1) / 2 + 0j, (k + 1) / 2 + 0j)
    rep = Representation(
        degree=2,
        field=field,
        conductor=ideal_from_int(field, level),
        arch=ArchimedeanParameters((ArchPlace(1, mus),)),
        local_rule=rule,
        label=f"hecke_w{weight}_N{level}",
    )
    rep.hecke_primes = tuple(sorted(data))
    return rep


def _looks_int(s: str) -> bool:
    return bool(s) and (s.lstrip("+-").isdigit())


# ---------------------------------------------------------------------------
# family spec files: sectioned key-value text


def parse_family_spec(path: str) -> Family:
    """Build a family from a sectioned key-value file.

    Format:
        [family]
        field = rationals            # or quadratic(-1)
        kind = dirichlet             # dirichlet | dirichlet_modulus | synthetic | hecke
        qmax = 20                    # dirichlet kinds
        n = 2                        # synthetic
        count = 4
        seed = 7
        model = grc                  # or planted(p=2,theta=0.3)
        path = delta.csv             # hecke
        weight = 12
        level = 1
    """
    import os

    section = None
    kv: dict[str, tuple[str, int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section != "family":
                    raise SpecParseError(f"unknown section [{section}]", lineno, path)
                continue
            if "=" not in line:
                raise SpecParseError("expected 'key = value'", lineno, path)
            if section is None:
                raise SpecParseError("key before any [family] section", lineno, path)
            key, val = (s.strip() for s in line.split("=", 1))
            kv[key.lower()] = (val, lineno)

    def need(key: str) -> tuple[str, int]:
        if key not in kv:
            raise SpecParseError(f"missing required key '{key}'", None, path)
        return kv[key]

    def as_number(key: str, conv):
        val, lineno = need(key)
        try:
            return conv(val)
        except ValueError:
            raise SpecParseError(f"bad value for '{key}': {val!r}", lineno, path)

    field_str, field_line = kv.get("field", ("rationals", 0))
    if field_str == "rationals":
        field = NumberFieldSpec.rationals()
    elif field_str.startswith("quadratic(") and field_str.endswith(")"):
        try:
            field = NumberFieldSpec.quadratic(int(field_str[10:-1]))
        except (ValueError, UsageError) as exc:
            raise SpecParseError(f"bad field: {exc}", field_line, path)
    else:
        raise SpecParseError(f"unknown field {field_str!r}", field_line, path)

    kind, kind_line = need("kind")
    kind = kind.lower()
    if kind in ("dirichlet", "dirichlet_modulus"):
        if not field.is_rationals:
            raise SpecParseError("character families are defined over the rationals", kind_line, path)
        qmax = as_number("qmax", float)
        if kind == "dirichlet":
            return dirichlet_character_family(qmax)
        return dirichlet_family_by_modulus(int(qmax))
    if kind == "synthetic":
        n = as_number("n", int)
        count = as_number("count", int)
        seed = as_number("seed", int)
        model_str, model_line = kv.get("model", ("grc", 0))
        if model_str == "grc":
            model = "grc"
        elif model_str.startswith("planted(") and model_str.endswith(")"):
            try:
                body = dict(part.split("=") for part in model_str[8:-1].split(","))
                model = ("planted", int(body["p"]), float(body["theta"]))
            except (ValueError, KeyError):
                raise SpecParseError(f"bad model {model_str!r}", model_line, path)
        else:
            raise SpecParseError(f"unknown model {model_str!r}", model_line, path)
        try:
            return synthetic_family(n, count, seed, model, field)
        except UsageError as exc:
            raise SpecParseError(str(exc), kind_line, path)
    if kind == "hecke":
        rel, _ = need("path")
        weight = as_number("weight", int)
        level = as_number("level", int)
        full = rel if os.path.isabs(rel) else os.path.join(os.path.dirname(path), rel)
        return make_family([ingest_hecke_eigenvalues(full, weight, level)], label="hecke")
    raise SpecParseError(f"unknown family kind {kind!r}", kind_line, path)


def selftest() -> list[tuple[str, bool, str]]:
    results = []
    fam = dirichlet_character_family(20)
    mods = sorted({m.conductor.norm for m in fam.members})
    results.append(
        ("character family moduli for C<=20", mods == [1, 3, 4, 5], str(mods))
    )
    triv = trivial_representation()
    results.append(
        ("trivial analytic conductor", abs(analytic_conductor(triv) - 3.0) < 1e-12, "")
    )
    chi3 = character_representation(chars.primitive_characters(3)[0])
    results.append(
        ("mod-3 analytic conductor", abs(analytic_conductor(chi3) - 12.0) < 1e-12, "")
    )
    fam1 = synthetic_family(2, 3, seed=11)
    fam2 = synthetic_family(2, 3, seed=11)
    from .ideals import prime_ideal

    prime = prime_ideal(fam1.field, (7, 0))
    same = all(
        a.local_at(prime).alphas == b.local_at(prime).alphas
        for a, b in zip(fam1.members, fam2.members)
    )
    results.append(("seeded synthetic reproducibility", same, ""))
    unit_mod = all(abs(abs(a) - 1) < 1e-12 for a in fam1.members[0].local_at(prime).alphas)
    results.append(("grc parameters on the unit circle", unit_mod, ""))
    cc = contragredient(contragredient(chi3))
    results.append(
        (
            "double contragredient fixes parameters",
            cc.local_at(prime).alphas == chi3.local_at(prime).alphas,
            "",
        )
    )
    return results
