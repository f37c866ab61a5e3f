"""Workload catalogues and the seeded choice of one pass's operations.

An operation is one `charsum` command line, run in-process through
`charsum.cli.main`.  Each workload has a fixed catalogue of operations,
and every catalogue entry has a stored golden outcome (see golden.py).
The seed chooses which entries a pass runs and in what order; how many
entries of each kind a pass runs is fixed, so the latency percentiles
always fall inside the same kind of operation whatever the seed, and
every pass holds at least 100 operations, so the 90th percentile has at
least ten samples beyond it.

Why each workload exists is in WHY below and in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WHY = {
    "weil_corpus": "weil sweeps to 2000 on random monic polynomials plus "
                   "single primes near 10^6: the Weil table cache, "
                   "eval_many and reports; no root finding, no pool",
    "root_angles": "dfi/dfiext/multiweyl root-angle sweeps at --jobs 2 "
                   "with sample dumps plus psisym/kappa over F_2^6 and "
                   "F_3^4: root finders, pool, large JSON writes",
    "point_tables": "mu0/mu1 counts, boxcount, pushforward, axiom3 and "
                    "p^2 Fourier tables: point enumeration and the "
                    "transform layer; serial, with a known 1-D failure",
}

WEIL_XLIMIT = 2000
WEIL_CATALOGUE = 100    # polynomials with stored goldens
WEIL_SWEEPS = 80        # sweeps per pass, drawn from the catalogue
WEIL_SINGLE_EVERY = 4   # every fourth sweep also runs one prime near 10^6

# The transform of a table at p = 100003 allocates a p x p kernel
# (74.5 GiB) before any budget check and dies with MemoryError.  The
# operation stays in point_tables so the defect is counted until fixed.
# Each entry maps an operation's key to (the start of the one failure it
# is known to show, why); any other failure of that operation, a wrong
# report included, is an unexpected failure.
KNOWN_DEFECTS = {
    "fourier --prime 100003 --nvars 1 --delta --verify":
        ("raised MemoryError",
         "fourier_table builds a p x p kernel before any budget check "
         "(ROADMAP items 3 and 4)"),
}


@dataclass(frozen=True)
class Op:
    """One command line.  `argv` omits --json and --jobs, which the
    runner appends; `units` is the number of primes the command covers
    (a single-prime or single-field command counts 1)."""
    kind: str
    argv: tuple
    units: int = 1
    jobs: int = 0

    @property
    def key(self):
        return " ".join(a if a and " " not in a and ";" not in a
                        else '"%s"' % a for a in self.argv)

    @property
    def known_defect(self):
        """Why the operation is listed as a known defect, or None."""
        entry = KNOWN_DEFECTS.get(self.key)
        return entry and entry[1]

    def is_known_failure(self, why):
        """Whether mismatches `why` (golden.check) are this operation's
        listed known failure and nothing else."""
        entry = KNOWN_DEFECTS.get(self.key)
        return bool(entry) and len(why) == 1 and why[0].startswith(entry[0])

    def command(self, json_path, jobs=None):
        argv = list(self.argv)
        jobs = self.jobs if jobs is None else jobs
        if jobs:
            argv += ["--jobs", str(jobs)]
        return argv + ["--json", str(json_path)]


def prime_count(x):
    """pi(x) by a plain sieve (kept separate from charsum.primes)."""
    if x < 2:
        return 0
    sieve = bytearray([1]) * (x + 1)
    sieve[0] = sieve[1] = 0
    i = 2
    while i * i <= x:
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
        i += 1
    return sum(sieve)


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _primes_from(start, count, step=1):
    out, n = [], start
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
            n += step
        n += 1
    return out


def poly_text(coeffs, var="x"):
    """Little-endian integer coefficients to the CLI's polynomial syntax."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mono = "" if k == 0 else var if k == 1 else "%s^%d" % (var, k)
        mag = abs(c)
        body = (str(mag) if not mono else mono if mag == 1
                else "%d*%s" % (mag, mono))
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


# -- weil_corpus -------------------------------------------------------


def _weil_catalogue():
    """Monic polynomials drawn like acceptance test_01 (degree 2-6,
    coefficients in [-30, 30]), each paired with its own prime near 10^6."""
    rng = random.Random(101)
    big = _primes_from(1000003, WEIL_CATALOGUE, step=997)
    out = []
    for i in range(WEIL_CATALOGUE):
        d = rng.randrange(2, 7)
        poly = poly_text([rng.randrange(-30, 31) for _ in range(d)] + [1])
        sweep = Op("weil_sweep", ("weil", "--poly", poly,
                                  "--xlimit", str(WEIL_XLIMIT)),
                   units=prime_count(WEIL_XLIMIT))
        single = Op("weil_single", ("weil", "--poly", poly,
                                    "--prime", str(big[i])))
        out.append((sweep, single))
    return out


def _weil_pass(rng, quick):
    pairs = _weil_catalogue()
    chosen = rng.sample(pairs, 4 if quick else WEIL_SWEEPS)
    ops = []
    for i, (sweep, single) in enumerate(chosen):
        ops.append(sweep)
        if i % WEIL_SINGLE_EVERY == WEIL_SINGLE_EVERY - 1:
            ops.append(single)
    return ops


# -- root_angles -------------------------------------------------------

_ROOT_SWEEPS = (
    Op("dfi", ("dfi", "--poly", "x^2 + 1", "--xlimit", "100000",
               "--dump-samples"), units=prime_count(100000), jobs=2),
    Op("dfiext", ("dfiext", "--poly", "x^3 - 2", "--g", "2*x + 3*x^2",
                  "--xlimit", "10000", "--dump-samples"),
       units=prime_count(10000), jobs=2),
    Op("multiweyl", ("multiweyl", "--poly", "x^3 - 2", "--h", "2,3",
                     "--xlimit", "10000", "--dump-samples"),
       units=prime_count(10000), jobs=2),
)

# (prime, extension degree) of the binary and the ternary field.
_FQ_FIELDS = ((2, 6), (3, 4))
_FQ_VARIANTS = 28
# Operations per pass for each kind in each field.
_FQ_COUNTS = {"psisym_eval": 6, "psisym_conj": 6, "psisym_add": 6,
              "psisym_mul": 12, "kappa": 20}


def _split_coeffs(roots, p):
    """c1,...,cn of prod (x - r) = x^n + c1 x^(n-1) + ... + cn mod p."""
    poly = [1]
    for r in roots:
        poly = [(a - r * b) % p for a, b in zip(poly + [0], [0] + poly)]
    return ",".join(str(c) for c in poly[1:])


def _fq_catalogue():
    rng = random.Random(202)
    out = {}
    for p, e in _FQ_FIELDS:
        field = ("--prime", str(p), "--ext", str(e))
        for kind in _FQ_COUNTS:
            ops = []
            for _ in range(_FQ_VARIANTS):
                c1 = ",".join(str(rng.randrange(p)) for _ in range(3))
                c2 = ",".join(str(rng.randrange(p)) for _ in range(2))
                if kind == "psisym_mul":
                    # split factors, so the product term always has six
                    # roots and every mul costs the same: this kind holds
                    # the 90th percentile
                    c1 = _split_coeffs([rng.randrange(p) for _ in "abc"], p)
                    c2 = _split_coeffs([rng.randrange(p) for _ in "ab"], p)
                if kind == "kappa":
                    argv = ("kappa", "--p-poly", "y^3 - b*y - %d"
                            % rng.randrange(1, p), "--q-poly", "y^2 + y",
                            "--point", str(rng.randrange(p))) + field
                elif kind == "psisym_eval":
                    argv = ("psisym",) + field + ("--coeffs", c1)
                else:
                    op = kind.split("_")[1]
                    argv = ("psisym",) + field + ("--coeffs", c1, "--op", op)
                    if op != "conj":
                        argv += ("--coeffs2", c2)
                    argv += ("--verify",)
                ops.append(Op("%s_%d^%d" % (kind, p, e), argv))
            out[(kind, p)] = ops
    return out


def _root_pass(rng, quick):
    ops = list(_ROOT_SWEEPS)
    for (kind, _), cat in sorted(_fq_catalogue().items()):
        ops += rng.sample(cat, 1 if quick else _FQ_COUNTS[kind])
    rng.shuffle(ops)
    return ops


# -- point_tables ------------------------------------------------------

_POINT_CORE = (
    Op("mu0_plane", ("mu0", "--system", "x*y - 1", "--dim", "1",
                     "--xlimit", "10000"), units=prime_count(10000)),
    Op("mu1_plane", ("mu1", "--system", "y^2 - x^3 - x", "--system2", "y",
                     "--dim", "1", "--xlimit", "10000"),
       units=prime_count(10000)),
    Op("mu0_sphere", ("mu0", "--system", "x^2 + y^2 + z^2 - 1", "--dim",
                      "2", "--xlimit", "120"), units=prime_count(120)),
    Op("boxcount", ("boxcount", "--system", "y - x^2", "--prime", "10007",
                    "--box", "0:5004,0:5004", "--dim", "1")),
    Op("boxcount", ("boxcount", "--system", "x + 0*y", "--prime", "10007",
                    "--box", "0:5004,0:5004", "--dim", "1")),
    Op("fourier_2d", ("fourier", "--prime", "1009", "--nvars", "2",
                      "--indicator", "y - x^2", "--verify")),
    Op("fourier_2d", ("fourier", "--prime", "1511", "--nvars", "2",
                      "--indicator", "x^2 + y^2 - 1", "--verify")),
    Op("fourier_1d_large", ("fourier", "--prime", "100003", "--nvars", "1",
                            "--delta", "--verify")),
)

_CONICS = ("y - x^2", "x*y - 1", "x^2 + y^2 - 1", "y^2 - x^3 - x",
           "x^2 - 3*y^2 - 1", "y - x^3 + x")
_POINT_VARIANTS = 24
_POINT_COUNTS = {"pushforward": 20, "axiom3": 20, "boxcount_small": 15,
                 "fourier_1d": 15, "latbasis": 10, "valueset": 12}


def _point_catalogue():
    rng = random.Random(303)
    # narrow prime bands keep each kind's cost, and so the percentiles,
    # the same whatever the seed draws
    primes = _primes_from(1000, 24)
    small = _primes_from(250, 12)
    out = {}
    for kind in _POINT_COUNTS:
        ops = []
        for _ in range(_POINT_VARIANTS):
            p = str(rng.choice(primes))
            conic = rng.choice(_CONICS)
            if kind == "pushforward":
                argv = ("pushforward", "--system", conic, "--prime", p,
                        "--max-moment", "2")
            elif kind == "axiom3":
                argv = ("axiom3", "--system", rng.choice(_CONICS[1:3]),
                        "--laurent", "z1*zb2 + zb1*z2", "--prime", p)
            elif kind == "boxcount_small":
                half = str((int(p) + 1) // 2)
                argv = ("boxcount", "--system", conic, "--prime", p,
                        "--box", "0:%s,0:%s" % (half, half), "--dim", "1")
            elif kind == "fourier_1d":
                q = rng.choice(small)
                src = rng.choice((("--const", "1"), ("--delta",),
                                  ("--indicator", "x^2 - %d"
                                   % rng.randrange(1, q))))
                argv = ("fourier", "--prime", str(q), "--nvars", "1") \
                    + src + ("--verify",)
            elif kind == "latbasis":
                a, b = rng.randrange(1, 9), rng.randrange(2, 7)
                n = rng.choice((2, 3, 5))
                argv = ("latbasis", "--poly", "x^3 - %d" % n,
                        "--elems", "1 + %d*x; %d*x^2; 1/%d + x"
                        % (a, b, rng.randrange(2, 9)))
            else:
                dens = rng.sample(range(2, 13), 3)
                argv = ("valueset", "--poly", "x + 2", "--elems",
                        "; ".join("1/%d" % d for d in dens), "--sp")
            ops.append(Op(kind, argv))
        out[kind] = ops
    return out


def _point_pass(rng, quick):
    ops = list(_POINT_CORE)
    for kind, cat in sorted(_point_catalogue().items()):
        ops += rng.sample(cat, 1 if quick else _POINT_COUNTS[kind])
    rng.shuffle(ops)
    return ops


_PASSES = {"weil_corpus": _weil_pass, "root_angles": _root_pass,
           "point_tables": _point_pass}


def build(workload, seed, quick=False):
    """The operations of one pass of `workload` for `seed`."""
    return _PASSES[workload](random.Random(seed), quick)


def catalogue(workload):
    """Every operation a pass of `workload` can run, for any seed."""
    if workload == "weil_corpus":
        return [op for pair in _weil_catalogue() for op in pair]
    if workload == "root_angles":
        return list(_ROOT_SWEEPS) + [op for cat in _fq_catalogue().values()
                                     for op in cat]
    return list(_POINT_CORE) + [op for cat in _point_catalogue().values()
                                for op in cat]
