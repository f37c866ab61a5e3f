"""Dense univariate polynomial arithmetic over F_p.

Polynomials are little-endian lists of ints in [0, p).  These are the
low-level kernels shared by field construction and root finding (whose
division by x - r is `polyroots._deflation_count`); callers normalize
their own inputs.  This is the int fast path beside the `mpoly` toolkit:
`powmod` runs on `mpoly.power`, the one square-and-multiply, so a power
of x (or of any linear polynomial) costs O(deg m) per set bit of the
exponent beside its squarings.
"""

from .mpoly import power


def trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f):
    return len(f) - 1


def sub(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return trim(out)


def mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] = (out[j] + a * b) % p
    return trim(out)


def scalar_mul(f, c, p):
    c %= p
    return trim([a * c % p for a in f])


def divmod_poly(f, g, p):
    """Quotient and remainder; g need not be monic."""
    f = list(f)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    inv_lead = pow(g[-1], -1, p)
    q = [0] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and f:
        c = f[-1] * inv_lead % p
        k = len(f) - 1 - dg
        q[k] = c
        for i, b in enumerate(g, k):
            f[i] = (f[i] - c * b) % p
        trim(f)
    return trim(q), f


def mod(f, g, p):
    return divmod_poly(f, g, p)[1]


def monic(f, p):
    if not f:
        return []
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def gcd(f, g, p):
    a, b = list(f), list(g)
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def is_squarefree(f, p):
    """Whether gcd(f, f') = 1 mod p, by Euclid up to the first remainder of
    degree below 1; not when f' = 0 mod p (a p-th power)."""
    a = trim([c % p for c in f])
    b = trim([k * c % p for k, c in enumerate(a)][1:])
    while len(b) > 1:
        a, b = b, mod(a, b, p)
    return len(b) == 1


def mulmod(f, g, m, p):
    return divmod_poly(mul(f, g, p), m, p)[1]


def powmod(f, e, m, p):
    """f^e mod (m, p); [1] at e = 0."""
    if e == 0:
        return [1]
    # power's second factor is the base: the outer loop of mul runs over it
    return power(mod(list(f), m, p), e, lambda a, b: mulmod(b, a, m, p))


def evaluate(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc
