"""Plain scalar evaluators the tests check the package's kernels against;
none of them is reached by the package itself."""

from charsum.mpoly import frac_mod


def eval_mod(f, p, point):
    """f at a residue tuple mod p, term by term; BadPrimeError when p
    divides a coefficient's denominator."""
    total = 0
    for e, c in f.terms.items():
        t = frac_mod(c, p)
        for x, k in zip(point, e):
            if k:
                t = t * pow(int(x), k, p) % p
        total = (total + t) % p
    return total
