"""Small integer-matrix arithmetic mod m, written for the benchmark.

The input generators and the output checks both need matrices over Z_m
(inverses, products, determinants).  They use this module instead of the
library so that a check never shares code with the thing it checks.
"""

import itertools
import math


def identity(k):
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def mat_mul(a, b, m):
    k = len(a)
    return tuple(tuple(sum(a[i][l] * b[l][j] for l in range(k)) % m
                       for j in range(k)) for i in range(k))


def mat_add(a, b, m):
    return tuple(tuple((x + y) % m for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_sub(a, b, m):
    return tuple(tuple((x - y) % m for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_scale(a, c, m):
    return tuple(tuple((c * x) % m for x in row) for row in a)


def mat_vec(a, v, m):
    return tuple(sum(x * y for x, y in zip(row, v)) % m for row in a)


def vec_add(u, v, m):
    return tuple((x + y) % m for x, y in zip(u, v))


def det(a):
    """Integer determinant by cofactor expansion (k <= 3 here)."""
    k = len(a)
    if k == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] *
               det(tuple(row[:j] + row[j + 1:] for row in a[1:]))
               for j in range(k))


def is_unit_matrix(a, m):
    return math.gcd(det(a) % m, m) == 1


def mat_inv(a, m):
    """Inverse mod m through the adjugate; the determinant must be a unit."""
    k = len(a)
    d_inv = pow(det(a) % m, -1, m)
    if k == 1:
        return ((d_inv,),)
    cof = [[(-1) ** (i + j) * det(tuple(
        row[:j] + row[j + 1:] for r, row in enumerate(a) if r != i))
        for j in range(k)] for i in range(k)]
    return tuple(tuple((cof[j][i] * d_inv) % m for j in range(k))
                 for i in range(k))


def mat_poly(a, coeffs, m):
    """coeffs[0] I + coeffs[1] a + coeffs[2] a^2 + ..."""
    k = len(a)
    acc = tuple((0,) * k for _ in range(k))
    power = identity(k)
    for c in coeffs:
        acc = mat_add(acc, mat_scale(power, c, m), m)
        power = mat_mul(power, a, m)
    return acc


def lex_elements(m, k):
    """Canonical element order: lexicographic coordinate tuples."""
    return tuple(itertools.product(range(m), repeat=k))


def counting_elements(m, k):
    """Printed-matrix order: x_i is i in little-endian base m, zero last."""
    return tuple(tuple((i // m ** j) % m for j in range(k))
                 for i in range(1, m ** k + 1))


def units(m):
    return [u for u in range(1, m) if math.gcd(u, m) == 1]
