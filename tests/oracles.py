"""Independent oracles used to freeze expected values and cross-check the package.

Everything here is deliberately written from first principles with the standard
library only (fractions, itertools, math), so the package under test shares no
code with these reference implementations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
import math

__all__ = [
    "bo3_f",
    "bo2_f1",
    "bo2_f2",
    "best_of_tail",
    "best_of_coeffs",
    "h_map",
    "t_via_h",
    "eval_T_bo3",
    "eval_T_bo2",
    "delta_to_alpha",
    "alpha_to_delta",
    "fixed_points_bo3_exact",
    "fixed_points_bo2_exact",
    "eig2",
    "sv2",
    "fd_jacobian",
    "naive_w_stat",
    "naive_w_hat",
    "sampling_adoption_prob",
    "enumerate_symmetric_graphs",
]


# polynomial rules, exact when fed Fractions

def bo3_f(x):
    return 3 * x * x - 2 * x * x * x


def bo2_f1(x):
    # retention: keep opinion 1 unless both samples disagree
    return 1 - (1 - x) * (1 - x)


def bo2_f2(x):
    return x * x


def best_of_tail(k, x):
    """Pr[Bin(2k+1, x) >= k+1], evaluated term by term."""
    m = 2 * k + 1
    total = 0
    for i in range(k + 1, m + 1):
        total += math.comb(m, i) * x**i * (1 - x) ** (m - i)
    return total


def best_of_coeffs(k):
    """Monomial coefficients (ascending) of the best-of-(2k+1) polynomial, exact."""
    m = 2 * k + 1
    coeffs = [Fraction(0)] * (m + 1)
    for i in range(k + 1, m + 1):
        c = math.comb(m, i)
        for j in range(m - i + 1):
            coeffs[i + j] += Fraction(c * math.comb(m - i, j) * (-1) ** j)
    return coeffs


# mean-field maps via the alpha-space route only

def h_map(f1, f2, r, a1, a2):
    z1 = (a1 + r * a2) / (1 + r)
    z2 = (a2 + r * a1) / (1 + r)
    h1 = a1 * f1(z1) + (1 - a1) * f2(z1)
    h2 = a2 * f1(z2) + (1 - a2) * f2(z2)
    return h1, h2


def delta_to_alpha(d1, d2):
    return (1 + d2 + d1) / 2, (1 + d2 - d1) / 2


def alpha_to_delta(a1, a2):
    return a1 - a2, a1 + a2 - 1


def t_via_h(f1, f2, u, d1, d2):
    """Delta-space map obtained purely by conjugating H; u = (1-r)/(1+r)."""
    r = (1 - u) / (1 + u)
    a1, a2 = delta_to_alpha(d1, d2)
    h1, h2 = h_map(f1, f2, r, a1, a2)
    return alpha_to_delta(h1, h2)


# closed-form delta-space steps, u = (1-r)/(1+r), on floats; t_via_h and the
# package's induced map reach the same values through H

def eval_T_bo3(u, d):
    d1, d2 = d
    ud1 = u * d1
    t1 = (ud1 / 2.0) * (3.0 - ud1 * ud1 - 3.0 * d2 * d2)
    t2 = (d2 / 2.0) * (3.0 - 3.0 * ud1 * ud1 - d2 * d2)
    return t1, t2


def eval_T_bo2(u, d):
    """Equals eval_T_bo3 at u = 1."""
    d1, d2 = d
    ud1 = u * d1
    t1 = (d1 / 2.0) * ((2.0 * u + 1.0) - ud1 * ud1 - (2.0 * u + 1.0) * d2 * d2)
    t2 = (d2 / 2.0) * (3.0 - u * (2.0 + u) * d1 * d1 - d2 * d2)
    return t1, t2


# fixed points: solved from scratch (see derivation in the ledger)

def fixed_points_bo3_exact(u):
    out = {"d1*": (0.0, 0.0), "d4*": (0.0, 1.0)}
    if u >= 2.0 / 3.0:
        out["d2*"] = (math.sqrt((3 * u - 2) / u**3), 0.0)
    if u >= 0.75:
        out["d3*"] = (math.sqrt(1 / (4 * u**3)), math.sqrt((4 * u - 3) / (4 * u)))
    return out


def fixed_points_bo2_exact(u):
    out = {"d1*": (0.0, 0.0), "d4*": (0.0, 1.0)}
    if u >= 0.5:
        out["d2*"] = (math.sqrt((2 * u - 1) / u**2), 0.0)
    if u >= (math.sqrt(5) - 1) / 2:
        # solved from T(d)=d directly: d1^2 = 1/(u(u+1)^2), d2^2 = (u^2+u-1)/(u+1)^2
        out["d3*"] = (
            math.sqrt(1 / (u * (u + 1) ** 2)),
            math.sqrt(max(0.0, (u * u + u - 1)) / (u + 1) ** 2),
        )
    return out


# small linear algebra, brute force

def eig2(a, b, c, d):
    """Eigenvalues of [[a,b],[c,d]] sorted by modulus descending."""
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4 * det
    if disc >= 0:
        s = math.sqrt(disc)
        l1 = (tr + s) / 2
        l2 = (tr - s) / 2
        pair = [complex(l1), complex(l2)]
    else:
        s = math.sqrt(-disc)
        pair = [complex(tr / 2, s / 2), complex(tr / 2, -s / 2)]
    pair.sort(key=abs, reverse=True)
    return pair[0], pair[1]


def sv2(a, b, c, d):
    """Singular values of [[a,b],[c,d]] via eigenvalues of M^T M."""
    e11 = a * a + c * c
    e12 = a * b + c * d
    e22 = b * b + d * d
    tr = e11 + e22
    disc = math.sqrt(max(0.0, (e11 - e22) ** 2 + 4 * e12 * e12))
    s1 = math.sqrt(max(0.0, (tr + disc) / 2))
    s2 = math.sqrt(max(0.0, (tr - disc) / 2))
    return s1, s2


def fd_jacobian(fn, x, y, h=1e-6):
    """Central-difference Jacobian of a planar map fn(x, y) -> (f1, f2)."""
    f1p, f2p = fn(x + h, y)
    f1m, f2m = fn(x - h, y)
    g1p, g2p = fn(x, y + h)
    g1m, g2m = fn(x, y - h)
    return (
        (f1p - f1m) / (2 * h),
        (g1p - g1m) / (2 * h),
        (f2p - f2m) / (2 * h),
        (g2p - g2m) / (2 * h),
    )


# W statistics, naive triple loops over explicit neighbor sets

def naive_w_stat(neighbors, s0, sets):
    """W(S0; S1..Sl) = sum over s in S0 of prod_i |N(s) ∩ S_i|.

    neighbors: list of neighbor sets; s0, sets: iterables of vertex ids.
    """
    total = 0
    set_list = [set(s) for s in sets]
    for v in s0:
        term = 1
        for s in set_list:
            deg = 0
            for w in neighbors[v]:
                if w in s and w != v:
                    deg += 1
            term *= deg
        total += term
    return total


def naive_w_hat(n, p, q, s0, sets):
    """Ideal W with E[deg_S(v)] = (|S∩V_own|-1_{v∈S})p + |S∩V_other|q."""
    set_list = [set(s) for s in sets]
    total = 0.0
    for v in s0:
        own = 0 if v < n else 1
        term = 1.0
        for s in set_list:
            c1 = sum(1 for w in s if w < n)
            c2 = len(s) - c1
            counts = (c1, c2)
            same = counts[own] - (1 if v in s else 0)
            other = counts[1 - own]
            term *= same * p + other * q
        total += term
    return total


# exhaustive sampling-path adoption probability

def sampling_adoption_prob(deg, deg_a, member, sampler):
    """Exact Pr[v adopts opinion 1] by enumerating every sample tuple.

    deg: vertex degree; deg_a: neighbors holding opinion 1; member: v's own bit;
    sampler: 'bo2', 'bo3', or odd sample count m for majority-of-m.
    """
    if deg == 0:
        return Fraction(1 if member else 0)
    ones = [1] * deg_a + [0] * (deg - deg_a)
    if sampler == "bo2":
        hits = 0
        for w1, w2 in product(ones, repeat=2):
            if w1 == 1 and w2 == 1:
                hits += 1
            elif w1 == 0 and w2 == 0:
                pass
            elif member:
                hits += 1
        return Fraction(hits, deg**2)
    m = 3 if sampler == "bo3" else int(sampler)
    assert m % 2 == 1
    hits = 0
    for tup in product(ones, repeat=m):
        if sum(tup) > m // 2:
            hits += 1
    return Fraction(hits, deg**m)


def enumerate_symmetric_graphs(nv):
    """Yield every labeled simple graph on nv vertices as a neighbor-set list."""
    pairs = list(combinations(range(nv), 2))
    for mask in range(1 << len(pairs)):
        neighbors = [set() for _ in range(nv)]
        for bit, (a, b) in enumerate(pairs):
            if mask >> bit & 1:
                neighbors[a].add(b)
                neighbors[b].add(a)
        yield neighbors


def _main():
    # frozen-value report; run me before trusting any [DERIVED] literal in the tests
    print("== H map, bo3, r=1/9, a=(0.6,0.55) ==")
    h = h_map(bo3_f, bo3_f, Fraction(1, 9), Fraction(6, 10), Fraction(55, 100))
    print("H exact:", h, "=", tuple(float(x) for x in h))

    print("== T via conjugation, u=4/5, d=(0.2,0.1) ==")
    for name, f1, f2 in (("bo3", bo3_f, bo3_f), ("bo2", bo2_f1, bo2_f2)):
        t = t_via_h(f1, f2, Fraction(4, 5), Fraction(2, 10), Fraction(1, 10))
        print(name, t, "=", tuple(float(x) for x in t))

    print("== fixed points at u=0.8 ==")
    print("bo3:", {k: tuple(f"{x:.12f}" for x in v) for k, v in fixed_points_bo3_exact(0.8).items()})
    print("bo2:", {k: tuple(f"{x:.12f}" for x in v) for k, v in fixed_points_bo2_exact(0.8).items()})

    print("== bo3 general-form J3 eigenvalues at u=0.8 ==")
    u = 0.8
    d1, d2 = fixed_points_bo3_exact(u)["d3*"]
    a = 1.5 * u * (1 - (u * d1) ** 2 - d2 * d2)
    b = -3 * u * d1 * d2
    c = -3 * u * u * d1 * d2
    d = 1.5 * (1 - (u * d1) ** 2 - d2 * d2)
    l1, l2 = eig2(a, b, c, d)
    print("J3:", (a, b, c, d), "eig:", f"{l1.real:.9f}", f"{l2.real:.9f}")

    print("== bo2 general-form J3 eigenvalues at u=0.8 (true location) ==")
    d1, d2 = fixed_points_bo2_exact(u)["d3*"]
    a = (2 * u + 1 - 3 * (u * d1) ** 2 - (2 * u + 1) * d2 * d2) / 2
    b = -(2 * u + 1) * d1 * d2
    c = -u * (u + 2) * d1 * d2
    d = (3 - u * (2 + u) * d1 * d1 - 3 * d2 * d2) / 2
    l1, l2 = eig2(a, b, c, d)
    print("J3:", (a, b, c, d), "eig:", f"{l1.real:.9f}", f"{l2.real:.9f}")

    print("== best-of-(2k+1) ==")
    print("k=1 coeffs:", [str(c) for c in best_of_coeffs(1)])
    print("k=2 coeffs:", [str(c) for c in best_of_coeffs(2)])
    print("k=2 f(0.3):", float(best_of_tail(2, Fraction(3, 10))))

    print("== singular values [[3,0],[4,5]] ==")
    print(sv2(3.0, 0.0, 4.0, 5.0))

    print("== clustered rounding at n=1000, d=(0.8839, 0) ==")
    n = 1000
    print(round(n * (1 + 0 + 0.8839) / 2), round(n * (1 + 0 - 0.8839) / 2))

    print("== w_hat n=100 p=0.3 q=0.1 ==")
    v1 = range(100)
    v = range(200)
    print("What(V1;V1):", naive_w_hat(100, 0.3, 0.1, v1, [v1]))
    print("What(V1;V):", naive_w_hat(100, 0.3, 0.1, v1, [v]))

    print("== expected edges, n=500 p=0.2 q=0.05 ==")
    npairs_intra = 2 * math.comb(500, 2)
    mean = npairs_intra * 0.2 + 500 * 500 * 0.05
    var = npairs_intra * 0.2 * 0.8 + 500 * 500 * 0.05 * 0.95
    print("mean:", mean, "sigma:", math.sqrt(var))

    print("== u/r conversions ==")
    print("u(1/7):", (1 - 1 / 7) / (1 + 1 / 7))
    print("u(sqrt5-2):", (1 - (math.sqrt(5) - 2)) / (1 + math.sqrt(5) - 2), "phi-hat:", (math.sqrt(5) - 1) / 2)

    print("== thresholds ==")
    print("bo3 r* = 1/7 =", 1 / 7)
    print("bo2 r* = sqrt5-2 =", math.sqrt(5) - 2)


if __name__ == "__main__":
    _main()
