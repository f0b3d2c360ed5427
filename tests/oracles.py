"""Brute-force reference implementations used to check the exact operations.

Everything here works by pointwise membership over a finite exponent box and
never calls the antichain machinery under test.  Two monomial ideals whose
minimal generators fit inside a box are equal exactly when their member sets
agree on that box, so box agreement is full ideal equality.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from monofilt.ring import MonomialIdeal, context, ideal


def member(I: MonomialIdeal, e) -> bool:
    return any(all(g[i] <= e[i] for i in range(len(e))) for g in I.generators)


def box_points(bounds):
    return list(product(*(range(b + 1) for b in bounds)))


def grlex(e):
    """Graded order: lower degree first, then higher exponents on earlier variables."""
    return (sum(e), tuple(-v for v in e))


def merge_bounds(*bounds_list):
    return tuple(max(bs) for bs in zip(*bounds_list))


def agrees(candidate: MonomialIdeal, predicate, bounds) -> bool:
    """Candidate ideal matches the predicate pointwise across the box."""
    if any(any(g[i] > bounds[i] for i in range(len(bounds))) for g in candidate.generators):
        return False
    return all(member(candidate, e) == predicate(e) for e in box_points(bounds))


def sum_predicate(A, B):
    return lambda e: member(A, e) or member(B, e)


def intersect_predicate(A, B):
    return lambda e: member(A, e) and member(B, e)


def product_predicate(A, B):
    def pred(e):
        return any(
            all(a[i] + b[i] <= e[i] for i in range(len(e)))
            for a in A.generators
            for b in B.generators
        )

    return pred


def power_predicate(A, n):
    gens = A.generators

    @lru_cache(maxsize=None)
    def inside(e, k):
        if k == 0:
            return True
        for g in gens:
            if all(g[i] <= e[i] for i in range(len(e))):
                rest = tuple(e[i] - g[i] for i in range(len(e)))
                if inside(rest, k - 1):
                    return True
        return False

    return lambda e: inside(tuple(e), n)


def colon_monomial_predicate(A, w):
    return lambda e: member(A, tuple(x + y for x, y in zip(e, w)))


def colon_ideal_predicate(A, B):
    def pred(e):
        return all(
            member(A, tuple(x + y for x, y in zip(e, b))) for b in B.generators
        )

    return pred


def radical_predicate(A):
    top = max((max(g) for g in A.generators), default=0) + 1

    def pred(e):
        return any(member(A, tuple(k * x for x in e)) for k in range(1, top + 1))

    return pred


def saturation_predicate(A, B):
    bounds = A.box()
    jump = max(bounds, default=0) + 1

    def pred(e):
        # e lies in (A : b^infinity) once e + jump*b does; intersect over b.
        return all(
            member(A, tuple(x + jump * y for x, y in zip(e, b))) for b in B.generators
        )

    return pred


def ass_primes_box(J: MonomialIdeal) -> set:
    """Associated primes by scanning colon member sets for prime shape."""
    return set(box_witnesses(J))


def box_witnesses(J: MonomialIdeal) -> dict:
    """Each prime colon support S mapped to the grlex-least w in the box with (J : w) = P_S.

    For each w in the generator box, taken in grlex order, the member set of
    (J : w) inside the box is computed pointwise.  That set is a prime with
    support S exactly when it coincides with the set of points touching S,
    with S read off the unit vectors it contains.  Membership beyond the box
    truncates back into it.
    """
    bounds = J.box()
    d = len(bounds)
    points = sorted(box_points(bounds), key=grlex)
    inside = {e for e in points if member(J, e)}

    def mem(v):
        return tuple(min(a, b) for a, b in zip(v, bounds)) in inside

    units = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    witnesses = {}
    for w in points:
        if mem(w):  # 1 in the colon: w already in J
            continue
        colon = {e for e in points if mem(tuple(a + b for a, b in zip(e, w)))}
        if J.is_zero():
            witnesses.setdefault((), w)
            continue
        support = tuple(i for i in range(d) if units[i] in colon)
        if all((e in colon) == any(e[i] for i in support) for e in points):
            witnesses.setdefault(support, w)
    return witnesses


def random_monomial_ideal(rng, max_vars=3, max_gens=5, max_exp=4):
    d = rng.randint(1, max_vars)
    ctx = context(*("x", "y", "z")[:d])
    count = rng.randint(1, max_gens)
    gens = [tuple(rng.randint(0, max_exp) for _ in range(d)) for _ in range(count)]
    return ideal(ctx, gens)


def random_proper_ideal(rng, **kwargs):
    while True:
        I = random_monomial_ideal(rng, **kwargs)
        if not I.is_zero() and not I.is_unit():
            return I


def closure_witness(gens, n, point):
    """Exact rational certificate that ``point`` lies in the n-fold dilation.

    Searches basic solutions of sum(l_v * v) + slack = point, sum(l_v) = n,
    all variables nonnegative, by enumerating basis subsets and solving with
    rational arithmetic.  Returns the least clearing dilation k (the lcm of
    the lambda denominators) or None when the system is infeasible.
    """
    d = len(point)
    columns = [tuple(v) + (1,) for v in gens]
    slack_offset = len(columns)
    columns += [
        tuple(1 if j == i else 0 for j in range(d)) + (0,) for i in range(d)
    ]
    rhs = tuple(point) + (n,)
    rows = d + 1
    best = None
    for basis in combinations(range(len(columns)), rows):
        solution = _solve_exact([columns[j] for j in basis], rhs, rows)
        if solution is None or any(v < 0 for v in solution):
            continue
        k = 1
        for j, value in zip(basis, solution):
            if j < slack_offset:
                k = k * value.denominator // _gcd(k, value.denominator)
        if best is None or k < best:
            best = k
    return best


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _solve_exact(columns, rhs, size):
    # Solve M x = rhs for the square matrix whose columns are given.
    mat = [[Fraction(columns[j][i]) for j in range(size)] + [Fraction(rhs[i])] for i in range(size)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        lead = mat[col][col]
        mat[col] = [v / lead for v in mat[col]]
        for r in range(size):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return [mat[r][size] for r in range(size)]
