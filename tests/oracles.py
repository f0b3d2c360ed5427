"""Brute-force reference implementations used to check the exact operations.

Everything here works by pointwise membership over a finite exponent box and
never calls the antichain machinery under test.  Two monomial ideals whose
minimal generators fit inside a box are equal exactly when their member sets
agree on that box, so box agreement is full ideal equality.
"""

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from monofilt.closure import newton_polyhedron
from monofilt.decomposition import MonomialPrime, _witness_for
from monofilt.filtration import PrimeFiltration
from monofilt.ring import MonomialIdeal, context, grlex_key, ideal, mono_divides, unit_ideal
from monofilt.superficial import SpliceCertificate, SuperficialCertificate


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


def reference_colon_prime_support(gens, w):
    """Support of (U : w) when that colon is prime, from the colon residues.

    ``gens`` is the antichain of U.  None when some residue is 1 (w in U) or
    some residue is divisible by no residue that is a single variable.
    """
    residues = [loop_mono_colon(g, w) for g in gens]
    if any(not any(r) for r in residues):
        return None
    units = {r.index(1) for r in residues if sum(r) == 1}
    if any(not any(r[i] for i in units) for r in residues):
        return None
    return tuple(sorted(units))


def _add_generator(gens: list, w) -> list:
    """Antichain update for gens + (w); assumes no generator divides w."""
    return [g for g in gens if not mono_divides(w, g)] + [w]


def reference_naive_prime_filtration(J: MonomialIdeal) -> PrimeFiltration:
    """The greedy filtration with the witness map rescanned at every step.

    Each step scans the whole corner grid of the chain ideal with
    ``_witness_for`` (itself pinned to :func:`box_witnesses`), keeps the
    supports maximal under inclusion and adjoins the grlex-least of their
    witnesses.
    """
    d = J.ctx.num_vars
    unit = J.ctx.unit_monomial()
    gens = list(J.generators)
    steps = []
    while gens != [unit]:
        found = _witness_for(gens, d)
        maximal = [s for s in found if not any(set(s) < set(t) for t in found)]
        supp = min(maximal, key=lambda s: grlex_key(found[s]))
        steps.append((found[supp], MonomialPrime(supp)))
        gens = _add_generator(gens, found[supp])
    return PrimeFiltration(J, tuple(steps))


def box_colength(I: MonomialIdeal) -> int:
    """Monomials outside I, counted pointwise over the generator box.

    Meant for ideals holding a pure power of every variable, whose outside
    points all lie strictly inside the box.
    """
    return sum(1 for e in box_points(I.box()) if not member(I, e))


def box_h0_length(J: MonomialIdeal) -> int:
    """Monomials of sat(J) outside J, counted pointwise over the generator box of J."""
    d = J.ctx.num_vars
    maximal = MonomialIdeal(J.ctx, tuple(tuple(int(j == i) for j in range(d)) for i in range(d)))
    saturated = saturation_predicate(J, maximal)
    return sum(1 for e in box_points(J.box()) if saturated(e) and not member(J, e))


def reference_irreducible_decomposition(J: MonomialIdeal) -> tuple:
    """Irredundant irreducible components of J as sorted ``bounds`` tuples, by splitting.

    Splitting rule: a generator with mixed support is u * v, with u the pure
    power of its least variable; the ideal is the intersection of the two
    ideals that add u and v instead.  Ideals of pure powers are the leaves.
    Then each leaf containing the intersection of the others is dropped,
    judged by member sets over the box of the leaf exponents.
    """
    d = J.ctx.num_vars
    leaves = set()
    seen = set()
    stack = [_antichain(J.generators)]
    while stack:
        gens = stack.pop()
        if gens in seen:
            continue
        seen.add(gens)
        mixed = next((g for g in gens if sum(1 for v in g if v) > 1), None)
        if mixed is None:
            leaves.add(tuple(sorted((g.index(max(g)), max(g)) for g in gens)))
            continue
        i = next(j for j in range(d) if mixed[j])
        pure = tuple(mixed[j] if j == i else 0 for j in range(d))
        rest = tuple(0 if j == i else mixed[j] for j in range(d))
        stack.append(_antichain(gens + (pure,)))
        stack.append(_antichain(gens + (rest,)))

    components = sorted(leaves)
    bounds = [0] * d
    for comp in components:
        for i, a in comp:
            bounds[i] = max(bounds[i], a)
    points = box_points(bounds)
    masks = [
        sum(1 << k for k, e in enumerate(points) if any(e[i] >= a for i, a in comp))
        for comp in components
    ]
    everything = (1 << len(points)) - 1
    changed = True
    while changed:
        changed = False
        for k in range(len(components)):
            others = masks[:k] + masks[k + 1 :]
            if not others:
                break
            meet = everything
            for mask in others:
                meet &= mask
            if meet & ~masks[k] == 0:
                del components[k], masks[k]
                changed = True
                break
    return tuple(components)


def _antichain(gens) -> tuple:
    """Minimal elements of the generators under divisibility, sorted."""
    gens = set(gens)
    return tuple(
        sorted(g for g in gens if not any(h != g and loop_mono_divides(h, g) for h in gens))
    )


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


def reference_integral_closure_power(I: MonomialIdeal, n: int) -> MonomialIdeal:
    """closure(I^n) from the member set of n * NP(I) on the box n * box(I).

    A box point is a member when it satisfies every facet inequality scaled
    by n.  Minimal lattice points of the dilation lie in that box, and the
    member set is closed upward, so the generators are the members with no
    member one step below them in any coordinate.
    """
    facets = newton_polyhedron(I).facets
    inside = {
        e
        for e in box_points(tuple(n * b for b in I.box()))
        if all(sum(a * v for a, v in zip(coeffs, e)) >= n * bound for coeffs, bound in facets)
    }
    minimal = [
        e
        for e in inside
        if not any(e[i] and e[:i] + (e[i] - 1,) + e[i + 1 :] in inside for i in range(len(e)))
    ]
    return MonomialIdeal(I.ctx, tuple(sorted(minimal, key=grlex)))


def reference_rees_cofinality_constant(I: MonomialIdeal, m_max: int) -> int:
    """Least k with closure(I^m) in I^(m-k) for all k < m <= m_max, by trying each k in turn."""
    closures = {m: reference_integral_closure_power(I, m) for m in range(1, m_max + 1)}
    for k in range(0, m_max + 1):
        if all((I ** (m - k)).contains_ideal(closures[m]) for m in range(k + 1, m_max + 1)):
            return k
    return m_max


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def is_facet(halfspace, gens) -> bool:
    """Whether sum(coeffs * v) >= bound cuts a facet of conv(gens) + orthant.

    The inequality must hold on every generator with equality on some, and
    the generators where it is tight together with the coordinate rays its
    coefficients vanish on must span a face of dimension d - 1.
    """
    coeffs, bound = halfspace
    d = len(coeffs)
    values = [sum(a * b for a, b in zip(coeffs, v)) for v in gens]
    if any(c < 0 for c in coeffs) or min(values) != bound:
        return False
    tight = [v for v, value in zip(gens, values) if value == bound]
    rows = [tuple(a - b for a, b in zip(v, tight[0])) for v in tight[1:]]
    rows += [tuple(int(j == i) for j in range(d)) for i in range(d) if coeffs[i] == 0]
    return _rank(rows) == d - 1


def _rank(rows) -> int:
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, len(mat)):
            factor = mat[r][col] / mat[rank][col]
            mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _rational_null_vector(rows, d: int):
    # Primitive integer spanning vector of the nullspace of the rows, by
    # reduced row echelon form over the rationals; None unless it is a line.
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(d):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        mat[rank] = [x / mat[rank][col] for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
    if len(pivots) != d - 1:
        return None
    free = next(c for c in range(d) if c not in pivots)
    vec = [Fraction(0)] * d
    vec[free] = Fraction(1)
    for row, col in enumerate(pivots):
        vec[col] = -mat[row][free]
    denom = 1
    for v in vec:
        denom = denom * v.denominator // _gcd(denom, v.denominator)
    ints = [int(v * denom) for v in vec]
    common = 0
    for v in ints:
        common = _gcd(common, abs(v))
    return [v // common for v in ints]


def reference_newton_polyhedron(gens, d: int) -> tuple:
    """(facets, vertices) of conv(gens) + orthant by rational elimination.

    Every hyperplane through k generators along d - k coordinate rays whose
    k - 1 differences and d - k rays have a one-dimensional nullspace, with a
    nonnegative normal and every generator on its upper side, is a facet.  A
    generator is a vertex when its tight facets and the coordinate
    hyperplanes through it have rank d.
    """
    rays = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    found = set()
    for k in range(1, d + 1):
        for subset in combinations(gens, k):
            for ray_subset in combinations(range(d), d - k):
                rows = [tuple(a - b for a, b in zip(v, subset[0])) for v in subset[1:]]
                normal = _rational_null_vector(rows + [rays[i] for i in ray_subset], d)
                if normal is None:
                    continue
                if all(v <= 0 for v in normal):
                    normal = [-v for v in normal]
                bound = sum(a * b for a, b in zip(normal, subset[0]))
                if min(normal) >= 0 and all(
                    sum(a * b for a, b in zip(normal, v)) >= bound for v in gens
                ):
                    found.add((tuple(normal), bound))
    facets = tuple(sorted(found))
    vertices = []
    for v in gens:
        rows = [c for c, bound in facets if sum(a * b for a, b in zip(c, v)) == bound]
        rows += [rays[i] for i in range(d) if v[i] == 0]
        if _rank(rows) == d:
            vertices.append(v)
    return facets, tuple(sorted(vertices))


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


# Loop forms of the monomial kernels in monofilt.ring, kept as their reference.


def loop_mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def loop_mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def loop_mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def loop_mono_colon(g, w):
    return tuple(max(x - y, 0) for x, y in zip(g, w))


def loop_grlex_key(e):
    return (sum(e), tuple(-v for v in e))


def reference_minimal_generators(d, gens) -> tuple:
    """Minimal generators of a raw generator list over d variables, grlex-sorted.

    Checks every monomial, drops repeats, sorts, then keeps each monomial that
    no kept one divides: the quadratic form the ring's merges must agree with.
    """
    ordered = []
    for g in gens:
        g = tuple(g)
        if len(g) != d or any(v < 0 for v in g):
            raise ValueError(f"monomial {g} is not an exponent vector over {d} variables")
        if g not in ordered:
            ordered.append(g)
    ordered.sort(key=grlex)
    kept = []
    for g in ordered:
        if not any(loop_mono_divides(k, g) for k in kept):
            kept.append(g)
    return tuple(kept)


def reference_validate(filtration) -> tuple:
    """The three-loop chain check that ``validate`` must agree with, as (ok, step, reason).

    Per step: no chain generator divides the witness w; every generator of
    (U : w) meets the claimed prime's support; every variable x_i of the
    support has some generator dividing w * x_i.  Then w joins the antichain.
    Defined on well-formed steps only (witness and support fit the ring).
    """
    d = filtration.base.ctx.num_vars
    unit = (0,) * d
    gens = list(filtration.base.generators)
    for k, (w, prime) in enumerate(filtration.steps):
        if any(loop_mono_divides(g, w) for g in gens):
            return (False, k, "witness already lies in the chain ideal")
        supp = set(prime.support)
        for g in gens:
            r = loop_mono_colon(g, w)
            if not any(r[i] for i in supp):
                return (False, k, "colon is larger than the claimed prime")
        for i in prime.support:
            x_i = tuple(1 if j == i else 0 for j in range(d))
            if not any(loop_mono_divides(g, loop_mono_mul(w, x_i)) for g in gens):
                return (False, k, "colon is smaller than the claimed prime")
        gens = [g for g in gens if not loop_mono_divides(w, g)] + [w]
    if gens != [unit]:
        return (False, None, "final ideal in the chain is not the unit ideal")
    return (True, None, None)


def reference_filtration_digest(filtration) -> str:
    """First 16 hex digits of the sha256 of the filtration's JSON text.

    The text is ``json.dumps`` of the base generators and one record per
    step, keys sorted, with no cached fragment.
    """
    ctx = filtration.base.ctx
    payload = {
        "base": [ctx.monomial_str(g) for g in filtration.base.generators],
        "steps": [
            {
                "step": k,
                "witness": ctx.monomial_str(w),
                "prime": [ctx.variable_names[i] for i in p.support],
            }
            for k, (w, p) in enumerate(filtration.steps)
        ],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def reference_powers(I: MonomialIdeal, top: int) -> list:
    """[I^0, I^1, ..., I^top] by repeated multiplication."""
    powers = [unit_ideal(I.ctx)]
    for _ in range(top):
        powers.append(powers[-1] * I)
    return powers


def reference_colon_threshold(powers, J, x, m, n_max):
    """Least N with (I^n + J) : x = (J : x) + I^(n - m) for N <= n <= n_max.

    The upward loop: every level 1..n_max is checked, and a failure restarts
    the run; None when the identity fails at n_max or n_max < 1.
    """
    threshold = None
    for n in range(1, n_max + 1):
        lhs = (powers[n] + J).colon_monomial(x)
        rhs = J.colon_monomial(x) + powers[max(n - m, 0)]
        if lhs != rhs:
            threshold = None
        elif threshold is None:
            threshold = n
    return threshold


def reference_certificate_search(I, J, order_max, c_max, verify_to):
    """The certificate the engine uses at R/J, by two scans over the candidates.

    Candidates are the generators of I^1, ..., I^order_max outside J, by
    order, then grlex.  The first scan returns the first candidate whose
    defining condition ((I^(n+m) + J) : x) meet (I^c + J) = I^n + J holds for
    c <= n <= verify_to at the least such c <= min(c_max, verify_to - 1), and
    whose colon identity holds on a suffix of 1..verify_to.  Failing that, the
    second returns the first candidate whose colon identity holds on a suffix,
    as a splice certificate; None when there is none.
    """
    powers = reference_powers(I, verify_to + order_max)
    candidates = [
        (m, x)
        for m in range(1, order_max + 1)
        for x in sorted(powers[m].generators, key=grlex)
        if not member(J, x)
    ]
    for m, x in candidates:
        for c in range(0, min(c_max, verify_to - 1) + 1):
            if all(
                (powers[n + m] + J).colon_monomial(x).intersect(powers[c] + J)
                == powers[n] + J
                for n in range(c, verify_to + 1)
            ):
                threshold = reference_colon_threshold(powers, J, x, m, verify_to)
                if threshold is not None:
                    return SuperficialCertificate(x, m, c, threshold, verify_to)
                break
    for m, x in candidates:
        threshold = reference_colon_threshold(powers, J, x, m, verify_to)
        if threshold is not None:
            return SpliceCertificate(x, m, threshold, verify_to)
    return None


# The certificate search on any term system with every level checked, the
# form it had before the Rees recurrence let it derive the levels above the
# Rees level; it reads only the terms, never the system's colon caches.
def _colon_identity(ts, J, x, m, n) -> bool:
    return (ts.term(n) + J).colon_monomial(x) == J.colon_monomial(x) + ts.term(n - m)


def reference_threshold_scan(ts, J, x, m, n_max):
    """Least N with (T(n) + J) : x = (J : x) + T(n - m) for N <= n <= n_max.

    Scans down from n_max through every level; None when the identity fails
    at n_max or n_max < 1.
    """
    n = n_max
    while n >= 1 and _colon_identity(ts, J, x, m, n):
        n -= 1
    return n + 1 if n < n_max else None


def reference_level_by_level_search(ts, J, order_max, c_max, verify_to):
    """One scan for both certificate kinds, the defining condition checked at every level.

    The first candidate (order, then grlex, outside J) with a threshold whose
    condition ((T(n+m) + J) : x) meet (T(c) + J) = T(n) + J holds for every
    c <= n <= verify_to, at the least such c <= min(c_max, verify_to - 1),
    is superficial; else the first candidate with a threshold is a splice
    certificate; else None.
    """
    splice = None
    for m in range(1, order_max + 1):
        for x in sorted(ts.term(m).generators, key=grlex):
            if member(J, x):
                continue
            threshold = reference_threshold_scan(ts, J, x, m, verify_to)
            if threshold is None:
                continue
            for c in range(0, min(c_max, verify_to - 1) + 1):
                if all(
                    (ts.term(n + m) + J).colon_monomial(x).intersect(ts.term(c) + J)
                    == ts.term(n) + J
                    for n in range(c, verify_to + 1)
                ):
                    return SuperficialCertificate(x, m, c, threshold, verify_to)
            if splice is None:
                splice = SpliceCertificate(x, m, threshold, verify_to)
    return splice
