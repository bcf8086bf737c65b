"""Independent brute-force oracles behind the frozen expected values.

Everything here is deliberately naive and shares no code (and as little
convention as possible) with the package: characteristics are plain
``(eps, delta)`` integer pairs, vectors are 0/1 tuples, enumeration is
``itertools.combinations`` with no pruning, and the Arf invariant is read
off from the count of zeros of the form rather than any closed formula.
The exceptions are the earlier, plainer routes that the library's fast
ones must match element for element: oracle_extend_systems, the azygetic
backtracker on packed ints, which tests every candidate by the pairing
itself; oracle_isotropic_bases and oracle_subspace_bases, which extend
isotropic or arbitrary bases by every admissible vector and deduplicate
by reduction (oracle_subspace_bases, filtered by parity, is the
reference for the totally even spans that P_i sums over, in order);
oracle_isotropic_cosets, which sorts each coset of those subspaces and
then the whole list; oracle_named_class, the divisor classes as
{symbol: Fraction} formulas, and oracle_slope_combination, the slope
combination solved on those dictionaries; oracle_box, the truncation
search summing the tail at every radius; oracle_lattice, the truncation
box listed by np.ndindex; oracle_table_rows, a table's row cut in
float64 over the whole box, which the library's line cut must match
row for row; oracle_sp_apply_form, which moves a form by
a Gauss-Jordan inverse and 2g evaluations; and gf2_matvec, gf2_mul and
mat_mul, the bit-matrix products row by row that the Sp action's half
tables are checked against.

Run as a script to reprint every frozen reference value used by the suite,
the azygetic-search counts of the backtracker next to the library's, and
the library's theta tables against plain full-box sums at g = 1..5::

    python tests/oracles.py
"""

import sys
from fractions import Fraction
from itertools import combinations, product
from math import factorial
from pathlib import Path

# ---------------------------------------------------------------------------
# characteristics as (eps, delta) pairs of g-bit ints


def parity(eps, delta):
    """Parity eps.delta mod 2 of a characteristic."""
    return bin(eps & delta).count("1") % 2


def all_chars(g):
    return [(e, d) for e in range(2**g) for d in range(2**g)]


def xor_chars(*cs):
    e = d = 0
    for ce, cd in cs:
        e ^= ce
        d ^= cd
    return (e, d)


def is_azygetic_triple(a, b, c):
    """Arf-sum criterion: parity of a+b+c+(a^b^c) is odd."""
    s = xor_chars(a, b, c)
    tot = parity(*a) + parity(*b) + parity(*c) + parity(*s)
    return tot % 2 == 1


# ---------------------------------------------------------------------------
# quadratic forms on 0/1 tuples (e-coordinates first, then f-coordinates)


def tuple_pairing(u, v, g):
    s = 0
    for i in range(g):
        s += u[i] * v[g + i] + u[g + i] * v[i]
    return s % 2


def oracle_form_eval(basis_vals, x, g):
    """Evaluate a quadratic form by folding the polarity identity.

    ``basis_vals`` lists q on the 2g basis vectors (e first).  The value on
    an arbitrary x is accumulated one set coordinate at a time via
    q(v + b) = q(v) + q(b) + <v, b>, which is the defining recursion and
    never uses the closed bit-twiddling formula the package uses.
    """
    acc = tuple(0 for _ in range(2 * g))
    val = 0
    for j in range(2 * g):
        if x[j]:
            b = tuple(1 if k == j else 0 for k in range(2 * g))
            val = (val + basis_vals[j] + tuple_pairing(acc, b, g)) % 2
            acc = tuple(a ^ t for a, t in zip(acc, b))
    return val


def oracle_arf(basis_vals, g):
    """Arf invariant via the zero count: 2^(g-1)(2^g + 1) zeros means arf 0."""
    zeros = sum(
        1
        for x in product((0, 1), repeat=2 * g)
        if oracle_form_eval(basis_vals, x, g) == 0
    )
    if zeros == 2 ** (g - 1) * (2**g + 1):
        return 0
    if zeros == 2 ** (g - 1) * (2**g - 1):
        return 1
    raise AssertionError(f"not a nondegenerate quadratic form: {zeros} zeros")


# ---------------------------------------------------------------------------
# syzygetic tetrads / fundamental systems / maximal syzygetic systems


def oracle_syzygetic_tetrads(g):
    """All {a, b, c, a+b+c} with {a, b, c} syzygetic, as frozensets."""
    chars = all_chars(g)
    seen = set()
    for a, b, c in combinations(chars, 3):
        if not is_azygetic_triple(a, b, c):
            seen.add(frozenset((a, b, c, xor_chars(a, b, c))))
    return seen


def oracle_fundamental_systems(g):
    """Unpruned scan of all (2g+2)-subsets for the all-triples-azygetic ones."""
    out = []
    for S in combinations(all_chars(g), 2 * g + 2):
        if all(is_azygetic_triple(a, b, c) for a, b, c in combinations(S, 3)):
            out.append(S)
    return out


def oracle_gopel_systems(g):
    """Inclusion-maximal sets with every triple syzygetic (sizes 2..2^g+1)."""
    chars = all_chars(g)

    def all_syzygetic(S):
        return all(not is_azygetic_triple(a, b, c) for a, b, c in combinations(S, 3))

    candidates = [
        frozenset(S)
        for size in range(2, 2**g + 2)
        for S in combinations(chars, size)
        if all_syzygetic(S)
    ]
    return [
        S
        for S in candidates
        if not any(all_syzygetic(S | {t}) for t in chars if t not in S)
    ]


def packed_pairing(u, v, g):
    """<u, v> on packed 2g-bit ints (e-block high, f-block low)."""
    low = 2**g - 1
    return bin(((u >> g) & v & low) ^ (u & low & (v >> g))).count("1") % 2


def oracle_extend_systems(points, g, target_size):
    """The plain backtracker: every target_size-tuple of points, in order,
    with <a+s, a+t> = 1 for the first point a and all later s, t.

    Points are packed characteristics eps * 2^g + delta.  Each candidate t
    is tested against every chosen s by the pairing itself; nothing is
    precomputed.
    """
    points = list(points)
    n = len(points)

    def extend(chosen, start):
        if len(chosen) == target_size:
            yield tuple(chosen)
            return
        for idx in range(start, n - (target_size - len(chosen)) + 1):
            t = points[idx]
            if len(chosen) < 2 or all(
                packed_pairing(chosen[0] ^ s, chosen[0] ^ t, g) for s in chosen[1:]
            ):
                chosen.append(t)
                yield from extend(chosen, idx + 1)
                chosen.pop()

    yield from extend([], 0)


def packed_odds(g):
    """The odd characteristics as packed ints, ascending."""
    return [p for p in range(4**g) if parity(p >> g, p & (2**g - 1))]


def sp_order(g):
    """|Sp(2g, F2)| = 2^(g^2) * prod_{i=1..g} (4^i - 1)."""
    n = 2 ** (g * g)
    for i in range(1, g + 1):
        n *= 4**i - 1
    return n


def krazer_count(g):
    """2^(2g) |Sp(2g, F2)| / (2g+2)!  (exact integer division checked)."""
    num = 4**g * sp_order(g)
    den = factorial(2 * g + 2)
    assert num % den == 0, (g, num, den)
    return num // den


# ---------------------------------------------------------------------------
# bit matrices as lists of packed rows, and the Sp(2g, F2) action on forms
# by inverse and evaluation


def gf2_matvec(rows, v):
    """A @ v for a bit matrix given by its packed rows: bit i is row i . v."""
    n = len(rows)
    out = 0
    for i, row in enumerate(rows):
        if bin(row & v).count("1") % 2:
            out |= 1 << (n - 1 - i)
    return out


def gf2_mul(a, b):
    """Matrix product a @ b of square bit matrices.

    Row i of the product is the XOR of the rows of b that row i of a
    selects, so b is never transposed.
    """
    n = len(b)
    out = []
    for arow in a:
        acc = 0
        for j, brow in enumerate(b):
            if arow >> (n - 1 - j) & 1:
                acc ^= brow
        out.append(acc)
    return out


def mat_mul(a, b):
    """The product of two symplectic matrices of one genus, as the type of a."""
    assert a.g == b.g, (a.g, b.g)
    return type(a)(a.g, tuple(gf2_mul(a.rows, b.rows)))


def gf2_inv(rows):
    """Inverse of a square bit matrix via Gauss-Jordan on [A | I].

    Raises ValueError if the matrix is singular.
    """
    n = len(rows)
    aug = [(r << n) | (1 << (n - 1 - i)) for i, r in enumerate(rows)]
    row = 0
    for col in range(n - 1, -1, -1):
        bit = 1 << (col + n)
        piv = next((k for k in range(row, n) if aug[k] & bit), None)
        if piv is None:
            raise ValueError("matrix is singular over GF(2)")
        aug[row], aug[piv] = aug[piv], aug[row]
        for k in range(n):
            if k != row and aug[k] & bit:
                aug[k] ^= aug[row]
        row += 1
    mask = (1 << n) - 1
    return [a & mask for a in aug]


def oracle_sp_apply_form(rows, g, eps, delta):
    """(eps, delta) of the form q o M^-1, for M given by its packed rows.

    Inverts M by Gauss-Jordan, then evaluates q(x) = x_e.x_f + eps.x_e +
    delta.x_f on each column M^-1 b_k, e_1..e_g then f_1..f_g: those 2g
    values are the new basis values.
    """
    n = 2 * g
    low = 2**g - 1
    inv = gf2_inv(rows)
    values = 0
    for k in range(n):
        col = sum((inv[i] >> (n - 1 - k) & 1) << (n - 1 - i) for i in range(n))
        xe, xf = col >> g, col & low
        q = parity(xe, xf) ^ parity(eps, xe) ^ parity(delta, xf)
        values = values << 1 | q
    return values >> g, values & low


# ---------------------------------------------------------------------------
# linear subspaces of F2^(2g), spanned sets deduplicated by hand


def oracle_subspace_counts(g, dim):
    """(total #subspaces of that dim, # with every element even)."""
    nz = [c for c in all_chars(g) if c != (0, 0)]
    spans = set()
    for gens in combinations(nz, dim):
        span = {(0, 0)}
        for v in gens:
            span |= {xor_chars(x, v) for x in span}
        if len(span) == 2**dim:
            spans.add(frozenset(span))
    even = sum(1 for S in spans if all(parity(e, d) == 0 for (e, d) in S))
    return len(spans), even


def rref(rows):
    """Reduced row-echelon basis of packed rows, by descending pivot."""
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    basis.sort(reverse=True)
    for i, b in enumerate(basis):
        pivot = 1 << (b.bit_length() - 1)
        for j in range(i):
            if basis[j] & pivot:
                basis[j] ^= b
    return tuple(basis)


def oracle_isotropic_bases(g, singular):
    """The isotropic subspaces of F2^(2g) by extension, reduction and dedup.

    Level j+1 extends every basis of level j by every admissible vector
    (nonzero, and eps.delta even when singular) that pairs to 0 with each
    row and has no bit on a pivot, reduces the extended basis and keeps one
    copy per subspace.  Each level is sorted by (descending pivots, rows).
    """
    admissible = [
        v for v in range(1, 4**g)
        if not (singular and parity(v >> g, v & (2**g - 1)))
    ]
    levels = [((),)]
    for _ in range(g):
        found = set()
        for basis in levels[-1]:
            pivots = sum(1 << (row.bit_length() - 1) for row in basis)
            for v in admissible:
                if not v & pivots and not any(packed_pairing(v, row, g) for row in basis):
                    found.add(rref(basis + (v,)))
        levels.append(tuple(sorted(found, key=lambda b: ([-r.bit_length() for r in b], b))))
    return tuple(levels)


def oracle_subspace_bases(n):
    """Every subspace of F2^n by extension, reduction and dedup, by dimension.

    Level j+1 extends every basis of level j by every nonzero vector with
    no bit on a pivot, reduces the extended basis and keeps one copy per
    subspace.  Each level is sorted by (descending pivots, rows).
    """
    levels = [((),)]
    for _ in range(n):
        found = set()
        for basis in levels[-1]:
            pivots = sum(1 << (row.bit_length() - 1) for row in basis)
            for v in range(1, 2**n):
                if not v & pivots:
                    found.add(rref(basis + (v,)))
        levels.append(tuple(sorted(found, key=lambda b: ([-r.bit_length() for r in b], b))))
    return tuple(levels)


def oracle_isotropic_cosets(g, dim):
    """The cosets c + W of the dim-dim isotropic subspaces W, as packed ints.

    Each coset is every c ^ w, sorted, for the c with no bit on a pivot of
    W's basis; the list of cosets is sorted.  Empty when dim > g.
    """
    levels = oracle_isotropic_bases(g, False)
    if dim >= len(levels):
        return []
    cosets = []
    for basis in levels[dim]:
        span = {0}
        for row in basis:
            span |= {x ^ row for x in span}
        pivots = sum(1 << (row.bit_length() - 1) for row in basis)
        cosets += [tuple(sorted(c ^ w for w in span)) for c in range(4**g) if not c & pivots]
    return sorted(cosets)


# ---------------------------------------------------------------------------
# closed-form counts of isotropic subspaces of (F2^(2g), Weil pairing)


def totally_singular_count(g, i):
    """i-dim subspaces on which q0(eps, delta) = eps.delta vanishes.

    prod_{j<i} (2^(g-j) - 1)(2^(g-j-1) + 1) / (2^(j+1) - 1), the standard
    count of totally singular subspaces of a hyperbolic quadric of Witt
    index g.
    """
    num = den = 1
    for j in range(i):
        num *= (2 ** (g - j) - 1) * (2 ** (g - j - 1) + 1)
        den *= 2 ** (j + 1) - 1
    count, rem = divmod(num, den)
    assert rem == 0
    return count


def lagrangian_count(g):
    """g-dim isotropic subspaces: prod_{i=1..g} (2^i + 1)."""
    n = 1
    for i in range(1, g + 1):
        n *= 2**i + 1
    return n


def isotropic_plane_count(g):
    """(4^g - 1)(2^(2g-1) - 2) / 6: ordered orthogonal pairs over |GL(2, F2)|."""
    count, rem = divmod((4**g - 1) * (2 ** (2 * g - 1) - 2), 6)
    assert rem == 0
    return count


def gopel_coset_count(g):
    """Cosets c + L of Lagrangians, 2^g per L: 2^g prod (2^i + 1)."""
    return 2**g * lagrangian_count(g)


# ---------------------------------------------------------------------------
# high-precision theta values (mpmath, direct summation, no truncation logic)


def mp_theta(tau, z, eps, delta, g, radius=30, dps=40):
    """Direct lattice sum of the theta series at `dps` digits.

    tau: g x g nested lists of complex; z: length-g list; eps/delta: 0/1
    lists.  The radius is fixed by the caller, generously; there is no
    adaptive truncation here by design.
    """
    import mpmath

    with mpmath.workdps(dps):
        i2pi = mpmath.mpc(0, 2) * mpmath.pi
        ipi = mpmath.mpc(0, 1) * mpmath.pi
        total = mpmath.mpc(0)
        for m in product(range(-radius, radius + 1), repeat=g):
            c = [mpmath.mpf(m[i]) + mpmath.mpf(eps[i]) / 2 for i in range(g)]
            quad = mpmath.mpc(0)
            for i in range(g):
                for j in range(g):
                    quad += c[i] * mpmath.mpc(tau[i][j]) * c[j]
            lin = mpmath.mpc(0)
            for i in range(g):
                lin += c[i] * (mpmath.mpc(z[i]) + mpmath.mpf(delta[i]) / 2)
            total += mpmath.exp(ipi * quad + i2pi * lin)
        return total


def oracle_box(g, lam, z_im_norm, abs_tol):
    """The truncation search as it summed every radius's tail: (R, T, C),
    or the ValueError message when no radius within the caps reaches
    abs_tol (a tail term that overflows a float counts as unreachable)."""
    import math

    def tail_bound(radius):
        total = 0.0
        for s in range(radius + 1, radius + 501):
            term = ((2 * s + 1) ** g - (2 * s - 1) ** g) * math.exp(
                -math.pi * lam * (s - 0.5) ** 2
                + 2.0 * math.pi * math.sqrt(g) * (s + 0.5) * z_im_norm
            )
            total += term
            if term < 1e-18 * max(total, 1e-300) and s > radius + 3:
                break
        return total

    for radius in range(1, 65):
        if (2 * radius + 1) ** g > 4_000_000:
            break
        try:
            tail = tail_bound(radius)
        except OverflowError:
            break
        if tail == abs_tol:
            return radius, tail, math.inf
        if tail < abs_tol:
            shell = lam * (radius + 0.5) ** 2 - 2.0 * math.sqrt(g) * (radius + 1.5) * z_im_norm
            budget = math.log((2 * radius + 1) ** g / (abs_tol - tail)) / math.pi
            return radius, tail, max(shell, budget)
    return (
        "cannot reach the requested tolerance: Im tau too small or |Im z| too "
        "large for the supported truncation range (keep Im tau >= 0.3 I)"
    )


def oracle_lattice(g, radius):
    """The box |m|_inf <= radius as floats, in lexicographic order: the
    np.ndindex tuples as they come."""
    import numpy as np

    pts = list(np.ndindex(*(2 * radius + 1,) * g))
    return np.array(pts, dtype=float).reshape(-1, g) - radius


def oracle_table_rows(m, y, cutoff):
    """The rows a theta-constant table sums, cut in float64 over the whole box.

    m is the box in lex order as floats (oracle_lattice); y is Im tau.
    Keeps every row with m'Ym + sum_k min(0, (Ym)_k) < cutoff, computed by
    the BLAS products of one float64 pass over the box, then groups the
    kept rows by their class m mod 2 (coordinate k at bit g-1-k), box
    order inside a class.  Returns their classes and rows.
    """
    import numpy as np

    g = m.shape[1]
    ym = m @ y
    low = ym * m
    low += np.minimum(ym, 0.0, out=ym)
    keep = (low @ np.ones(g) < cutoff).nonzero()[0]
    bits = m[keep].astype(np.intp) & 1
    classes = (bits @ (1 << np.arange(g - 1, -1, -1))).astype(np.uint16)
    order = np.argsort(classes, kind="stable")
    return classes[order], np.take(m, keep[order], axis=0)


def np_theta(tau, z, eps, delta, radius):
    """theta[eps; delta](tau, z) as one plain lattice sum.

    tau: g x g complex array; z: length-g complex; eps/delta: 0/1 lists.
    Sums exp(pi i c'tau c + 2 pi i c'(z + d/2)), c = m + eps/2, over the
    full box |m|_inf <= radius in np.ndindex order, with the quadratic form
    taken by one complex einsum.
    """
    import numpy as np

    tau = np.asarray(tau, dtype=complex)
    g = tau.shape[0]
    m = np.array(list(np.ndindex(*(2 * radius + 1,) * g)), dtype=float) - radius
    c = m + np.asarray(eps, dtype=float) / 2
    quad = np.einsum("ij,jk,ik->i", c, tau, c)
    lin = c @ (np.asarray(z, dtype=complex) + np.asarray(delta, dtype=float) / 2)
    return complex(np.exp(1j * np.pi * (quad + 2 * lin)).sum())


def np_theta_constants(tau, radius):
    """All 4^g theta constants, one plain lattice sum per (eps, delta).

    tau: g x g complex array.  Sums exp(pi i c'tau c + 2 pi i c'd/2),
    c = m + eps/2, d = delta, over the full box |m|_inf <= radius in
    np.ndindex order.  Returns a (2^g, 2^g) array indexed [eps, delta],
    each block read most significant coordinate first.
    """
    import numpy as np

    tau = np.asarray(tau, dtype=complex)
    g = tau.shape[0]
    m = np.array(list(np.ndindex(*(2 * radius + 1,) * g)), dtype=float) - radius
    bits = [np.array([(k >> (g - 1 - i)) & 1 for i in range(g)], dtype=float)
            for k in range(2**g)]
    out = np.empty((2**g, 2**g), dtype=complex)
    for eps in range(2**g):
        c = m + bits[eps] / 2
        quad = np.einsum("ij,jk,ik->i", c, tau, c)
        for delta in range(2**g):
            lin = c @ (bits[delta] / 2)
            out[eps, delta] = np.exp(1j * np.pi * (quad + 2 * lin)).sum()
    return out


def mp_tail(tau_im_min, g, z_im_norm, radius, dps=30):
    """Crude but honest tail mass: sum of |term| bounds outside the box.

    Bounds |exp(pi i c^T tau c + 2 pi i c^T (z + d/2))| term by term using
    only the smallest eigenvalue of Im tau and |Im z|_2, for m with
    |m|_inf in (radius, radius + 60].
    """
    import mpmath

    with mpmath.workdps(dps):
        lam = mpmath.mpf(tau_im_min)
        ynorm = mpmath.mpf(z_im_norm)
        total = mpmath.mpf(0)
        for s in range(radius + 1, radius + 61):
            shell = (2 * s + 1) ** g - (2 * s - 1) ** g
            r = mpmath.mpf(s) - mpmath.mpf(1) / 2
            mag = mpmath.exp(
                -mpmath.pi * lam * r * r
                + 2 * mpmath.pi * mpmath.sqrt(g) * (s + mpmath.mpf(1) / 2) * ynorm
            )
            total += shell * mag
        return total


# ---------------------------------------------------------------------------
# spin-structure fibres over stable-curve dual graphs, the slow way


def oracle_even_edge_sets(n_vertices, edges):
    """All edge index subsets with even boundary, by 2^E scan.

    edges is a list of (u, v) vertex index pairs; self-loops allowed and
    contribute nothing to the boundary.
    """
    out = []
    for mask in range(2 ** len(edges)):
        deg = [0] * n_vertices
        for j, (u, v) in enumerate(edges):
            if mask >> j & 1 and u != v:
                deg[u] ^= 1
                deg[v] ^= 1
        if not any(deg):
            out.append(frozenset(j for j in range(len(edges)) if mask >> j & 1))
    return out


def oracle_b1(subset, edges):
    """First Betti number of the subgraph on `subset` edge indices (union-find)."""
    verts = set()
    for j in subset:
        u, v = edges[j]
        verts.update((u, v))
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j in subset:
        u, v = edges[j]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    comps = len({find(v) for v in verts})
    return len(subset) - len(verts) + comps


def oracle_connected(n_vertices, edges):
    """True iff the multigraph on range(n_vertices) is connected (union-find)."""
    parent = list(range(n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n_vertices)}) == 1


# ---------------------------------------------------------------------------
# named divisor classes, coefficient by basis symbol


def oracle_named_class(g, name):
    """(space, {symbol: coefficient}) of a named class of picard, by its formulas."""
    k = g // 2
    if name == "Z_odd":
        coeffs = {"lambda": g + 8, "alpha_0": Fraction(-(g + 2), 4), "beta_0": -2}
        for i in range(1, k + 1):
            coeffs[f"alpha_{i}"] = -2 * (g - i)
            coeffs[f"beta_{i}"] = -2 * i
        return "Sbar_minus", coeffs
    if name == "ThetaNull":
        coeffs = {"lambda": Fraction(1, 4), "alpha_0": Fraction(-1, 16)}
        for i in range(1, k + 1):
            coeffs[f"beta_{i}"] = Fraction(-1, 2)
        return "Sbar_plus", coeffs
    if name == "BN_normalized":
        coeffs = {"lambda": g + 3, "delta_0": Fraction(-(g + 1), 6)}
        for i in range(1, k + 1):
            coeffs[f"delta_{i}"] = -i * (g - i)
        return "Mbar", coeffs
    raise ValueError(f"unknown class name {name!r}")


def oracle_slope_combination(g, space):
    """(c, {symbol: nonzero coefficient}, verdict) of the slope combination.

    Plain Fraction dictionaries: base is 2/(g-2) Z_odd on Sbar_minus and
    8 ThetaNull on Sbar_plus; BN_normalized is pulled back by delta_0 ->
    alpha_0 + 2 beta_0 and delta_i -> alpha_i + beta_i; c solves
    base[beta_0] + c bn[beta_0] = -3, and the verdict compares the lambda
    coefficient of base + c bn with 13.
    """
    name, scale = ("Z_odd", Fraction(2, g - 2)) if space == "Sbar_minus" else ("ThetaNull", 8)
    base = {s: scale * Fraction(v) for s, v in oracle_named_class(g, name)[1].items()}
    delta = oracle_named_class(g, "BN_normalized")[1]
    bn = {"lambda": delta["lambda"], "alpha_0": delta["delta_0"], "beta_0": 2 * delta["delta_0"]}
    for i in range(1, g // 2 + 1):
        bn[f"alpha_{i}"] = bn[f"beta_{i}"] = delta[f"delta_{i}"]
    c = (-3 - base.get("beta_0", 0)) / Fraction(bn["beta_0"])
    combined = {s: base.get(s, 0) + c * bn.get(s, 0) for s in set(base) | set(bn)}
    combined = {s: v for s, v in combined.items() if v}
    slope = combined["lambda"]
    verdict = "general_type" if slope < 13 else "threshold" if slope == 13 else "inconclusive"
    return c, combined, verdict


# ---------------------------------------------------------------------------


def main():
    import mpmath

    print("== characteristic counts (parity census) ==")
    for g in range(1, 7):
        evens = sum(1 for c in all_chars(g) if parity(*c) == 0)
        odds = 4**g - evens
        print(f"g={g}: even {evens}  odd {odds}  "
              f"(formulas {2**(g-1)*(2**g+1)} / {2**(g-1)*(2**g-1)})")

    print("\n== syzygetic tetrads ==")
    for g in (1, 2):
        print(f"g={g}: {len(oracle_syzygetic_tetrads(g))}")

    print("\n== fundamental systems (brute force) vs Krazer formula ==")
    for g in (1, 2):
        systems = oracle_fundamental_systems(g)
        sums = {xor_chars(*S) for S in systems}
        print(f"g={g}: count {len(systems)}  formula {krazer_count(g)}  "
              f"sums {sums}")
    print(f"g=3: formula {krazer_count(3)} (no brute force)")

    print("\n== azygetic search: plain backtracker vs library ==")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from thetachar.characteristics import (
        enumerate_fundamental_systems,
        quartic_coordinate_check,
    )

    for g in (1, 2):
        oracle = sum(1 for _ in oracle_extend_systems(range(4**g), g, 2 * g + 2))
        library = len(enumerate_fundamental_systems(g))
        print(f"g={g} fundamental systems: oracle {oracle}  library {library}  "
              f"{'agree' if oracle == library else 'DISAGREE'}")
    oracle = sum(1 for _ in oracle_extend_systems(packed_odds(3), 3, 7))
    library = quartic_coordinate_check()["azygetic_odd_7set_count"]
    print(f"g=3 Aronhold 7-sets: oracle {oracle}  library {library}  "
          f"{'agree' if oracle == library else 'DISAGREE'}")

    print("\n== isotropic subspaces: extend-and-dedup vs library reverse search ==")
    from thetachar.symplectic import _isotropic_bases
    from thetachar.theta import _lines

    for g in (1, 2, 3):
        for singular in (True, False):
            oracle = oracle_isotropic_bases(g, singular)
            library = _isotropic_bases(g, singular)
            print(f"g={g} singular={singular}: levels {[len(l) for l in oracle]}  "
                  f"{'agree' if oracle == library else 'DISAGREE'}")

    print("\n== Sp action on forms: inverse-and-evaluate vs library affine map ==")
    import random

    from thetachar.symplectic import Characteristic, random_symplectic, sp_apply

    rng = random.Random(9)
    for g in range(1, 9):
        chars = all_chars(g) if g <= 4 else [
            (rng.randrange(2**g), rng.randrange(2**g)) for _ in range(64)
        ]
        matrices = [random_symplectic(g, rng) for _ in range(100 if g <= 3 else 10)]
        same = all(
            Characteristic(g, *oracle_sp_apply_form(m.rows, g, e, d))
            == sp_apply(m, Characteristic(g, e, d))
            for m in matrices
            for e, d in chars
        )
        print(f"g={g}: {len(matrices)} matrices x {len(chars)} forms  "
              f"inverse-and-evaluate vs library {'agree' if same else 'DISAGREE'}")

    print("\n== truncation box: ndindex vs library line index ==")
    for g, radius in ((1, 1), (1, 3), (2, 6), (3, 5), (4, 4), (4, 8)):
        oracle = oracle_lattice(g, radius)
        library = _lines(g, radius)[1].reshape(-1, g).astype(float)
        same = (oracle.dtype == library.dtype and oracle.shape == library.shape
                and oracle.tobytes() == library.tobytes())
        print(f"g={g} radius={radius}: {len(oracle)} points  "
              f"{'agree' if same else 'DISAGREE'}")

    print("\n== theta table: plain full-box sums vs library ==")
    import math

    import numpy as np

    from thetachar.theta import (
        PeriodMatrix,
        Tolerance,
        _numerics,
        _table_rows,
        theta_constant_table,
    )

    rng = np.random.default_rng(2718)
    for g, lam in ((1, 0.5), (2, 0.6), (3, 0.7), (4, 0.9), (5, 2.0)):
        a = rng.uniform(-0.25, 0.25, (g, g))
        x = rng.uniform(-0.6, 0.6, (g, g))
        tau = PeriodMatrix((x + x.T) / 2 + 1j * (lam * np.eye(g) + a @ a.T))
        radius, tail, cutoff, _ = _numerics(tau, (0j,) * g, Tolerance())
        box = (2 * radius + 1) ** g
        kept = len(_table_rows(tau, radius, cutoff)[1])
        charge = tail + (box - kept) * math.exp(-math.pi * cutoff)
        gap = np.abs(theta_constant_table(tau) - np_theta_constants(tau.tau, radius)).max()
        bound = charge + 1e-14 * box
        print(f"g={g} radius={radius}: {kept} of {box} rows, max gap {gap:.1e}, "
              f"bound {bound:.1e}  {'agree' if gap < bound else 'DISAGREE'}")

    print("\n== dual graphs: one-pass forest vs 2^E scan and union-find ==")
    from thetachar.boundary import DualGraph, Edge, Vertex, even_edge_sets, th_components

    rng = random.Random(12)
    graphs = connected = 0
    same = True
    for _ in range(500):
        n = rng.randrange(1, 7)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(9))]
        try:
            graph = DualGraph(
                tuple(Vertex(f"v{k}", 1) for k in range(n)),
                tuple(Edge(f"e{j}", f"v{u}", f"v{v}") for j, (u, v) in enumerate(edges)),
            )
        except ValueError:
            same &= not oracle_connected(n, edges)
            graphs += 1
            continue
        same &= oracle_connected(n, edges)
        want = sorted(tuple(f"e{j}" for j in sorted(S))
                      for S in oracle_even_edge_sets(n, edges))
        same &= even_edge_sets(graph) == want
        same &= all(
            e.b1 == oracle_b1({int(i[1:]) for i in e.even_set}, edges)
            for e in th_components(graph).entries
        )
        graphs += 1
        connected += 1
    print(f"dual graphs: one-pass forest vs 2^E scan {'agree' if same else 'DISAGREE'} "
          f"({graphs} random multigraphs, {connected} connected)")

    print("\n== maximal syzygetic systems ==")
    for g in (1, 2):
        systems = oracle_gopel_systems(g)
        sizes = sorted({len(S) for S in systems})
        print(f"g={g}: count {len(systems)}  sizes {sizes}")

    print("\n== subspace counts (total, all-even) ==")
    for g, dims in ((1, (0, 1)), (2, (0, 1, 2)), (3, (0, 1, 2, 3))):
        for d in dims:
            tot, ev = oracle_subspace_counts(g, d)
            print(f"g={g} dim={d}: total {tot}  all-even {ev}")

    print("\n== isotropic subspace closed forms ==")
    for g in range(1, 5):
        singular = [totally_singular_count(g, i) for i in range(g + 1)]
        print(f"g={g}: totally singular {singular}  Lagrangian {lagrangian_count(g)}  "
              f"planes {isotropic_plane_count(g)}  Gopel {gopel_coset_count(g)}")

    print("\n== theta reference values (40 digits) ==")
    with mpmath.workdps(40):
        ref = mpmath.pi ** mpmath.mpf("0.25") / mpmath.gamma(mpmath.mpf
                                                             ("0.75"))
        print(f"pi^(1/4)/Gamma(3/4)      = {ref}")
    for eps, delta in (([0], [0]), ([0], [1]), ([1], [0]), ([1], [1])):
        v = mp_theta([[1j]], [0], eps, delta, 1)
        print(f"theta[{eps[0]};{delta[0]}](iI, 0) = {mpmath.nstr(v, 25)}")
    v = mp_theta([[0.25 + 1.1j]], [0.3 - 0.2j], [1], [0], 1)
    print(f"g=1 generic [1;0] tau=0.25+1.1i z=0.3-0.2i = {mpmath.nstr(v, 25)}")
    tau2 = [[1.1j, 0.2 + 0.1j], [0.2 + 0.1j, 1.3j]]
    v = mp_theta(tau2, [0.1 + 0.05j, -0.2j], [0, 1], [1, 0], 2, radius=25)
    print(f"g=2 generic [01;10] = {mpmath.nstr(v, 25)}")
    v = mp_theta(tau2, [0, 0], [0, 0], [1, 1], 2, radius=25)
    print(f"g=2 constant [00;11] same tau = {mpmath.nstr(v, 25)}")

    print("\n== spin fibre sizes on fixed graphs (2^E scan) ==")
    # one vertex of genus 1 with a self-loop: curve genus 2
    for name, nv, genera, edges in (
        ("loop on genus-1 vertex (g=2)", 1, [1], [(0, 0)]),
        ("banana: genus 2 and 1, double edge (g=4)", 2, [2, 1], [(0, 1), (0, 1)]),
        ("theta graph: two genus-0, triple edge (g=2)", 2, [0, 0],
         [(0, 1), (0, 1), (0, 1)]),
    ):
        b = len(edges) - nv + 1
        g = sum(genera) + b
        total = 0
        parts = []
        for S in sorted(oracle_even_edge_sets(nv, edges), key=sorted):
            b1 = oracle_b1(S, edges)
            count = 2 ** (2 * g - 2 * b) * 2**b1
            mult = 2 ** (b - b1)
            total += count * mult
            parts.append((sorted(S), b1, count, mult))
        print(f"{name}: b={b} g={g} total {total} (2^2g={4**g})")
        for p in parts:
            print(f"    edges {p[0]} b1={p[1]} count={p[2]} mult={p[3]}")


if __name__ == "__main__":
    main()
