"""Solomon's descent algebra for the symmetric group.

The Coxeter complex of S_n is the band of ordered set partitions of
{1..n}: an ordered partition stands for the chain of its proper prefix
unions, its type is the set of prefix sizes (n excluded), and the
group acts by relabeling.  Chambers correspond to permutations through
w -> ({w(1)} < {w(1), w(2)} < ...); the fundamental chamber is the
identity column 1|2|...|n.

S_n has one model here, `_SymmetricGroupTable`: the permutations as
tuples (w(1), .., w(n)) in lexicographic order, so the identity has
index 0, their descent sets as type masks, and the composition rows
`rows(us)` of indices, u * v mapping i to u(v(i)), from the bands' coded
kernel (`constructions.coded_products`), with the dense table `comp`.
A `CoxeterComplex` holds one such table and the int array `perm_of`
that carries each chamber face to its permutation's index.  The walk
correspondence reads only the face band's rows of the weighted faces
and the composition rows a block at a time; `certify_phi` reads the
dense face table and `comp`, and multiplies every pair of phi images
in one batched product of ZS_n through the inverses of the rows of
`comp`, which it first checks are permutations.  Types and descent
sets are the same bit masks, so invariance and descent classes are
both `class_values` checks on integer vectors.

The invariant subalgebra of the semigroup algebra has the orbit sums
sigma_J as a basis, with tau_J the inclusion-exclusion companion
basis.  The map phi determined by phi(a)C = aC is an anti-isomorphism
onto the classical descent algebra inside the group algebra: sigma_J
goes to the sum u_J of the permutations with descent set inside J and
tau_J to the sum z_J over descent set exactly J.  Under the chamber
bijection the face walk driven by an invariant distribution p becomes
the right group walk driven by phi(p): with a_x = D p_x, the chamber
counts sum a_x [x uC = vC] equal D phi(p) at u^-1 v for every pair of
chambers.  For the uniform move-to-front distribution this yields the
top-to-random idempotents E_i.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, count, permutations
from math import comb, factorial
from operator import mul

import numpy

from . import constructions, spectral
from .derangement import _subsets, flag_h_vector
from .errors import (FalsificationError, MalformedInputError,
                     PreconditionError)
from .guards import DEFAULT_GUARDS, check_counts


def descent_set(w):
    """{i : w(i) > w(i+1)} as a sorted tuple."""
    return tuple(i for i in range(1, len(w)) if w[i - 1] > w[i])


def type_of_partition(part):
    """The proper prefix sizes of an ordered partition."""
    return tuple(accumulate(len(block) for block in part[:-1]))


def type_mask(j_set):
    """The subset J of {1..n-1} as the bit mask sum of 2^(i-1)."""
    return sum(1 << (i - 1) for i in j_set)


def class_values(vec, classes):
    """Per-class values of integer vectors along the last axis, or None
    if one is not constant on every class; classes[i] is the class of
    entry i."""
    values = numpy.zeros(vec.shape[:-1] + (int(classes.max()) + 1,),
                         dtype=vec.dtype)
    values[..., classes] = vec
    return values if numpy.array_equal(values[..., classes], vec) else None


# ------------------------------------------------------------ the group


class _SymmetricGroupTable:
    """S_n in lexicographic order, the identity first, with the descent
    set of each permutation as a type mask.  rows(us) gives the int32
    composition rows of the permutations at us, and `comp`, the dense
    table, is those rows over every permutation, built on first use."""

    def __init__(self, n):
        self.n = n
        self.perms = sorted(permutations(range(1, n + 1)))
        self.index = {w: i for i, w in enumerate(self.perms)}
        self.descents = numpy.array(
            [type_mask(descent_set(w)) for w in self.perms])
        # a permutation is coded by its values 0..n-1 as base-n digits,
        # so the codes ascend in lexicographic order
        digits = numpy.array(self.perms, dtype=numpy.int64) - 1
        powers = n ** numpy.arange(n - 1, -1, -1, dtype=numpy.int64)

        def product_codes(us):
            # digit k of u * v is u at v[k]
            return sum(digits[us][:, digits[:, k]] * powers[k]
                       for k in range(n))

        self.rows = constructions.coded_products(
            digits @ powers, self.perms, n, product_codes)

    @cached_property
    def comp(self):
        return self.rows(numpy.arange(len(self.perms)))

    def descent_rows(self):
        """(u, z), integer matrices with one row per type mask J: row J
        of u marks the permutations with descent set inside J, row J of
        z those with descent set exactly J."""
        masks = numpy.arange(1 << (self.n - 1))[:, None]
        u = (self.descents[None, :] & ~masks) == 0
        z = self.descents[None, :] == masks
        return u.astype(numpy.int64), z.astype(numpy.int64)


# ---------------------------------------------------------------- complex


@dataclass
class CoxeterComplex:
    """Ordered-partition band, its face types as masks, and S_n with
    the chamber bijection: perm_of[face] is the index in group.perms of
    a chamber's permutation, -1 off the chambers.  `guards` are the
    ones the band was built with; `certify_phi` tabulates the face
    table through them."""

    n: int
    semigroup: object
    face_type: object
    type_classes: dict
    group: _SymmetricGroupTable
    perm_of: object
    fundamental: int
    guards: object


def coxeter_complex(n, guards=DEFAULT_GUARDS):
    """Build the complex and certify that orbits match type classes.

    A face is its block-index vector v (v[x] is the block holding x + 1)
    and w relabels it to v composed with w^-1.  Each type class must
    equal the S_n orbit of its face with consecutive blocks; orbits
    partition the faces, so the orbit partition is the type partition,
    which makes invariance checkable either way.  The faces are counted
    first, against the elements cap.
    """
    sg = constructions.ordered_partitions(n, guards=guards)
    types = [type_of_partition(p) for p in sg.objects]
    type_classes = {}
    for i, t in enumerate(types):
        type_classes.setdefault(t, []).append(i)
    group = _SymmetricGroupTable(n)

    perms = numpy.array(group.perms) - 1
    for t, cls in type_classes.items():
        blocks = numpy.searchsorted(numpy.array(t, dtype=int),
                                    numpy.arange(1, n + 1))
        orbit = set(map(tuple, blocks[perms].tolist()))
        if orbit != {tuple(constructions.face_vector(sg.objects[i], n))
                     for i in cls}:
            raise FalsificationError(
                f"S_{n}: the orbit of the type-{t} faces does not match "
                "their type class")

    perm_of = numpy.full(sg.size, -1)
    for i, p in enumerate(sg.objects):
        if len(p) == n:
            perm_of[i] = group.index[tuple(b[0] for b in p)]
    fundamental = int(numpy.flatnonzero(perm_of == 0)[0])
    face_type = numpy.array([type_mask(t) for t in types])
    return CoxeterComplex(n, sg, face_type, type_classes, group, perm_of,
                          fundamental, guards)


# ------------------------------------------------------- beta and h vector


@dataclass
class BetaRow:
    j_set: tuple
    beta: int
    f: int
    h: int
    ok: bool


def beta_and_h(n, cx=None, guards=DEFAULT_GUARDS):
    """Descent counts against the type h-vector of the complex.

    beta(J) counts permutations with descent set J, f_J counts type-J
    simplices, and h is the inclusion-exclusion transform of f; the
    rows record beta(J) == h_J.
    """
    cx = cx or coxeter_complex(n, guards)
    beta = numpy.bincount(cx.group.descents, minlength=1 << (n - 1))
    f = {t: len(cls) for t, cls in cx.type_classes.items()}
    h = flag_h_vector(f)
    rows = []
    for j_set in _subsets(range(1, n)):
        b = int(beta[type_mask(j_set)])
        rows.append(BetaRow(j_set, b, f[j_set], h[j_set], b == h[j_set]))
    return rows


# --------------------------------------------------------------- phi map


def certify_phi(cx):
    """Certify phi on the whole invariant algebra at once.

    Checks sigma_J -> u_J and tau_J -> z_J on every basis element, the
    reversal phi(ab) = phi(b) phi(a) on every sigma pair, and that each
    image stays inside the descent span (constant on descent classes).
    Everything is exact int64 counting over the dense face table, with
    types and descent sets as bit masks: sigma_a sigma_b is the
    bincount of table[class a][:, class b], counted for every b at once
    a block of type-a rows at a time, which must be constant on every
    type class (PreconditionError otherwise); phi(sigma_K) counts the
    permutations of the chambers F C, F of type K, through the column of
    the fundamental chamber C.  The group side is one batched product in
    ZS_n: with inverse[i, k] the j such that i j = k, every product
    phi(x) phi(y) is the sum of phi(x)[i] phi(y)[inverse[i]] over the
    support of phi(x), taken for all y at once a block of i at a time.
    inverse comes from sorting the rows of the composition table
    `comp`, so each row must first be a permutation (FalsificationError
    otherwise).
    Returns {"basis_images_ok", "anti_homomorphism_ok", "closure_ok"}.
    """
    n = cx.n
    sg = cx.semigroup
    table = sg.tabulate(cx.guards)
    group = cx.group
    types = 1 << (n - 1)
    masks = numpy.arange(types)
    members = [numpy.flatnonzero(cx.face_type == k) for k in masks]
    type_of = {type_mask(t): t for t in cx.type_classes}

    image_of = cx.perm_of[table[:, cx.fundamental]]
    if image_of.min() < 0:
        f = int(numpy.argmin(image_of))
        raise FalsificationError(
            f"S_{n}: {sg.keys[f]} times the fundamental chamber is not a "
            "chamber", witness=f)
    m = len(group.perms)
    images = numpy.array([numpy.bincount(image_of[cls], minlength=m)
                          for cls in members])

    # the Moebius matrix of the Boolean lattice carries the sigma images
    # to the tau images
    below = (masks[None, :] & ~masks[:, None]) == 0
    parity = numpy.array([bin(k).count("1") for k in masks]) % 2
    sign = 1 - 2 * (parity[:, None] ^ parity[None, :])
    u, z = group.descent_rows()
    basis_ok = (numpy.array_equal(images, u)
                and numpy.array_equal((below * sign) @ images, z))

    # sigma[a, b]: sigma_a sigma_b by type, from counts[b, f], the
    # products of a type-a face with a type-b face that equal f, keyed
    # b |S| + f in one bincount per block of `types` type-a rows, so the
    # keys take no more room than the counts
    sigma = numpy.empty((types,) * 3, dtype=numpy.int64)
    for a, cls in enumerate(members):
        counts = sum(numpy.bincount(
            (cx.face_type * sg.size + table[cls[lo:lo + types]]).ravel(),
            minlength=types * sg.size) for lo in range(0, len(cls), types))
        counts = counts.reshape(types, sg.size)
        values = class_values(counts, cx.face_type)
        if values is None:
            b = next(b for b in masks
                     if class_values(counts[b], cx.face_type) is None)
            raise PreconditionError(
                f"S_{n}: sigma_{type_of[a]} sigma_{type_of[b]} is not "
                "constant on the type classes")
        sigma[a] = values
    image = sigma @ images

    comp = group.comp
    inverse = numpy.argsort(comp, axis=1)
    bad = numpy.flatnonzero(
        (numpy.take_along_axis(comp, inverse, 1) != numpy.arange(m)).any(1))
    if bad.size:
        raise FalsificationError(
            f"S_{n}: row {group.perms[bad[0]]} of the composition table is "
            "not a permutation", witness=int(bad[0]))
    # product[x, k types + y] is (phi(x) phi(y))[k]: the sum over the i
    # with phi(x)[i] != 0 of phi(x)[i] phi(y)[inverse[i, k]], for every
    # y at once, a block of i at a time
    by_perm = numpy.ascontiguousarray(images.T)
    product = numpy.zeros((types, m * types), dtype=numpy.int64)
    step = max(1, constructions.TABLE_CHUNK // (types * m))
    for x, row in enumerate(images):
        support = numpy.flatnonzero(row)
        for lo in range(0, len(support), step):
            i = support[lo:lo + step]
            product[x] += row[i] @ by_perm[inverse[i]].reshape(len(i), -1)
    # sigma_a sigma_b must go to phi(b) phi(a)
    anti_ok = numpy.array_equal(
        image, product.reshape(types, m, types).transpose(2, 0, 1))
    closure_ok = class_values(image, group.descents) is not None
    return {"basis_images_ok": basis_ok,
            "anti_homomorphism_ok": anti_ok,
            "closure_ok": closure_ok}


# ------------------------------------------------------------ group walk


def descent_walk(p, n, cx=None, guards=DEFAULT_GUARDS):
    """Carry an invariant chamber walk to the group side.

    Returns (mu, ok) where mu = phi(p) as {permutation: Fraction} and ok
    records that P(uC, vC) == mu(u^-1 v) for every pair of chambers.
    With a_x = D p_x as Python ints (exact for any D), row u of the
    counts sums a_x over x with x uC = vC, read off the band's rows of
    the weighted faces at the chamber columns, so no face table is
    built; row u read at u w must equal the identity row D mu, through
    the composition rows of S_n read a block of u at a time, so no
    group table is built either.  A product off the chambers raises
    FalsificationError.
    """
    if not hasattr(p, "coeffs"):
        raise MalformedInputError("descent_walk needs a WeightVector")
    if p.semigroup.family != "ordered_partitions" \
            or p.semigroup.meta.get("n") != n:
        raise PreconditionError(
            "weights do not live on the ordered-partition band "
            f"of {{1..{n}}}")
    cx = cx or coxeter_complex(n, guards)
    if not p.is_probability:
        raise PreconditionError("descent_walk needs a probability vector")
    xs = p.support_ids()
    a = numpy.array([p.nums[x] for x in xs], dtype=object)
    weights = numpy.zeros(cx.semigroup.size, dtype=object)
    weights[xs] = a
    if class_values(weights, cx.face_type) is None:
        raise PreconditionError(
            "weights are not constant on the type classes")

    group = cx.group
    m = len(group.perms)
    # the chambers' face ids in group order, after the -1 of the others
    chamber_of = numpy.argsort(cx.perm_of)[-m:]
    images = cx.perm_of[cx.semigroup.rows(xs)[:, chamber_of]]
    if images.min() < 0:
        x = xs[int(numpy.argmin(images.min(axis=1)))]
        raise FalsificationError(f"S_{n}: {cx.semigroup.keys[x]} times a "
                                 "chamber is not a chamber", witness=x)

    def counts(u):
        row = numpy.zeros(m, dtype=object)
        numpy.add.at(row, images[:, u], a)
        return row

    mu = counts(0)
    # row u of the counts, read at v = u w, must be mu at w; the
    # composition rows of u come a block at a time
    step = max(1, constructions.TABLE_CHUNK // m)
    ok = all(numpy.array_equal(counts(u)[row], mu)
             for lo in range(1, m, step) for u, row in enumerate(
                 group.rows(range(lo, min(lo + step, m))), lo))
    return ({group.perms[v]: Fraction(int(mu[v]), p.den)
             for v in numpy.flatnonzero(mu)}, ok)


# ------------------------------------------------- top-to-random family


@dataclass
class TopToRandomFamily:
    n: int
    es: list


def top_to_random_idempotents(n, guards=DEFAULT_GUARDS):
    """The E_i family of the uniform move-to-front group walk.

    v_l sums the permutations with descent set inside {1..l} (v_n
    repeats v_{n-1}), and E_i is the alternating binomial combination
    of the v_l / l!.  A permutation w lies in v_l exactly when its
    largest descent L (0 for none) is at most l, so n! E_i(w) is the
    integer sum over l from max(i, L) to n of (-1)^(l-i) C(l, i) n!/l!,
    read off an (n+1) x n table.  E_{n-1} must vanish; for the
    move-to-front measure mu, the other E_i must be the eigenprojectors
    of n mu at the distinct eigenvalues i, which `certify_top_to_random`
    checks on the n! E_i before they are returned as Fractions.  n! is
    counted first, against the elements cap.
    """
    check_counts(f"top_to_random_idempotents({n})", accumulate(count(1), mul),
                 guards.elements_cap, n, "permutations")
    table = _SymmetricGroupTable(n)
    masks = table.descents.tolist()
    scale = factorial(n)
    coef = [[sum((-1) ** (l - i) * comb(l, i) * (scale // factorial(l))
                 for l in range(max(i, last), n + 1))
             for last in range(n)] for i in range(n + 1)]
    largest = [m.bit_length() for m in masks]
    ints = [{w: c[k] for w, k in zip(table.perms, largest) if c[k]}
            for c in coef]

    if ints[n - 1]:
        raise FalsificationError(f"E_{n - 1} should vanish for n = {n}")
    moves = [w for w, m in zip(table.perms, masks) if m <= 1]
    certify_top_to_random(table, ints, moves)
    return TopToRandomFamily(n, [{w: Fraction(c, scale) for w, c in e.items()}
                                 for e in ints])


def certify_top_to_random(table, ints, moves):
    """Certify E_i, i != n-1, given as the integer maps n! E_i, as the
    eigenprojectors of n mu in ZS_n, mu the uniform measure on `moves`,
    by `spectral.certify_family`: they sum to 1 and n mu E_i = i E_i
    with the i distinct, so prod (n mu - i) = 0, each E_i is the
    Lagrange projector of n mu at i, and the E_i are orthogonal
    idempotents with mu = sum (i/n) E_i."""
    n = table.n
    family = {f"E_{i}": (i, factorial(n),
                         [(table.index[w], a) for w, a in ints[i].items()])
              for i in range(n + 1) if i != n - 1}
    letters = [(row, 1) for row in table.rows([table.index[w]
                                               for w in moves]).tolist()]
    spectral.certify_family(len(table.perms),
                            table.index[tuple(range(1, n + 1))], letters,
                            family, lambda ids: table.rows(ids).tolist())
