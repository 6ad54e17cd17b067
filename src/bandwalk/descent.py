"""Solomon's descent algebra for the symmetric group.

The Coxeter complex of S_n is the band of ordered set partitions of
{1..n}: an ordered partition stands for the chain of its proper prefix
unions, its type is the set of prefix sizes (n excluded), and the
group acts by relabeling.  Chambers correspond to permutations through
w -> ({w(1)} < {w(1), w(2)} < ...); the fundamental chamber is the
identity column 1|2|...|n.

The invariant subalgebra of the semigroup algebra has the orbit sums
sigma_J as a basis, with tau_J the inclusion-exclusion companion
basis.  The map phi determined by phi(a)C = aC is an anti-isomorphism
onto the classical descent algebra inside the group algebra: sigma_J
goes to the sum u_J of the permutations with descent set inside J and
tau_J to the sum z_J over descent set exactly J.  Under the chamber
bijection the face walk driven by an invariant distribution p becomes
the right group walk driven by phi(p); for the uniform move-to-front
distribution this yields the top-to-random idempotents E_i.

Permutations are tuples (w(1), .., w(n)) and compose as functions, so
u * v maps i to u(v(i)).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import numpy

from . import constructions
from .derangement import _subsets, flag_h_vector
from .errors import (FalsificationError, MalformedInputError,
                     PreconditionError, SizeGuardError)
from .guards import DEFAULT_GUARDS


# ------------------------------------------------------------ permutations


def check_permutation(w, n=None):
    w = tuple(int(x) for x in w)
    if n is not None and len(w) != n:
        raise MalformedInputError(f"expected a permutation of [{n}]")
    if sorted(w) != list(range(1, len(w) + 1)):
        raise MalformedInputError(f"{w!r} is not a permutation of 1..n")
    return w


def compose(u, v):
    return tuple(u[x - 1] for x in v)


def inverse(u):
    out = [0] * len(u)
    for i, x in enumerate(u):
        out[x - 1] = i + 1
    return tuple(out)


def descent_set(w):
    """{i : w(i) > w(i+1)} as a sorted tuple."""
    w = check_permutation(w)
    return tuple(i for i in range(1, len(w)) if w[i - 1] > w[i])


# ---------------------------------------------------------------- complex


def type_of_partition(part):
    acc = 0
    out = []
    for block in part[:-1]:
        acc += len(block)
        out.append(acc)
    return tuple(out)


def act(w, part):
    """Relabel the blocks of an ordered partition by a permutation."""
    return tuple(tuple(sorted(w[x - 1] for x in block)) for block in part)


@dataclass
class CoxeterComplex:
    """Ordered-partition band plus type map and chamber bijection."""

    n: int
    semigroup: object
    types: list
    type_classes: dict
    chamber_id: dict
    perm_at: dict
    fundamental: int


def coxeter_complex(n, guards=DEFAULT_GUARDS):
    """Build the complex and certify that orbits match type classes.

    The group action is generated by the adjacent transpositions; the
    orbit partition it induces must coincide with the fibres of the
    type map, which is what makes invariance checkable either way.
    """
    sg = constructions.ordered_partitions(n, guards=guards)
    objs = sg.objects
    types = [type_of_partition(p) for p in objs]
    type_classes = {}
    for i, t in enumerate(types):
        type_classes.setdefault(t, []).append(i)

    index = {p: i for i, p in enumerate(objs)}
    gens = []
    for i in range(1, n):
        w = list(range(1, n + 1))
        w[i - 1], w[i] = w[i], w[i - 1]
        gens.append(tuple(w))
    seen = [False] * sg.size
    for start in range(sg.size):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = index[act(g, objs[x])]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for x in orbit:
            seen[x] = True
        if sorted(orbit) != type_classes[types[start]]:
            raise FalsificationError(
                f"S_{n} orbit of {sg.keys[start]} does not match its "
                "type class")

    chamber_id = {}
    perm_at = {}
    for i, p in enumerate(objs):
        if len(p) == n:
            w = tuple(b[0] for b in p)
            chamber_id[w] = i
            perm_at[i] = w
    fundamental = chamber_id[tuple(range(1, n + 1))]
    return CoxeterComplex(n, sg, types, type_classes, chamber_id,
                          perm_at, fundamental)


def face_of_type(cx, chamber, j_set):
    """The unique face of a chamber with the given type."""
    w = cx.perm_at[chamber]
    cuts = [0] + sorted(j_set) + [cx.n]
    part = tuple(tuple(sorted(w[a:b])) for a, b in zip(cuts, cuts[1:]))
    return cx.semigroup.index["|".join(
        ",".join(map(str, b)) for b in part)]


def descent_pair(cx, c, d):
    """Type of the smallest face F of d with F c = d.

    By the product characterization, i is in the descent set exactly
    when dropping i from the type of the face breaks the equality, so
    one product per type suffices instead of a scan of all faces.
    """
    if c not in cx.perm_at or d not in cx.perm_at:
        raise PreconditionError("descent_pair needs two chambers")
    full = range(1, cx.n)
    prod = cx.semigroup.product
    out = []
    for i in full:
        f = face_of_type(cx, d, tuple(j for j in full if j != i))
        if prod(f, c) != d:
            out.append(i)
    return tuple(out)


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
    beta = {}
    for w in permutations(range(1, n + 1)):
        beta[descent_set(w)] = beta.get(descent_set(w), 0) + 1
    f = {t: len(cls) for t, cls in cx.type_classes.items()}
    h = flag_h_vector(f)
    rows = []
    for j_set in _subsets(range(1, n)):
        b = beta.get(j_set, 0)
        rows.append(BetaRow(j_set, b, f[j_set], h[j_set], b == h[j_set]))
    return rows


# ------------------------------------------------------ invariant algebra


@dataclass
class InvariantElement:
    """Element of the invariant subalgebra in sigma coordinates."""

    n: int
    sigma: dict


def to_chamber_element(cx, a):
    """Expand sigma coordinates into semigroup-algebra coefficients."""
    out = {}
    for j_set, v in a.sigma.items():
        if j_set not in cx.type_classes:
            raise MalformedInputError(f"no simplices of type {j_set}")
        for i in cx.type_classes[j_set]:
            out[i] = out.get(i, Fraction(0)) + v
    return {i: v for i, v in out.items() if v}


def invariant_from_coeffs(cx, coeffs):
    """Read an invariant element off semigroup coefficients.

    Constancy is demanded on each orbit (certified equal to each type
    class when the complex was built), not just well-formedness of the
    type map.
    """
    sigma = {}
    for t, cls in cx.type_classes.items():
        vals = {Fraction(coeffs.get(i, Fraction(0))) for i in cls}
        if len(vals) != 1:
            raise PreconditionError(
                f"coefficients are not constant on the type-{t} orbit")
        v = vals.pop()
        if v:
            sigma[t] = v
    return InvariantElement(cx.n, sigma)


# --------------------------------------------------------------- phi map


def phi(cx, a):
    """Image of an invariant element in the group algebra.

    Characterized by phi(a) C = a C at the fundamental chamber; the
    product a C lands in the chamber span, whose basis is carried to
    permutations by the bijection.
    """
    if not isinstance(a, InvariantElement):
        a = invariant_from_coeffs(cx, a)
    prod = cx.semigroup.product
    out = {}
    for i, v in to_chamber_element(cx, a).items():
        c = prod(i, cx.fundamental)
        w = cx.perm_at[c]
        out[w] = out.get(w, Fraction(0)) + v
    return {w: v for w, v in out.items() if v}


def type_mask(j_set):
    """The subset J of {1..n-1} as the bit mask sum of 2^(i-1)."""
    return sum(1 << (i - 1) for i in j_set)


def class_values(vec, classes):
    """Per-class values of an integer vector, or None if it is not
    constant on every class; classes[i] is the class of entry i."""
    values = numpy.zeros(int(classes.max()) + 1, dtype=numpy.int64)
    values[classes] = vec
    return values if numpy.array_equal(values[classes], vec) else None


def certify_phi(cx):
    """Certify phi on the whole invariant algebra at once.

    Checks sigma_J -> u_J and tau_J -> z_J on every basis element, the
    reversal phi(ab) = phi(b) phi(a) on every sigma pair, and that each
    image stays inside the descent span (constant on descent classes).
    Everything is exact int64 counting over the dense face table, with
    types and descent sets as bit masks: sigma_a sigma_b is the
    bincount of table[class a][:, class b], which must be constant on
    every type class (PreconditionError otherwise); phi(sigma_K) counts
    the permutations of the chambers F C, F of type K, through the
    column of the fundamental chamber C; group products use the
    composition table of S_n.
    Returns {"basis_images_ok", "anti_homomorphism_ok", "closure_ok"}.
    """
    n = cx.n
    sg = cx.semigroup
    table = sg.tabulate()
    group = _SymmetricGroupTable(n)
    masks = numpy.arange(1 << (n - 1))
    face_type = numpy.array([type_mask(t) for t in cx.types])
    members = [numpy.flatnonzero(face_type == k) for k in masks]
    type_of = {type_mask(t): t for t in cx.type_classes}

    perm_of = numpy.full(sg.size, -1)
    for c, w in cx.perm_at.items():
        perm_of[c] = group.index[w]
    image_of = perm_of[table[:, cx.fundamental]]
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

    anti_ok = True
    closure_ok = True
    for a in masks:
        rows = table[members[a]]
        for b in masks:
            counts = numpy.bincount(rows[:, members[b]].ravel(),
                                    minlength=sg.size)
            sigma = class_values(counts, face_type)
            if sigma is None:
                raise PreconditionError(
                    f"S_{n}: sigma_{type_of[a]} sigma_{type_of[b]} is not "
                    "constant on the type classes")
            image = sigma @ images
            if not numpy.array_equal(
                    image, group.convolve(images[b], images[a])):
                anti_ok = False
            if class_values(image, group.descents) is None:
                closure_ok = False
    return {"basis_images_ok": basis_ok,
            "anti_homomorphism_ok": anti_ok,
            "closure_ok": closure_ok}


# ------------------------------------------------------------ group walk


def descent_walk(p, n, cx=None, guards=DEFAULT_GUARDS):
    """Carry an invariant chamber walk to the group side.

    Returns (mu, ok) where mu = phi(p) and ok records the entrywise
    match P(uC, vC) == mu at the group ratio of u and v, i.e. the
    composition of u-inverse with v.
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
    mu = phi(cx, invariant_from_coeffs(cx, dict(p.items())))

    prod = cx.semigroup.product
    ok = True
    for u, cu in cx.chamber_id.items():
        row = {}
        for i, v in p.items():
            d = prod(i, cu)
            row[d] = row.get(d, Fraction(0)) + v
        uinv = inverse(u)
        for v, cv in cx.chamber_id.items():
            if row.get(cv, Fraction(0)) != mu.get(compose(uinv, v),
                                                  Fraction(0)):
                ok = False
    return mu, ok


# ------------------------------------------------- top-to-random family


class _SymmetricGroupTable:
    """Dense composition table over S_n for integer certification,
    with the descent set of each permutation as a type mask."""

    def __init__(self, n):
        self.n = n
        self.perms = sorted(permutations(range(1, n + 1)))
        self.index = {w: i for i, w in enumerate(self.perms)}
        self.descents = numpy.array(
            [type_mask(descent_set(w)) for w in self.perms])
        # a permutation is coded by its values 0..n-1 as base-n digits;
        # digit k of compose(u, v) is u at v[k], for every v at once
        perms = numpy.array(self.perms, dtype=numpy.int64) - 1
        powers = n ** numpy.arange(n - 1, -1, -1, dtype=numpy.int64)

        def product_codes(lo, hi):
            return sum(perms[lo:hi, perms[:, k]] * powers[k]
                       for k in range(n))

        self.comp = constructions.coded_products(perms @ powers, self.perms,
                                                 n, product_codes)

    def descent_rows(self):
        """(u, z), integer matrices with one row per type mask J: row J
        of u marks the permutations with descent set inside J, row J of
        z those with descent set exactly J."""
        masks = numpy.arange(1 << (self.n - 1))[:, None]
        u = (self.descents[None, :] & ~masks) == 0
        z = self.descents[None, :] == masks
        return u.astype(numpy.int64), z.astype(numpy.int64)

    def vector(self, elem):
        out = numpy.zeros(len(self.perms), dtype=numpy.int64)
        for w, v in elem.items():
            out[self.index[w]] = v
        return out

    def convolve(self, a, b):
        out = numpy.zeros(len(self.perms), dtype=numpy.int64)
        for i in numpy.nonzero(a)[0]:
            out[self.comp[i]] += int(a[i]) * b
        return out


@dataclass
class TopToRandomFamily:
    n: int
    vs: list
    es: list


def top_to_random_idempotents(n, guards=DEFAULT_GUARDS):
    """The E_i family of the uniform move-to-front group walk.

    v_l sums the permutations with descent set inside {1..l} (v_n
    repeats v_{n-1}), and E_i is the alternating binomial combination
    of the v_l / l!.  Orthogonality, idempotence, completeness, the
    vanishing of E_{n-1} and the spectral decomposition of the walk
    distribution are all certified exactly over the integers before
    returning.
    """
    constructions.check_n("top_to_random_idempotents", n,
                          guards.partitions_n_cap)
    vs = []
    for l in range(n + 1):
        cap = set(range(1, min(l, n - 1) + 1))
        vs.append({w: Fraction(1) for w in permutations(range(1, n + 1))
                   if set(descent_set(w)) <= cap})
    es = []
    scale = factorial(n)
    for i in range(n + 1):
        e = {}
        for l in range(i, n + 1):
            c = Fraction((-1) ** (l - i) * comb(l, i), factorial(l))
            for w in vs[l]:
                e[w] = e.get(w, Fraction(0)) + c
        es.append({w: v for w, v in e.items() if v})

    if es[n - 1]:
        raise FalsificationError(f"E_{n - 1} should vanish for n = {n}")

    table = _SymmetricGroupTable(n)
    keep = [i for i in range(n + 1) if i != n - 1]
    ints = {}
    for i in keep:
        v = {w: c * scale for w, c in es[i].items()}
        if any(c.denominator != 1 for c in v.values()):
            raise FalsificationError("E_i denominators exceed n!")
        ints[i] = table.vector({w: c.numerator for w, c in v.items()})
    bound = max(int(numpy.abs(v).max() or 0) for v in ints.values())
    if bound * bound * len(table.perms) >= 2 ** 62:
        raise SizeGuardError("integer certification would overflow")

    identity = tuple(range(1, n + 1))
    total = sum(ints.values())
    want = numpy.zeros(len(table.perms), dtype=numpy.int64)
    want[table.index[identity]] = scale
    if not numpy.array_equal(total, want):
        raise FalsificationError("E_i family does not sum to the identity")
    for i in keep:
        for j in keep:
            got = table.convolve(ints[i], ints[j])
            expect = scale * ints[i] if i == j else 0 * want
            if not numpy.array_equal(got, expect):
                raise FalsificationError(
                    f"E_{i} E_{j} fails the orthogonality certificate")

    # uniform move-to-front measure decomposes as sum of (i/n) E_i;
    # both sides here carry the common factor n * n!
    mu = numpy.zeros(len(table.perms), dtype=numpy.int64)
    for w in permutations(range(1, n + 1)):
        if set(descent_set(w)) <= {1}:
            mu[table.index[w]] = scale
    decomposed = sum(i * ints[i] for i in keep)
    if not numpy.array_equal(mu, decomposed):
        raise FalsificationError(
            "uniform move-to-front measure fails its spectral "
            "decomposition")
    return TopToRandomFamily(n, vs, es)
