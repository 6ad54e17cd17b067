"""The rational semigroup algebra of a band and its walk idempotents.

Elements of the algebra are sparse maps from element ids to Fractions.
The paper writes the walk's m-step law and its idempotents as sums over
the reduced words of a weight vector: tuples of weighted letters whose
prefix supports climb strictly.  The coefficient of a word is a product
of one factor per flat of its support chain, so `support_pass` sums the
words per element instead, in one climb through the flats in support
order.  With the factor 1 / (1 - lambda_f t) it gives the generating
function of the exact m-step distribution; with the residue factor
1 / (lambda_X - lambda_f) it gives the member e_X of an orthogonal
family of idempotents splitting the walk algebra, one per feasible
flat.  For generic weights the same family is a set of Lagrange
projectors, polynomials in w.  Verification is built into the
constructors; a family that fails its own certificate is reported,
never returned.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import posets
from .errors import FalsificationError, MalformedInputError, PreconditionError
from .guards import DEFAULT_GUARDS
from .spectral import (annihilated, flat_eigenvalues, lagrange_projectors,
                       scaled)


# ------------------------------------------------- algebra primitives


def alg_identity(sg):
    return {sg.identity: Fraction(1)}


def alg_scale(a, c):
    c = Fraction(c)
    if not c:
        return {}
    return {x: v * c for x, v in a.items()}


def alg_add(a, b):
    out = dict(a)
    for x, v in b.items():
        s = out.get(x, Fraction(0)) + v
        if s:
            out[x] = s
        else:
            out.pop(x, None)
    return out


def alg_multiply(sg, a, b):
    """Convolution product in the semigroup algebra."""
    prod = sg.product
    out = {}
    for x, va in a.items():
        for y, vb in b.items():
            z = prod(x, y)
            s = out.get(z, Fraction(0)) + va * vb
            if s:
                out[z] = s
            else:
                out.pop(z, None)
    return out


def alg_power(sg, a, m):
    out = alg_identity(sg)
    for _ in range(m):
        out = alg_multiply(sg, out, a)
    return out


def alg_equal(a, b):
    return {x: v for x, v in a.items() if v} == \
        {x: v for x, v in b.items() if v}


def weight_element(w):
    """The element sum of w_x x for a WeightVector."""
    return dict(w.items())


# ----------------------------------------------------- support pass


def feasible_flats(structure, w):
    """L_w: the bottom plus all joins of supports of weighted elements.

    Returns a sorted flat id list.  It is the whole lattice when the
    weighted elements generate the semigroup, and may be so otherwise.
    """
    join = structure.join.tolist()
    gens = {structure.supp[x] for x in w.support_ids()}
    seen = {structure.bottom} | gens
    frontier = seen
    while frontier:
        frontier = {join[a][g] for a in frontier for g in gens} - seen
        seen |= frontier
    return sorted(seen)


def support_pass(structure, w, settle, start, below=None,
                 guards=DEFAULT_GUARDS):
    """The reduced words of w, summed per element in one climb.

    A reduced word x_1 .. x_l multiplies out to an element whose prefix
    supports c_0 < c_1 < .. < c_l climb strictly from the bottom flat.
    Going through the flats f of `structure.order`, the values pushed
    to each element a with supp a = f are summed; settle(f, held) maps
    those (a, sum) pairs to a factor r and the (a, v) pairs that move
    on, and each such a pushes v * r * w_x to a x for every weighted x
    with supp x not <= f, and, while f < below, supp x <= below.
    supp(a x) is the join of f and supp x, so every push lands on a
    flat still to come and each element is settled once, after all of
    its words arrived.  The identity starts with `start`; values need
    only * and +.
    """
    sg = structure.semigroup
    leq = structure.leq.tolist()
    xs = w.support_ids()
    letters = [(structure.supp[x], w[x]) for x in xs]
    products = sg.tabulate(guards)[:, xs].tolist()
    mass = {sg.identity: start}
    for f in structure.order:
        held = [(a, mass.pop(a)) for a in structure.members[f] if a in mass]
        if not held:
            continue
        r, moving = settle(f, held)
        early = below is not None and below != f and leq[f][below]
        steps = [(k, c * r) for k, (s, c) in enumerate(letters)
                 if not leq[s][f] and (not early or leq[s][below])]
        for a, v in moving:
            row = products[a]
            for k, c in steps:
                b = row[k]
                mass[b] = mass.get(b, 0) + v * c


def power_formula(structure, w, m, guards=DEFAULT_GUARDS):
    """w^m assembled from reduced words, without a single convolution.

    Each reduced word x of length l <= m, with support chain
    c_0 < .. < c_l, contributes h_{m-l}(lambda_{c_0}, .., lambda_{c_l})
    * w_x on the element it multiplies out to.  That is the coefficient
    of t^m in the generating function
    t^l * prod_j 1 / (1 - lambda_{c_j} t), which `support_pass` carries
    per element as its coefficients of degree <= m: the sum at each
    element is divided by 1 - lambda_f t at its flat f, and pushed on
    times w_x t.
    Agreement with the convolution power is a theorem; the test suite
    checks it, this function does not.
    """
    if m < 0:
        raise MalformedInputError("negative power")
    lam = flat_eigenvalues(structure, w)
    out = {}

    def settle(f, held):
        moving = []
        for a, g in held:
            for n in range(1, m + 1):
                g[n] += lam[f] * g[n - 1]
            if g[m]:
                out[a] = g[m]
            shifted = np.concatenate(([0], g[:-1]))
            if shifted.any():
                moving.append((a, shifted))
        return 1, moving

    start = np.array([Fraction(1)] + [0] * m, dtype=object)
    support_pass(structure, w, settle, start, guards=guards)
    return out


def residue_idempotent(structure, w, flat, lam, guards=DEFAULT_GUARDS):
    """The member e_X of the residue family, X = `flat`.

    A reduced word x whose support chain c_0 < .. < c_l passes X adds
    w_x times prod over c_j != X of 1 / (lambda_X - lambda_{c_j}), its
    residue at lambda_X, to e_X at the element it multiplies out to.
    That is one factor per flat, so `support_pass` applies the factor
    of each flat f once to the summed mass of the elements at f, using
    only letters with supp x <= X until X is reached.  e_X(a) is the
    mass that settles at a, for each a with supp a >= X.  A chain
    through X and another flat with the same lambda has no residue and
    raises FalsificationError.
    """
    lx = lam[flat]
    above = structure.leq[flat].tolist()
    e = {}

    def settle(f, held):
        if f == flat:
            r = 1
        elif lam[f] == lx:
            raise FalsificationError("equal eigenvalues along a feasible chain")
        else:
            r = 1 / (lx - lam[f])
        if above[f]:
            e.update((a, m * r) for a, m in held if m)
        return r, held

    support_pass(structure, w, settle, Fraction(1), below=flat, guards=guards)
    return e


# ------------------------------------------------ walk idempotents


@dataclass
class IdempotentFamily:
    flat_ids: list         # feasible flats, sorted
    lam: dict              # flat id -> eigenvalue
    members: dict          # flat id -> algebra element
    grouped: list          # (lambda, algebra element), distinct lambda
    lattice_covered: bool  # feasible flats == all flats
    is_generic: bool


def primitive_idempotents(structure, w, restrict=False,
                          guards=DEFAULT_GUARDS):
    """The orthogonal idempotent family of the walk algebra.

    When the lambda_X of the feasible flats are pairwise distinct, e_X
    is the Lagrange projector prod over Y != X of (w - lambda_Y) /
    (lambda_X - lambda_Y), and the identity prod (w - lambda_Y) = 0 on
    the same Krylov sequence makes the family orthogonal, idempotent,
    complete and sum to w with weights lambda_X.  Otherwise e_X is
    `residue_idempotent`: one pass in support order that multiplies the
    mass at each flat f != X on a chain through X by
    1 / (lambda_X - lambda_f), and `_certify_family` checks those facts
    pair by pair.
    Grouping members with equal eigenvalue yields the primitive
    idempotents of the walk algebra either way.

    Requires the weighted elements to generate the semigroup so that
    every flat is feasible; pass restrict=True to knowingly work over
    the feasible sublattice instead.
    """
    sg = structure.semigroup
    feas = feasible_flats(structure, w)
    covered = len(feas) == structure.n_flats
    if not covered and not restrict:
        raise PreconditionError(
            f"{sg.label}: weighted elements generate only "
            f"{len(feas)}/{structure.n_flats} flats; pass restrict=True "
            "to analyze the walk on the generated sub-band")
    lam = flat_eigenvalues(structure, w)
    by_lam = {}
    for x in feas:
        by_lam.setdefault(lam[x], []).append(x)
    generic = len(by_lam) == len(feas)
    if generic:
        vs, nodes, bad = annihilated(structure, w, [lam[x] for x in feas])
        if bad is not None:
            raise FalsificationError(
                "prod (w - lambda_X) over the feasible flats is nonzero "
                f"at {sg.keys[bad]}", witness=sg.keys[bad])
        members = {
            x: {i: Fraction(a, den) for i, a in enumerate(num) if a}
            for x, (num, den) in zip(feas, lagrange_projectors(vs, nodes))}
    else:
        members = {x: residue_idempotent(structure, w, x, lam, guards)
                   for x in feas}

    grouped = []
    for lv in sorted(by_lam, reverse=True):
        acc = {}
        for x in by_lam[lv]:
            acc = alg_add(acc, members[x])
        grouped.append((lv, acc))
    fam = IdempotentFamily(
        feas, {x: lam[x] for x in feas}, members, grouped,
        lattice_covered=covered, is_generic=generic)
    if not generic:
        _certify_family(sg, structure, w, fam)
    return fam


def _certify_family(sg, structure, w, fam):
    """Exact orthogonality, idempotence, completeness, decomposition.

    Pair products run on integer-rescaled copies so the inner loop is
    integer multiply-add; a family member e with denominator D is
    idempotent iff the integer convolution of its numerator vector
    with itself is D times that vector.
    """
    n = sg.size
    table = sg.tabulate()
    ints = {}
    for x, e in fam.members.items():
        den, (nums,) = scaled([e.values()])
        ints[x] = den, list(zip(e, nums))

    total = {}
    for x in fam.flat_ids:
        total = alg_add(total, fam.members[x])
    if not alg_equal(total, alg_identity(sg)):
        raise FalsificationError("idempotent family does not sum to 1")

    recomposed = {}
    for x in fam.flat_ids:
        recomposed = alg_add(recomposed,
                             alg_scale(fam.members[x], fam.lam[x]))
    if not alg_equal(recomposed, weight_element(w)):
        raise FalsificationError(
            "eigenvalue decomposition does not rebuild w")

    for xa in fam.flat_ids:
        da, va = ints[xa]
        # memoryviews give plain ints without copying the rows
        rows = [(memoryview(table[i]), ci) for i, ci in va]
        for xb in fam.flat_ids:
            db, vb = ints[xb]
            out = [0] * n
            for row, ci in rows:
                for j, cj in vb:
                    out[row[j]] += ci * cj
            if xa == xb:
                for i, ci in va:
                    out[i] -= da * ci
            if any(out):
                raise FalsificationError(
                    f"family not orthogonal/idempotent at flats "
                    f"({structure.labels[xa]}, {structure.labels[xb]})")


def stationary_from_idempotents(structure, fam):
    """Chamber coefficients of the top-flat member, as a distribution."""
    top = structure.top
    if top not in fam.members:
        raise PreconditionError("top flat is not feasible for these weights")
    e = fam.members[top]
    pi = [e.get(c, Fraction(0)) for c in structure.chambers]
    extra = set(e) - set(structure.chambers)
    if extra or sum(pi, Fraction(0)) != 1:
        raise FalsificationError(
            "top idempotent is not a distribution on chambers")
    return pi


# ------------------------------------------- uniform move-to-front


def uniform_tsetlin_idempotents(structure):
    """Eq-(24)-style grouped idempotents for the reduced free band.

    sigma_l is the sum of the elements whose support has size l for
    l <= n-2, and the chamber sum for both l = n-1 and l = n.  Returns
    the list (e_0, .., e_n) where e_{n-1} must come out identically
    zero; the caller compares with the grouped primitive idempotents
    of the uniform walk.
    """
    sg = structure.semigroup
    if getattr(sg, "family", None) != "free_lrb_bar":
        raise PreconditionError("these closed forms are for the reduced "
                                "free band")
    n = sg.meta["n"]
    supp = structure.supp
    rank = _flat_ranks(structure)
    sigma = {l: {} for l in range(n + 1)}
    for x in range(sg.size):
        flat = supp[x]
        if flat == structure.top:
            continue
        sigma[rank[flat]][x] = Fraction(1)
    chamber_sum = {c: Fraction(1) for c in structure.chambers}
    sigma[n - 1] = dict(chamber_sum)
    sigma[n] = dict(chamber_sum)

    fact = [1] * (n + 1)
    for i in range(1, n + 1):
        fact[i] = fact[i - 1] * i
    binom = lambda a, b: fact[a] // (fact[b] * fact[a - b])

    family = []
    for i in range(n + 1):
        e = {}
        for l in range(i, n + 1):
            c = Fraction((-1) ** (l - i) * binom(l, i), fact[l])
            e = alg_add(e, alg_scale(sigma[l], c))
        family.append(e)
    return family


def _flat_ranks(structure):
    r = posets.rank_function(structure.cover, structure.order)
    if r is None:
        raise PreconditionError("support lattice is not graded")
    return r


# ------------------------------------------------- Tsetlin nu family


def tsetlin_nu_family(structure, w):
    """Signed sampling measures for the free band, plus reconstruction.

    nu_{X,Y} puts (-1)^{|Y-X|} times the probability of drawing the
    ordering (x_1..x_i, y_j..y_1) on that tuple, where the x's sample X
    without replacement (left to right) and the y's sample Y-X without
    replacement, written right to left.  Their upper sums rebuild the
    residue idempotents; the caller checks that equality.
    """
    sg = structure.semigroup
    if getattr(sg, "family", None) != "free_lrb":
        raise PreconditionError("nu measures are defined on the free band")
    n = sg.meta["n"]
    index = {k: i for i, k in enumerate(sg.keys)}
    letters = list(range(1, n + 1))
    weight_of = {}
    for x, v in w.items():
        key = sg.keys[x]
        if "," not in key and key != "e":
            weight_of[int(key)] = v
    if sorted(weight_of) != letters or any(v <= 0
                                           for v in weight_of.values()):
        raise PreconditionError(
            "nu sampling needs positive weight on every single letter")

    def orderings(pool):
        if not pool:
            yield (), Fraction(1)
            return
        total = sum(weight_of[i] for i in pool)
        for i in pool:
            for rest, p in orderings([j for j in pool if j != i]):
                yield (i,) + rest, p * weight_of[i] / total

    subsets = [[]]
    for i in letters:
        subsets += [s + [i] for s in subsets]
    by_size = sorted((tuple(s) for s in subsets), key=lambda s: (len(s), s))

    nu = {}
    for X in by_size:
        setx = set(X)
        for Y in by_size:
            sety = set(Y)
            if not setx <= sety:
                continue
            sign = (-1) ** (len(sety) - len(setx))
            measure = {}
            for xpart, px in orderings(list(X)):
                for ypart, py in orderings(sorted(sety - setx)):
                    word = xpart + tuple(reversed(ypart))
                    key = ",".join(str(i) for i in word) if word else "e"
                    eid = index[key]
                    measure[eid] = measure.get(eid, Fraction(0)) \
                        + sign * px * py
            nu[(X, Y)] = measure
    return nu


def nu_reconstruction(structure, nu, X):
    """e_X as the sum of nu_{X,Y} over Y containing X."""
    out = {}
    for (a, b), measure in nu.items():
        if a == X:
            out = alg_add(out, measure)
    return out
