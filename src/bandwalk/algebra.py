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
flat.  Verification is built into the constructors; a family that
fails its own certificate is reported, never returned.  One integer
certificate, `spectral.certify_family`, proves every family, generic or
tied, to be the eigenprojectors of w: sum e_X = 1 and w e_X =
lambda_X e_X, plus e_X e_Y = 0 among members sharing a lambda.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from . import posets
from .errors import FalsificationError, MalformedInputError, PreconditionError
from .guards import DEFAULT_GUARDS
from .spectral import certify_family, flat_eigenvalues, scaled


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
    """[w^0, .., w^m] assembled from reduced words, without a single
    convolution.

    Each reduced word x of length l, with support chain c_0 < .. < c_l,
    contributes h_{n-l}(lambda_{c_0}, .., lambda_{c_l}) * w_x to w^n on
    the element it multiplies out to, for every n >= l.  That is the
    coefficient of t^n in the generating function
    t^l * prod_j 1 / (1 - lambda_{c_j} t), which `support_pass` carries
    per element as its coefficients of degree <= m: the sum at each
    element is divided by 1 - lambda_f t at its flat f, and pushed on
    times w_x t.  One pass thus yields every power up to m.
    Agreement with the convolution powers is a theorem; the test suite
    checks it, this function does not.
    """
    if m < 0:
        raise MalformedInputError("negative power")
    lam = flat_eigenvalues(structure, w)
    out = [{} for _ in range(m + 1)]

    def settle(f, held):
        moving = []
        for a, g in held:
            for n in range(1, m + 1):
                g[n] += lam[f] * g[n - 1]
            for n in range(m + 1):
                if g[n]:
                    out[n][a] = g[n]
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

    Each member e_X is `residue_idempotent`.  `certify_members` checks
    in integers that (1) sum e_X = 1, (2) w e_X = lambda_X e_X, and (3)
    e_X e_Y = 0 for X != Y only among flats sharing a lambda.  By the
    lemma of `spectral.certify_family`, prod (w - lambda) = 0 over the
    distinct lambda, the members at each lambda sum to the Lagrange
    projector of w there (a lone member is it), and the family is
    orthogonal, idempotent, complete and sums to w with weights
    lambda_X.  Grouping members with equal eigenvalue yields the
    primitive idempotents of the walk algebra.

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
    members = {x: residue_idempotent(structure, w, x, lam, guards)
               for x in feas}
    certify_members(structure, w, members, lam, guards)

    by_lam = {}
    for x in feas:
        by_lam.setdefault(lam[x], []).append(x)
    grouped = [(lv, reduce(alg_add, (members[x] for x in by_lam[lv])))
               for lv in sorted(by_lam, reverse=True)]
    return IdempotentFamily(
        feas, {x: lam[x] for x in feas}, members, grouped,
        lattice_covered=covered, is_generic=len(by_lam) == len(feas))


def certify_members(structure, w, members, lam, guards=DEFAULT_GUARDS):
    """`spectral.certify_family` on members {flat: algebra element}, each
    scaled to integers over its own denominator, with eigenvalues D
    lambda and letters D w_x for D the common denominator of w."""
    sg = structure.semigroup
    xs = w.support_ids()
    _, (ints,) = scaled([[w[x] for x in xs] + [lam[x] for x in members]])
    family = {}
    for (x, e), node in zip(members.items(), ints[len(xs):]):
        den, (nums,) = scaled([e.values()])
        family[structure.labels[x]] = node, den, list(zip(e, nums))
    certify_family(sg.tabulate(guards), sg.identity, list(zip(xs, ints)),
                   family, sg.keys)


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
