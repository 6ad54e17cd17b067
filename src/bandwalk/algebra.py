"""The rational semigroup algebra of a band and its walk idempotents.

Everything here runs on the integers a_x = D w_x and n_X = D lambda_X,
D the common denominator of w; only the returned elements are sparse
maps from element ids to Fractions.  The paper writes the walk's m-step
law and its idempotents as sums over the reduced words of a weight
vector: tuples of weighted letters whose prefix supports climb
strictly.  The coefficient of a word is a product of one factor per
flat of its support chain, so `support_pass` sums the words per element
instead, in one climb through the flats in support order.  With the
factor 1 / (1 - lambda_f t) it gives the generating function of the
exact m-step distribution, D^n w^n in integers; with the residue factor
1 / (lambda_X - lambda_f) it gives the member e_X of an orthogonal
family of idempotents splitting the walk algebra, one per feasible
flat, as integers over one denominator.  Verification is built into
the constructors; a family that fails its own certificate is reported,
never returned.  One integer certificate, `spectral.certify_family`,
proves every family, generic or tied, to be the eigenprojectors of w:
sum e_X = 1 and w e_X = lambda_X e_X, plus e_X e_Y = 0 among members
sharing a lambda.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import FalsificationError, MalformedInputError, PreconditionError
from .guards import DEFAULT_GUARDS
from .spectral import certify_family, flat_nodes, weighted_rows


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
    those (a, sum) pairs to the (a, v) pairs that move on, and each
    such a pushes v * a_x, a_x = D w_x, to a x for every weighted x
    with supp x not <= f, and, while f < below, supp x <= below.
    supp(a x) is the join of f and supp x, so every push lands on a
    flat still to come and each element is settled once, after all of
    its words arrived.  The identity starts with `start`; values need
    only * and + by integers.
    """
    sg = structure.semigroup
    leq = structure.leq.tolist()
    xs = w.support_ids()
    letters = [(structure.supp[x], w.nums[x]) for x in xs]
    products = sg.id_lists(sg.tabulate(guards)[:, xs])
    mass = {sg.identity: start}
    for f in structure.order:
        held = [(a, mass.pop(a)) for a in structure.members[f] if a in mass]
        if not held:
            continue
        moving = settle(f, held)
        early = below is not None and below != f and leq[f][below]
        steps = [(k, c) for k, (s, c) in enumerate(letters)
                 if not leq[s][f] and (not early or leq[s][below])]
        for a, v in moving:
            row = products[a]
            for k, c in steps:
                b = row[k]
                mass[b] = mass.get(b, 0) + v * c


def power_formula(structure, w, m, guards=DEFAULT_GUARDS):
    """[D^0 w^0, .., D^m w^m], integer maps assembled from reduced
    words without a single convolution, D the common denominator of w.

    Each reduced word x of length l, with support chain c_0 < .. < c_l,
    contributes h_{n-l}(lambda_{c_0}, .., lambda_{c_l}) * w_x to w^n on
    the element it multiplies out to, for every n >= l.  That is the
    coefficient of t^n in the generating function
    t^l * prod_j 1 / (1 - lambda_{c_j} t), which `support_pass` carries
    per element as its coefficients of degree <= m, the one of degree
    n times D^n: the sum at each element is divided by 1 - n_f t at
    its flat f, n_f = D lambda_f, and pushed on times a_x t.  One pass
    thus yields every power up to m.  Agreement with the powers of w is
    a theorem; `selftest.criterion_4` checks it against one Krylov
    sequence (D w)^n 1, and the test suite against convolution, this
    function does not.
    """
    if m < 0:
        raise MalformedInputError("negative power")
    nodes = flat_nodes(structure, w)
    out = [{} for _ in range(m + 1)]

    def settle(f, held):
        moving = []
        for a, g in held:
            for n in range(1, m + 1):
                g[n] += nodes[f] * g[n - 1]
            for n in range(m + 1):
                if g[n]:
                    out[n][a] = g[n]
            shifted = np.concatenate(([0], g[:-1]))
            if shifted.any():
                moving.append((a, shifted))
        return moving

    start = np.array([1] + [0] * m, dtype=object)
    support_pass(structure, w, settle, start, guards=guards)
    return out


def residue_idempotent(structure, w, flat, nodes, guards=DEFAULT_GUARDS):
    """The member e_X of the residue family, X = `flat`, as (den, e) in
    lowest terms, den > 0: e_X(a) = e[a] / den.

    A reduced word x whose support chain c_0 < .. < c_l passes X adds
    w_x times prod over c_j != X of 1 / (lambda_X - lambda_{c_j}), its
    residue at lambda_X, to e_X at the element it multiplies out to.
    With a_x and n_f = D lambda_f (`nodes`) the powers of D cancel: the
    word adds prod a_x / prod (n_X - n_{c_j}).  That is one factor per
    flat, so `support_pass` divides the summed mass of the elements at
    each flat f once by n_X - n_f, using only letters with supp x <= X
    until X is reached.  Every chain of the pass runs through flats
    comparable to X, so the masses are numerators over Q, the product
    of n_X - n_f over those f != X with n_f != n_X: the product along
    each chain divides Q, and every division is exact.  e_X(a) is the
    mass that settles at a, for each a with supp a >= X.  A chain
    through X and another flat with the same lambda has no residue and
    raises FalsificationError.
    """
    nx = nodes[flat]
    leq = structure.leq
    comparable = (leq[flat] | leq[:, flat]).tolist()
    q = math.prod(nx - n for f, n in enumerate(nodes)
                  if comparable[f] and n != nx)
    above = leq[flat].tolist()
    e = {}

    def settle(f, held):
        if f != flat:
            if nodes[f] == nx:
                raise FalsificationError(
                    "equal eigenvalues along a feasible chain")
            held = [(a, m // (nx - nodes[f])) for a, m in held]
        if above[f]:
            e.update((a, m) for a, m in held if m)
        return held

    support_pass(structure, w, settle, q, below=flat, guards=guards)
    g = math.gcd(q, *e.values()) * (1 if q > 0 else -1)
    return q // g, {a: m // g for a, m in e.items()}


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
    nodes = flat_nodes(structure, w)
    members = {x: residue_idempotent(structure, w, x, nodes, guards)
               for x in feas}
    certify_members(structure, w, members, nodes)

    by_node = {}
    for x in feas:
        by_node.setdefault(nodes[x], []).append(x)
    grouped = [(Fraction(n, w.den),
                _fractions(*_summed([members[x] for x in by_node[n]])))
               for n in sorted(by_node, reverse=True)]
    return IdempotentFamily(
        feas, {x: Fraction(nodes[x], w.den) for x in feas},
        {x: _fractions(*members[x]) for x in feas}, grouped,
        lattice_covered=covered, is_generic=len(by_node) == len(feas))


def _summed(parts):
    """(den, e) for the sum of the (den, e) integer elements in parts."""
    den = math.lcm(*(d for d, _ in parts))
    out = {}
    for d, e in parts:
        for a, c in e.items():
            out[a] = out.get(a, 0) + c * (den // d)
    return den, {a: c for a, c in out.items() if c}


def _fractions(den, e):
    return {a: Fraction(c, den) for a, c in e.items()}


def certify_members(structure, w, members, nodes):
    """`spectral.certify_family` on members {flat: (den, integer map)},
    with eigenvalues the nodes n_X = D lambda_X and letters a_x = D w_x,
    D the common denominator of w; a tie group reads the band's rows of
    its members' supports."""
    sg = structure.semigroup
    family = {structure.labels[x]: (nodes[x], den, list(e.items()))
              for x, (den, e) in members.items()}
    certify_family(sg.size, sg.identity, weighted_rows(structure, w), family,
                   lambda ids: sg.id_lists(sg.rows(ids)))


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
    the list (e_0, .., e_n), e_i the sum over l >= i of
    (-1)^(l-i) C(l, i) sigma_l / l!, where e_{n-1} must come out
    identically zero; the caller compares with the grouped primitive
    idempotents of the uniform walk.
    """
    sg = structure.semigroup
    if getattr(sg, "family", None) != "free_lrb_bar":
        raise PreconditionError("these closed forms are for the reduced "
                                "free band")
    n = sg.meta["n"]
    supp = structure.supp
    family = []
    for i in range(n + 1):
        c = [Fraction((-1) ** (l - i) * math.comb(l, i), math.factorial(l))
             if l >= i else 0 for l in range(n + 1)]
        e = {x: c[n - 1] + c[n] if supp[x] == structure.top
             else c[structure.rank[supp[x]]] for x in range(sg.size)}
        family.append({x: v for x, v in e.items() if v})
    return family


# ------------------------------------------------- Tsetlin nu family


def tsetlin_nu_family(structure, w):
    """Signed sampling measures for the free band, plus reconstruction.

    nu_{X,Y} puts (-1)^{|Y-X|} times the probability of drawing the
    ordering (x_1..x_i, y_j..y_1) on that tuple, where the x's sample X
    without replacement (left to right) and the y's sample Y-X without
    replacement, written right to left.  It is keyed by the pair of
    flat ids of X and Y.  Their upper sums rebuild the residue
    idempotents; the caller checks that equality.
    """
    sg = structure.semigroup
    if getattr(sg, "family", None) != "free_lrb":
        raise PreconditionError("nu measures are defined on the free band")
    n = sg.meta["n"]
    index = {word: i for i, word in enumerate(sg.objects)}
    letters = list(range(1, n + 1))
    weight_of = {sg.objects[x][0]: v for x, v in w.items()
                 if len(sg.objects[x]) == 1}
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
                    eid = index[xpart + tuple(reversed(ypart))]
                    measure[eid] = measure.get(eid, Fraction(0)) \
                        + sign * px * py
            # the sorted word on a letter set has that set as its flat
            nu[(structure.supp[index[X]], structure.supp[index[Y]])] = measure
    return nu


def nu_reconstruction(nu, flat):
    """e_X as the sum of nu_{X,Y} over Y containing X, for X the flat
    id `flat`, the key of e_X in `IdempotentFamily.members`."""
    out = {}
    for (a, _), measure in nu.items():
        if a == flat:
            for x, v in measure.items():
                out[x] = out.get(x, 0) + v
    return {x: v for x, v in out.items() if v}
