"""The rational semigroup algebra of a band and its walk idempotents.

Elements of the algebra are sparse maps from element ids to Fractions.
The central objects are the reduced words of a weight vector: tuples of
feasible letters whose prefix supports climb strictly.  Summing their
contributions with complete homogeneous symmetric functions gives the
exact m-step distribution of the walk; summing them with residue
coefficients gives an orthogonal family of idempotents splitting the
walk algebra, one per feasible flat.  Verification is built into the
constructors; a family that fails its own orthogonality is reported,
never returned.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    FalsificationError,
    MalformedInputError,
    PreconditionError,
    SizeGuardError,
)
from .guards import DEFAULT_GUARDS
from .posets import rank_function
from .spectral import flat_eigenvalues


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


# ------------------------------------------------------ reduced words


def feasible_flats(structure, w):
    """L_w: the bottom plus all joins of supports of weighted elements.

    Returns a sorted flat id list.  Equals the whole lattice exactly
    when the weighted elements generate the semigroup.
    """
    join = structure.join
    gens = {structure.supp[x] for x in w.support_ids()}
    seen = {structure.bottom} | gens
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in list(seen):
            for g in gens:
                j = join[a][g]
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return sorted(seen)


def _reduced_word_walk(sg, structure, w, visit, guards):
    """DFS over reduced words of feasible letters.

    Calls visit(letters, chain, product_id, weight_product) at every
    node, including the empty word; `chain` is the support chain
    starting at the bottom flat.
    """
    letters = w.support_ids()
    supp = structure.supp
    join = structure.join
    prod = sg.product
    budget = [guards.word_cap]

    def rec(word, chain, elem, wprod):
        budget[0] -= 1
        if budget[0] < 0:
            raise SizeGuardError(
                f"reduced-word traversal exceeded {guards.word_cap} nodes")
        visit(word, chain, elem, wprod)
        top = chain[-1]
        for x in letters:
            nxt = join[top][supp[x]]
            if nxt != top:
                word.append(x)
                chain.append(nxt)
                rec(word, chain, prod(elem, x), wprod * w[x])
                word.pop()
                chain.pop()

    rec([], [structure.bottom], sg.identity, Fraction(1))


def complete_homogeneous(degree, values):
    """h_degree(values) by the one-variable-at-a-time recurrence."""
    h = [Fraction(1)] + [Fraction(0)] * degree
    for v in values:
        if not v:
            continue
        for n in range(1, degree + 1):
            h[n] += v * h[n - 1]
    return h[degree]


def power_formula(structure, w, m, guards=DEFAULT_GUARDS):
    """w^m assembled from reduced words, without a single convolution.

    Each reduced word x of length l <= m contributes
    h_{m-l}(lambda_0..lambda_l) * w_x on the element it multiplies out
    to.  Agreement with the convolution power is a theorem; the test
    suite checks it, this function does not.
    """
    if m < 0:
        raise MalformedInputError("negative power")
    sg = structure.semigroup
    lam = flat_eigenvalues(structure, w)
    out = {}

    def visit(word, chain, elem, wprod):
        l = len(word)
        if l > m:
            return
        h = complete_homogeneous(m - l, [lam[x] for x in chain])
        if h and wprod:
            s = out.get(elem, Fraction(0)) + h * wprod
            if s:
                out[elem] = s
            else:
                out.pop(elem, None)

    _reduced_word_walk(sg, structure, w, visit, guards)
    return out


# ------------------------------------------------ walk idempotents


@dataclass
class IdempotentFamily:
    flat_ids: list         # feasible flats, sorted
    lam: dict              # flat id -> eigenvalue
    members: dict          # flat id -> algebra element
    grouped: list          # (lambda, algebra element), distinct lambda
    lattice_covered: bool  # feasible flats == all flats
    is_generic: bool

    def member(self, flat):
        return self.members[flat]


def primitive_idempotents(structure, w, restrict=False,
                          guards=DEFAULT_GUARDS):
    """The orthogonal idempotent family of the walk algebra.

    e_X sums, over reduced words whose support chain passes through X,
    the residue coefficient times the word's weight on the element the
    word multiplies out to.  The family is orthogonal, idempotent,
    sums to the algebra identity and decomposes w as sum of
    lambda_X e_X; all four facts are certified here before returning.
    Grouping members with equal eigenvalue yields the primitive
    idempotents of the walk algebra even for non-generic weights.

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
    members = {x: {} for x in feas}

    def visit(word, chain, elem, wprod):
        if not wprod:
            return
        l = len(word)
        # residues of the partial-fraction split along this word's chain
        for i, x in enumerate(chain):
            den = Fraction(1)
            for j in range(i):
                den *= lam[x] - lam[chain[j]]
            for j in range(i + 1, l + 1):
                den *= lam[chain[j]] - lam[x]
            if den == 0:
                raise FalsificationError(
                    "equal eigenvalues along a feasible chain")
            r = Fraction((-1) ** (l - i), 1) / den
            e = members[x]
            s = e.get(elem, Fraction(0)) + r * wprod
            if s:
                e[elem] = s
            else:
                e.pop(elem, None)

    _reduced_word_walk(sg, structure, w, visit, guards)

    by_lam = {}
    for x in feas:
        by_lam.setdefault(lam[x], []).append(x)
    grouped = []
    for lv in sorted(by_lam, reverse=True):
        acc = {}
        for x in by_lam[lv]:
            acc = alg_add(acc, members[x])
        grouped.append((lv, acc))
    fam = IdempotentFamily(
        feas, {x: lam[x] for x in feas}, members, grouped,
        lattice_covered=covered,
        is_generic=len(by_lam) == len(feas))
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
    scaled = {}
    for x, e in fam.members.items():
        den, (nums,) = linalg.scaled([e.values()])
        scaled[x] = den, list(zip(e, nums))

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
        da, va = scaled[xa]
        # memoryviews give plain ints without copying the rows
        rows = [(memoryview(table[i]), ci) for i, ci in va]
        for xb in fam.flat_ids:
            db, vb = scaled[xb]
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
    r = rank_function(structure.leq, structure.bottom)
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
