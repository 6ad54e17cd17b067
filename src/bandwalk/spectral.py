"""Chamber-walk transition matrices and their exact spectra.

Walk steps multiply a random element onto the current chamber from the
left, so P(c, d) = sum of w_x over x with xc = d: P is left
multiplication by w = sum w_x x on the left ideal kC of the semigroup
algebra kS, spanned by the chambers.  The walk operator has one
integer form: the weights are scaled once to D w over their common
denominator D (`weighted_rows`), and every product by D w, or by any
other integer element, runs through `sparse_product` on the table rows
of the weighted elements.  `TransitionMatrix` keeps only the nonzero
cells of P, at most |supp w| per row.

The eigenvalues are indexed by the support lattice: lambda_X sums the
weights of elements supported at or below X, and the multiplicity m_X
comes from Moebius inversion of the chamber counts c_X.
verify_diagonalizable turns that statement into a falsifiable
certificate in kS: one integer Krylov sequence (Dw)^j 1 must be
annihilated by the product of (x - D lambda) over the distinct lambda,
and its traces on the chamber span must match the multiplicities.
certify_family certifies the eigenprojectors of an integer element of
any dense algebra, the walk idempotents in kS and the E_i in ZS_n
alike.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy

from .errors import (
    FalsificationError,
    MalformedInputError,
    PreconditionError,
)


# ------------------------------------------------------------ weights


def scaled(rows):
    """(D, integer rows): D is the least common denominator of every
    entry, and the integer rows are D times the input.

    Entries may be ints or Fractions; this is the one place a rational
    is turned into an integer.
    """
    rows = [list(r) for r in rows]
    den = math.lcm(*{v.denominator for r in rows for v in r})
    return den, [[v.numerator * (den // v.denominator) for v in r]
                 for r in rows]


class WeightVector:
    """Sparse rational weights on semigroup elements.

    Coefficients are exact Fractions keyed by element id; missing keys
    weigh zero.  `probability` is verified, not assumed.
    """

    def __init__(self, sg, coeffs, require_probability=True):
        self.semigroup = sg
        self.coeffs = {}
        for i, v in coeffs.items():
            v = Fraction(v)
            if not 0 <= i < sg.size:
                raise MalformedInputError(f"weight on unknown element {i}")
            if v:
                self.coeffs[int(i)] = v
        self.total = sum(self.coeffs.values(), Fraction(0))
        self.is_probability = (self.total == 1
                               and all(v > 0 for v in self.coeffs.values()))
        if require_probability and not self.is_probability:
            raise PreconditionError(
                "weights must be positive rationals summing to 1 "
                f"(sum is {self.total})")

    @classmethod
    def from_keys(cls, sg, table, require_probability=True):
        index = {k: i for i, k in enumerate(sg.keys)}
        coeffs = {}
        for key, v in table.items():
            if key not in index:
                raise MalformedInputError(f"unknown element key {key!r}")
            coeffs[index[key]] = Fraction(v)
        return cls(sg, coeffs, require_probability)

    def support_ids(self):
        return sorted(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs.get(i, Fraction(0))

    def items(self):
        return self.coeffs.items()


def uniform_on(sg, ids):
    ids = sorted(set(ids))
    if not ids:
        raise PreconditionError("cannot spread weight over no elements")
    n = len(ids)
    return WeightVector(sg, {i: Fraction(1, n) for i in ids})


def uniform_on_generators(sg):
    """The construction's canonical walk: uniform on declared generators."""
    if not sg.generators:
        raise PreconditionError(f"{sg.label} declares no generators")
    return uniform_on(sg, sg.generators)


# Small integer numerators keep the downstream exact integers small.
SEEDED_MAX_NUMERATOR = 9


def seeded_generator_weights(sg, seed):
    """Reproducible random positive rational probability on generators."""
    if not sg.generators:
        raise PreconditionError(f"{sg.label} declares no generators")
    rng = random.Random(seed)
    nums = [rng.randint(1, SEEDED_MAX_NUMERATOR) for _ in sg.generators]
    den = sum(nums)
    return WeightVector(
        sg, {g: Fraction(v, den) for g, v in zip(sg.generators, nums)})


# -------------------------------------------------- transition matrix


@dataclass
class TransitionMatrix:
    """P(c, d) = sum of w_x over x with xc = d, on the chambers of
    `structure` in their order, kept as integer cells: cells[i] lists
    the (j, a) pairs with P(i, j) = a / den != 0, at most |supp w| of
    them.  The walk behind P, `structure` and `weights`, is what the
    certificates read; `transition_matrix` builds it.
    """

    structure: object
    weights: object
    den: int
    cells: list

    @property
    def size(self):
        return len(self.cells)

    @property
    def chamber_keys(self):
        keys = self.structure.semigroup.keys
        return [keys[c] for c in self.structure.chambers]

    @property
    def rows(self):
        """The dense matrix of Fractions, built anew on every read."""
        zero = Fraction(0)
        out = []
        for cells in self.cells:
            row = [zero] * self.size
            for j, a in cells:
                row[j] = Fraction(a, self.den)
            out.append(row)
        return out


def weighted_rows(structure, w, extra=()):
    """(D, rows, ints): D the common denominator of the weights of w and
    the values in `extra`, rows the (table row of x, D w_x) pairs over
    the weighted x, which is D w for `sparse_product`, and ints D times
    each value in `extra`."""
    table = structure.semigroup.tabulate()
    xs = w.support_ids()
    den, (ints,) = scaled([[w[x] for x in xs] + list(extra)])
    return (den, [(table[x].tolist(), a) for x, a in zip(xs, ints)],
            ints[len(xs):])


def transition_matrix(structure, w):
    """P(c, d) = sum of w_x over x with xc = d, exact.

    The weights are scaled once to integers over their common
    denominator D, and each row sums the integer weights of its cells
    sparsely; no dense row and no Fraction is built.
    """
    chambers = structure.chambers
    if not chambers:
        raise MalformedInputError("no chambers")
    pos = {c: i for i, c in enumerate(chambers)}
    den, rows, _ = weighted_rows(structure, w)
    total = sum(a for _, a in rows)
    cells = []
    for c in chambers:
        acc = {}
        for row, a in rows:
            d = pos[row[c]]
            acc[d] = acc.get(d, 0) + a
        if sum(acc.values()) != total:
            raise FalsificationError("row sum drifted from total weight")
        cells.append([(d, a) for d, a in acc.items() if a])
    return TransitionMatrix(structure, w, den, cells)


# ------------------------------------------------------------ spectra


@dataclass
class FlatRecord:
    flat: int
    label: str
    lam: Fraction
    chambers_above: int
    multiplicity: int


@dataclass
class Spectrum:
    records: list
    grouped: dict          # lambda -> total multiplicity
    n_chambers: int
    is_generic: bool

    def eigenvalues(self):
        """Grouped spectrum without the zero-multiplicity flats."""
        return {l: m for l, m in self.grouped.items() if m}


def flat_eigenvalues(structure, w):
    """lambda_X = sum of w_y over supp y <= X, one entry per flat X.

    This is the character of the support lattice at X evaluated on w,
    and the eigenvalue that the chamber walk attaches to X.
    """
    leq = structure.leq.tolist()
    supp = structure.supp
    flats = range(structure.n_flats)
    lam = [Fraction(0)] * structure.n_flats
    for y, wy in w.items():
        sy = supp[y]
        for x in flats:
            if leq[sy][x]:
                lam[x] += wy
    return lam


def spectrum(structure, w):
    """Eigenvalue data of the chamber walk, with its own consistency proofs.

    For every flat X:  lambda_X = sum of w_y over supp y <= X, and
    c_X = |S_{>=x} chambers| for an anchor x with supp x = X.  The
    anchor count is checked against every anchor in the fibre, the
    Moebius-inverted multiplicities are re-summed against Eq-style
    partial sums, and negatives are rejected.
    """
    leq = structure.leq.tolist()
    f = structure.n_flats
    chambers = structure.chambers

    lam = flat_eigenvalues(structure, w)

    # chambers c with yc = c, for every element y at once
    c = numpy.array(chambers)
    above = (structure.semigroup.tabulate()[:, c] == c).sum(axis=1).tolist()
    c_count = [above[fibre[0]] for fibre in structure.members]
    for x, fibre in enumerate(structure.members):
        for anchor in fibre:
            if above[anchor] != c_count[x]:
                raise FalsificationError(
                    "chamber count over an anchor depends on the anchor",
                    witness=(x, anchor))

    mult = [0] * f
    for x in range(f):
        mult[x] = sum(structure.moebius(x, y) * c_count[y]
                      for y in range(f) if leq[x][y])
    for x in range(f):
        back = sum(mult[y] for y in range(f) if leq[x][y])
        if back != c_count[x]:
            raise FalsificationError(
                "multiplicities do not re-sum to chamber counts",
                witness=x)
        if mult[x] < 0:
            raise FalsificationError(f"negative multiplicity at flat {x}")
    if sum(mult) != len(chambers):
        raise FalsificationError("total multiplicity misses |C|")

    grouped = {}
    for x in range(f):
        grouped[lam[x]] = grouped.get(lam[x], 0) + mult[x]
    records = [FlatRecord(x, structure.labels[x], lam[x], c_count[x],
                          mult[x]) for x in range(f)]
    return Spectrum(records, grouped, len(chambers),
                    is_generic=len(set(lam)) == f)


# ---------------------------------------------------- Krylov sequence


def krylov_sequence(rows, start, size, k):
    """[v_0, .., v_k], integer lists of length `size`: v_0 is the unit
    vector at `start`, and v_{j+1} = a v_j by `sparse_product`, for a
    the sum of c x over the (row of x, c) pairs in `rows`."""
    vs = [[0] * size]
    vs[0][start] = 1
    for _ in range(k):
        vs.append(sparse_product(
            rows, [(y, c) for y, c in enumerate(vs[-1]) if c], size))
    return vs


def apply_roots(vs, roots):
    """The integer list sum of c_j v_j, where c_j are the coefficients,
    lowest degree first, of the product of (x - r) over `roots`."""
    coeffs = [1]
    for r in roots:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    out = [0] * len(vs[0])
    for c, v in zip(coeffs, vs):
        out = [o + c * a for o, a in zip(out, v)]
    return out


def annihilated(structure, w, lams):
    """(vs, nodes, bad): v_j = (Dw)^j 1 in kS for j = 0..k, k the number
    of `lams` and D the common denominator of w and the lams, read off
    the table rows of the weighted elements; the nodes D lambda; and the
    first element where prod (Dw - D lambda) 1 is nonzero, None when
    that product vanishes in kS (1 generates kS as a left module)."""
    sg = structure.semigroup
    _, rows, nodes = weighted_rows(structure, w, lams)
    vs = krylov_sequence(rows, sg.identity, sg.size, len(nodes))
    residue = apply_roots(vs, nodes)
    return vs, nodes, next((x for x, a in enumerate(residue) if a), None)


def certify_family(table, identity, letters, members, keys):
    """Certify members e_k as the eigenprojectors of a, in integers.

    a is the sum of c x over the pairs (x, c) in `letters`, x y is
    table[x][y], and `members` maps a name k to (r_k, den, pairs), e_k
    the sum of (c / den) y over the pairs (y, c).  Checks: (1) sum e_k
    = 1; (2) a e_k = r_k e_k; (3) e_k e_l = 0 for k != l in a tie group,
    the members sharing one r.  Lemma: by (1) and (2), p(a) = sum
    p(r_k) e_k for every polynomial p, so prod (a - r) = 0 over the
    distinct r, and the Lagrange projectors p_r(a) are the orthogonal
    idempotents E_r, the sums of the e_k with r_k = r, with E_r e_k =
    [r_k = r] e_k; a lone member is its E_r.  By (3), e_k = E_{r_k} e_k
    = e_k^2 = e_k E_{r_k}, so e_k E_s = e_k E_{r_k} E_s = 0 for s !=
    r_k: products across groups vanish and e_k a = r_k e_k.  That is
    |F| + sum |G| (|G| - 1) sparse products, not |F|^2.  `keys` names
    the elements in the witness of a FalsificationError.
    """
    size = len(table)
    a = [(table[x].tolist(), c) for x, c in letters]

    def check(ok, why, witness=None):
        if not ok:
            raise FalsificationError(why.format(witness), witness=witness)

    den = math.lcm(*(d for _, d, _ in members.values()))
    total = [0] * size
    total[identity] = -den
    for _, d, e in members.values():
        for y, c in e:
            total[y] += c * (den // d)
    check(not any(total), "the family does not sum to 1")
    groups = {}
    for k, (r, _, e) in members.items():
        out = sparse_product(a, e, size)
        for y, c in e:
            out[y] -= r * c
        check(not any(out), "member {} is not an eigenvector of a", k)
        groups.setdefault(r, []).append(k)
    ties = [g for g in groups.values() if len(g) > 1]
    rows = table.tolist() if ties else None
    for group in ties:
        for k, l in permutations(group, 2):
            ek = [(rows[y], c) for y, c in members[k][2]]
            check(not any(sparse_product(ek, members[l][2], size)),
                  "members {0[0]} and {0[1]} share an eigenvalue but their "
                  "product is nonzero", (k, l))


def sparse_product(rows, b, size):
    """The integer list of a b in the algebra of elements 0..size-1, for
    a the sum of c x over the (row of x, c) pairs in `rows`, row[y]
    being the product x y, and b the sum of d y over the (y, d) pairs
    in `b`.  Every product by an element of kS runs through here."""
    out = [0] * size
    for row, c in rows:
        for y, d in b:
            out[row[y]] += c * d
    return out


# -------------------------------------------------------- certificate


@dataclass
class DiagonalizabilityCertificate:
    entries: list          # (lambda, expected, certified multiplicity)
    total_expected: int
    total_observed: int
    ok: bool


def verify_diagonalizable(P, spec, strict=True):
    """Certify diagonalizability and the multiplicity table at once.

    P is left multiplication by w on the left ideal kC of kS, so the
    identity prod (Dw - D lambda) 1 = 0 over the distinct lambda proves
    P diagonalizable.  Left multiplication by x fixes c_{supp x}
    chambers, so for j < k the traces sum_x v_j(x) c_{supp x} of
    v_j = (Dw)^j 1 must equal sum m_lambda (D lambda)^j; with distinct
    nodes this Vandermonde system forces the grouped multiplicities.
    """
    st = P.structure
    if len(spec.records) != st.n_flats:
        raise PreconditionError("the spectrum belongs to another band")
    lams = sorted(spec.grouped, reverse=True)
    mults = [spec.grouped[l] for l in lams]
    vs, nodes, bad = annihilated(st, P.weights, lams)
    fixed = [spec.records[f].chambers_above for f in st.supp]
    j = next((j for j in range(len(nodes))
              if sum(a * c for a, c in zip(vs[j], fixed))
              != sum(m * d ** j for m, d in zip(mults, nodes))), None)
    # the first element off the identity, else the first power whose
    # trace differs
    witness = st.semigroup.keys[bad] if bad is not None else j
    observed = mults if witness is None else [None] * len(lams)
    total_obs = sum(o or 0 for o in observed)
    cert = DiagonalizabilityCertificate(
        list(zip(lams, mults, observed)), spec.n_chambers, total_obs,
        ok=witness is None and total_obs == P.size)
    if strict and not cert.ok:
        if bad is not None:
            why = f"prod (w - lambda) 1 is nonzero at element {witness}"
        elif j is not None:
            why = f"the trace of P^{j} misses the multiplicities"
        else:
            why = f"multiplicities sum to {total_obs}, not {P.size}"
        raise FalsificationError(
            f"diagonalizability certificate failed: {why}", witness=witness)
    return cert


# ----------------------------------------------------------- helpers


def matrix_permutation_match(a, b):
    """A permutation p with a[p[i]][p[j]] == b[i][j], or None.

    Tries every relabeling once the row multisets agree; intended for
    the small printed-matrix regressions, not bulk use.
    """
    n = len(a)
    if len(b) != n or \
            sorted(sorted(r) for r in a) != sorted(sorted(r) for r in b):
        return None
    return next((list(p) for p in permutations(range(n))
                 if all(a[p[i]][p[j]] == b[i][j]
                        for i in range(n) for j in range(n))), None)
