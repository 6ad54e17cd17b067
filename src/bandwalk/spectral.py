"""Chamber-walk transition matrices and their exact spectra.

Walk steps multiply a random element onto the current chamber from the
left, so P(c, d) = sum of w_x over x with xc = d.  The eigenvalues are
indexed by the support lattice: lambda_X sums the weights of elements
supported at or below X, and the multiplicity m_X comes from Moebius
inversion of the chamber counts c_X.  verify_diagonalizable turns that
statement into a falsifiable certificate by computing exact nullities
of P - lambda I per distinct eigenvalue.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy

from . import linalg
from .errors import (
    FalsificationError,
    MalformedInputError,
    PreconditionError,
)


# ------------------------------------------------------------ weights


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


# Small integer numerators keep downstream exact elimination fast.
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
    chamber_keys: list
    chamber_ids: list
    rows: list
    # (D, per row the (column, integer) pairs of its nonzero cells), with
    # rows[i][j] = integer / D; see sparse_rows
    sparse: tuple = field(default=None, repr=False, compare=False)

    @property
    def size(self):
        return len(self.rows)

    def row_sums(self):
        return [sum(r, Fraction(0)) for r in self.rows]

    def sparse_rows(self):
        """(D, cells): cells[i] lists (j, D P(i, j)) over the nonzero
        P(i, j), as integers; derived from the rows by `linalg.scaled`
        when the matrix was not built with them."""
        if self.sparse is None:
            den, ints = linalg.scaled(self.rows)
            self.sparse = (den, [[(j, a) for j, a in enumerate(r) if a]
                                 for r in ints])
        return self.sparse


def transition_matrix(structure, w):
    """P(c, d) = sum of w_x over x with xc = d, exact.

    The weights are scaled once to integers over a common denominator D,
    and each row sums the integer weights of its cells sparsely; a row
    has at most |supp w| nonzero cells, and only those become Fractions.
    """
    sg = structure.semigroup
    chambers = structure.chambers
    if not chambers:
        raise MalformedInputError("no chambers")
    pos = {c: i for i, c in enumerate(chambers)}
    prod = sg.product
    xs = w.support_ids()
    den, (nums,) = linalg.scaled([[w[x] for x in xs]])
    total = sum(nums)
    zero = Fraction(0)
    rows = []
    cells = []
    for c in chambers:
        acc = {}
        for x, a in zip(xs, nums):
            d = pos[prod(x, c)]
            acc[d] = acc.get(d, 0) + a
        if sum(acc.values()) != total:
            raise FalsificationError("row sum drifted from total weight")
        row = [zero] * len(chambers)
        nonzero = [(d, a) for d, a in acc.items() if a]
        for d, a in nonzero:
            row[d] = Fraction(a, den)
        rows.append(row)
        cells.append(nonzero)
    return TransitionMatrix([sg.keys[c] for c in chambers],
                            list(chambers), rows, (den, cells))


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

    def lam(self, flat):
        return self.records[flat].lam

    def multiplicity(self, flat):
        return self.records[flat].multiplicity

    def eigenvalues(self):
        """Grouped spectrum without the zero-multiplicity flats."""
        return {l: m for l, m in self.grouped.items() if m}


def flat_eigenvalues(structure, w):
    """lambda_X = sum of w_y over supp y <= X, one entry per flat X.

    This is the character of the support lattice at X evaluated on w,
    and the eigenvalue that the chamber walk attaches to X.
    """
    leq = structure.leq
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
    leq = structure.leq
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


# -------------------------------------------------------- certificate


def eigenspace_dimensions(P, lams):
    """Exact dim ker(P - lambda I) for each lambda in `lams`, in order.

    P and the lambdas are scaled to integers together, once; each shift
    then subtracts the integer D lambda on the diagonal of a row copy.
    """
    _, rows = linalg.scaled(P.rows + [list(lams)])
    dims = []
    for dlam in rows.pop():
        shifted = [list(r) for r in rows]
        for i, r in enumerate(shifted):
            r[i] -= dlam
        dims.append(linalg.nullity(shifted))
    return dims


@dataclass
class DiagonalizabilityCertificate:
    entries: list          # (lambda, expected multiplicity, observed nullity)
    total_expected: int
    total_observed: int
    ok: bool


def verify_diagonalizable(P, spec, strict=True):
    """Certify diagonalizability and the multiplicity table at once.

    For each distinct eigenvalue the exact nullity of P - lambda I must
    equal the grouped multiplicity, and the nullities must sum to the
    chamber count; eigenspace dimensions can only fall short of that
    total, so equality certifies a full eigenbasis.
    """
    n = P.size
    lams = sorted(spec.grouped, reverse=True)
    entries = [(l, spec.grouped[l], o)
               for l, o in zip(lams, eigenspace_dimensions(P, lams))]
    total_obs = sum(o for _, _, o in entries)
    cert = DiagonalizabilityCertificate(
        entries, spec.n_chambers, total_obs,
        ok=(total_obs == n == spec.n_chambers
            and all(e == o for _, e, o in entries)))
    if strict and not cert.ok:
        bad = [(str(l), e, o) for l, e, o in entries if e != o]
        raise FalsificationError(
            f"diagonalizability certificate failed: {bad or 'total'} "
            f"(observed total {total_obs}, chambers {spec.n_chambers})")
    return cert


# ----------------------------------------------------------- helpers


def remove_holding_probability(P, alpha):
    """The lazy-part deflation (P - alpha I) / (1 - alpha)."""
    alpha = Fraction(alpha)
    if alpha == 1:
        raise PreconditionError("cannot deflate a holding probability of 1")
    scale = 1 / (1 - alpha)
    rows = [[(v - (alpha if i == j else 0)) * scale
             for j, v in enumerate(row)]
            for i, row in enumerate(P.rows)]
    return TransitionMatrix(list(P.chamber_keys), list(P.chamber_ids), rows)


def matrix_permutation_match(a, b):
    """A permutation p with a[p[i]][p[j]] == b[i][j], or None.

    Backtracking on rows with multiset pruning; intended for the small
    printed-matrix regressions, not bulk use.
    """
    n = len(a)
    if len(b) != n:
        return None
    if sorted(sorted(r) for r in a) != sorted(sorted(r) for r in b):
        return None
    perm = [None] * n
    used = [False] * n

    def fits(i):
        pi = perm[i]
        for j in range(n):
            if perm[j] is not None:
                if a[pi][perm[j]] != b[i][j] or a[perm[j]][pi] != b[j][i]:
                    return False
        return True

    def place(i):
        if i == n:
            return True
        for cand in range(n):
            if not used[cand]:
                perm[i] = cand
                used[cand] = True
                if fits(i) and place(i + 1):
                    return True
                used[cand] = False
                perm[i] = None
        return False

    return perm if place(0) else None
