"""Bernstein-basis gap evaluators and scanners.

The basis weights b_{n,i}(x) = C(n,i) x^i (1-x)^(n-i) are the binomial
distribution B(n, x), so the convex-gap double sums of this module are the
hinge-style integrals of the order engine in disguise; both routes are kept
and cross-checked.  The open characterisation questions around the product
operators make most of this module a scanner: it evaluates gaps exactly and
hunts for sign violations, it does not decide function classes.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from fractions import Fraction
from math import comb, prod

from .errors import BadParameter, Inconclusive, ModeArity
from .lattice import DEFAULT_EPS, cauchy_product, truncate_negbinomial
from .measures import DiscreteMeasure, _frozen, as_rational, format_rational
from .orders import ConvexTestFn, OrderVerdict, Witness, hinge_fn
from .polynomials import MVPolynomial

# Budgets, checked before any work: binomial_weights refuses a degree above
# MAX_DEGREE (rasa_gap takes about 0.4 s at n = 512 and 5 s at n = 1024),
# unit_grid refuses a step finer than 1/(MAX_GRID_POINTS - 1), and
# gav_scan/rasa_scan refuse more than MAX_SCAN_POINTS points.
# supermodularity_check tabulates G^2 values on a G-point grid, so the grid
# budget bounds it too.  The product operator behind tensor_bernstein,
# gav_gap and gav_scan tabulates prod(n_i + 1) surface values and refuses
# more than MAX_OPERATOR_TABLE.  eq6prim_gap refuses more than
# MAX_MULTI_POINTS blocks (points) and a total degree above MAX_DEGREE, and
# multi_rasa_gap, m times eq6prim_gap([n] * m, ...), inherits both.
MAX_DEGREE = 512
MAX_GRID_POINTS = 257
MAX_SCAN_POINTS = 100_000
MAX_OPERATOR_TABLE = 10_000
MAX_MULTI_POINTS = 16


def binomial_weights(n: int, x) -> list[Fraction]:
    """All n+1 basis values b_{n,i}(x), zeros included."""
    x = as_rational(x)
    _check_degree(n)
    if not 0 <= x <= 1:
        raise BadParameter(f"parameter x={format_rational(x)} must lie in [0, 1]")
    return [comb(n, i) * x**i * (1 - x) ** (n - i) for i in range(n + 1)]


def _check_degree(n: int):
    if not isinstance(n, int) or n < 1:
        raise BadParameter(f"degree must be an integer >= 1, got {n!r}")
    if n > MAX_DEGREE:
        raise BadParameter(f"degree {n} exceeds MAX_DEGREE = {MAX_DEGREE}")


def binomial_measure(n: int, x) -> DiscreteMeasure:
    """The binomial distribution B(n, x) as an exact measure on 0..n."""
    weights = binomial_weights(n, x)
    return DiscreteMeasure(
        tuple((Fraction(i), w) for i, w in enumerate(weights) if w != 0)
    )


def _phi_row_sum(row: Sequence[Fraction], phi_at) -> Fraction:
    """sum_s row[s] * phi_at(s) over the non-zero entries, phi_at(s) being
    the test function at the s-th scaled point: a double sum of this module
    once collapsed along its diagonals."""
    return sum((c * phi_at(s) for s, c in enumerate(row) if c != 0), Fraction(0))


def rasa_gap(n: int, x, y, phi: ConvexTestFn) -> Fraction:
    """Exact value of the basis double sum

        sum_{i,j} (b_i(x)b_j(x) + b_i(y)b_j(y) - 2 b_i(x)b_j(y)) phi((i+j)/(2n)),

    collapsed along diagonals: the bracket is the self-convolution of the
    weight difference, so only 2n+1 test-function values are needed.
    Non-negative for convex phi."""
    phi_at = lambda s: phi(Fraction(s, 2 * n))
    return _rasa_gap(binomial_weights(n, x), binomial_weights(n, y), phi_at)


def _rasa_gap(u: Sequence[Fraction], v: Sequence[Fraction], phi_at) -> Fraction:
    """The squared row (u - v) x (u - v), the shorter row padded with
    zeros, paired with phi_at."""
    diff = [a - b for a, b in itertools.zip_longest(u, v, fillvalue=0)]
    return _phi_row_sum(cauchy_product(diff, diff), phi_at)


def rasa_scan(n: int, grid: Sequence, phi: ConvexTestFn) -> list:
    """[((x, y), rasa_gap(n, x, y, phi)) for x in grid for y in grid], with
    the basis row of each grid point and each phi(s/(2n)) computed once.

    The gap is symmetric in x and y (a sign flip of the weight difference
    leaves its self-convolution unchanged), so each unordered pair of grid
    positions is computed once and mirrored."""
    _check_scan_size(grid, 2)
    rows = [binomial_weights(n, x) for x in grid]
    phi_at = functools.cache(lambda s: phi(Fraction(s, 2 * n)))
    gaps = {}
    for i, j in itertools.combinations_with_replacement(range(len(grid)), 2):
        gaps[i, j] = gaps[j, i] = _rasa_gap(rows[i], rows[j], phi_at)
    return [((x, y), gaps[i, j]) for i, x in enumerate(grid) for j, y in enumerate(grid)]


def _check_scan_size(grid: Sequence, k: int):
    count = len(grid) ** k
    if count > MAX_SCAN_POINTS:
        raise BadParameter(
            f"a scan of {len(grid)}^{k} = {count} points exceeds"
            f" MAX_SCAN_POINTS = {MAX_SCAN_POINTS}"
        )


def multi_rasa_gap(n: int, xs: Sequence, phi: ConvexTestFn) -> Fraction:
    """m-point generalisation:

        sum over (i_1..i_m) of [sum_l prod_k b_{i_k}(x_l) - m prod_k b_{i_k}(x_k)]
        * phi((i_1+...+i_m)/(m n)).

    A sum of m independent B(n, x) is B(m n, x), so this is m times the
    block gap eq6prim_gap([n] * m, xs, phi); non-negative for convex phi."""
    _check_degree(n)
    return len(xs) * eq6prim_gap([n] * len(xs), xs, phi)


# -- exact multivariate test functions ---------------------------------------


@_frozen
class BivariateFn:
    """Exactly evaluable function of several rational variables: a
    polynomial plus ridges c * phi(sum w_t u_t), phi a ConvexTestFn.

    ``convex_cert`` / ``supermodular_cert`` are "construction" when the
    shape guarantees the property and None when nothing is claimed.  A ridge
    is convex for c >= 0, and supermodular as well when every w_t >= 0: a
    convex function of a non-negative linear form (Topkis, Supermodularity
    and Complementarity, 1998).  The name reflects the dominant two-variable
    use; any arity works.
    """

    poly: MVPolynomial
    ridges: tuple[tuple[Fraction, ConvexTestFn, tuple[Fraction, ...]], ...] = ()
    convex_cert: str | None = None
    supermodular_cert: str | None = None

    @property
    def arity(self) -> int:
        return self.poly.arity

    def __call__(self, point: Sequence) -> Fraction:
        xs = [as_rational(t) for t in point]
        if len(xs) != self.arity:
            raise ModeArity(f"need {self.arity} coordinates, got {len(xs)}")
        total = self.poly.eval(xs)
        for c, phi, w in self.ridges:
            total += c * phi(sum((wt * t for wt, t in zip(w, xs) if wt), Fraction(0)))
        return total

    def __add__(self, other: "BivariateFn") -> "BivariateFn":
        if self.arity != other.arity:
            raise ModeArity(f"arities differ: {self.arity} vs {other.arity}")
        return BivariateFn(
            self.poly + other.poly,
            self.ridges + other.ridges,
            # both properties are preserved under addition
            self.convex_cert and other.convex_cert,
            self.supermodular_cert and other.supermodular_cert,
        )


def poly_surface(terms, arity: int = 2) -> BivariateFn:
    """Plain polynomial terms [(coeff, exponents), ...]; certificates are
    claimed only in the affine case (convex and modular by construction)."""
    cleaned = [(as_rational(c), tuple(int(e) for e in exps)) for c, exps in terms]
    monomials = (MVPolynomial.monomial(arity, exps, c) for c, exps in cleaned)
    cert = "construction" if all(sum(exps) <= 1 for _, exps in cleaned) else None
    return BivariateFn(sum(monomials, MVPolynomial.zero(arity)), (), cert, cert)


def _ridge(coeff, phi: ConvexTestFn, weights: Sequence, arity: int | None = None) -> BivariateFn:
    """c * phi(sum w_t u_t) with its certificates (see BivariateFn)."""
    c = as_rational(coeff)
    w = tuple(as_rational(t) for t in weights)
    convex = "construction" if c >= 0 else None
    supermod = convex if all(t >= 0 for t in w) else None
    zero = MVPolynomial.zero(len(w) if arity is None else arity)
    return BivariateFn(zero, ((c, phi, w),), convex, supermod)


def absdiff_surface(coeff=1, arity: int = 2, i: int = 0, j: int = 1) -> BivariateFn:
    """c * |u_i - u_j| = c * (2 (u_i - u_j)_+ - (u_i - u_j)): convex for
    c >= 0 (and famously not supermodular)."""
    w = [0] * arity
    w[i] += 1
    w[j] -= 1
    return _ridge(coeff, ConvexTestFn(slope=-1, hinges=((0, 2),)), w)


def hinge_surface(coeff, alphas, threshold, arity: int | None = None) -> BivariateFn:
    """c * (sum alpha_t u_t - A)_+: an increasing convex ridge when c and
    every alpha are >= 0."""
    return _ridge(coeff, hinge_fn(threshold), alphas, arity)


def compose_convex(phi: ConvexTestFn, weights: Sequence) -> BivariateFn:
    """g(u_1..u_k) = phi(sum w_t u_t): convex by construction, and
    supermodular too when the weights are non-negative."""
    return _ridge(1, phi, weights)


def tensor_bernstein(g: BivariateFn, ns: Sequence[int], xs: Sequence) -> Fraction:
    """Exact value of the product operator

        (B_{n_1..n_k} g)(x_1..x_k)
            = sum b_{n_1,i_1}(x_1) ... b_{n_k,i_k}(x_k) g(i_1/n_1, ..., i_k/n_k).
    """
    return _ProductOperator(g)(ns, xs)


class _ProductOperator:
    """tensor_bernstein for one surface g at many points.

    g is tabulated once per degree tuple on the index grid (i_1/n_1, ...,
    i_k/n_k), flat and index-major; the basis row b_{n,.}(x) is computed once
    per (n, x); and the table summed against the rows of x_1..x_j is kept per
    prefix (x_1..x_j).  A point seen before, such as the diagonal and shifted
    terms that recur across a gav_gap scan, is a lookup, and points sharing a
    prefix share its partial sums.  One instance serves one call or one scan.
    """

    def __init__(self, g: BivariateFn):
        self.g = g
        self._rows: dict = {}
        self._tables: dict = {}  # (ns, x_1, ..., x_j) -> table summed over j axes

    def __call__(self, ns: Sequence[int], xs: Sequence) -> Fraction:
        if len(ns) != len(xs):
            raise ModeArity(f"{len(ns)} degrees vs {len(xs)} coordinates")
        if self.g.arity != len(ns):
            raise ModeArity(f"function arity {self.g.arity} does not match {len(ns)} axes")
        size = prod(n + 1 for n in ns)
        if size > MAX_OPERATOR_TABLE:
            raise BadParameter(
                f"degrees {','.join(map(str, ns))} give a table of {size} surface values;"
                f" MAX_OPERATOR_TABLE = {MAX_OPERATOR_TABLE}"
            )
        rows = [self._row(n, x) for n, x in zip(ns, xs)]
        key = (tuple(ns),)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = [
                self.g([Fraction(i, n) for i, n in zip(indices, ns)])
                for indices in itertools.product(*(range(n + 1) for n in ns))
            ]
        for x, row in zip(xs, rows):
            key += (x,)
            summed = self._tables.get(key)
            if summed is None:
                summed = self._tables[key] = _sum_leading_axis(table, row)
            table = summed
        return table[0]

    def _row(self, n: int, x) -> list[Fraction]:
        row = self._rows.get((n, x))
        if row is None:
            row = self._rows[(n, x)] = binomial_weights(n, x)
        return row


def _sum_leading_axis(table: list[Fraction], row: list[Fraction]) -> list[Fraction]:
    """sum_i row[i] * table[i, ...] for an index-major flat table."""
    size = len(table) // len(row)
    total = [Fraction(0)] * size
    for i, w in enumerate(row):
        if w:
            total = [t + w * v for t, v in zip(total, table[i * size : (i + 1) * size])]
    return total


GAV_MODES = ("P1", "P1p", "P3", "P3p")


def gav_gap(mode: str, g: BivariateFn, ns: Sequence[int], points: Sequence) -> Fraction:
    """Left-minus-right gap of the product-operator inequalities; the mode's
    inequality holds at the given points exactly when the gap is >= 0.

    P1   B(x,x) + B(y,y) - 2 B(x,y)
    P1p  B(x,x) + B(y,y) - B(x,y) - B(y,x)
    P3   sum_i (n_i/m) B(x_i..x_i) - B(x_1..x_k)
    P3p  sum_i B(x_i..x_i) - sum over cyclic shifts of B(shifted xs)

    (B is the tensor_bernstein operator throughout.)
    """
    return _gav_gap(mode, _ProductOperator(g), ns, points)


def gav_scan(mode: str, g: BivariateFn, ns: Sequence[int], grid: Sequence) -> list:
    """[(point, gav_gap(mode, g, ns, point)) for every point of grid^k], k the
    arity of g, in itertools.product order, all through one product operator."""
    _check_scan_size(grid, g.arity)
    op = _ProductOperator(g)
    return [(pt, _gav_gap(mode, op, ns, pt)) for pt in itertools.product(grid, repeat=g.arity)]


def _unit_points(points: Sequence) -> list[Fraction]:
    xs = [as_rational(t) for t in points]
    for t in xs:
        if not 0 <= t <= 1:
            raise BadParameter(f"point coordinate {format_rational(t)} must lie in [0, 1]")
    return xs


def _gav_gap(mode: str, op: _ProductOperator, ns: Sequence[int], points: Sequence) -> Fraction:
    xs = _unit_points(points)
    if mode in ("P1", "P1p"):
        if len(xs) != 2:
            raise ModeArity(f"mode {mode} takes exactly two points, got {len(xs)}")
        if len(ns) not in (1, 2):
            raise ModeArity(f"mode {mode} takes one or two degrees")
        degrees = list(ns) if len(ns) == 2 else [ns[0], ns[0]]
        x, y = xs

        def b(u, v):
            return op(degrees, [u, v])

        if mode == "P1":
            return b(x, x) + b(y, y) - 2 * b(x, y)
        return b(x, x) + b(y, y) - b(x, y) - b(y, x)
    if mode in ("P3", "P3p"):
        k = len(ns)
        if len(xs) != k or k < 1:
            raise ModeArity(f"mode {mode} needs one point per degree")
        diagonal = [op(ns, [t] * k) for t in xs]
        if mode == "P3":
            m = sum(ns)
            mixed = op(ns, xs)
            return sum(
                (Fraction(n, m) * d for n, d in zip(ns, diagonal)), Fraction(0)
            ) - mixed
        shifts = sum(
            (
                op(ns, xs[shift:] + xs[:shift])
                for shift in range(k)
            ),
            Fraction(0),
        )
        return sum(diagonal, Fraction(0)) - shifts
    raise ModeArity(f"unknown mode {mode!r}; expected one of {GAV_MODES}")


def unit_grid(step=Fraction(1, 16)) -> list[Fraction]:
    """Rational grid 0, step, 2*step, ..., 1 (1 always included) of at most
    MAX_GRID_POINTS points."""
    step = as_rational(step)
    if not 0 < step <= 1:
        raise BadParameter(f"grid step {format_rational(step)} must lie in (0, 1]")
    below_one = -(-step.denominator // step.numerator)  # ceil(1/step)
    if below_one + 1 > MAX_GRID_POINTS:
        raise BadParameter(
            f"grid step {format_rational(step)} gives {below_one + 1} points;"
            f" MAX_GRID_POINTS = {MAX_GRID_POINTS}"
        )
    return [i * step for i in range(below_one)] + [Fraction(1)]


def supermodularity_check(g: BivariateFn, grid: Sequence | None = None) -> OrderVerdict:
    """Finite screen of g(x1,x2) + g(y1,y2) >= g(x1,y2) + g(y1,x2) over all
    grid quadruples with (y1-x1)(y2-x2) > 0.

    Only the both-increasing corner is enumerated: swapping the roles of
    (x1,y1) or (x2,y2) maps the both-decreasing case onto it.  A pass is
    evidence on the grid, not a proof on the square.

    g is tabulated once on the sorted grid p_0 < ... < p_{G-1}: G^2 calls.
    The gap of the quadruple x1 = p_i, y1 = p_j, x2 = p_k, y2 = p_l is
    D(l) - D(k) with D = g(p_j, .) - g(p_i, .) on the grid, and it is the
    sum of the adjacent-cell differences of the cells between those rows and
    columns (the sums telescope).  So every gap is >= 0 exactly when every
    one of the (G-1)^2 adjacent-cell differences is, that is, when D rises
    weakly for every pair of adjacent rows (Topkis, Supermodularity and
    Complementarity, 1998): the pass costs O(G^2).  Only on a failure are
    the quadruples walked, in the order (x1, y1), then (x2, y2), each pair
    lexicographic, to report the first failing one and its gap: a row pair
    whose D rises weakly has no failing quadruple and is passed over.
    """
    pts = [as_rational(t) for t in (grid if grid is not None else unit_grid())]
    if g.arity != 2:
        raise ModeArity("supermodularity screening is for two-variable functions")
    pts = sorted(set(pts))
    table = [[g([x, y]) for y in pts] for x in pts]

    def row_gain(i: int, j: int) -> list[Fraction]:
        return [b - a for a, b in zip(table[i], table[j])]

    def falls(d: list[Fraction]) -> bool:
        return any(b < a for a, b in zip(d, d[1:]))

    if not any(falls(row_gain(i, i + 1)) for i in range(len(pts) - 1)):
        return OrderVerdict(True)
    pairs = list(itertools.combinations(range(len(pts)), 2))
    i, j = next((i, j) for i, j in pairs if falls(row_gain(i, j)))
    d = row_gain(i, j)
    k, l = next((k, l) for k, l in pairs if d[l] < d[k])
    return OrderVerdict(False, Witness("quadruple", (pts[i], pts[k], pts[j], pts[l]), d[l] - d[k]))


def eq6prim_gap(ns: Sequence[int], xs: Sequence, phi: ConvexTestFn) -> Fraction:
    """Gap of the block inequality

        sum_i (n_i/m) (B_m phi)(x_i)
            - sum_{i_1..i_k} prod_t b_{n_t,i_t}(x_t) phi((i_1+...+i_k)/m)

    with m = sum n_i; non-negative for convex phi.  The mixed sum collapses
    along the total index through coefficient convolution.  The block rows
    of degree m come first, so MAX_DEGREE refuses m before any product.
    phi is evaluated at most once per point s/m, however many blocks."""
    if not ns or len(ns) != len(xs):
        raise ModeArity(f"{len(ns)} degrees vs {len(xs)} coordinates; need >= 1 block")
    if len(ns) > MAX_MULTI_POINTS:
        raise BadParameter(f"{len(ns)} points exceed MAX_MULTI_POINTS = {MAX_MULTI_POINTS}")
    points = _unit_points(xs)
    m = sum(ns)
    phi_at = functools.cache(lambda s: phi(Fraction(s, m)))
    blocks = Fraction(0)
    for n, x in zip(ns, points):
        blocks += Fraction(n, m) * _phi_row_sum(binomial_weights(m, x), phi_at)
    joint = [Fraction(1)]
    for n, x in zip(ns, points):
        joint = cauchy_product(joint, binomial_weights(n, x))
    return blocks - _phi_row_sum(joint, phi_at)


@_frozen
class IntervalValue:
    """A rational interval certified to contain a real number."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(
                f"empty interval [{format_rational(self.lo)}, {format_rational(self.hi)}]"
            )

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def certified_sign(self) -> int:
        """-1, 0 or +1 when the interval pins the sign down; raises
        Inconclusive otherwise (shrink eps and retry)."""
        if self.hi < 0:
            return -1
        if self.lo > 0:
            return 1
        if self.lo == 0 == self.hi:
            return 0
        raise Inconclusive(f"0 lies in [{format_rational(self.lo)}, {format_rational(self.hi)}]")


def gavrea_p4_sum(n: int, x, y, phi: ConvexTestFn, eps=DEFAULT_EPS) -> IntervalValue:
    """Certified enclosure of the negative-binomial double sum

        sum_{i,j} (a_i(x)a_j(x) + a_i(y)a_j(y) - 2 a_i(x)a_j(y))
                  * phi((i+j)/(2n+i+j))

    with a_k(t) = C(n+k,k)(1-t)^(n+1) t^k.  Both families are truncated with
    tail mass certified below eps; the box part is computed exactly and the
    remainder is bounded through |phi| <= M on [0,1]: the bracket equals the
    product (a-b)x(a-b), whose mass outside the box is at most
    2*sigma*tau + tau^2 for sigma the boxed L1 difference and tau the summed
    tail certificates.
    """
    x, y, eps = as_rational(x), as_rational(y), as_rational(eps)
    if not isinstance(n, int) or n < 1:
        raise BadParameter(f"index must be an integer >= 1, got {n!r}")
    if not (0 < x < 1 and 0 < y < 1):
        raise BadParameter("both parameters must lie strictly inside (0, 1)")
    if x == y:
        # identical families: every bracket term vanishes identically
        return IntervalValue(Fraction(0), Fraction(0))
    bound = phi.bound_on_unit_interval()
    fam_x = truncate_negbinomial(n, x, eps)
    fam_y = truncate_negbinomial(n, y, eps)
    boxed = _rasa_gap(fam_x.coeffs, fam_y.coeffs, lambda s: phi(Fraction(s, 2 * n + s)))
    pairs = itertools.zip_longest(fam_x.coeffs, fam_y.coeffs, fillvalue=0)
    sigma = sum((abs(a - b) for a, b in pairs), Fraction(0))
    tau = fam_x.tail_bound + fam_y.tail_bound
    slack = bound * (2 * sigma * tau + tau * tau)
    return IntervalValue(boxed - slack, boxed + slack)
