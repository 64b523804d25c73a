"""Bernstein-basis gap evaluators and scanners.

The basis weights b_{n,i}(x) = C(n,i) x^i (1-x)^(n-i) are the binomial
distribution B(n, x), so the convex-gap double sums of this module are the
hinge-style integrals of the order engine in disguise; both routes are kept
and cross-checked.  The open characterisation questions around the product
operators make most of this module a scanner: it evaluates gaps exactly and
hunts for sign violations, it does not decide function classes.

The gaps and scanners run on ints.  The basis row of a point a/q is the
int row C(n,i) a^i (q-a)^(n-i) over q^n (a scan's points share one q); phi
is tabulated at s/den on one int unit by ConvexTestFn._tabulate, a surface
by _surface_ints.  Every gap sums those ints and builds one Fraction per
value it returns.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from math import comb, lcm, prod
from operator import mul, sub

from .errors import BadParameter, Inconclusive, ModeArity
from .lattice import DEFAULT_EPS, _check_square, _int_product, _scaled_rows, truncate_negbinomial
from .measures import DiscreteMeasure, _frozen, _scaled_ints, as_rational, format_rational
from .orders import ConvexTestFn, OrderVerdict, Witness, _test_fn, _unit_sum, hinge_fn

# Budgets, checked before any work: the basis rows refuse a degree above
# MAX_DEGREE (rasa_gap at x = 1/3, y = 3/7 with a hinge at 1/3 takes about
# 0.055 s at n = 512, 0.3 s at n = 1024 and 2.4 s at n = 2048 on one Xeon
# core; the gaps check every degree before any row or phi value), unit_grid
# refuses a step finer than 1/(MAX_GRID_POINTS - 1), and gav_scan/rasa_scan
# refuse more than MAX_SCAN_POINTS points.
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
    x = _basis_point(n, x)
    unit = x.denominator**n
    return [Fraction(c, unit) for c in _basis_ints(n, x.numerator, x.denominator)]


def _basis_point(n: int, x) -> Fraction:
    """x as a rational, once the degree n and then x itself are checked."""
    x = as_rational(x)
    _check_degree(n)
    if not 0 <= x <= 1:
        raise BadParameter(f"parameter x={format_rational(x)} must lie in [0, 1]")
    return x


def _basis_ints(n: int, a: int, q: int) -> list[int]:
    """The basis row of the point a/q on the unit q^n:
    q^n b_{n,i}(a/q) = C(n,i) a^i (q - a)^(n-i), i = 0..n."""
    return [comb(n, i) * a**i * (q - a) ** (n - i) for i in range(n + 1)]


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


def _self_form(d: Sequence[int], ps: Sequence[int]) -> int:
    """sum_{i,j} d_i d_j ps[i+j] on ints, len(ps) = 2 len(d) - 1: the self
    form of rasa_gap.  The sum is symmetric in i and j, so it runs over
    i <= j, sum_i d_i (d_i ps[2i] + 2 sum_{j>i} d_j ps[i+j]): L(L+1)/2
    products for a row of length L, each as wide as d times as wide as ps,
    which is cheap while ps is narrow (rasa_gap's table has the unit 2n)."""
    return sum(a * (a * ps[2 * i] + 2 * sum(map(mul, d[i + 1 :], ps[2 * i + 1 :])))
               for i, a in enumerate(d) if a)


def _square_ints(d: Sequence[int]) -> list[int]:
    """The 2L - 1 coefficients c_s = sum_{i+j=s} d_i d_j of the square of
    the int row d of length L, by one Kronecker substitution (Harvey,
    J. Symbolic Comput. 44, 2009): d is packed into one int at a slot width
    w of whole bytes, that int is squared once, and each slot is read back
    from a to_bytes slice.  |c_s| <= L max|d_i|^2 < 2^(w - 1) for
    w >= 2 bits + bits(L) + 1, so a bias of 2^(w - 1) per slot puts every
    slot in [0, 2^w) and no slot carries into the next.  One wide square
    beats the L^2/2 products of the self form when the table that pairs
    with the square is as wide as d (the gavrea_p4_sum box)."""
    size = (2 * max(abs(v) for v in d).bit_length() + len(d).bit_length() + 8) // 8
    packed = (int.from_bytes(b"".join(max(v, 0).to_bytes(size, "little") for v in d), "little")
              - int.from_bytes(b"".join(max(-v, 0).to_bytes(size, "little") for v in d), "little"))
    slots = 2 * len(d) - 1
    half = 1 << (8 * size - 1)
    bias = int.from_bytes(half.to_bytes(size, "little") * slots, "little")
    square = (packed * packed + bias).to_bytes(size * slots, "little")
    return [int.from_bytes(square[k : k + size], "little") - half
            for k in range(0, size * slots, size)]


def rasa_gap(n: int, x, y, phi: ConvexTestFn) -> Fraction:
    """Exact value of the basis double sum

        sum_{i,j} (b_i(x)b_j(x) + b_i(y)b_j(y) - 2 b_i(x)b_j(y)) phi((i+j)/(2n)),

    whose bracket is d_i d_j for d = b(x) - b(y).  Non-negative for convex phi.
    x and y go on their common denominator q, d on ints over q^n, and the
    self form of d pairs it with phi's table."""
    scale, (a, b) = _scaled_ints([_basis_point(n, x), _basis_point(n, y)])
    unit, ps = _test_fn(phi)._tabulate(range(2 * n + 1), 2 * n)
    d = list(map(sub, _basis_ints(n, a, scale), _basis_ints(n, b, scale)))
    return Fraction(_self_form(d, ps), scale ** (2 * n) * unit)


def rasa_scan(n: int, grid: Sequence, phi: ConvexTestFn) -> list:
    """[((x, y), rasa_gap(n, x, y, phi)) for x in grid for y in grid], on
    ints: basis rows u over q^n, q the grid's common denominator, and phi's
    table of phi(s/(2n)).  With the Hankel matrix Phi = (phi((i+j)/(2n)))
    the gap is u_x Phi u_x + u_y Phi u_y - 2 u_x Phi u_y, so Phi u is formed
    once per grid point and each pair costs one dot product.  The gap is
    symmetric, so each unordered pair is computed once and mirrored."""
    _check_scan_size(grid, 2)
    scale, nums = _scaled_ints([_basis_point(n, x) for x in grid])
    phi_scale, ps = _test_fn(phi)._tabulate(range(2 * n + 1), 2 * n)
    rows = [_basis_ints(n, a, scale) for a in nums]
    images = [[sum(map(mul, row, ps[i:])) for i in range(n + 1)] for row in rows]
    forms = [sum(map(mul, row, image)) for row, image in zip(rows, images)]
    unit = scale ** (2 * n) * phi_scale
    gaps = {}
    for i, j in itertools.combinations_with_replacement(range(len(grid)), 2):
        gap = forms[i] + forms[j] - 2 * sum(map(mul, rows[i], images[j]))
        gaps[i, j] = gaps[j, i] = Fraction(gap, unit)
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
    from .polynomials import MVPolynomial

    cleaned = [(as_rational(c), tuple(int(e) for e in exps)) for c, exps in terms]
    monomials = (MVPolynomial.monomial(arity, exps, c) for c, exps in cleaned)
    cert = "construction" if all(sum(exps) <= 1 for _, exps in cleaned) else None
    return BivariateFn(sum(monomials, MVPolynomial.zero(arity)), (), cert, cert)


def _ridge(coeff, phi: ConvexTestFn, weights: Sequence, arity: int | None = None) -> BivariateFn:
    """c * phi(sum w_t u_t) with its certificates (see BivariateFn)."""
    from .polynomials import MVPolynomial

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


def _surface_ints(g: BivariateFn, points: Sequence[Sequence[int]], q: int) -> tuple[int, list[int]]:
    """(unit, [g(a_1/q, ..., a_k/q) * unit for each point (a_1, ..., a_k)]):
    g at grid points a/q on one int unit, the lcm of its parts' units.

    Each part is an int column over a unit that no point changes.  A
    monomial c prod u_t^e_t is c.num prod a_t^e_t over c.den q^(sum e_t).
    A ridge c phi(s) has s = S/(W q), W the common denominator of its
    weights and S = sum (w_t W) a_t: c.num times phi's table at the S over
    W q (ConvexTestFn._tabulate), over c.den times the table's unit."""
    parts = [
        (c.denominator * q ** sum(exps), [c.numerator * prod(map(pow, pt, exps)) for pt in points])
        for exps, c in g.poly.terms
    ]
    for c, phi, w in g.ridges:
        scale, ws = _scaled_ints(w)
        unit, values = phi._tabulate([sum(map(mul, ws, pt)) for pt in points], scale * q)
        parts.append((c.denominator * unit, [c.numerator * v for v in values]))
    return _unit_sum(parts, len(points))


def tensor_bernstein(g: BivariateFn, ns: Sequence[int], xs: Sequence) -> Fraction:
    """Exact value of the product operator

        (B_{n_1..n_k} g)(x_1..x_k)
            = sum b_{n_1,i_1}(x_1) ... b_{n_k,i_k}(x_k) g(i_1/n_1, ..., i_k/n_k).
    """
    if len(ns) != len(xs):
        raise ModeArity(f"{len(ns)} degrees vs {len(xs)} coordinates")
    degrees = tuple(ns)
    _check_table(g, degrees)
    op = _ProductOperator(g, degrees, [_basis_point(n, x) for n, x in zip(degrees, xs)])
    return Fraction(op(range(len(degrees))), op.unit)


def _check_table(g: BivariateFn, ns: tuple):
    if g.arity != len(ns):
        raise ModeArity(f"function arity {g.arity} does not match {len(ns)} axes")
    size = prod(n + 1 for n in ns)
    if size > MAX_OPERATOR_TABLE:
        raise BadParameter(
            f"degrees {','.join(map(str, ns))} give a table of {size} surface values;"
            f" MAX_OPERATOR_TABLE = {MAX_OPERATOR_TABLE}"
        )


class _ProductOperator:
    """tensor_bernstein of one surface g in the checked degrees ns at many
    points of one list, on ints.

    g is tabulated once by _surface_ints on the index grid (i_1/n_1, ...,
    i_k/n_k), flat and index-major; the basis row of point j in degree n is
    built once, over q^n for the points' common denominator q; and the
    table summed against the rows of points j_1..j_t is kept per prefix of
    point indices, so recurring points (the diagonal and shifted terms of a
    gav_gap scan) are lookups.  Every value is an int over ``unit``, the
    table's unit times q^(n_1 + ... + n_k).
    """

    def __init__(self, g: BivariateFn, ns: tuple, points: Sequence[Fraction]):
        self.ns = ns
        self.scale, self.nums = _scaled_ints(points)
        q = lcm(*ns)
        grid = itertools.product(*(range(0, q + 1, q // n) for n in ns))
        table_unit, table = _surface_ints(g, list(grid), q)
        self.unit = table_unit * self.scale ** sum(ns)
        self._rows: dict = {}
        self._tables: dict = {(): table}  # (j_1, ..., j_t) -> table summed over t axes

    def __call__(self, cell: Sequence[int]) -> int:
        key, table = (), self._tables[()]
        for n, j in zip(self.ns, cell):
            key += (j,)
            summed = self._tables.get(key)
            if summed is None:
                row = self._rows.get((n, j))
                if row is None:
                    row = self._rows[n, j] = _basis_ints(n, self.nums[j], self.scale)
                size = len(table) // (n + 1)
                summed = self._tables[key] = [
                    sum(map(mul, row, table[p::size])) for p in range(size)
                ]
            table = summed
        return table[0]


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
    xs = _unit_points(points)
    op = _ProductOperator(g, _gav_degrees(mode, g, ns, len(xs)), xs)
    return _gav_gap(mode, op, tuple(range(len(xs))))


def gav_scan(mode: str, g: BivariateFn, ns: Sequence[int], grid: Sequence) -> list:
    """[(point, gav_gap(mode, g, ns, point)) for every point of grid^k], k the
    arity of g, in itertools.product order, all through one product operator
    keyed by grid index."""
    _check_scan_size(grid, g.arity)
    cells = list(itertools.product(range(len(grid)), repeat=g.arity))
    if not cells:
        return []
    # the checks run in the order of a scan point by point: the first
    # point, the mode and the degrees, then each later grid point alone
    _unit_points([grid[j] for j in cells[0]])
    degrees = _gav_degrees(mode, g, ns, g.arity)
    op = _ProductOperator(g, degrees, [_unit_points([t])[0] for t in grid])
    points = itertools.product(grid, repeat=g.arity)
    return [(pt, _gav_gap(mode, op, cell)) for pt, cell in zip(points, cells)]


def _unit_points(points: Sequence) -> list[Fraction]:
    xs = [as_rational(t) for t in points]
    for t in xs:
        if not 0 <= t <= 1:
            raise BadParameter(f"point coordinate {format_rational(t)} must lie in [0, 1]")
    return xs


def _gav_degrees(mode: str, g: BivariateFn, ns: Sequence[int], k: int) -> tuple:
    """The operator's degrees for a gap at k points, once the mode, the
    arity, MAX_OPERATOR_TABLE and every degree are checked."""
    if mode in ("P1", "P1p"):
        if k != 2:
            raise ModeArity(f"mode {mode} takes exactly two points, got {k}")
        if len(ns) not in (1, 2):
            raise ModeArity(f"mode {mode} takes one or two degrees")
        degrees = tuple(ns) * (2 // len(ns))
    elif mode in ("P3", "P3p"):
        if k != len(ns) or k < 1:
            raise ModeArity(f"mode {mode} needs one point per degree")
        degrees = tuple(ns)
    else:
        raise ModeArity(f"unknown mode {mode!r}; expected one of {GAV_MODES}")
    _check_table(g, degrees)
    for n in degrees:
        _check_degree(n)
    return degrees


def _gav_gap(mode: str, op: _ProductOperator, cell: tuple) -> Fraction:
    """The gap at the points of op indexed by cell, summed on ints over
    op.unit; P3 is multiplied through by m = sum(ns)."""
    if mode in ("P1", "P1p"):
        x, y = cell
        mixed = op((x, y)) + op((y, x) if mode == "P1p" else (x, y))
        return Fraction(op((x, x)) + op((y, y)) - mixed, op.unit)
    diagonal = [op((j,) * len(cell)) for j in cell]
    if mode == "P3":
        m = sum(op.ns)
        return Fraction(sum(map(mul, op.ns, diagonal)) - m * op(cell), m * op.unit)
    shifts = sum(op(cell[shift:] + cell[:shift]) for shift in range(len(cell)))
    return Fraction(sum(diagonal) - shifts, op.unit)


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

    g is tabulated once on the sorted grid p_0 < ... < p_{G-1}, by one
    _surface_ints call for all G^2 cells on the grid's common denominator,
    and the screen compares those ints.
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
    scale, nums = _scaled_ints(pts)
    unit, values = _surface_ints(g, [(a, b) for a in nums for b in nums], scale)
    size = len(pts)
    table = [values[i * size : (i + 1) * size] for i in range(size)]

    def row_gain(i: int, j: int) -> list[int]:
        return [b - a for a, b in zip(table[i], table[j])]

    def falls(d: list[int]) -> bool:
        return any(b < a for a, b in zip(d, d[1:]))

    if not any(falls(row_gain(i, i + 1)) for i in range(len(pts) - 1)):
        return OrderVerdict(True)
    pairs = list(itertools.combinations(range(len(pts)), 2))
    i, j = next((i, j) for i, j in pairs if falls(row_gain(i, j)))
    d = row_gain(i, j)
    k, l = next((k, l) for k, l in pairs if d[l] < d[k])
    gap = Fraction(d[l] - d[k], unit)
    return OrderVerdict(False, Witness("quadruple", (pts[i], pts[k], pts[j], pts[l]), gap))


def eq6prim_gap(ns: Sequence[int], xs: Sequence, phi: ConvexTestFn) -> Fraction:
    """Gap of the block inequality

        sum_i (n_i/m) (B_m phi)(x_i)
            - sum_{i_1..i_k} prod_t b_{n_t,i_t}(x_t) phi((i_1+...+i_k)/m)

    with m = sum n_i; non-negative for convex phi.  Each point a/q keeps its
    own denominator, its rows on ints over q^m and q^n.  A block is one dot
    product of its row with phi's table of phi(s/m); the mixed sum collapses
    along the total index to one dot product of the table with the int
    product of the k rows, over the product of their units.  MAX_DEGREE
    refuses m, then each n_i, before any row or phi value."""
    if not ns or len(ns) != len(xs):
        raise ModeArity(f"{len(ns)} degrees vs {len(xs)} coordinates; need >= 1 block")
    if len(ns) > MAX_MULTI_POINTS:
        raise BadParameter(f"{len(ns)} points exceed MAX_MULTI_POINTS = {MAX_MULTI_POINTS}")
    points = _unit_points(xs)
    m = sum(ns)
    for n in (m, *ns):
        _check_degree(n)
    unit, ps = _test_fn(phi)._tabulate(range(m + 1), m)
    blocks, joint, joint_unit = Fraction(0), [1], 1
    for n, x in zip(ns, points):
        a, q = x.numerator, x.denominator
        blocks += Fraction(n * sum(map(mul, _basis_ints(m, a, q), ps)), q**m)
        joint = _int_product(joint, _basis_ints(n, a, q), len(joint) + n)
        joint_unit *= q**n
    return (blocks / m - Fraction(sum(map(mul, joint, ps)), joint_unit)) / unit


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
    tail certificates.  The difference row d is formed on the int rows of
    the two truncations and reduced to its least common denominator.  A box
    whose len(d)^2 products (at least 64) on the widest int of d exceed
    lattice.MAX_SQUARE_WORK raises BadParameter before its first product
    and before any phi value.  The box itself is one dot product: the 2L - 1
    coefficients of d x d (_square_ints, one Kronecker square) against phi's
    int table at s/(2n + s), s = 0..2L - 2, all on the grid's common
    denominator lcm(2n, ..., 2n + 2L - 2) (ConvexTestFn._tabulate).  A phi
    that is not a ConvexTestFn is refused before any truncation.
    """
    x, y, eps = as_rational(x), as_rational(y), as_rational(eps)
    if not isinstance(n, int) or n < 1:
        raise BadParameter(f"index must be an integer >= 1, got {n!r}")
    if not (0 < x < 1 and 0 < y < 1):
        raise BadParameter("both parameters must lie strictly inside (0, 1)")
    phi = _test_fn(phi)
    fam_x = truncate_negbinomial(n, x, eps)  # checks eps and n
    if x == y:
        # identical families: every bracket term vanishes identically
        return IntervalValue(Fraction(0), Fraction(0))
    fam_y = truncate_negbinomial(n, y, eps)
    unit = lcm(fam_x.unit, fam_y.unit)
    fx, fy = unit // fam_x.unit, unit // fam_y.unit
    rows = itertools.zip_longest(fam_x.ints, fam_y.ints, fillvalue=0)
    scale, d = _scaled_rows([(unit, [a * fx - b * fy for a, b in rows])])
    _check_square(len(d) ** 2, d)
    bound = phi.bound_on_unit_interval()
    grid = range(2 * len(d) - 1)
    den = lcm(*(2 * n + s for s in grid))
    phi_unit, ps = phi._tabulate([s * (den // (2 * n + s)) for s in grid], den)
    boxed = Fraction(sum(map(mul, _square_ints(d), ps)), scale * scale * phi_unit)
    sigma = Fraction(sum(map(abs, d)), scale)
    tau = fam_x.tail_bound + fam_y.tail_bound
    slack = bound * (2 * sigma * tau + tau * tau)
    return IntervalValue(boxed - slack, boxed + slack)
