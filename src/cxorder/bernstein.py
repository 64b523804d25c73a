"""Bernstein-basis gap evaluators and scanners.

The basis weights b_{n,i}(x) = C(n,i) x^i (1-x)^(n-i) are the binomial
distribution B(n, x), so the convex-gap double sums of this module are the
hinge-style integrals of the order engine in disguise; both routes are kept
and cross-checked.  The open characterisation questions around the product
operators make most of this module a scanner: it evaluates gaps exactly and
hunts for sign violations, it does not decide function classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .errors import BadParameter, Inconclusive, ModeArity
from .lattice import DEFAULT_EPS, cauchy_product, truncate_negbinomial
from .measures import DiscreteMeasure, as_rational
from .orders import ConvexTestFn, OrderVerdict, Witness


def binomial_weights(n: int, x) -> list[Fraction]:
    """All n+1 basis values b_{n,i}(x), zeros included."""
    x = as_rational(x)
    if not isinstance(n, int) or n < 1:
        raise BadParameter(f"degree must be an integer >= 1, got {n!r}")
    if not 0 <= x <= 1:
        raise BadParameter(f"parameter x={x} must lie in [0, 1]")
    return [comb(n, i) * x**i * (1 - x) ** (n - i) for i in range(n + 1)]


def binomial_measure(n: int, x) -> DiscreteMeasure:
    """The binomial distribution B(n, x) as an exact measure on 0..n."""
    weights = binomial_weights(n, x)
    return DiscreteMeasure(
        tuple((Fraction(i), w) for i, w in enumerate(weights) if w != 0)
    )


def _phi_row_sum(row: Sequence[Fraction], point, phi: ConvexTestFn) -> Fraction:
    """sum_s row[s] * phi(point(s)) over the non-zero entries: a double sum
    of this module once collapsed along its diagonals."""
    return sum((c * phi(point(s)) for s, c in enumerate(row) if c != 0), Fraction(0))


def rasa_gap(n: int, x, y, phi: ConvexTestFn) -> Fraction:
    """Exact value of the basis double sum

        sum_{i,j} (b_i(x)b_j(x) + b_i(y)b_j(y) - 2 b_i(x)b_j(y)) phi((i+j)/(2n)),

    collapsed along diagonals: the bracket is the self-convolution of the
    weight difference, so only 2n+1 test-function values are needed.
    Non-negative for convex phi."""
    diff = [a - b for a, b in zip(binomial_weights(n, x), binomial_weights(n, y))]
    return _phi_row_sum(cauchy_product(diff, diff), lambda s: Fraction(s, 2 * n), phi)


def multi_rasa_gap(n: int, xs: Sequence, phi: ConvexTestFn) -> Fraction:
    """m-point generalisation:

        sum over (i_1..i_m) of [sum_l prod_k b_{i_k}(x_l) - m prod_k b_{i_k}(x_k)]
        * phi((i_1+...+i_m)/(m n)).

    Computed through the m-fold coefficient convolutions; reduces to
    rasa_gap for m = 2 and is non-negative for convex phi."""
    weights = [binomial_weights(n, x) for x in xs]
    m = len(weights)
    if m < 1:
        raise BadParameter("need at least one point")
    mixed = weights[0]
    for w in weights[1:]:
        mixed = cauchy_product(mixed, w)
    total = [-Fraction(m) * c for c in mixed]
    for w in weights:
        power = w
        for _ in range(m - 1):
            power = cauchy_product(power, w)
        for s, c in enumerate(power):
            total[s] += c
    return _phi_row_sum(total, lambda s: Fraction(s, m * n), phi)


# -- exact multivariate test functions ---------------------------------------


@dataclass(frozen=True)
class BivariateFn:
    """Exactly evaluable function of several rational variables, built from
    monomial terms c * prod u_t^{e_t}, absolute differences c * |u_i - u_j|
    and hinges c * (sum alpha_t u_t - A)_+.

    ``convex_cert`` / ``supermodular_cert`` record how a property is known:
    "construction" for shapes that guarantee it, "grid" for a heuristic
    finite check, None when nothing is claimed.  The name reflects the
    dominant two-variable use; any arity works.
    """

    arity: int = 2
    poly_terms: tuple[tuple[Fraction, tuple[int, ...]], ...] = ()
    hinge_terms: tuple[tuple[Fraction, tuple[Fraction, ...], Fraction], ...] = ()
    absdiff_terms: tuple[tuple[Fraction, int, int], ...] = ()
    convex_cert: str | None = None
    supermodular_cert: str | None = None

    def __call__(self, point: Sequence) -> Fraction:
        xs = [as_rational(t) for t in point]
        if len(xs) != self.arity:
            raise ModeArity(f"need {self.arity} coordinates, got {len(xs)}")
        total = Fraction(0)
        for c, exps in self.poly_terms:
            term = c
            for t, e in zip(xs, exps):
                if e:
                    term *= t**e
            total += term
        for c, alphas, a in self.hinge_terms:
            s = sum((al * t for al, t in zip(alphas, xs)), Fraction(0)) - a
            if s > 0:
                total += c * s
        for c, i, j in self.absdiff_terms:
            total += c * abs(xs[i] - xs[j])
        return total

    def __add__(self, other: "BivariateFn") -> "BivariateFn":
        if self.arity != other.arity:
            raise ModeArity(f"arities differ: {self.arity} vs {other.arity}")
        return BivariateFn(
            self.arity,
            self.poly_terms + other.poly_terms,
            self.hinge_terms + other.hinge_terms,
            self.absdiff_terms + other.absdiff_terms,
            _join_certs(self.convex_cert, other.convex_cert),
            _join_certs(self.supermodular_cert, other.supermodular_cert),
        )


def _join_certs(a: str | None, b: str | None) -> str | None:
    # both properties are preserved under addition; keep the weaker evidence
    if a is None or b is None:
        return None
    return "grid" if "grid" in (a, b) else "construction"


def poly_surface(terms, arity: int = 2) -> BivariateFn:
    """Plain polynomial terms [(coeff, exponents), ...]; certificates are
    claimed only in the affine case (convex and modular by construction)."""
    cleaned = tuple(
        (as_rational(c), tuple(int(e) for e in exps)) for c, exps in terms
    )
    affine = all(sum(exps) <= 1 for _, exps in cleaned)
    cert = "construction" if affine else None
    return BivariateFn(arity, poly_terms=cleaned, convex_cert=cert, supermodular_cert=cert)


def absdiff_surface(coeff=1, arity: int = 2, i: int = 0, j: int = 1) -> BivariateFn:
    """c * |u_i - u_j|: convex by construction for c >= 0 (and famously not
    supermodular)."""
    c = as_rational(coeff)
    return BivariateFn(
        arity,
        absdiff_terms=((c, i, j),),
        convex_cert="construction" if c >= 0 else None,
    )


def hinge_surface(coeff, alphas, threshold, arity: int | None = None) -> BivariateFn:
    """c * (sum alpha_t u_t - A)_+; convex for c >= 0, supermodular as well
    when every alpha is >= 0 (an increasing convex ridge)."""
    c = as_rational(coeff)
    al = tuple(as_rational(a) for a in alphas)
    if arity is None:
        arity = len(al)
    convex = "construction" if c >= 0 else None
    supermod = "construction" if c >= 0 and all(a >= 0 for a in al) else None
    return BivariateFn(
        arity,
        hinge_terms=((c, al, as_rational(threshold)),),
        convex_cert=convex,
        supermodular_cert=supermod,
    )


def compose_convex(phi: ConvexTestFn, weights: Sequence) -> BivariateFn:
    """g(u_1..u_k) = phi(sum w_t u_t): convex by construction, and
    supermodular too when the weights are non-negative."""
    w = tuple(as_rational(t) for t in weights)
    k = len(w)
    terms: list[tuple[Fraction, tuple[int, ...]]] = []
    if phi.const:
        terms.append((phi.const, (0,) * k))
    if phi.slope:
        for i, wi in enumerate(w):
            if wi:
                exps = [0] * k
                exps[i] = 1
                terms.append((phi.slope * wi, tuple(exps)))
    if phi.curve:
        for i, wi in enumerate(w):
            for j, wj in enumerate(w):
                if wi and wj:
                    exps = [0] * k
                    exps[i] += 1
                    exps[j] += 1
                    terms.append((phi.curve * wi * wj, tuple(exps)))
    hinges = tuple((c, w, a) for a, c in phi.hinges)
    supermod = "construction" if all(t >= 0 for t in w) else None
    return BivariateFn(
        k,
        poly_terms=tuple(terms),
        hinge_terms=hinges,
        convex_cert="construction",
        supermodular_cert=supermod,
    )


def tensor_bernstein(g: BivariateFn, ns: Sequence[int], xs: Sequence) -> Fraction:
    """Exact value of the product operator

        (B_{n_1..n_k} g)(x_1..x_k)
            = sum b_{n_1,i_1}(x_1) ... b_{n_k,i_k}(x_k) g(i_1/n_1, ..., i_k/n_k).
    """
    if len(ns) != len(xs):
        raise ModeArity(f"{len(ns)} degrees vs {len(xs)} coordinates")
    if g.arity != len(ns):
        raise ModeArity(f"function arity {g.arity} does not match {len(ns)} axes")
    weight_rows = [binomial_weights(n, x) for n, x in zip(ns, xs)]
    total = Fraction(0)
    for indices in itertools.product(*(range(n + 1) for n in ns)):
        w = Fraction(1)
        for row, i in zip(weight_rows, indices):
            w *= row[i]
            if w == 0:
                break
        if w == 0:
            continue
        total += w * g([Fraction(i, n) for i, n in zip(indices, ns)])
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
    xs = [as_rational(t) for t in points]
    for t in xs:
        if not 0 <= t <= 1:
            raise BadParameter(f"point coordinate {t} must lie in [0, 1]")
    if mode in ("P1", "P1p"):
        if len(xs) != 2:
            raise ModeArity(f"mode {mode} takes exactly two points, got {len(xs)}")
        if len(ns) not in (1, 2):
            raise ModeArity(f"mode {mode} takes one or two degrees")
        degrees = list(ns) if len(ns) == 2 else [ns[0], ns[0]]
        x, y = xs

        def op(a, b):
            return tensor_bernstein(g, degrees, [a, b])

        if mode == "P1":
            return op(x, x) + op(y, y) - 2 * op(x, y)
        return op(x, x) + op(y, y) - op(x, y) - op(y, x)
    if mode in ("P3", "P3p"):
        k = len(ns)
        if len(xs) != k or k < 1:
            raise ModeArity(f"mode {mode} needs one point per degree")
        diagonal = [tensor_bernstein(g, ns, [t] * k) for t in xs]
        if mode == "P3":
            m = sum(ns)
            mixed = tensor_bernstein(g, ns, xs)
            return sum(
                (Fraction(n, m) * d for n, d in zip(ns, diagonal)), Fraction(0)
            ) - mixed
        shifts = sum(
            (
                tensor_bernstein(g, ns, xs[shift:] + xs[:shift])
                for shift in range(k)
            ),
            Fraction(0),
        )
        return sum(diagonal, Fraction(0)) - shifts
    raise ModeArity(f"unknown mode {mode!r}; expected one of {GAV_MODES}")


def unit_grid(step=Fraction(1, 16)) -> list[Fraction]:
    """Rational grid 0, step, 2*step, ..., 1 (1 always included)."""
    step = as_rational(step)
    if not 0 < step <= 1:
        raise BadParameter(f"grid step {step} must lie in (0, 1]")
    points = []
    t = Fraction(0)
    while t < 1:
        points.append(t)
        t += step
    points.append(Fraction(1))
    return points


def supermodularity_check(g: BivariateFn, grid: Sequence | None = None) -> OrderVerdict:
    """Finite screen of g(x1,x2) + g(y1,y2) >= g(x1,y2) + g(y1,x2) over all
    grid quadruples with (y1-x1)(y2-x2) > 0.

    Only the both-increasing corner is enumerated: swapping the roles of
    (x1,y1) or (x2,y2) maps the both-decreasing case onto it.  A pass is
    evidence on the grid, not a proof on the square.
    """
    pts = [as_rational(t) for t in (grid if grid is not None else unit_grid())]
    if g.arity != 2:
        raise ModeArity("supermodularity screening is for two-variable functions")
    pts = sorted(set(pts))
    for x1, y1 in itertools.combinations(pts, 2):
        for x2, y2 in itertools.combinations(pts, 2):
            gap = g([x1, x2]) + g([y1, y2]) - g([x1, y2]) - g([y1, x2])
            if gap < 0:
                return OrderVerdict(False, Witness("quadruple", (x1, x2, y1, y2), gap))
    return OrderVerdict(True)


def eq6prim_gap(ns: Sequence[int], xs: Sequence, phi: ConvexTestFn) -> Fraction:
    """Gap of the block inequality

        sum_i (n_i/m) (B_m phi)(x_i)
            - sum_{i_1..i_k} prod_t b_{n_t,i_t}(x_t) phi((i_1+...+i_k)/m)

    with m = sum n_i; non-negative for convex phi.  The mixed sum collapses
    along the total index through coefficient convolution."""
    if not ns or len(ns) != len(xs):
        raise ModeArity(f"{len(ns)} degrees vs {len(xs)} coordinates; need >= 1 block")
    points = [as_rational(t) for t in xs]
    for t in points:
        if not 0 <= t <= 1:
            raise BadParameter(f"point coordinate {t} must lie in [0, 1]")
    m = sum(ns)
    joint = [Fraction(1)]
    for n, x in zip(ns, points):
        joint = cauchy_product(joint, binomial_weights(n, x))
    mixed = _phi_row_sum(joint, lambda s: Fraction(s, m), phi)
    blocks = Fraction(0)
    for n, x in zip(ns, points):
        blocks += Fraction(n, m) * _phi_row_sum(
            binomial_weights(m, x), lambda s: Fraction(s, m), phi
        )
    return blocks - mixed


@dataclass(frozen=True)
class IntervalValue:
    """A rational interval certified to contain a real number."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

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
        raise Inconclusive(f"0 lies in [{self.lo}, {self.hi}]")


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
    pairs = itertools.zip_longest(fam_x.coeffs, fam_y.coeffs, fillvalue=Fraction(0))
    diff = [a - b for a, b in pairs]
    boxed = _phi_row_sum(cauchy_product(diff, diff), lambda s: Fraction(s, 2 * n + s), phi)
    sigma = sum((abs(d) for d in diff), Fraction(0))
    tau = fam_x.tail_bound + fam_y.tail_bound
    slack = bound * (2 * sigma * tau + tau * tau)
    return IntervalValue(boxed - slack, boxed + slack)
