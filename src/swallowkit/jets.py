"""Expression language over (u, v) and truncated-Taylor (jet) evaluation.

Every derivative used anywhere in the package comes out of this module:
an expression is evaluated once into a jet of some order K at a base
point, and all partials up to order K are read off the coefficients.
Coefficient c_{ij} of a Jet2 equals (1/i!j!) d^{i+j}f/du^i dv^j.

Coefficients may be scalars or numpy arrays (one jet per grid node, or
per slot of a batch), so grid sweeps and batches vectorize for free.  Batch
axes are the trailing axes of .c and align from the left: an operand with
fewer of them (a jet, or an array multiplying or dividing a jet) gets
trailing axes of length 1.  The two hot kernels, the truncated product and
the graded division, are numpy index-table operations defined next to
Jet2; there is no other backend.

A jet of a function of u alone says so (Jet2.u_only: every coefficient off
the u-axis is zero; Jet2 says who may set it), and the product and the
quotient of two such jets run over the pure-u monomials alone,
(K+1)(K+2)/2 pairs of the C(K+4, 4) of the full order-K product, with the
bits of the full tables.

Such a jet is the package's one type of truncated power series in one
variable (the half-arclength chain, the radial profile of cgc, the singular
curve that make_admissible straightens): Jet2.of_series(s) is the jet of u
alone whose pure-u coefficients are s[0..K], with the coefficients on the
first axis of s and any batch axes after it, and jet.series() gives them
back as a new array, so of_series(s).series() equals s.  Series arithmetic
is jet arithmetic: products, quotients, _apply_series and compose2 of jets
of u alone, du for the derivative, primitive for the integral and reversion
for the inverse series.

A domain error (zero denominator, square root of a non-positive constant
term, division by v of a jet that does not vanish on the axis) raises
JetError, for a batch as a whole as soon as one slot fails: the arithmetic
keeps no per-slot error.  A caller that needs failures slot by slot runs a
batch that raised again one slot at a time; frontal.classify does so for
any ValueError of a batch, JetError or not.

Expressions are trees of frozen dataclass nodes (Const, Var, Add, Sub, Mul,
Div, Neg, Pow, Func): they compare and hash by value and cannot be changed.
A node's jet(u, v, order) is its operation on its children's jets, so a
tree evaluates in one Python frame per level and keeps no memo.  Each node
class carries its printing precedence PREC, and _FUNCS is the one table of
elementary functions, giving each its jet and its symbolic derivative.
poly2_coeffs reads an expression as a polynomial in (u, v), of total degree
at most MAX_NESTING in every product and power; poly_u_coeffs, behind the
closed-form integrals, is its u-only projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _jettables as tables


class JetError(ValueError):
    """Domain error during jet evaluation (zero denominator, bad sqrt, ...)."""


class ParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def backend_name() -> str:
    # perfbench/run.py records this name with every result.
    return "python"


# ---------------------------------------------------------------------------
# Jet arithmetic
# ---------------------------------------------------------------------------

# the bound of every memo of the package: a memo that holds more entries is
# cleared whole before it takes the next (fields.BoundedCache)
CACHE_BOUND = 256

# flat (bin, column) indices of _bin_sum, per (id of a bins table, columns),
# for batches of up to _FLAT_COLUMNS columns, such as the t of a certificate
# stage, where building them costs as much as the sum; the tables are the
# lru-cached arrays of _jettables, alive for good.  Wider arrays (grids of
# points) build theirs per call, a small share of their sum.  Bounded by the
# rule of fields.BoundedCache.
_FLAT_BINS = {}
_FLAT_COLUMNS = 64


def _bin_sum(bins, prod, nbins):
    """Sums of the rows of prod falling in each of nbins bins.

    The rows are added in order by bincount, from 0.0.  A batch (trailing
    axes) is one bincount over the bins (bin, column), which runs the same
    loop over the same rows of each column, so every column of the result
    is bit for bit its scalar sum, down to the sign of a zero and the
    payload of a NaN."""
    if prod.ndim == 1:
        return np.bincount(bins, prod, minlength=nbins)
    n = prod[0].size
    flat = _FLAT_BINS.get((id(bins), n))
    if flat is None:
        flat = (bins[:, None] * n + np.arange(n)).ravel()
        if n <= _FLAT_COLUMNS:
            if len(_FLAT_BINS) > CACHE_BOUND:
                _FLAT_BINS.clear()
            _FLAT_BINS[id(bins), n] = flat
    return np.bincount(flat, prod.ravel(), minlength=nbins * n).reshape((nbins,) + prod.shape[1:])


def _top_is_finite(out, order):
    """Whether the top pure-u coefficient c_{order,0} of the product or the
    quotient of two jets of u alone is finite in every slot.

    Each pure-u coefficient of either operand, and of the quotient, is a
    factor of a term summed into that slot, so a non-finite one leaves it
    non-finite.  Only such a coefficient makes the full tables differ from
    the pure-u ones, where it meets an off-axis zero as NaN.  At order 0 the
    two tables are one."""
    if order == 0:
        return True
    top = out[order * (order + 1) // 2]
    return math.isfinite(top) if out.ndim == 1 else bool(np.isfinite(top).all())


def _jet_mul(a, b, order, u_only=False):
    """Coefficients of the truncated product of coefficient arrays a, b.

    With u_only, a and b are jets of u alone (Jet2.u_only) and the product
    sums the pure-u pairs only: the same pairs in the same order as the full
    tables sum into each pure-u slot, every other slot 0.0 as the full sum
    of zero products leaves it.  So the bits agree, unless a pure-u
    coefficient is not finite (_top_is_finite): then the product is computed
    again from the full tables."""
    ia, ib, io = (tables.axis_mul_triples if u_only else tables.mul_triples)(order)
    out = _bin_sum(io, a[ia] * b[ib], tables.term_count(order))
    if u_only and not _top_is_finite(out, order):
        return _jet_mul(a, b, order)
    return out


def _jet_div(a, b, order, u_only=False):
    """Coefficients c of a / b: the graded triangular solve of c*b = a.

    The slots of total degree d depend only on lower degrees, so each degree
    is one vectorised step (Griewank & Walther, Evaluating Derivatives, 2008,
    ch. 13).  Every slot starts at a/b0, slot 0's value.  With u_only (see
    _jet_mul) each degree solves its pure-u slot only, from the same pairs in
    the same order; every other slot keeps a/b0, which the full solve leaves
    there, since its sum is 0.0."""
    b0 = b[0]
    out = a / b0
    for s0, s1, c_idx, b_idx, seg in (tables.axis_div_tables if u_only else tables.div_tables)(order):
        acc = _bin_sum(seg, out[c_idx] * b[b_idx], s1 - s0)
        out[s0:s1] = (a[s0:s1] - acc) / b0
    if u_only and not _top_is_finite(out, order):
        return _jet_div(a, b, order)
    return out


class Jet2:
    """Truncated Taylor expansion at a base point, up to total order K.

    u_only promises that the jet is a function of u alone: every coefficient
    c_{ij} with j > 0 is zero.  constant, variable("u"), axis_part and
    of_series set it, and every operation of this module carries it (both
    operands must hold it).  A jet built from raw coefficients claims it
    only where its builder passes u_only=True, and a builder that writes
    coefficients off the axis into a jet starts from one without the claim
    (as cgc's prolongation does)."""

    __slots__ = ("order", "c", "u_only")
    __array_ufunc__ = None      # ndarray * Jet2 defers to Jet2.__rmul__

    def __init__(self, order: int, c, u_only=False):
        self.order = order
        self.c = c
        self.u_only = u_only

    # -- constructors
    @staticmethod
    def constant(value, order, shape=()):
        c = np.zeros((tables.term_count(order),) + shape)
        c[0] = value
        return Jet2(order, c, True)

    @staticmethod
    def variable(name, value, order, shape=()):
        c = np.zeros((tables.term_count(order),) + shape)
        c[0] = value
        if order >= 1:
            c[1 if name == "u" else 2] = 1.0
        return Jet2(order, c, name == "u")

    @staticmethod
    def of_series(s):
        """The jet of u alone whose pure-u coefficients c_{i,0} are s[i]:
        order len(s) - 1, the batch axes of s after its first; every other
        coefficient is 0.0."""
        s = np.asarray(s)
        order = len(s) - 1
        c = np.zeros((tables.term_count(order),) + s.shape[1:])
        c[tables.axis_indices(order)] = s
        return Jet2(order, c, True)

    # -- coefficient access
    def series(self):
        """The pure-u coefficients c_{0,0} .. c_{K,0}, a new array along its
        first axis: the inverse of of_series."""
        return self.c[tables.axis_indices(self.order)]

    def value(self):
        v = self.c[0]
        return float(v) if np.ndim(v) == 0 else v

    def coeff(self, i, j):
        if i + j > self.order:
            raise IndexError(f"coefficient ({i},{j}) beyond order {self.order}")
        v = self.c[tables.index_of(i, j)]
        return float(v) if np.ndim(v) == 0 else v

    def partial(self, i, j):
        """d^{i+j} f / du^i dv^j at the base point."""
        return self.coeff(i, j) * math.factorial(i) * math.factorial(j)

    def truncate(self, order):
        if order == self.order:
            return self
        if order > self.order:
            c = np.zeros((tables.term_count(order),) + self.c.shape[1:])
            c[: self.c.shape[0]] = self.c
            return Jet2(order, c, self.u_only)
        return Jet2(order, self.c[: tables.term_count(order)].copy(), self.u_only)

    # -- ring operations
    def __add__(self, other):
        if isinstance(other, Jet2):
            a, b = _align(self, other)
            return Jet2(a.order, a.c + b.c, a.u_only and b.u_only)
        c = self.c.copy()
        c[0] = c[0] + other
        return Jet2(self.order, c, self.u_only)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.order, -self.c, self.u_only)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet2) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet2):
            a, b = _align(self, other)
            u_only = a.u_only and b.u_only
            return Jet2(a.order, _jet_mul(a.c, b.c, a.order, u_only), u_only)
        c = self.c
        if isinstance(other, np.ndarray):
            c, other = _lift(c, other)
        return Jet2(self.order, c * other, self.u_only)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            a, b = _align(self, other)
            if np.any(b.c[0] == 0.0):
                raise JetError("division by jet with zero constant term")
            u_only = a.u_only and b.u_only
            return Jet2(a.order, _jet_div(a.c, b.c, a.order, u_only), u_only)
        c = self.c
        if isinstance(other, np.ndarray):
            c, other = _lift(c, other)
        return Jet2(self.order, c / other, self.u_only)

    def __rtruediv__(self, other):
        return Jet2.constant(other, self.order, self.c.shape[1:]) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("jet exponent must be an integer")
        if n < 0:
            return 1.0 / self ** (-n)
        out = Jet2.constant(1.0, self.order, self.c.shape[1:])
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- calculus
    def du(self):
        src, dst, fac = tables.du_pairs(self.order)
        c = np.zeros((tables.term_count(self.order - 1),) + self.c.shape[1:])
        c[dst] = self.c[src] * _col(fac, self.c)
        return Jet2(self.order - 1, c, self.u_only)

    def primitive(self, value):
        """Jet of u alone, one order higher, of the primitive in u of the
        pure-u part of this jet that takes `value` at the base point."""
        s = self.series()
        out = np.empty((len(s) + 1,) + s.shape[1:])
        out[0] = value
        out[1:] = s / _col(np.arange(1.0, len(s) + 1), s)
        return Jet2.of_series(out)

    def reversion(self):
        """Jet of u alone, of this order, of the series reversion g of the
        pure-u part f of this jet: f(g(y)) = y + O(y^(K+1)); needs f[0] = 0
        and f[1] != 0.

        Direct reversion (Brent & Kung, J. ACM 25, 1978): with pw[j, k] the
        coefficient of y^k in g^j, the coefficient k >= 2 of f(g) = y reads
        g_k = -(sum_{j=2..k} f_j pw[j, k]) / f_1, and pw[j, k] =
        sum_{i=1..k-1} g_i pw[j-1, k-i] needs g_1 .. g_{k-1} only.  The table
        is filled one column k at a time, by the same steps whatever K is, so
        the reversion is truncation-exact: the reversion of the jet truncated
        to m equals the reversion truncated to m, bit for bit.  Every sum is a
        chain of elementwise adds in a fixed order, so each slot of a batch is
        its lone call bit for bit.
        """
        f = self.series()
        n = len(f)
        if np.any(f[0] != 0.0):
            raise JetError("series reversion requires zero constant term")
        if np.any(f[1] == 0.0):
            raise JetError("series not invertible: vanishing linear term")
        g = np.zeros(np.shape(f))
        g[1] = 1.0 / f[1]
        pw = np.zeros((n,) + np.shape(f))
        pw[1, 1] = g[1]
        for k in range(2, n):
            # column k of the powers j = 2..k, from the rows 1..k-1 of earlier columns
            acc = g[1] * pw[1:k, k - 1]
            for i in range(2, k):
                acc = acc + g[i] * pw[1:k, k - i]
            pw[2:k + 1, k] = acc
            s = f[2] * pw[2, k]
            for j in range(3, k + 1):
                s = s + f[j] * pw[j, k]
            g[k] = -s / f[1]
            pw[1, k] = g[k]
        return Jet2.of_series(g)

    def dv(self):
        src, dst, fac = tables.dv_pairs(self.order)
        c = np.zeros((tables.term_count(self.order - 1),) + self.c.shape[1:])
        c[dst] = self.c[src] * _col(fac, self.c)
        return Jet2(self.order - 1, c)

    def divide_by_v(self, tol=1e-9):
        """Jet of f/v for f vanishing on the u-axis; result has order-1."""
        axis = tables.axis_indices(self.order)
        scale = np.max(np.abs(self.c), axis=0)
        if np.any(np.abs(self.c[axis]) > tol * (1.0 + scale)):
            worst = float(np.max(np.abs(self.c[axis])))
            raise JetError(f"jet does not vanish on the u-axis (residual {worst:.3g})")
        src, dst = tables.shift_v_pairs(self.order)
        c = np.zeros((tables.term_count(self.order - 1),) + self.c.shape[1:])
        c[dst] = self.c[src]
        return Jet2(self.order - 1, c)

    def divide_by_u(self):
        """Jet of f/u for f vanishing on the v-axis; result has order-1."""
        vaxis = tables.v_axis_indices(self.order)
        scale = np.max(np.abs(self.c), axis=0)
        if np.any(np.abs(self.c[vaxis]) > 1e-9 * (1.0 + scale)):
            raise JetError("jet does not vanish on the v-axis")
        src, dst = tables.shift_u_pairs(self.order)
        c = np.zeros((tables.term_count(self.order - 1),) + self.c.shape[1:])
        c[dst] = self.c[src]
        return Jet2(self.order - 1, c, self.u_only)

    def axis_part(self):
        """Jet of (u, v) -> f(u, 0): coefficients with j > 0 dropped."""
        axis = tables.axis_indices(self.order)
        c = np.zeros_like(self.c)
        c[axis] = self.c[axis]
        return Jet2(self.order, c, True)

    def __repr__(self):
        return f"Jet2(order={self.order}, c={self.c!r})"


def _col(fac, template):
    return fac.reshape(fac.shape + (1,) * (template.ndim - 1))


def _lift(c, w):
    """Coefficients c and an array w with their batch axes aligned from the
    left: the one with fewer batch axes (w has no coefficient axis) gets
    trailing axes of length 1."""
    if np.ndim(w) == c.ndim - 1:
        return c, w
    if w.ndim > c.ndim - 1:
        return c.reshape(c.shape + (1,) * (w.ndim - c.ndim + 1)), w
    return c, w.reshape(w.shape + (1,) * (c.ndim - 1 - w.ndim)) if w.ndim else w


def _align(a: Jet2, b: Jet2):
    """a and b at their common order, with one shape: batch axes align from
    the left, and the operand with fewer of them gets trailing axes of
    length 1 before the shapes broadcast."""
    order = min(a.order, b.order)
    a = a.truncate(order)
    b = b.truncate(order)
    if a.c.shape != b.c.shape:
        ca, _ = _lift(a.c, b.c[0])
        cb, _ = _lift(b.c, a.c[0])
        shape = np.broadcast_shapes(ca.shape, cb.shape)
        if a.c.shape != shape:
            a = Jet2(order, ca if ca.shape == shape else np.broadcast_to(ca, shape).copy(), a.u_only)
        if b.c.shape != shape:
            b = Jet2(order, cb if cb.shape == shape else np.broadcast_to(cb, shape).copy(), b.u_only)
    return a, b


def _apply_series(coeffs, x: Jet2) -> Jet2:
    """sum coeffs[n] * (x - x0)^n by Horner, where coeffs[n] = g^(n)(x0)/n!."""
    xhat = Jet2(x.order, x.c.copy(), x.u_only)
    xhat.c[0] = np.zeros_like(xhat.c[0])
    out = Jet2.constant(coeffs[-1], x.order, x.c.shape[1:])
    for n in range(len(coeffs) - 2, -1, -1):
        out = out * xhat
        out.c[0] = out.c[0] + coeffs[n]
    return out


def jet_sqrt(x: Jet2) -> Jet2:
    a0 = x.c[0]
    if np.any(a0 <= 0.0):
        raise JetError("sqrt of jet with non-positive constant term")
    coeffs = [np.sqrt(a0)]
    for n in range(1, x.order + 1):
        coeffs.append(coeffs[-1] * (1.5 - n) / (n * a0))
    return _apply_series(coeffs, x)


def jet_exp(x: Jet2) -> Jet2:
    e0 = np.exp(x.c[0])
    coeffs = [e0 / math.factorial(n) for n in range(x.order + 1)]
    return _apply_series(coeffs, x)


def _cyclic(table, x):
    a0 = x.c[0]
    vals = [f(a0) for f in table]
    coeffs = [vals[n % 4] / math.factorial(n) for n in range(x.order + 1)]
    return _apply_series(coeffs, x)


def jet_sin(x):
    return _cyclic((np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t)), x)


def jet_cos(x):
    return _cyclic((np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t), np.sin), x)


def jet_sinh(x: Jet2) -> Jet2:
    s, c = np.sinh(x.c[0]), np.cosh(x.c[0])
    coeffs = [(s if n % 2 == 0 else c) / math.factorial(n) for n in range(x.order + 1)]
    return _apply_series(coeffs, x)


def jet_cosh(x: Jet2) -> Jet2:
    s, c = np.sinh(x.c[0]), np.cosh(x.c[0])
    coeffs = [(c if n % 2 == 0 else s) / math.factorial(n) for n in range(x.order + 1)]
    return _apply_series(coeffs, x)


def compose2(gc, order_g, U: Jet2, V: Jet2) -> Jet2:
    """Jet of g(U, V) from coefficients gc of g at (U.value, V.value).

    gc is a flat coefficient array of order order_g; U, V are jets of the
    inner map in the outer variables.
    """
    order = min(U.order, V.order)
    Uh = Jet2(order, U.truncate(order).c.copy(), U.u_only)
    Vh = Jet2(order, V.truncate(order).c.copy(), V.u_only)
    Uh.c[0] = np.zeros_like(Uh.c[0])
    Vh.c[0] = np.zeros_like(Vh.c[0])
    shape = np.broadcast_shapes(Uh.c.shape[1:], Vh.c.shape[1:])
    out = Jet2.constant(0.0, order, shape)
    upow = [Jet2.constant(1.0, order, shape)]
    for i in range(1, min(order, order_g) + 1):
        upow.append(upow[-1] * Uh)
    # one zero test of every coefficient row, over its batch axes; NaN is nonzero
    nonzero = (gc != 0.0).reshape(len(gc), -1).any(axis=1).tolist()
    # U^i V^j is the last power of row i times V^(j - jlast), the chain of
    # products left to right from U^i, each product made once
    last = {}
    for (i, j) in tables.monomials(order_g):
        k = tables.index_of(i, j)
        if i > order or not nonzero[k]:
            continue
        jlast, term = last.get(i, (0, upow[i]))
        for _ in range(j - jlast):
            term = term * Vh
        last[i] = j, term
        out = out + term * gc[k]
    return out


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

class Expr:
    """Immutable expression tree node; jets via .jet(u, v, order).

    PREC is the binding strength to_source prints it with: sums 1, products
    and negation 2, powers 3, atoms and function calls 4."""

    __slots__ = ()
    PREC = 4

    def __call__(self, u, v):
        return self.jet(u, v, 0).value()

    def __repr__(self):
        return f"<{type(self).__name__} {to_source(self)}>"


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(float(x))


@dataclass(frozen=True, repr=False)
class Const(Expr):
    __slots__ = ("value",)
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))

    def jet(self, u, v, order):
        return Jet2.constant(self.value, order, np.shape(u))


@dataclass(frozen=True, repr=False)
class Var(Expr):
    __slots__ = ("name",)
    name: str

    def __post_init__(self):
        if self.name not in ("u", "v"):
            raise ValueError(f"unknown variable {self.name!r}")

    def jet(self, u, v, order):
        value = u if self.name == "u" else v
        return Jet2.variable(self.name, value, order, np.shape(u))


@dataclass(frozen=True, repr=False)
class _Binary(Expr):
    __slots__ = ("a", "b")
    a: Expr
    b: Expr


class Add(_Binary):
    __slots__ = ()
    PREC = 1

    def jet(self, u, v, order):
        return self.a.jet(u, v, order) + self.b.jet(u, v, order)


class Sub(_Binary):
    __slots__ = ()
    PREC = 1

    def jet(self, u, v, order):
        return self.a.jet(u, v, order) - self.b.jet(u, v, order)


class Mul(_Binary):
    __slots__ = ()
    PREC = 2

    def jet(self, u, v, order):
        return self.a.jet(u, v, order) * self.b.jet(u, v, order)


class Div(_Binary):
    __slots__ = ()
    PREC = 2

    def jet(self, u, v, order):
        return self.a.jet(u, v, order) / self.b.jet(u, v, order)


@dataclass(frozen=True, repr=False)
class Neg(Expr):
    __slots__ = ("a",)
    a: Expr
    PREC = 2

    def jet(self, u, v, order):
        return -self.a.jet(u, v, order)


@dataclass(frozen=True, repr=False)
class Pow(Expr):
    __slots__ = ("a", "n")
    a: Expr
    n: int
    PREC = 3

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise TypeError("exponent must be an integer")

    def jet(self, u, v, order):
        return self.a.jet(u, v, order) ** self.n


@dataclass(frozen=True, repr=False)
class Func(Expr):
    __slots__ = ("name", "a")
    name: str
    a: Expr

    def __post_init__(self):
        if self.name not in _FUNCS:
            raise ValueError(f"unknown function {self.name!r}")

    def jet(self, u, v, order):
        return _FUNCS[self.name][0](self.a.jet(u, v, order))


# Each elementary function: its jet, and its derivative as an expression of
# its argument (diff applies the chain rule).
_FUNCS = {
    "sin": (jet_sin, lambda a: Func("cos", a)),
    "cos": (jet_cos, lambda a: Neg(Func("sin", a))),
    "sinh": (jet_sinh, lambda a: Func("cosh", a)),
    "cosh": (jet_cosh, lambda a: Func("sinh", a)),
    "exp": (jet_exp, lambda a: Func("exp", a)),
    "sqrt": (jet_sqrt, lambda a: Div(Const(0.5), Func("sqrt", a))),
}


U = Var("u")
V = Var("v")
ZERO = Const(0.0)
ONE = Const(1.0)


# ---------------------------------------------------------------------------
# Parser (recursive descent over the grammar in the package docs)
# ---------------------------------------------------------------------------

_NUM_START = set("0123456789.")
# Bound on the enclosing parentheses plus the depth of the tree below: it
# keeps the parser's recursion and every recursive walk of a parsed tree
# (jet, fold, diff, to_source, hashing) bounded.  A chain of n binary
# operators builds a tree n levels deep, so it counts as n levels.
MAX_NESTING = 100


class _Scanner:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.depth = 0

    def _too_deep(self):
        return ParseError(f"expression nested deeper than {MAX_NESTING} levels", self.pos)

    def nested(self, parse_inner):
        """Parse an expression one level of nesting deeper."""
        if self.depth >= MAX_NESTING:
            raise self._too_deep()
        self.depth += 1
        out = parse_inner(self)
        self.depth -= 1
        return out

    def node(self, depth):
        """Depth of a new node over subtrees at most `depth` deep."""
        if self.depth + depth + 1 > MAX_NESTING:
            raise self._too_deep()
        return depth + 1

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def number(self):
        start = self.pos
        s = self.src
        n = len(s)
        p = start
        while p < n and s[p].isdigit():
            p += 1
        if p < n and s[p] == ".":
            p += 1
            while p < n and s[p].isdigit():
                p += 1
        if p == start or s[start:p] == ".":
            raise ParseError("malformed number", start)
        if p < n and s[p] in "eE":
            q = p + 1
            if q < n and s[q] in "+-":
                q += 1
            if q < n and s[q].isdigit():
                while q < n and s[q].isdigit():
                    q += 1
                p = q
        self.pos = p
        x = float(s[start:p])
        if not math.isfinite(x):
            raise ParseError("number out of range", start)
        return x

    def ident(self):
        start = self.pos
        s = self.src
        while self.pos < len(s) and (s[self.pos].isalnum() or s[self.pos] == "_"):
            self.pos += 1
        return s[start:self.pos], start

    def integer(self):
        self.skip_ws()
        start = self.pos
        s = self.src
        p = start
        if p < len(s) and s[p] == "-":
            p += 1
        d0 = p
        while p < len(s) and s[p].isdigit():
            p += 1
        if p == d0:
            raise ParseError("expected integer exponent", start)
        self.pos = p
        return int(s[start:p])


def parse(source: str) -> Expr:
    """Parse an expression in u, v; raises ParseError with a byte offset."""
    sc = _Scanner(source)
    e, _ = _parse_expr(sc)
    sc.skip_ws()
    if sc.pos != len(sc.src):
        raise ParseError(f"unexpected {sc.src[sc.pos]!r}", sc.pos)
    return e


# Each _parse_* returns (tree, depth of the tree).

def _parse_chain(sc: _Scanner, operand, ops, first=None):
    """first-or-operand (op operand)* as a left-deep tree; ops maps "+" etc.
    to node classes."""
    e, d = first or operand(sc)
    while sc.peek() in ops:
        node = ops[sc.src[sc.pos]]
        sc.pos += 1
        rhs, dr = operand(sc)
        e, d = node(e, rhs), sc.node(max(d, dr))
    return e, d


def _parse_expr(sc: _Scanner):
    ch = sc.peek()
    if ch in ("+", "-"):
        sc.pos += 1
    e, d = _parse_term(sc)
    if ch == "-":
        e, d = Neg(e), sc.node(d)
    return _parse_chain(sc, _parse_term, {"+": Add, "-": Sub}, (e, d))


def _parse_term(sc: _Scanner):
    return _parse_chain(sc, _parse_factor, {"*": Mul, "/": Div})


def _parse_factor(sc: _Scanner):
    e, d = _parse_base(sc)
    if sc.peek() == "^":
        sc.pos += 1
        e, d = Pow(e, sc.integer()), sc.node(d)
    return e, d


def _parse_base(sc: _Scanner):
    ch = sc.peek()
    pos = sc.pos
    if ch == "":
        raise ParseError("unexpected end of input", pos)
    if ch == "(":
        sc.pos += 1
        out = sc.nested(_parse_expr)
        if sc.peek() != ")":
            raise ParseError("expected ')'", sc.pos)
        sc.pos += 1
        return out
    if ch in _NUM_START:
        return Const(sc.number()), 0
    if ch.isalpha():
        name, start = sc.ident()
        if name in ("u", "v"):
            return Var(name), 0
        if name in _FUNCS:
            if sc.peek() != "(":
                raise ParseError(f"expected '(' after {name}", sc.pos)
            sc.pos += 1
            arg, d = sc.nested(_parse_expr)
            if sc.peek() != ")":
                raise ParseError("expected ')'", sc.pos)
            sc.pos += 1
            return Func(name, arg), sc.node(d)
        raise ParseError(f"unknown identifier {name!r}", start)
    raise ParseError(f"unexpected {ch!r}", pos)


# ---------------------------------------------------------------------------
# Printing (round-trips through parse), differentiation, constant folding
# ---------------------------------------------------------------------------

def _fmt_const(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def to_source(e: Expr) -> str:
    if isinstance(e, Const):
        return _fmt_const(e.value) if e.value >= 0 else f"(0 - {_fmt_const(-e.value)})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        return f"{to_source(e.a)} + {_wrap(e.b, Add.PREC, strict=False)}"
    if isinstance(e, Sub):
        return f"{to_source(e.a)} - {_wrap(e.b, Add.PREC, strict=True)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.a, Mul.PREC, strict=False)}*{_wrap(e.b, Mul.PREC, strict=True)}"
    if isinstance(e, Div):
        return f"{_wrap(e.a, Mul.PREC, strict=False)}/{_wrap(e.b, Mul.PREC, strict=True)}"
    if isinstance(e, Neg):
        return f"(0 - {_wrap(e.a, Neg.PREC, strict=True)})"
    if isinstance(e, Pow):
        return f"{_wrap(e.a, Pow.PREC, strict=True)}^{e.n}"
    if isinstance(e, Func):
        return f"{e.name}({to_source(e.a)})"
    raise TypeError(f"cannot print {type(e).__name__}")


def _wrap(e, outer, strict):
    s = to_source(e)
    if e.PREC < outer or (strict and e.PREC == outer):
        return f"({s})"
    return s


def diff(e: Expr, var: str) -> Expr:
    """Symbolic derivative; the result is again an Expr."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Add):
        return fold(Add(diff(e.a, var), diff(e.b, var)))
    if isinstance(e, Sub):
        return fold(Sub(diff(e.a, var), diff(e.b, var)))
    if isinstance(e, Mul):
        return fold(Add(Mul(diff(e.a, var), e.b), Mul(e.a, diff(e.b, var))))
    if isinstance(e, Div):
        num = Sub(Mul(diff(e.a, var), e.b), Mul(e.a, diff(e.b, var)))
        return fold(Div(num, Mul(e.b, e.b)))
    if isinstance(e, Neg):
        return fold(Neg(diff(e.a, var)))
    if isinstance(e, Pow):
        if e.n == 0:
            return ZERO
        return fold(Mul(Mul(Const(e.n), Pow(e.a, e.n - 1)), diff(e.a, var)))
    if isinstance(e, Func):
        return fold(Mul(_FUNCS[e.name][1](e.a), diff(e.a, var)))
    raise TypeError(f"cannot differentiate {type(e).__name__}")


def _folded(x):
    """A folded constant; one out of float range is a domain error."""
    if not math.isfinite(x):
        raise JetError(f"constant expression out of range ({x})")
    return Const(x)


def fold(e: Expr) -> Expr:
    """Constant folding and trivial identities; no other simplification."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Neg):
        a = fold(e.a)
        if isinstance(a, Const):
            return Const(-a.value)
        return Neg(a)
    if isinstance(e, Pow):
        a = fold(e.a)
        if isinstance(a, Const):
            try:
                return _folded(a.value ** e.n)
            except (OverflowError, ZeroDivisionError):
                return _folded(math.inf)
        if e.n == 1:
            return a
        return Pow(a, e.n)
    if isinstance(e, Func):
        a = fold(e.a)
        if isinstance(a, Const):
            with np.errstate(over="ignore", invalid="ignore"):
                return _folded(float(getattr(np, e.name)(a.value)))
        return Func(e.name, a)
    a, b = fold(e.a), fold(e.b)
    ca, cb = isinstance(a, Const), isinstance(b, Const)
    if isinstance(e, Add):
        if ca and cb:
            return _folded(a.value + b.value)
        if ca and a.value == 0:
            return b
        if cb and b.value == 0:
            return a
        return Add(a, b)
    if isinstance(e, Sub):
        if ca and cb:
            return _folded(a.value - b.value)
        if cb and b.value == 0:
            return a
        return Sub(a, b)
    if isinstance(e, Mul):
        if ca and cb:
            return _folded(a.value * b.value)
        if (ca and a.value == 0) or (cb and b.value == 0):
            return ZERO
        if ca and a.value == 1:
            return b
        if cb and b.value == 1:
            return a
        return Mul(a, b)
    if isinstance(e, Div):
        if cb and b.value == 1:
            return a
        if ca and cb and b.value != 0:
            return _folded(a.value / b.value)
        if ca and a.value == 0:
            return ZERO
        return Div(a, b)
    raise TypeError(type(e).__name__)


# ---------------------------------------------------------------------------
# Polynomials in u (closed-form curve integration)
# ---------------------------------------------------------------------------

def poly_u_coeffs(e: Expr):
    """Dense coefficients of e as a polynomial in u, or None if not one
    (a power of v is not)."""
    p = poly2_coeffs(e)
    if p is None or any(j for _, j in p):
        return None
    out = np.zeros(max((i for i, _ in p), default=0) + 1)
    for (i, _), c in p.items():
        out[i] = c
    return out


def poly_to_expr(coeffs) -> Expr:
    """Expression sum_k coeffs[k] u^k, built without spurious terms."""
    terms = None
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        if k == 0:
            t = Const(c)
        elif k == 1:
            t = Mul(Const(c), U) if c != 1.0 else U
        else:
            t = Mul(Const(c), Pow(U, k)) if c != 1.0 else Pow(U, k)
        terms = t if terms is None else Add(terms, t)
    return terms if terms is not None else ZERO


def integrate_u_times(e: Expr):
    """Closed-form primitive of u*e(u) vanishing at 0, for polynomial e."""
    ce = poly_u_coeffs(e)
    if ce is None:
        return None
    shifted = np.concatenate([[0.0], ce])  # u * e
    prim = np.concatenate([[0.0], shifted / np.arange(1, len(shifted) + 1)])
    return poly_to_expr(prim)


def _degree(p):
    return max((i + j for i, j in p), default=0)


def poly2_coeffs(e: Expr):
    """Coefficients {(i, j): c} of e as a polynomial in (u, v), or None; also
    None for a product or a power of total degree above MAX_NESTING, found
    before it is expanded."""
    if isinstance(e, Const):
        return {(0, 0): e.value} if e.value != 0 else {}
    if isinstance(e, Var):
        return {(1, 0): 1.0} if e.name == "u" else {(0, 1): 1.0}
    if isinstance(e, Neg):
        a = poly2_coeffs(e.a)
        return None if a is None else {k: -c for k, c in a.items()}
    if isinstance(e, (Add, Sub)):
        a, b = poly2_coeffs(e.a), poly2_coeffs(e.b)
        if a is None or b is None:
            return None
        s = 1.0 if isinstance(e, Add) else -1.0
        out = dict(a)
        for k, c in b.items():
            out[k] = out.get(k, 0.0) + s * c
        return {k: c for k, c in out.items() if c != 0.0}
    if isinstance(e, Mul):
        a, b = poly2_coeffs(e.a), poly2_coeffs(e.b)
        if a is None or b is None or _degree(a) + _degree(b) > MAX_NESTING:
            return None
        out = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0.0) + c1 * c2
        return {k: c for k, c in out.items() if c != 0.0}
    if isinstance(e, Div):
        a, b = poly2_coeffs(e.a), poly2_coeffs(e.b)
        if a is None or b is None or set(b) - {(0, 0)} or not b:
            return None
        d = b[(0, 0)]
        return {k: c / d for k, c in a.items()}
    if isinstance(e, Pow):
        if e.n < 0:
            return None
        a = poly2_coeffs(e.a)
        if a is None or _degree(a) * e.n > MAX_NESTING:
            return None
        out = {(0, 0): 1.0}
        base = a
        for _ in range(e.n):
            nxt = {}
            for (i1, j1), c1 in out.items():
                for (i2, j2), c2 in base.items():
                    k = (i1 + i2, j1 + j2)
                    nxt[k] = nxt.get(k, 0.0) + c1 * c2
            out = nxt
        return {k: c for k, c in out.items() if c != 0.0}
    return None
