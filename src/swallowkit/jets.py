"""Expression language over (u, v) and truncated-Taylor (jet) evaluation.

Every derivative used anywhere in the package comes out of this module:
an expression is evaluated once into a jet of some order K at a base
point, and all partials up to order K are read off the coefficients.
Coefficient c_{ij} of a Jet2 equals (1/i!j!) d^{i+j}f/du^i dv^j.

Coefficients may be scalars or numpy arrays (one jet per grid node), so
grid sweeps vectorize for free.  Scalar jets route through the compiled
kernel when the extension built; set SWALLOWKIT_PURE_PYTHON=1 to force
the numpy fallback.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import _jetcore_py
from . import _jettables as tables

if os.environ.get("SWALLOWKIT_PURE_PYTHON"):
    _fastcore = None
else:
    try:
        from . import _jetcore as _fastcore
    except ImportError:
        _fastcore = None

DEFAULT_ORDER = 4

FUNCTIONS = ("sin", "cos", "sinh", "cosh", "exp", "sqrt")


class JetError(ValueError):
    """Domain error during jet evaluation (zero denominator, bad sqrt, ...)."""


class ParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def backend_name() -> str:
    return "compiled" if _fastcore is not None else "python"


# ---------------------------------------------------------------------------
# Jet arithmetic
# ---------------------------------------------------------------------------

def _is_scalar_coeffs(c) -> bool:
    return c.ndim == 1 and c.dtype == np.float64


class Jet2:
    """Truncated Taylor expansion at a base point, up to total order K."""

    __slots__ = ("order", "c")

    def __init__(self, order: int, c):
        self.order = order
        self.c = c

    # -- constructors
    @staticmethod
    def constant(value, order, shape=()):
        c = np.zeros((tables.term_count(order),) + shape)
        c[0] = value
        return Jet2(order, c)

    @staticmethod
    def variable(name, value, order, shape=()):
        c = np.zeros((tables.term_count(order),) + shape)
        c[0] = value
        if order >= 1:
            c[1 if name == "u" else 2] = 1.0
        return Jet2(order, c)

    # -- coefficient access
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
            return Jet2(order, c)
        return Jet2(order, self.c[: tables.term_count(order)].copy())

    # -- ring operations
    def __add__(self, other):
        if isinstance(other, Jet2):
            a, b = _align(self, other)
            return Jet2(a.order, a.c + b.c)
        c = self.c.copy()
        c[0] = c[0] + other
        return Jet2(self.order, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.order, -self.c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet2) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet2):
            a, b = _align(self, other)
            if _fastcore is not None and _is_scalar_coeffs(a.c) and _is_scalar_coeffs(b.c):
                return Jet2(a.order, _fastcore.jet_mul(a.c, b.c, a.order))
            return Jet2(a.order, _jetcore_py.jet_mul(a.c, b.c, a.order))
        return Jet2(self.order, self.c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            a, b = _align(self, other)
            if np.any(b.c[0] == 0.0):
                raise JetError("division by jet with zero constant term")
            if _fastcore is not None and _is_scalar_coeffs(a.c) and _is_scalar_coeffs(b.c):
                return Jet2(a.order, _fastcore.jet_div(a.c, b.c, a.order))
            return Jet2(a.order, _jetcore_py.jet_div(a.c, b.c, a.order))
        return Jet2(self.order, self.c / other)

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
        return Jet2(self.order - 1, c)

    def dv(self):
        src, dst, fac = tables.dv_pairs(self.order)
        c = np.zeros((tables.term_count(self.order - 1),) + self.c.shape[1:])
        c[dst] = self.c[src] * _col(fac, self.c)
        return Jet2(self.order - 1, c)

    def divide_by_v(self, tol=1e-9):
        """Jet of f/v for f vanishing on the u-axis; result has order-1."""
        axis = tables.axis_indices(self.order)
        scale = np.max(np.abs(self.c), axis=0)
        bad = np.abs(self.c[axis]) > tol * (1.0 + scale)
        if np.any(bad):
            worst = float(np.max(np.abs(self.c[axis])))
            raise JetError(f"jet does not vanish on the u-axis (residual {worst:.3g})")
        src, dst = tables.shift_v_pairs(self.order)
        c = np.zeros((tables.term_count(self.order - 1),) + self.c.shape[1:])
        c[dst] = self.c[src]
        return Jet2(self.order - 1, c)

    def multiply_by_v(self):
        """Inverse of divide_by_v up to truncation; result has order+1."""
        src, dst = tables.shift_v_pairs(self.order + 1)
        c = np.zeros((tables.term_count(self.order + 1),) + self.c.shape[1:])
        c[src] = self.c[dst]
        return Jet2(self.order + 1, c)

    def divide_by_u(self, tol=1e-9):
        """Jet of f/u for f vanishing on the v-axis; result has order-1."""
        vaxis = np.asarray([tables.index_of(0, j) for j in range(self.order + 1)], dtype=np.int32)
        scale = np.max(np.abs(self.c), axis=0)
        if np.any(np.abs(self.c[vaxis]) > tol * (1.0 + scale)):
            raise JetError("jet does not vanish on the v-axis")
        c = np.zeros((tables.term_count(self.order - 1),) + self.c.shape[1:])
        for (i, j) in tables.monomials(self.order - 1):
            c[tables.index_of(i, j)] = self.c[tables.index_of(i + 1, j)]
        return Jet2(self.order - 1, c)

    def axis_part(self):
        """Jet of (u, v) -> f(u, 0): coefficients with j > 0 dropped."""
        c = self.c.copy()
        for (i, j) in tables.monomials(self.order):
            if j > 0:
                c[tables.index_of(i, j)] = 0.0
        return Jet2(self.order, c)

    def __repr__(self):
        return f"Jet2(order={self.order}, c={self.c!r})"


def _col(fac, template):
    return fac.reshape(fac.shape + (1,) * (template.ndim - 1))


def _align(a: Jet2, b: Jet2):
    order = min(a.order, b.order)
    a = a.truncate(order)
    b = b.truncate(order)
    if a.c.shape != b.c.shape:
        shape = np.broadcast_shapes(a.c.shape, b.c.shape)
        a = Jet2(order, np.broadcast_to(a.c, shape).copy())
        b = Jet2(order, np.broadcast_to(b.c, shape).copy())
    return a, b


def _apply_series(coeffs, x: Jet2) -> Jet2:
    """sum coeffs[n] * (x - x0)^n by Horner, where coeffs[n] = g^(n)(x0)/n!."""
    xhat = Jet2(x.order, x.c.copy())
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


_JET_FUNCS = {"sin": jet_sin, "cos": jet_cos, "sinh": jet_sinh,
              "cosh": jet_cosh, "exp": jet_exp, "sqrt": jet_sqrt}


def compose2(gc, order_g, U: Jet2, V: Jet2) -> Jet2:
    """Jet of g(U, V) from coefficients gc of g at (U.value, V.value).

    gc is a flat coefficient array of order order_g; U, V are jets of the
    inner map in the outer variables.
    """
    order = min(U.order, V.order)
    Uh = Jet2(order, U.truncate(order).c.copy())
    Vh = Jet2(order, V.truncate(order).c.copy())
    Uh.c[0] = np.zeros_like(Uh.c[0])
    Vh.c[0] = np.zeros_like(Vh.c[0])
    shape = np.broadcast_shapes(Uh.c.shape[1:], Vh.c.shape[1:])
    out = Jet2.constant(0.0, order, shape)
    upow = [Jet2.constant(1.0, order, shape)]
    for i in range(1, min(order, order_g) + 1):
        upow.append(upow[-1] * Uh)
    for (i, j) in tables.monomials(order_g):
        g = gc[tables.index_of(i, j)]
        if np.all(g == 0.0):
            continue
        term = upow[i] if i <= order else None
        if term is None:
            continue
        for _ in range(j):
            term = term * Vh
        out = out + term * g
    return out


# ---------------------------------------------------------------------------
# Univariate series helpers (truncated power series as plain arrays)
# ---------------------------------------------------------------------------

# A series is an array whose first axis holds the coefficients; any further
# (trailing) axes are a batch of independent series, one per point.  The
# operands of a helper carry the same batch shape.

def p1_mul(a, b):
    ia, ib = tables.series_mul_pairs(len(a))
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    np.add.at(out, ia + ib, a[ia] * b[ib])
    return out


def p1_div(a, b):
    if np.any(b[0] == 0):
        raise JetError("series division by zero constant term")
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for k in range(len(a)):
        out[k] = (a[k] - (out[:k] * b[k:0:-1]).sum(axis=0)) / b[0]
    return out


def p1_compose(g, h):
    """Series of g(h(t)); requires h[0] = 0, g given about that value."""
    n = len(g)
    res = np.zeros(np.broadcast_shapes(g.shape, h.shape))
    res[0] = g[n - 1]
    for k in range(n - 2, -1, -1):
        res = p1_mul(res, h)
        res[0] += g[k]
    return res


def p1_derivative(a):
    out = np.zeros_like(a)
    k = np.arange(1, len(a)).reshape((-1,) + (1,) * (a.ndim - 1))
    out[:-1] = a[1:] * k
    return out


def p1_invert(f):
    """Series reversion: g with f(g(y)) = y + O(y^n); needs f[0]=0, f[1]!=0."""
    n = len(f)
    if np.any(f[0] != 0.0):
        raise JetError("series reversion requires zero constant term")
    if np.any(f[1] == 0.0):
        raise JetError("series not invertible: vanishing linear term")
    fp = p1_derivative(f)
    g = np.zeros_like(f)
    g[1] = 1.0 / f[1]
    for _ in range(max(1, math.ceil(math.log2(max(n, 2))) + 1)):
        err = p1_compose(f, g)
        err[1] -= 1.0
        g = g - p1_div(err, p1_compose(fp, g))
    return g


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

class Expr:
    """Immutable expression tree node; jets via .jet(u, v, order)."""

    __slots__ = ()

    def jet(self, u, v, order=DEFAULT_ORDER, _memo=None):
        if _memo is None:
            _memo = {}
        key = id(self)
        hit = _memo.get(key)
        if hit is not None:
            return hit
        out = self._jet(u, v, order, _memo)
        _memo[key] = out
        return out

    def __call__(self, u, v):
        return self.jet(u, v, order=0).value()

    # operator sugar used when assembling derived expressions in code
    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, n):
        return Pow(self, n)

    def __repr__(self):
        return f"<{type(self).__name__} {to_source(self)}>"


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(float(x))


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", float(value))

    def __setattr__(self, *a):
        raise AttributeError("Const is immutable")

    def _jet(self, u, v, order, memo):
        return Jet2.constant(self.value, order, np.shape(u))

    def __eq__(self, other):
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self):
        return hash(("const", self.value))


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        if name not in ("u", "v"):
            raise ValueError(f"unknown variable {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("Var is immutable")

    def _jet(self, u, v, order, memo):
        value = u if self.name == "u" else v
        return Jet2.variable(self.name, value, order, np.shape(u))

    def __eq__(self, other):
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self):
        return hash(("var", self.name))


class _Binary(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, *a):
        raise AttributeError("nodes are immutable")

    def __eq__(self, other):
        return type(self) is type(other) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((type(self).__name__, self.a, self.b))


class Add(_Binary):
    __slots__ = ()

    def _jet(self, u, v, order, memo):
        return self.a.jet(u, v, order, memo) + self.b.jet(u, v, order, memo)


class Sub(_Binary):
    __slots__ = ()

    def _jet(self, u, v, order, memo):
        return self.a.jet(u, v, order, memo) - self.b.jet(u, v, order, memo)


class Mul(_Binary):
    __slots__ = ()

    def _jet(self, u, v, order, memo):
        return self.a.jet(u, v, order, memo) * self.b.jet(u, v, order, memo)


class Div(_Binary):
    __slots__ = ()

    def _jet(self, u, v, order, memo):
        return self.a.jet(u, v, order, memo) / self.b.jet(u, v, order, memo)


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        object.__setattr__(self, "a", a)

    def __setattr__(self, *a):
        raise AttributeError("nodes are immutable")

    def _jet(self, u, v, order, memo):
        return -self.a.jet(u, v, order, memo)

    def __eq__(self, other):
        return isinstance(other, Neg) and self.a == other.a

    def __hash__(self):
        return hash(("neg", self.a))


class Pow(Expr):
    __slots__ = ("a", "n")

    def __init__(self, a, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n", n)

    def __setattr__(self, *a):
        raise AttributeError("nodes are immutable")

    def _jet(self, u, v, order, memo):
        return self.a.jet(u, v, order, memo) ** self.n

    def __eq__(self, other):
        return isinstance(other, Pow) and self.a == other.a and self.n == other.n

    def __hash__(self):
        return hash(("pow", self.a, self.n))


class Func(Expr):
    __slots__ = ("name", "a")

    def __init__(self, name, a):
        if name not in FUNCTIONS:
            raise ValueError(f"unknown function {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "a", a)

    def __setattr__(self, *a):
        raise AttributeError("nodes are immutable")

    def _jet(self, u, v, order, memo):
        return _JET_FUNCS[self.name](self.a.jet(u, v, order, memo))

    def __eq__(self, other):
        return isinstance(other, Func) and self.name == other.name and self.a == other.a

    def __hash__(self):
        return hash(("func", self.name, self.a))


U = Var("u")
V = Var("v")
ZERO = Const(0.0)
ONE = Const(1.0)


# ---------------------------------------------------------------------------
# Parser (recursive descent over the grammar in the package docs)
# ---------------------------------------------------------------------------

_NUM_START = set("0123456789.")
MAX_NESTING = 100      # parentheses and function calls; keeps the recursion bounded


class _Scanner:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.depth = 0

    def nested(self, parse_inner):
        """Parse an expression one level of nesting deeper."""
        if self.depth >= MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", self.pos)
        self.depth += 1
        e = parse_inner(self)
        self.depth -= 1
        return e

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
        return float(s[start:p])

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
    e = _parse_expr(sc)
    sc.skip_ws()
    if sc.pos != len(sc.src):
        raise ParseError(f"unexpected {sc.src[sc.pos]!r}", sc.pos)
    return e


def _parse_expr(sc: _Scanner) -> Expr:
    ch = sc.peek()
    negate = False
    if ch in "+-":
        negate = ch == "-"
        sc.pos += 1
    e = _parse_term(sc)
    if negate:
        e = Neg(e)
    while True:
        ch = sc.peek()
        if ch == "+":
            sc.pos += 1
            e = Add(e, _parse_term(sc))
        elif ch == "-":
            sc.pos += 1
            e = Sub(e, _parse_term(sc))
        else:
            return e


def _parse_term(sc: _Scanner) -> Expr:
    e = _parse_factor(sc)
    while True:
        ch = sc.peek()
        if ch == "*":
            sc.pos += 1
            e = Mul(e, _parse_factor(sc))
        elif ch == "/":
            sc.pos += 1
            e = Div(e, _parse_factor(sc))
        else:
            return e


def _parse_factor(sc: _Scanner) -> Expr:
    e = _parse_base(sc)
    if sc.peek() == "^":
        sc.pos += 1
        e = Pow(e, sc.integer())
    return e


def _parse_base(sc: _Scanner) -> Expr:
    ch = sc.peek()
    pos = sc.pos
    if ch == "":
        raise ParseError("unexpected end of input", pos)
    if ch == "(":
        sc.pos += 1
        e = sc.nested(_parse_expr)
        if sc.peek() != ")":
            raise ParseError("expected ')'", sc.pos)
        sc.pos += 1
        return e
    if ch in _NUM_START:
        return Const(sc.number())
    if ch.isalpha():
        name, start = sc.ident()
        if name in ("u", "v"):
            return Var(name)
        if name in FUNCTIONS:
            if sc.peek() != "(":
                raise ParseError(f"expected '(' after {name}", sc.pos)
            sc.pos += 1
            arg = sc.nested(_parse_expr)
            if sc.peek() != ")":
                raise ParseError("expected ')'", sc.pos)
            sc.pos += 1
            return Func(name, arg)
        raise ParseError(f"unknown identifier {name!r}", start)
    raise ParseError(f"unexpected {ch!r}", pos)


# ---------------------------------------------------------------------------
# Printing (round-trips through parse), differentiation, constant folding
# ---------------------------------------------------------------------------

_PREC = {"add": 1, "mul": 2, "neg": 2, "pow": 3, "atom": 4}


def _prec(e) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC["add"]
    if isinstance(e, (Mul, Div)):
        return _PREC["mul"]
    if isinstance(e, Neg):
        return _PREC["neg"]
    if isinstance(e, Pow):
        return _PREC["pow"]
    return _PREC["atom"]


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
        return f"{to_source(e.a)} + {_wrap(e.b, _PREC['add'], strict=False)}"
    if isinstance(e, Sub):
        return f"{to_source(e.a)} - {_wrap(e.b, _PREC['add'], strict=True)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.a, _PREC['mul'], strict=False)}*{_wrap(e.b, _PREC['mul'], strict=True)}"
    if isinstance(e, Div):
        return f"{_wrap(e.a, _PREC['mul'], strict=False)}/{_wrap(e.b, _PREC['mul'], strict=True)}"
    if isinstance(e, Neg):
        return f"(0 - {_wrap(e.a, _PREC['neg'], strict=True)})"
    if isinstance(e, Pow):
        return f"{_wrap(e.a, _PREC['pow'], strict=True)}^{e.n}"
    if isinstance(e, Func):
        return f"{e.name}({to_source(e.a)})"
    raise TypeError(f"cannot print {type(e).__name__}")


def _wrap(e, outer, strict):
    s = to_source(e)
    p = _prec(e)
    if p < outer or (strict and p == outer):
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
        inner = diff(e.a, var)
        outer = {
            "sin": lambda a: Func("cos", a),
            "cos": lambda a: Neg(Func("sin", a)),
            "sinh": lambda a: Func("cosh", a),
            "cosh": lambda a: Func("sinh", a),
            "exp": lambda a: Func("exp", a),
            "sqrt": lambda a: Div(Const(0.5), Func("sqrt", a)),
        }[e.name](e.a)
        return fold(Mul(outer, inner))
    raise TypeError(f"cannot differentiate {type(e).__name__}")


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
            return Const(a.value ** e.n)
        if e.n == 1:
            return a
        return Pow(a, e.n)
    if isinstance(e, Func):
        a = fold(e.a)
        if isinstance(a, Const):
            return Const(float(getattr(np, e.name)(a.value)))
        return Func(e.name, a)
    a, b = fold(e.a), fold(e.b)
    ca, cb = isinstance(a, Const), isinstance(b, Const)
    if isinstance(e, Add):
        if ca and cb:
            return Const(a.value + b.value)
        if ca and a.value == 0:
            return b
        if cb and b.value == 0:
            return a
        return Add(a, b)
    if isinstance(e, Sub):
        if ca and cb:
            return Const(a.value - b.value)
        if cb and b.value == 0:
            return a
        return Sub(a, b)
    if isinstance(e, Mul):
        if ca and cb:
            return Const(a.value * b.value)
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
            return Const(a.value / b.value)
        if ca and a.value == 0:
            return ZERO
        return Div(a, b)
    raise TypeError(type(e).__name__)


# ---------------------------------------------------------------------------
# Polynomials in u (closed-form curve integration)
# ---------------------------------------------------------------------------

def poly_u_coeffs(e: Expr):
    """Dense coefficients of e as a polynomial in u, or None if not one."""
    if isinstance(e, Const):
        return np.array([e.value])
    if isinstance(e, Var):
        return np.array([0.0, 1.0]) if e.name == "u" else None
    if isinstance(e, Neg):
        a = poly_u_coeffs(e.a)
        return None if a is None else -a
    if isinstance(e, (Add, Sub)):
        a, b = poly_u_coeffs(e.a), poly_u_coeffs(e.b)
        if a is None or b is None:
            return None
        n = max(len(a), len(b))
        a = np.pad(a, (0, n - len(a)))
        b = np.pad(b, (0, n - len(b)))
        return a + b if isinstance(e, Add) else a - b
    if isinstance(e, Mul):
        a, b = poly_u_coeffs(e.a), poly_u_coeffs(e.b)
        if a is None or b is None:
            return None
        return np.convolve(a, b)
    if isinstance(e, Div):
        a, b = poly_u_coeffs(e.a), poly_u_coeffs(e.b)
        if a is None or b is None or len(b) != 1 or b[0] == 0:
            return None
        return a / b[0]
    if isinstance(e, Pow):
        a = poly_u_coeffs(e.a)
        if a is None or e.n < 0:
            return None
        out = np.array([1.0])
        for _ in range(e.n):
            out = np.convolve(out, a)
        return out
    return None


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


def poly2_coeffs(e: Expr):
    """Coefficients {(i, j): c} of e as a polynomial in (u, v), or None."""
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
        if a is None or b is None:
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
        if a is None:
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
