"""Index tables for truncated bivariate Taylor (jet) arithmetic.

Coefficients of a jet of order K are stored in a flat array of length
(K+1)(K+2)/2, graded order: degree d = i+j ascending, then j ascending,
so (0,0); (1,0),(0,1); (2,0),(1,1),(0,2); ...
"""

from functools import lru_cache

import numpy as np


def term_count(order: int) -> int:
    return (order + 1) * (order + 2) // 2


def index_of(i: int, j: int) -> int:
    d = i + j
    return d * (d + 1) // 2 + j


@lru_cache(maxsize=None)
def monomials(order: int):
    """List of (i, j) exponent pairs in storage order."""
    out = []
    for d in range(order + 1):
        for j in range(d + 1):
            out.append((d - j, j))
    return tuple(out)


@lru_cache(maxsize=None)
def mul_triples(order: int):
    """Index triples (ia, ib, iout) with monomial(ia)*monomial(ib) of degree <= order."""
    mono = monomials(order)
    ia, ib, io = [], [], []
    for a, (i1, j1) in enumerate(mono):
        for b, (i2, j2) in enumerate(mono):
            if i1 + i2 + j1 + j2 <= order:
                ia.append(a)
                ib.append(b)
                io.append(index_of(i1 + i2, j1 + j2))
    return (np.asarray(ia, dtype=np.intp),
            np.asarray(ib, dtype=np.intp),
            np.asarray(io, dtype=np.intp))


@lru_cache(maxsize=None)
def div_tables(order: int):
    """Structure for the graded triangular solve of c*b = a, by total degree.

    Output slot o = (i, j) is c[o] = (a[o] - sum c[ic]*b[ib]) / b[0] over the
    pairs (ic, ib) with monomial(ic) + monomial(ib) = (i, j) and ib != 0.
    Each such ic has degree < i + j, so all slots of one degree are solved
    together from the lower degrees.  Returns, for d = 1..order, a tuple
    (s0, s1, c_idx, b_idx, seg): the slots s0..s1-1 of degree d, the pairs
    of those slots in slot order, and the slot of each pair counted from s0.
    """
    mono = monomials(order)
    out = []
    for d in range(1, order + 1):
        s0, s1 = term_count(d - 1), term_count(d)
        c_idx, b_idx, seg = [], [], []
        for r, (i, j) in enumerate(mono[s0:s1]):
            for ib in range(1, s1):
                p, q = mono[ib]
                if p <= i and q <= j:
                    c_idx.append(index_of(i - p, j - q))
                    b_idx.append(ib)
                    seg.append(r)
        out.append((s0, s1, np.asarray(c_idx, dtype=np.intp),
                    np.asarray(b_idx, dtype=np.intp), np.asarray(seg, dtype=np.intp)))
    return tuple(out)


@lru_cache(maxsize=None)
def axis_mul_triples(order: int):
    """The triples of mul_triples whose monomials are both pure u, in the same
    order: the whole product of two jets of u alone."""
    ax = axis_indices(order).astype(np.intp)
    ia, ib = series_mul_pairs(order + 1)
    return ax[ia], ax[ib], ax[ia + ib]


@lru_cache(maxsize=None)
def axis_div_tables(order: int):
    """div_tables cut to the pure-u slot of each degree, the first one: the
    solve of c*b = a for jets of u alone.  The slot (d, 0) has the first d
    pairs of its degree, the pairs (d - p, 0), (p, 0) for p = 1..d."""
    return tuple((s0, s0 + 1, c_idx[:d], b_idx[:d], seg[:d])
                 for d, (s0, _, c_idx, b_idx, seg) in enumerate(div_tables(order), 1))


@lru_cache(maxsize=None)
def du_pairs(order: int):
    """Pairs (src, dst) mapping coefficients of f to coefficients of df/du (order-1)."""
    src, dst, fac = [], [], []
    for (i, j) in monomials(order - 1):
        src.append(index_of(i + 1, j))
        dst.append(index_of(i, j))
        fac.append(float(i + 1))
    return (np.asarray(src, dtype=np.int32),
            np.asarray(dst, dtype=np.int32),
            np.asarray(fac))


@lru_cache(maxsize=None)
def dv_pairs(order: int):
    src, dst, fac = [], [], []
    for (i, j) in monomials(order - 1):
        src.append(index_of(i, j + 1))
        dst.append(index_of(i, j))
        fac.append(float(j + 1))
    return (np.asarray(src, dtype=np.int32),
            np.asarray(dst, dtype=np.int32),
            np.asarray(fac))


@lru_cache(maxsize=None)
def shift_v_pairs(order: int):
    """Pairs (src, dst) implementing division of a jet vanishing in v by v.

    Coefficient c_{i,j+1} of f becomes c_{i,j} of f/v; the result has order-1.
    """
    src, dst = [], []
    for (i, j) in monomials(order - 1):
        src.append(index_of(i, j + 1))
        dst.append(index_of(i, j))
    return (np.asarray(src, dtype=np.int32), np.asarray(dst, dtype=np.int32))


@lru_cache(maxsize=None)
def shift_u_pairs(order: int):
    """Pairs (src, dst) implementing division of a jet vanishing on the
    v-axis by u: the pairs of du_pairs without their factors.

    Coefficient c_{i+1,j} of f becomes c_{i,j} of f/u; the result has order-1.
    """
    src, dst, _ = du_pairs(order)
    return src, dst


@lru_cache(maxsize=None)
def series_mul_pairs(n: int):
    """Index pairs (ia, ib), ia + ib < n, ordered by ia: the terms of the
    product of two univariate series truncated to n coefficients."""
    ia = [i for i in range(n) for _ in range(n - i)]
    ib = [j for i in range(n) for j in range(n - i)]
    return np.asarray(ia, dtype=np.int32), np.asarray(ib, dtype=np.int32)


@lru_cache(maxsize=None)
def axis_indices(order: int):
    """Indices of the pure-u coefficients c_{i,0}, i = 0..order."""
    return np.asarray([index_of(i, 0) for i in range(order + 1)], dtype=np.int32)


@lru_cache(maxsize=None)
def v_axis_indices(order: int):
    """Indices of the pure-v coefficients c_{0,j}, j = 0..order."""
    return np.asarray([index_of(0, j) for j in range(order + 1)], dtype=np.int32)
