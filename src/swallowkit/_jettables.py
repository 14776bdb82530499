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
    return (np.asarray(ia, dtype=np.int32),
            np.asarray(ib, dtype=np.int32),
            np.asarray(io, dtype=np.int32))


@lru_cache(maxsize=None)
def div_tables(order: int):
    """Structure for the graded triangular solve of c*b = a.

    For each output slot o (in storage order), lists pairs (ic, ib) with
    monomial(ic) + monomial(ib) = monomial(o) and ib != 0, used as
    c[o] = (a[o] - sum c[ic]*b[ib]) / b[0].
    Returned as flat int32 arrays (offsets, c_idx, b_idx).
    """
    mono = monomials(order)
    pos = {m: k for k, m in enumerate(mono)}
    offsets = [0]
    c_idx, b_idx = [], []
    for (i, j) in mono:
        for ib, (p, q) in enumerate(mono):
            if ib == 0 or p > i or q > j:
                continue
            c_idx.append(pos[(i - p, j - q)])
            b_idx.append(ib)
        offsets.append(len(c_idx))
    return (np.asarray(offsets, dtype=np.int32),
            np.asarray(c_idx, dtype=np.int32),
            np.asarray(b_idx, dtype=np.int32))


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
