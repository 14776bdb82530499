"""Per-point memos of the composite jet providers and their bounded cache."""

import gc

import numpy as np
import pytest

from swallowkit import deform as dm
from swallowkit.builder import AsymptoticData, SwallowtailData, build
from swallowkit.fields import CACHE_BOUND, BoundedCache, JetFn
from swallowkit.frontal import classify
from swallowkit.jets import jet_sqrt, parse

_F = parse("u^3 - 2*u*v + exp(u)*sin(v)")


def _composite(u, v, order):
    return jet_sqrt(2.0 + _F.jet(u, v, order) ** 2) / (1.0 + _F.jet(u, v, order))


@pytest.mark.parametrize("orders", [(6, 3, 0, 6), (0, 3, 6, 2)])
def test_memo_is_bit_identical_to_the_bare_function(orders):
    p = JetFn(_composite)
    for order in orders:
        got = p.jet(0.3, -0.2, order)
        assert got.order == order
        np.testing.assert_array_equal(got.c, _composite(0.3, -0.2, order).c)


def test_memo_answers_repeats_and_lower_orders_without_recomputing():
    calls = []

    def fn(u, v, order):
        calls.append(order)
        return _composite(u, v, order)

    p = JetFn(fn)
    p.jet(0.1, 0.2, 5)
    p.jet(0.1, 0.2, 5)
    p.jet(0.1, 0.2, 2)
    assert calls == [5]
    p.jet(0.1, 0.2, 6)
    assert calls == [5, 6]


def test_array_points_bypass_the_memo():
    calls = []

    def fn(u, v, order):
        calls.append(np.shape(u))
        return _composite(u, v, order)

    p = JetFn(fn)
    us = np.array([0.1, 0.2, 0.3])
    first = p.jet(us, np.zeros(3), 3)
    second = p.jet(us, np.zeros(3), 3)
    assert calls == [(3,), (3,)]
    assert len(p._memo) == 0
    np.testing.assert_array_equal(first.c, second.c)
    for k, u in enumerate(us):
        np.testing.assert_allclose(first.c[:, k], _composite(u, 0.0, 3).c, rtol=1e-14)


def test_memo_clears_past_its_bound():
    p = JetFn(_composite)
    for k in range(CACHE_BOUND + 1):
        p.jet(0.001 * k, 0.0, 1)
    assert len(p._memo) == CACHE_BOUND + 1
    p.jet(-0.5, 0.0, 1)
    assert len(p._memo) == 1
    cache = BoundedCache()
    assert cache.value("k", lambda: 1) == 1
    assert cache.value("k", lambda: 2) == 1


def test_classifying_the_same_germ_twice_gives_identical_reports():
    """The second classification is served by the memos of the composite
    providers of a xi-interpolation stage; it equals the first and the
    classification of a freshly generated germ."""
    d1 = SwallowtailData(xi=("1", "u", "u^2"), b=("0", "0", "0.25"))
    d2 = SwallowtailData(xi=("0.9 - 0.4*u", "0.4 + 0.9*u", "1.5*u^2"), b=("0.1", "0", "0.3"))
    fam = dm.deform_theorem_A(d1, d2)
    germ = build(fam.stages[1].generator(0.5))
    first, second = repr(classify(germ)), repr(classify(germ))
    assert first == second
    assert repr(classify(build(fam.stages[1].generator(0.5)))) == first


def _certify_a_and_d():
    from test_deform import rotated_asym
    d1 = SwallowtailData(xi=("1", "u", "u^2"), b=("0", "0", "0.25"))
    d2 = SwallowtailData(xi=("0.9 - 0.4*u", "0.4 + 0.9*u", "1.5*u^2"), b=("0.1", "0", "0.3"))
    fam = dm.deform_theorem_A(d1, d2)
    assert dm.certify(fam, "generic_swallowtail", steps=3).passed
    dp = AsymptoticData(xi=("1", "u", "u^2"), q="0", r=("u^2", "0-2*u", "1"))
    fam = dm.deform_theorem_D(dp, rotated_asym(0.4, "0.05", 2.0), preserve_sign=True)
    assert dm.certify(fam, "asymptotic_swallowtail", steps=3,
                      track_kext_sign=fam.kext_sign).passed


def test_dropped_families_are_freed_by_reference_counting():
    """Building and certifying a Theorem A and a Theorem D family leaves no
    reference cycle behind: with the cyclic collector off, dropping them
    frees everything, so a later collection finds nothing."""
    _certify_a_and_d()          # first-use work (imports, index tables)
    gc.collect()
    gc.disable()
    try:
        _certify_a_and_d()
        assert gc.collect() == 0
    finally:
        gc.enable()
