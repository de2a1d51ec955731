"""The numpy Clopper-Pearson kernel behind the simulator's 99% envelope.

``REFERENCE`` holds the upper limit at confidence 0.99 for x successes in
n trials, (n, x, limit), to 25 digits.  It was computed with mpmath at 50
digits by this script (mpmath 1.3):

    import random

    import mpmath

    mpmath.mp.dps = 50


    def cdf(x, n, u):
        # P(Bin(n, u) <= x), summed from k = x down
        q = 1 - u
        t = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(x + 1) - mpmath.loggamma(n - x + 1)
                       + x * mpmath.log(u) + (n - x) * mpmath.log(q))
        s, k = t, x
        while k > 0 and t > s * mpmath.mpf(10) ** -60:
            t *= k * q / ((n - k + 1) * u)
            s += t
            k -= 1
        return s


    def limit(x, n, c=mpmath.mpf("0.99")):
        if x == 0:
            return 1 - (1 - c) ** (mpmath.mpf(1) / n)
        bracket = (mpmath.mpf(x) / (n + 1), min(1 - mpmath.mpf(10) ** -40, (x + 10 * mpmath.sqrt(x) + 10) / n))
        return mpmath.findroot(lambda u: cdf(x, n, u) - (1 - c), bracket, solver="illinois")


    points = {(n, x) for n in (1, 2, 4, 51, 20_000, 10**6, 10**7)
              for x in (0, 1, 2, 3, n // 2, n - 2, n - 1) if 0 <= x < n}
    rng = random.Random(10)
    while len(points) < 42:
        n = int(10 ** rng.uniform(1, 7))
        points.add((n, rng.randrange(1, n)))
    for n, x in sorted(points):
        print(f"    ({n}, {x}, \"{mpmath.nstr(limit(x, n), 25)}\"),")
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaincinv

from linkdelay import _clopper_pearson
from linkdelay._clopper_pearson import upper_limit

REFERENCE = [
    (1, 0, "0.99"),
    (2, 0, "0.9"),
    (2, 1, "0.9949874371066199547344798"),
    (4, 0, "0.6837722339831620668001106"),
    (4, 1, "0.8591324573054540241549603"),
    (4, 2, "0.9580013643782992858939037"),
    (4, 3, "0.9974905699336811047397078"),
    (28, 24, "0.9693803212989086516254516"),
    (51, 0, "0.08634062736082237600565611"),
    (51, 1, "0.1231972428751017280303713"),
    (51, 2, "0.1548054935802542735632666"),
    (51, 3, "0.1837932457272742542981964"),
    (51, 25, "0.6579080448476996293816802"),
    (51, 49, "0.9970624935779367414677543"),
    (51, 50, "0.9998029540072200701558489"),
    (172, 126, "0.8077617485709708548890706"),
    (7859, 122, "0.01908511265622731183270822"),
    (13305, 5371, "0.4136431347089113802097987"),
    (20000, 0, "0.0002302320018434136485839536"),
    (20000, 1, "0.0003318708205728011269050323"),
    (20000, 2, "0.0004202300413605768222472826"),
    (20000, 3, "0.0005021674218330462143395731"),
    (20000, 10000, "0.5082492176864590142884905"),
    (20000, 19998, "0.9999925721048737822554186"),
    (20000, 19999, "0.9999994974833335864702515"),
    (26817, 14054, "0.5311799484090036477045059"),
    (730655, 36075, "0.04996624541804999506691007"),
    (874043, 685216, "0.7849847692382997227399945"),
    (1000000, 0, "0.000004605159582208147821238244"),
    (1000000, 1, "0.000006638333353341804759451124"),
    (1000000, 2, "0.000008405919990906042690982335"),
    (1000000, 3, "0.0000100450821303740142882155"),
    (1000000, 500000, "0.5011636720705149492340375"),
    (1000000, 999998, "0.9999998514451965035732118"),
    (1000000, 999999, "0.999999989949664197003184"),
    (10000000, 0, "0.0000004605169125608632046625024"),
    (10000000, 1, "0.0000006638350196525817215630588"),
    (10000000, 2, "0.0000008405944222483434524897641"),
    (10000000, 3, "0.000001004511397638054016176526"),
    (10000000, 5000000, "0.5003678778366114377425827"),
    (10000000, 9999998, "0.9999999851445253422422121"),
    (10000000, 9999999, "0.9999999989949664151549021"),
]


def reference_tolerance(n):
    return 2e-14 if n <= 100_000 else 1e-13


@pytest.mark.parametrize("n, x, limit", REFERENCE, ids=[f"n{n}-x{x}" for n, x, _ in REFERENCE])
def test_limit_matches_the_mpmath_reference(n, x, limit):
    (u,) = upper_limit(np.array([x]), n, 0.99)
    assert abs(u - float(limit)) <= reference_tolerance(n) * float(limit)


def test_repeated_counts_and_order_do_not_change_a_limit():
    n = 20_000
    xs = np.array([645, 22, 20_000, 0, 645, 1237, 22, 19_999])
    together = upper_limit(xs, n, 0.99)
    alone = [upper_limit(np.array([x]), n, 0.99)[0] for x in xs]
    assert together.tolist() == alone
    assert together[2] == 1.0


def test_no_successes_is_the_closed_form():
    for n in (1, 7, 20_000, 10**9):
        (u,) = upper_limit(np.array([0]), n, 0.99)
        assert u == -math.expm1(math.log1p(-0.99) / n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 100_000), st.floats(0.0, 1.0), st.sampled_from([0.5, 0.6, 0.9, 0.95, 0.99, 0.999, 1 - 1e-9]))
def test_limit_agrees_with_scipy(n, share, confidence):
    # the tolerance is scipy's: its betaincinv is off by 3.3e-12 at n = 96786, x = 1,
    # c = 0.6, where this kernel is within 1.1e-15 of mpmath
    x = min(int(share * n), n)
    (u,) = upper_limit(np.array([x]), n, confidence)
    expected = 1.0 if x == n else float(betaincinv(x + 1, n - x, confidence))
    assert abs(u - expected) <= 1e-11 * expected


def test_low_confidence_grows_the_fraction():
    # near c = 1/2 the fraction needs more than the rows built first, up to 1280 at n = 1e7
    n = 10_000_000
    xs = np.array([n // 100, n // 2, n - n // 100])
    for confidence in (0.5, 0.6):
        upper = upper_limit(xs, n, confidence)
        expected = betaincinv(xs + 1.0, n - xs, confidence)
        assert np.all(np.abs(upper - expected) <= 1e-13 * expected)


def test_fraction_rows_are_never_negative_at_the_root():
    # every term positive: the fraction is summed without cancellation
    n = 1_000_000
    xs = np.array([1, 3, 200, 40_000, 500_000, 999_999])
    for x, (s, r, g), u in zip(xs, _clopper_pearson._cf_rows(xs, n, 80), upper_limit(xs, n, 0.99)):
        assert (n + 1) * u - x > 0.0
        assert min(s) > 0.0 and min(r) >= 0.0 and min(g) > 0.0
