
import numpy as np
import pytest

from cdmlfc.errors import InvalidGamma, ZeroCoefficient
from cdmlfc.poly import (
    Polynomial,
    equivalent_tau,
    is_hurwitz,
    lipatov_sufficient,
    poly_mul,
    stability_indices,
    stability_limits,
    target_poly,
)


def roots_max_real(p: Polynomial) -> float:
    """Companion-matrix eigenvalue oracle, independent of the Routh path."""
    return max(r.real for r in np.roots(p.coeffs[::-1]))


class TestPolynomialBasics:
    def test_trailing_dust_trimmed(self):
        p = Polynomial([1.0, 2.0, 1e-20])
        assert p.degree == 1
        assert p.coeffs == (1.0, 2.0)

    def test_zero_polynomial(self):
        z = Polynomial([0.0, 0.0, 0.0])
        assert z.is_zero
        assert z.degree == 0

    def test_mul_binomial_square(self):
        p = Polynomial([1.0, 1.0])
        assert poly_mul(p, p).coeffs == (1.0, 2.0, 1.0)

    def test_mul_annihilator(self):
        p = Polynomial([1.0, 2.0, 3.0])
        assert poly_mul(p, Polynomial.zero()).is_zero

    def test_mul_by_s(self):
        # hand convolution of the area-1 numerator by s
        n1 = Polynomial([1.2566, 0.3483])
        s = Polynomial([0.0, 1.0])
        assert poly_mul(n1, s).coeffs == (0.0, 1.2566, 0.3483)

    def test_mul_commutative_associative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = Polynomial(rng.normal(size=rng.integers(1, 5)))
            b = Polynomial(rng.normal(size=rng.integers(1, 5)))
            c = Polynomial(rng.normal(size=rng.integers(1, 5)))
            ab = poly_mul(a, b)
            ba = poly_mul(b, a)
            assert ab.coeffs == pytest.approx(ba.coeffs, rel=1e-12)
            lhs = poly_mul(ab, c)
            rhs = poly_mul(a, poly_mul(b, c))
            assert lhs.coeffs == pytest.approx(rhs.coeffs, rel=1e-12, abs=1e-15)

    def test_eval(self):
        p = Polynomial([1.0, 2.0, 1.0])
        assert p(0.0) == 1.0
        assert p(1.0) == 4.0

    def test_eval_area1_numerator_at_zero(self):
        n1 = Polynomial([1.2566, 0.3483])
        assert n1(0.0) == pytest.approx(1.256, abs=1e-3)

    def test_render(self):
        assert str(Polynomial([1.0, 0.0, 0.5])) == "1 + 0.5*s^2"


class TestStabilityIndices:
    def test_all_ones(self):
        assert stability_indices(Polynomial([1, 1, 1])) == [1.0]

    def test_cubic_by_hand(self):
        assert stability_indices(Polynomial([1, 2, 2, 1])) == [2.0, 2.0]

    def test_zero_interior_coefficient(self):
        with pytest.raises(ZeroCoefficient):
            stability_indices(Polynomial([1, 0, 1]))

    def test_scale_invariance(self):
        # exact for power-of-two scales; within rounding for arbitrary ones
        rng = np.random.default_rng(3)
        for _ in range(20):
            coeffs = rng.uniform(0.1, 2.0, size=5)
            p = Polynomial(coeffs)
            assert stability_indices(Polynomial(4.0 * coeffs)) == stability_indices(p)
            assert stability_indices(Polynomial(0.125 * coeffs)) == stability_indices(p)
            k = rng.uniform(0.1, 10.0)
            assert stability_indices(Polynomial(k * coeffs)) == pytest.approx(
                stability_indices(p), rel=1e-13
            )

    def test_roundtrip_through_target(self):
        gamma = [2.5, 2.0, 2.0, 2.0, 2.0]
        p = target_poly(gamma, tau=2.5, a0=1.0)
        assert stability_indices(p) == pytest.approx(gamma, rel=1e-9)
        assert equivalent_tau(p) == pytest.approx(2.5, rel=1e-9)


class TestEquivalentTau:
    def test_first_order(self):
        assert equivalent_tau(Polynomial([1, 1])) == 1.0

    def test_benchmark_target_low_order_terms(self):
        # leading terms of the benchmark area-1 target polynomial
        p = Polynomial([2.57, 2.276, 0.0793, 0.276, 0.054, 0.001, 7.32e-7])
        tau = equivalent_tau(p)
        assert tau == pytest.approx(0.8856, abs=1e-4)
        assert tau == pytest.approx(0.8832, rel=5e-3)

    def test_scale_invariance(self):
        p = Polynomial([3.0, 1.5])  # 3 * (1 + 0.5 s)
        assert equivalent_tau(p) == 0.5

    def test_zero_a0(self):
        with pytest.raises(ZeroCoefficient):
            equivalent_tau(Polynomial([0.0, 1.0]))


class TestStabilityLimits:
    def test_degree_two_single_index(self):
        assert stability_limits(Polynomial([1, 1, 1])) == [0.0]

    def test_three_twos(self):
        p = target_poly([2.0, 2.0, 2.0], tau=1.0, a0=1.0)
        assert stability_limits(p) == pytest.approx([0.5, 1.0, 0.5])

    def test_two_fours(self):
        p = target_poly([4.0, 4.0], tau=1.0, a0=1.0)
        assert stability_limits(p) == pytest.approx([0.25, 0.25])


class TestTargetPoly:
    def test_minimal(self):
        p = target_poly([2.0], tau=1.0, a0=1.0)
        assert p.coeffs == pytest.approx((1.0, 1.0, 0.5))

    def test_degree_six_head(self):
        p = target_poly([2.5, 2.0, 2.0, 2.0, 2.0], tau=2.5, a0=1.0)
        assert p.degree == 6
        assert p.coeff(2) == pytest.approx(2.5)
        # tau^3 / (gamma_2 * gamma_1^2) = 15.625 / 12.5
        assert p.coeff(3) == pytest.approx(1.25)

    def test_linear_in_a0(self):
        base = target_poly([2.0, 3.0], tau=0.7, a0=1.0)
        scaled = target_poly([2.0, 3.0], tau=0.7, a0=4.0)
        assert scaled.coeffs == pytest.approx(tuple(4.0 * c for c in base.coeffs))

    def test_random_roundtrip(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            m = rng.integers(1, 7)
            gamma = rng.uniform(0.2, 6.0, size=m).tolist()
            tau = rng.uniform(0.1, 4.0)
            a0 = rng.uniform(0.1, 10.0)
            p = target_poly(gamma, tau, a0)
            assert p.coeff(0) == pytest.approx(a0, rel=1e-12)
            assert equivalent_tau(p) == pytest.approx(tau, rel=1e-9)
            if m >= 1 and p.degree >= 2:
                assert stability_indices(p) == pytest.approx(gamma, rel=1e-9)

    def test_invalid_gamma(self):
        with pytest.raises(InvalidGamma):
            target_poly([2.0, -1.0], tau=1.0, a0=1.0)


class TestHurwitz:
    def test_first_order(self):
        assert is_hurwitz(Polynomial([1, 1]))

    def test_imaginary_axis_roots(self):
        # (1 + s)(1 + s^2) has roots at +/- i
        assert not is_hurwitz(Polynomial([1, 1, 1, 1]))

    def test_stable_cubic(self):
        assert is_hurwitz(Polynomial([1, 2, 2, 1]))

    def test_sign_normalization(self):
        assert is_hurwitz(Polynomial([-1, -2, -2, -1]))

    def test_agreement_with_root_oracle(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(1000):
            deg = int(rng.integers(1, 9))
            if rng.random() < 0.5:
                # guaranteed-stable: product of (s + a), a > 0, plus complex pairs
                coeffs = np.array([1.0])
                d = 0
                while d < deg:
                    if deg - d >= 2 and rng.random() < 0.5:
                        re = rng.uniform(0.05, 3.0)
                        im = rng.uniform(0.0, 3.0)
                        coeffs = np.polymul(coeffs, [1.0, 2 * re, re * re + im * im])
                        d += 2
                    else:
                        coeffs = np.polymul(coeffs, [1.0, rng.uniform(0.05, 3.0)])
                        d += 1
                p = Polynomial(coeffs[::-1])
            else:
                c = rng.normal(size=deg + 1)
                while abs(c[-1]) < 1e-3:
                    c[-1] = rng.normal()
                p = Polynomial(c)
            margin = roots_max_real(p)
            if abs(margin) < 1e-8:
                continue
            checked += 1
            assert is_hurwitz(p) == (margin < 0.0), f"disagreement on {p.coeffs}"
        assert checked > 900


class TestLipatov:
    def test_reference_target_satisfies_margin(self):
        p = target_poly([2.5, 2.0, 2.0, 2.0, 2.0], tau=2.5, a0=1.0)
        assert lipatov_sufficient(p)
        assert is_hurwitz(p)

    def test_all_ones_cubic_fails(self):
        assert not lipatov_sufficient(Polynomial([1, 1, 1, 1]))

    def test_mixed_signs_fail(self):
        assert not lipatov_sufficient(Polynomial([1.0, -1.0, 1.0]))

    def test_implies_hurwitz(self):
        rng = np.random.default_rng(29)
        hits = 0
        for _ in range(500):
            deg = int(rng.integers(2, 8))
            p = Polynomial(rng.uniform(0.01, 5.0, size=deg + 1))
            if lipatov_sufficient(p):
                hits += 1
                assert roots_max_real(p) < 0.0
        # targeted stable candidates so the implication is actually exercised
        for _ in range(200):
            m = int(rng.integers(1, 7))
            gamma = rng.uniform(1.6, 4.0, size=m).tolist()
            p = target_poly(gamma, tau=rng.uniform(0.3, 3.0), a0=rng.uniform(0.1, 5.0))
            if lipatov_sufficient(p):
                hits += 1
                assert roots_max_real(p) < 0.0
        assert hits > 100
