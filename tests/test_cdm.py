import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmlfc.cdm import (
    CdmController,
    CdmGains,
    closed_loop_poly,
    controller_to_statespace,
    synthesize,
    synthesize_lanes,
)
from cdmlfc.errors import ImproperController, SingularSystem
from cdmlfc.plant import AreaParams, TieLine, DesignPlant, derive_design_plant
from cdmlfc.poly import Polynomial, is_hurwitz, target_factors
from cdmlfc.scenarios import OUTCOMES, TuningObjective
from cdmlfc.sim import DiscreteController, tustin_discretize

AREA1 = AreaParams(D=0.015, M=0.1667, R=3.0, Tg=0.08, Tt=0.4)
AREA2 = AreaParams(D=0.016, M=0.2017, R=2.73, Tg=0.06, Tt=0.44)
TIE = TieLine(T12=0.2)
OPT_GAMMA = (25.33, 0.01, 17.62, 9.88, 29.98)
OPT_TAU = 0.8832


def opt_gains(k_b0: float) -> CdmGains:
    return CdmGains(OPT_GAMMA, OPT_TAU, k_b0)


class TestSynthesize:
    def test_area1_prefilter_and_feedback_head(self):
        plant = derive_design_plant(AREA1, TIE)
        ctrl = synthesize(plant, opt_gains(20.5126))
        assert ctrl.F == 20.5126
        assert ctrl.Bc.coeff(0) == 20.5126

    def test_area2_prefilter(self):
        plant = derive_design_plant(AREA2, TIE)
        ctrl = synthesize(plant, opt_gains(39.9347))
        assert ctrl.F == 39.9347

    def test_area1_forced_a0(self):
        plant = derive_design_plant(AREA1, TIE)
        ctrl = synthesize(plant, opt_gains(20.5126))
        assert ctrl.target.coeff(0) == pytest.approx(25.78, abs=5e-3)
        assert ctrl.realized.coeff(0) == ctrl.gains.k_b0 * plant.N.coeff(0)

    def test_area1_matches_benchmark_controller(self):
        # the benchmark area-1 polynomials, recovered to a fraction of a percent
        plant = derive_design_plant(AREA1, TIE)
        ctrl = synthesize(plant, opt_gains(20.5126))
        assert ctrl.Ac.coeff(1) == pytest.approx(2.0318, rel=3e-3)
        assert ctrl.Ac.coeff(2) == pytest.approx(0.0014, rel=3e-2)
        assert ctrl.Bc.coeff(1) == pytest.approx(12.4314, rel=1e-3)
        assert ctrl.Bc.coeff(2) == pytest.approx(6.9261, rel=1e-3)
        assert ctrl.stable

    def test_area2_matches_benchmark_controller(self):
        plant = derive_design_plant(AREA2, TIE)
        ctrl = synthesize(plant, opt_gains(39.9347))
        assert ctrl.Ac.coeff(1) == pytest.approx(3.9521, rel=3e-3)
        assert ctrl.Bc.coeff(1) == pytest.approx(23.1225, rel=1e-3)
        assert ctrl.Bc.coeff(2) == pytest.approx(11.917, rel=1e-3)
        assert ctrl.stable

    def test_toy_plant_exact_solve(self):
        # N = 1, Dp = s^2, reduced structure (Ac degree 1, Bc degree 2)
        plant = DesignPlant(N=Polynomial([1.0]), Dp=Polynomial([0.0, 0.0, 1.0]))
        ctrl = synthesize(plant, CdmGains([2.0, 2.0], 1.0, 1.0), ac_degree=1, bc_degree=2)
        assert ctrl.residual == pytest.approx(0.0, abs=1e-14)
        assert ctrl.Bc.coeffs == pytest.approx((1.0, 1.0, 0.5))
        assert ctrl.Ac.coeffs == pytest.approx((0.0, 0.125))

    def test_doubling_kb0_doubles_a0_and_f(self):
        plant = derive_design_plant(AREA1, TIE)
        c1 = synthesize(plant, opt_gains(10.0))
        c2 = synthesize(plant, opt_gains(20.0))
        assert c2.F == 2.0 * c1.F
        assert c2.target.coeff(0) == pytest.approx(2.0 * c1.target.coeff(0), rel=1e-12)

    def test_residual_invariant_to_plant_scaling(self):
        plant = derive_design_plant(AREA1, TIE)
        scaled = DesignPlant(*(Polynomial(3.7 * c for c in poly.coeffs) for poly in (plant.N, plant.Dp)))
        c1 = synthesize(plant, opt_gains(20.5126))
        c2 = synthesize(scaled, opt_gains(20.5126))
        assert c2.residual == pytest.approx(c1.residual, rel=1e-9)

    def test_gamma_count_validation(self):
        plant = derive_design_plant(AREA1, TIE)
        with pytest.raises(ValueError):
            synthesize(plant, CdmGains([2.0, 2.0], 1.0, 1.0))

    def test_target_roundtrip_through_indices(self):
        from cdmlfc.poly import equivalent_tau, stability_indices

        plant = derive_design_plant(AREA1, TIE)
        ctrl = synthesize(plant, opt_gains(20.5126))
        assert stability_indices(ctrl.target) == pytest.approx(list(OPT_GAMMA), rel=1e-9)
        assert equivalent_tau(ctrl.target) == pytest.approx(OPT_TAU, rel=1e-9)

    def test_unstable_flag_matches_routh_on_random_suite(self):
        # residual < 0.05 does NOT imply stability (the relative L2 norm is
        # blind to the tiny high-order coefficients); the contract is that the
        # flag always reports the Routh verdict. Stats are printed for audit.
        plant = derive_design_plant(AREA1, TIE)
        rng = np.random.default_rng(41)
        small, small_unstable = 0, 0
        for _ in range(300):
            gains = CdmGains(
                rng.uniform(1.5, 4.0, size=5), rng.uniform(0.5, 3.0), rng.uniform(1.0, 100.0)
            )
            ctrl = synthesize(plant, gains)
            assert ctrl.stable == is_hurwitz(ctrl.realized)
            assert is_hurwitz(ctrl.target)
            if ctrl.residual < 0.05:
                small += 1
                if not ctrl.stable:
                    small_unstable += 1
        print(f"unstable-design stats: {small_unstable}/{small} small-residual designs non-Hurwitz")


class TestClosedLoop:
    def test_identity_ac(self):
        plant = derive_design_plant(AREA1, TIE)
        assert closed_loop_poly(plant, Polynomial([1.0]), Polynomial([0.0])).coeffs == plant.Dp.coeffs

    def test_identity_bc(self):
        plant = derive_design_plant(AREA1, TIE)
        assert closed_loop_poly(plant, Polynomial([0.0]), Polynomial([1.0])).coeffs == plant.N.coeffs

    def test_synthesized_degree_six(self):
        plant = derive_design_plant(AREA1, TIE)
        ctrl = synthesize(plant, opt_gains(20.5126))
        cl = closed_loop_poly(plant, ctrl.Ac, ctrl.Bc)
        assert cl.degree == 6
        assert cl.coeffs == pytest.approx(ctrl.realized.coeffs, rel=1e-12)


class TestStateSpace:
    def test_pure_integrator(self):
        ctrl = CdmController(
            Ac=Polynomial([0.0, 1.0]),
            Bc=Polynomial([5.0]),
            F=5.0,
            residual=0.0,
            target=Polynomial([1.0]),
            realized=Polynomial([1.0]),
            stable=True,
        )
        a, b, c, d = controller_to_statespace(ctrl)
        assert a.tolist() == [[0.0]]
        assert b.tolist() == [1.0]
        assert c.tolist() == [5.0]
        assert d == 0.0

    def test_poles_of_s_plus_s2(self):
        ctrl = CdmController(
            Ac=Polynomial([0.0, 1.0, 1.0]),
            Bc=Polynomial([2.0, 1.0]),
            F=2.0,
            residual=0.0,
            target=Polynomial([1.0]),
            realized=Polynomial([1.0]),
            stable=True,
        )
        a, _, _, _ = controller_to_statespace(ctrl)
        eig = sorted(np.linalg.eigvals(a).real)
        assert eig == pytest.approx([-1.0, 0.0], abs=1e-12)

    def test_improper_rejected(self):
        ctrl = CdmController(
            Ac=Polynomial([0.0, 1.0]),
            Bc=Polynomial([1.0, 1.0, 1.0]),
            F=1.0,
            residual=0.0,
            target=Polynomial([1.0]),
            realized=Polynomial([1.0]),
            stable=True,
        )
        with pytest.raises(ImproperController):
            controller_to_statespace(ctrl)

    def test_biproper_feedthrough_split(self):
        plant = derive_design_plant(AREA1, TIE)
        ctrl = synthesize(plant, opt_gains(20.5126))
        a, b, c, d = controller_to_statespace(ctrl)
        assert a.shape == (2, 2) and b.shape == c.shape == (2,)
        assert d == pytest.approx(ctrl.Bc.coeff(2) / ctrl.Ac.coeff(2))


# The design screen's lane kinds, each an 8-vector [gamma_1..5, tau, k_b0_1, k_b0_2] from u in [0, 1]^8.
# stable: near the reference vector (design-stable); box: uniform in the tuning box (mostly
# design-unstable, most of them with a realized polynomial trimmed below degree 6); trimmed: every
# gamma in [20, 100] (realized trimmed, most design-stable); singular: tau near 1e51, where a0 * tau^6
# overflows and synthesize raises SingularSystem.
OBJECTIVE = TuningObjective()


def lane(kind: str, u: np.ndarray) -> np.ndarray:
    low, high = np.array(OBJECTIVE.bounds).T
    if kind == "stable":
        return OBJECTIVE.reference_vector() * np.exp(0.2 * (u - 0.5))
    x = low + u * (high - low)
    if kind == "trimmed":
        x[:5] = 20.0 + 80.0 * u[:5]
    elif kind == "singular":
        x[5], x[6:] = 10.0 ** (51.2 + 0.1 * u[5]), 50.0 + 50.0 * u[6:]
    return x


KINDS = ("stable", "box", "trimmed", "singular")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSynthesisLanes:
    """synthesize_lanes and the tuning objective's design screen on a lanes axis."""

    def test_the_kinds_reach_their_outcomes(self):
        objective = OBJECTIVE
        rng = np.random.default_rng(3)
        xs = np.array([lane(kind, u) for kind in KINDS for u in rng.random((20, 8))])
        outcomes, _, live, _ = objective._design_screen(xs)
        by_kind = dict(zip(KINDS, outcomes.reshape(len(KINDS), 20)))
        assert (by_kind["stable"] == -1).all()
        assert (by_kind["singular"] == OUTCOMES.index("synthesis_error")).all()
        assert (by_kind["box"] == OUTCOMES.index("design_unstable")).any()
        realized = synthesize_lanes(objective._plants[0], target_factors(xs[:, :5], xs[:, 5]), xs[:, 6]).realized
        trimmed = (realized[:, -1] == 0.0).reshape(len(KINDS), 20)
        assert trimmed[2].all() and (by_kind["trimmed"] == -1).any()
        assert (live & trimmed.ravel()).any()

    @settings(max_examples=40, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(st.sampled_from(KINDS), st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8)),
            min_size=1,
            max_size=12,
        ),
        order=st.randoms(use_true_random=False),
    )
    def test_a_lane_keeps_its_bits_alone_and_in_any_batch(self, draws, order):
        objective = OBJECTIVE
        xs = np.array([lane(kind, np.array(u)) for kind, u in draws])
        permutation = list(range(len(xs)))
        order.shuffle(permutation)
        whole = objective._design_screen(xs)
        shuffled = objective._design_screen(xs[permutation])
        factors = target_factors(xs[:, :5], xs[:, 5])
        designs = [synthesize_lanes(plant, factors, xs[:, 6 + i]) for i, plant in enumerate(objective._plants)]
        live_index = np.cumsum(whole[2]) - 1
        for i, x in enumerate(xs):
            alone = objective._design_screen(x[None])
            moved = permutation.index(i)
            for got, at in ((alone, 0), (shuffled, moved)):
                assert got[0][at] == whole[0][i] and got[2][at] == whole[2][i]
                assert same_bits(got[1][at], whole[1][i])
                if whole[2][i]:
                    assert same_bits(got[3][:, np.cumsum(got[2])[at] - 1], whole[3][:, live_index[i]])
            # the one-lane calls agree with the lanes
            for area, (plant, design) in enumerate(zip(objective._plants, designs)):
                gains = objective.decode(x)[area]
                if design.singular[i]:
                    with pytest.raises(SingularSystem):
                        synthesize(plant, gains)
                    continue
                ctrl = synthesize(plant, gains)
                for name, row in (("Ac", design.ac), ("Bc", design.bc), ("realized", design.realized)):
                    coeffs = getattr(ctrl, name).coeffs
                    assert same_bits(coeffs, row[i, : len(coeffs)]) and not row[i, len(coeffs) :].any()
                assert same_bits(ctrl.target.coeffs, design.target[i])
                assert same_bits(ctrl.residual, design.residual[i])
                assert ctrl.stable == design.stable[i] == is_hurwitz(ctrl.realized)
                if whole[2][i]:
                    ad, bd, cd, dd = tustin_discretize(*controller_to_statespace(ctrl), objective.dt)
                    rows = whole[3][area, live_index[i]]
                    assert same_bits(rows, np.block([[cd, dd], [ad, bd[:, None]]]))
                    assert same_bits(rows, DiscreteController(ctrl, objective.dt).rows)
