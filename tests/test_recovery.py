"""End-to-end structure recovery: parameters, pipeline, schedules, greedy cover."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lostructure.config import Constants, RunConfig, calibrated_config
from lostructure.distributions import WeightVector, point_mass, rademacher, weights_1d
from lostructure.errors import (
    FLAG_NO_INFORMATION,
    InvalidSchedule,
    InvalidWindow,
    TrivialCase,
)
from lostructure.gap import cgap_image, image, near, zero_cgap, zero_gap
from lostructure.harness import (
    binomial_center_mass,
    central_atom_mass,
    gen_planted,
    min_admissible_n_prime,
    window_params_for_outliers,
)
from lostructure.recovery import (
    RecoveryParams,
    _greedy_candidates,
    log_rank_construct,
    make_params,
    recover,
    recover_multid,
    schedule_scaled_tau,
    schedule_zero_tau,
    select_m,
)
from strategies import repeated_weight_vectors

HALF = Fraction(1, 2)


def unit_params(n: int, n_prime: int) -> RecoveryParams:
    """All-ones weights, zero window, rank-one search."""
    return RecoveryParams(central_atom_mass(n), 0, 1, HALF, 1, n_prime, n, HALF)


class TestParamsValidation:
    def test_window_signs(self):
        with pytest.raises(ValueError):
            RecoveryParams(HALF, -1, 1, 0, 0, 1, 2, HALF)
        with pytest.raises(ValueError):
            RecoveryParams(HALF, 0, 0, 0, 0, 1, 2, HALF)
        with pytest.raises(ValueError):
            RecoveryParams(HALF, 0, 1, -1, 0, 1, 2, HALF)

    def test_refinement_not_coarser_than_window(self):
        with pytest.raises(ValueError):
            RecoveryParams(HALF, 1, 1, 2, 0, 1, 2, HALF)
        RecoveryParams(HALF, 4, 1, 2, 0, 1, 2, HALF)  # tau may dominate kappa

    def test_positive_window_needs_refinement(self):
        with pytest.raises(ValueError):
            RecoveryParams(HALF, 1, 1, 0, 0, 1, 2, HALF)

    def test_rank_and_sample_ranges(self):
        with pytest.raises(ValueError):
            RecoveryParams(HALF, 0, 1, 0, -1, 1, 2, HALF)
        with pytest.raises(ValueError):
            RecoveryParams(HALF, 0, 1, 0, 0, 0, 2, HALF)
        with pytest.raises(ValueError):
            RecoveryParams(HALF, 0, 1, 0, 0, 3, 2, HALF)

    def test_probability_range(self):
        with pytest.raises(ValueError):
            RecoveryParams(Fraction(3, 2), 0, 1, 0, 0, 1, 2, HALF)
        with pytest.raises(ValueError):
            RecoveryParams(Fraction(0), 0, 1, 0, 0, 1, 2, HALF)

    def test_with_observations(self):
        base = RecoveryParams(None, 0, 1, 0, 0, 1, 2)
        filled = base.with_observations(HALF, HALF)
        assert filled.q == HALF and filled.p_val == HALF

    def test_equal_params_hash_equal(self):
        a = RecoveryParams(None, 0, 1, 0, 0, 1, 1)
        b = RecoveryParams(None, Fraction(0), Fraction(1), Fraction(0), 0, 1, 1)
        assert a == b and hash(a) == hash(b)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.constants.c_window = 2.0


class TestMakeParams:
    def test_zero_window(self):
        p = make_params(weights_1d([1, 1]), rademacher(), 0, 1, 0, 0, 1)
        assert p.q == HALF
        assert p.p_val == HALF

    def test_positive_window_takes_best_pair(self):
        # a width-2 window catches two adjacent atoms of the two-step law
        p = make_params(weights_1d([1, 1]), rademacher(), 2, 2, 1, 0, 1)
        assert p.q == Fraction(3, 4)
        assert p.p_val == HALF


class TestSelectM:
    def test_positive_window_budget(self):
        assert select_m(RecoveryParams(HALF, 1, 1, 1, 0, 64, 128, HALF)) == 1

    def test_zero_window_boundary(self):
        mk = lambda k: RecoveryParams(Fraction(1), 0, 1, 0, 0, k, 20, Fraction(1))
        assert select_m(mk(4)) == 2
        for k in (5, 9, 16):
            assert select_m(mk(k)) == 1
        with pytest.raises(InvalidWindow):
            select_m(mk(3))

    def test_requires_observations(self):
        with pytest.raises(ValueError):
            select_m(RecoveryParams(HALF, 0, 1, 0, 0, 4, 8))

    def test_degenerate_symmetrization(self):
        with pytest.raises(TrivialCase):
            select_m(RecoveryParams(HALF, 0, 1, 0, 0, 4, 8, Fraction(0)))

    def test_scale_invariance(self):
        base = RecoveryParams(HALF, 3, 6, 3, 1, 68, 100, Fraction(2, 3))
        lam = Fraction(7, 3)
        scaled = RecoveryParams(HALF, 3 * lam, 6 * lam, 3 * lam, 1, 68, 100, Fraction(2, 3))
        assert select_m(base) == select_m(scaled) == 2

    def test_rank_two_positive_window_boundary(self):
        # the window at r = 2, tau > 0: (n'p)^3 >= 4 c^6 3^10 / q^2 (kappa/delta)^2,
        # and m - 1 = floor(num / sqrt(n'p)) with num = 2 c^3 / q * kappa/delta
        c, q, p, kappa, delta = Fraction(3, 2), HALF, HALF, Fraction(3), Fraction(1)
        base = RecoveryParams(q, 2, kappa, delta, 2, 1, 5000, p, Constants(c_window=1.5))
        n_prime = min_admissible_n_prime(base)
        floor = 4 * c**6 * 3**10 / q**2 * (kappa / delta) ** 2
        assert (n_prime * p) ** 3 >= floor > ((n_prime - 1) * p) ** 3
        m = select_m(dataclasses.replace(base, n_prime=n_prime))
        num = 2 * c**3 / q * kappa / delta
        assert (m - 1) ** 2 * n_prime * p <= num**2 < m**2 * n_prime * p
        with pytest.raises(InvalidWindow):
            select_m(dataclasses.replace(base, n_prime=n_prime - 1))


class TestRecoverZeroBranch:
    def test_all_entries_below_refinement(self):
        # every weight is delta-small once delta^2 n' exceeds |a|^2
        q = binomial_center_mass(1200, 10)
        base = RecoveryParams(q, 10, 6, 3, 0, 1, 1200, HALF)
        n_prime = min_admissible_n_prime(base)
        assert n_prime == 516
        params = dataclasses.replace(base, n_prime=n_prime)
        rep = recover(weights_1d([1] * 1200), rademacher(), params)
        assert rep.m == 1
        assert rep.K_star == zero_cgap() and rep.K_star_star == zero_cgap()
        assert rep.flags == ()
        assert all(v == 1200 for v in rep.coverage.values())
        assert all(rep.sizes[k] == 1 for k in ("K_star", "bar_P", "tilde_P"))
        assert rep.dilations == {"sandwich": 1, "embed": 1, "tilde_sandwich": 1}
        assert all(rep.certifications.values())
        assert rep.generator_norm_bound_sq == 0  # r = 0
        json.dumps(rep.to_json_dict())


class TestRecoverStructured:
    def run_unit(self, lam=Fraction(1)):
        a = weights_1d([lam] * 3600)
        params = RecoveryParams(
            central_atom_mass(3600), 0, lam, lam / 2, 1, 1702, 3600, HALF
        )
        return recover(a, rademacher(), params)

    def test_all_ones_full_trace(self):
        base = RecoveryParams(central_atom_mass(3600), 0, 1, HALF, 1, 1, 3600, HALF)
        assert min_admissible_n_prime(base) == 1702
        rep = self.run_unit()
        assert rep.m == 6
        assert rep.witness.witness.h == (Fraction(1, 4),)
        assert rep.flags == ()
        assert all(v == 3600 for v in rep.coverage.values())
        assert rep.sizes["K_star"] == 5 and rep.sizes["tilde_P"] == 5
        assert all(rep.certifications.values())
        assert rep.generator_norm_bound_sq == Fraction(7200, 851)

    @pytest.mark.parametrize("lam", [Fraction(2), Fraction(1, 3)])
    def test_scaling_equivariance(self, lam):
        base = self.run_unit()
        scaled = self.run_unit(lam)
        assert scaled.m == base.m
        assert scaled.flags == base.flags
        assert scaled.coverage == base.coverage
        assert scaled.sizes == base.sizes
        assert cgap_image(scaled.K_star) == {lam * y for y in cgap_image(base.K_star)}
        assert image(scaled.tilde_P) == {lam * y for y in image(base.tilde_P)}


class TestRecoverOutliers:
    def test_huge_entries_stay_outside(self):
        cfg = RunConfig()
        inst = gen_planted("outliers", {"n_pad": 6200, "n_sig": 45, "n_out": 2}, seed=0)
        assert inst.weight.n == 6247
        params = window_params_for_outliers(inst, cfg)
        assert params.n_prime == 3095
        assert inst.weight.n - 2 * params.n_prime > 0
        rep = recover(inst.weight, inst.law, params, cfg)
        assert rep.m == 7
        assert rep.witness.witness.h == (Fraction(1, 6),)
        assert rep.flags == ()
        assert all(rep.certifications.values())
        assert all(v == 6245 for v in rep.coverage.values())  # n minus the outliers
        img = image(rep.tilde_P)
        for k in inst.planted["outliers"]:
            e = inst.weight.entries[k][0]
            assert min(abs(e - y) for y in img) > params.delta

    @pytest.mark.parametrize("r", [1, 2])
    def test_zero_generator_witness_is_not_cut(self, r):
        # delta = kappa leaves beta's witness at h = 0: the norm slab is
        # vacuous there and cannot be a polytope constraint
        cfg = calibrated_config()
        inst = gen_planted("outliers", {"n_pad": 5948, "n_sig": 50, "n_out": 2}, seed=0)
        base = window_params_for_outliers(inst, cfg)
        params = dataclasses.replace(base, r=r, delta=base.kappa)
        params = dataclasses.replace(params, n_prime=min_admissible_n_prime(params))
        rep = recover(inst.weight, inst.law, params, cfg)
        assert not any(rep.witness.witness.h)
        assert rep.flags == ()
        assert all(rep.certifications.values())
        assert rep.coverage["K_star"] == 5998  # n minus the outliers


class TestRecoverLargeCommensurable:
    def test_two_magnitude_instance(self):
        # 17996 entries of 3 plus 4 entries of 6; the window mass is the
        # chance the big block lands on minus twice the small block
        n_a, n_b = 17996, 4
        q = Fraction(0)
        for b in range(-n_b, n_b + 1, 2):
            w_b = Fraction(math.comb(n_b, (n_b + b) // 2), 2**n_b)
            q += w_b * Fraction(math.comb(n_a, (n_a - 2 * b) // 2), 2**n_a)
        base = RecoveryParams(q, Fraction(3, 2), 6, Fraction(3, 2), 1, 1, 18000, HALF)
        n_prime = min_admissible_n_prime(base)
        assert n_prime == 15225
        params = dataclasses.replace(base, n_prime=n_prime)
        rep = recover(weights_1d([3] * n_a + [6] * n_b), rademacher(), params)
        assert rep.m == 16
        assert rep.witness.witness.h == (Fraction(9, 14),)
        assert rep.flags == (FLAG_NO_INFORMATION,)  # n' exceeds n/2 here
        assert all(v == 18000 for v in rep.coverage.values())
        assert rep.sizes["K_star"] == 15
        assert all(rep.certifications.values())


class TestRecoverFillsObservations:
    def test_exact_window_mass_computed(self):
        # width-40 window catches the 21 central atoms of the 128-step law
        params = RecoveryParams(None, 40, 30, 15, 0, 38, 128)
        rep = recover(weights_1d([1] * 128), rademacher(), params)
        assert rep.params.q == binomial_center_mass(128, 20)
        assert rep.params.p_val == HALF
        assert rep.flags == ()
        assert all(v == 128 for v in rep.coverage.values())

    def test_keeps_the_callers_constants(self):
        """Filling q keeps the params' constants: c_window 1/4 admits n' = 17
        at n = 20, where the config's default c_window would not."""
        a, F = weights_1d([1] * 20), rademacher()
        given = dataclasses.replace(
            make_params(a, F, 0, 1, 0, 0, 17), constants=Constants(c_window=0.25)
        )
        rep = recover(a, F, given, RunConfig())
        assert rep.m == 1
        for missing in ({"q": None}, {"p_val": None}, {"q": None, "p_val": None}):
            filled = recover(a, F, dataclasses.replace(given, **missing), RunConfig())
            assert filled.to_json_dict() == rep.to_json_dict()

    def test_dimension_guard(self):
        a2 = WeightVector(2, ((Fraction(1), Fraction(1)),))
        with pytest.raises(ValueError):
            recover(a2, rademacher(), RecoveryParams(HALF, 0, 1, 0, 0, 1, 1, HALF))


class TestRecoverMultid:
    def p01(self):
        q = central_atom_mass(3600)
        p0 = RecoveryParams(q, 0, 1, HALF, 1, 1702, 3600, HALF)
        p1 = RecoveryParams(q, 0, 2, 1, 1, 1702, 3600, HALF)
        return p0, p1

    def test_product_structures(self):
        p0, p1 = self.p01()
        a = WeightVector(2, ((Fraction(1), Fraction(2)),) * 3600)
        rep = recover_multid(a, rademacher(), [p0, p1])
        assert rep.joint_coverage == {"K_star": 3600, "K_star_star": 3600}
        assert rep.block_boundaries == (1, 2)
        assert rep.sizes["K_star"] == 25  # product of the per-coordinate images
        assert rep.sizes["rank_bar_P"] == 2
        assert rep.flags == ()
        for g in rep.bar_P.generators:
            assert sum(1 for x in g if x != 0) == 1  # block generators
        json.dumps(rep.to_json_dict())

    def test_zero_coordinate_reported_as_none(self):
        p0, _ = self.p01()
        a = WeightVector(2, ((Fraction(1), Fraction(0)),) * 3600)
        rep = recover_multid(a, rademacher(), [p0, None])
        assert rep.reports[1] is None
        assert rep.joint_coverage["K_star"] == 3600
        assert rep.sizes["K_star"] == 5

    def test_params_shape_errors(self):
        p0, _ = self.p01()
        a = WeightVector(2, ((Fraction(1), Fraction(1)),) * 3600)
        with pytest.raises(ValueError):
            recover_multid(a, rademacher(), [p0])
        with pytest.raises(ValueError):
            recover_multid(a, rademacher(), [p0, None])


class TestZeroTauSchedule:
    def test_rank_selection(self):
        assert schedule_zero_tau(1, 1, 1, 1, 4, [HALF], 10**6, HALF)[0].r == 2
        assert schedule_zero_tau(1, 3, 1, 1, 4, [HALF], 10**6, HALF)[0].r == 0

    def test_fallback_tail_progression(self):
        a = weights_1d([8, 7, 6, 5, 1, 2])
        sched = schedule_zero_tau(1, 1, 1, 1, 4, [HALF], 6, HALF, a=a)[0]
        assert sched.r == 2 and sched.n_prime == 4
        assert sched.params is None and sched.m is None
        assert sched.fallback.generators == ((Fraction(2),), (Fraction(1),))
        assert set(sched.fallback.dims) == {Fraction(1)}
        assert sched.fallback_covers == 2
        assert sched.flags == (FLAG_NO_INFORMATION,)

    def test_window_holds(self):
        sched = schedule_zero_tau(1, 6, 1, 1, 2, [HALF], 128, HALF)[0]
        assert (sched.r, sched.n_prime, sched.m) == (0, 64, 1)
        assert sched.fallback is None and sched.flags == ()

    def test_concentration_floor(self):
        with pytest.raises(ValueError):
            schedule_zero_tau(1, 6, 1, 1, 2, [Fraction(1, 5)], 128, HALF)

    def test_parameter_floors(self):
        with pytest.raises(ValueError):
            schedule_zero_tau(1, 0, 1, 1, 2, [HALF], 8, HALF)
        with pytest.raises(ValueError):
            schedule_zero_tau(1, 1, 1, 1, 1, [HALF], 8, HALF)
        with pytest.raises(ValueError):
            schedule_zero_tau(1, 1, 0, 1, 2, [HALF], 8, HALF)
        with pytest.raises(TrivialCase):
            schedule_zero_tau(1, 1, 1, 1, 2, [HALF], 8, 0)

    def test_weights_longer_than_n(self):
        with pytest.raises(ValueError, match="n entries"):
            schedule_zero_tau(1.0, 0.5, 0.1, 0.1, 10.0, [0.5], 10, 0.5, weights_1d([1, 2, 3]))

    def test_weights_shorter_than_n(self):
        with pytest.raises(ValueError, match="n entries"):
            schedule_zero_tau(1.0, 0.5, 0.1, 0.1, 10.0, [0.5], 2, 0.5, weights_1d([1, 2, 3]))

    def test_one_q_per_coordinate(self):
        a = WeightVector(2, ((1, 2), (3, 4), (5, 6)))
        with pytest.raises(ValueError, match="one q per coordinate"):
            schedule_zero_tau(1.0, 0.5, 0.1, 0.1, 10.0, [0.5] * 3, 3, 0.5, a)


class TestScaledTauSchedule:
    EPS = {"eps1": 1, "eps2": 1, "eps3": 0.4, "eps4": 1}

    def test_window_holds(self):
        sched = schedule_scaled_tau(0, 0, 0, 6, self.EPS, 2, 1, HALF, [Fraction(1)], 128)[0]
        assert (sched.r, sched.n_prime, sched.m) == (1, 64, 1)
        assert sched.params.tau == sched.params.kappa == sched.params.delta == 1
        assert sched.flags == ()

    def test_fallback_without_weights(self):
        eps1 = {k: 1 for k in self.EPS}
        sched = schedule_scaled_tau(1, 1, 1, 3, eps1, 16, 1, HALF, [Fraction(1)], 10)[0]
        assert sched.r == 2 and sched.n_prime == 10
        assert sched.fallback is None and sched.fallback_covers is None
        assert sched.flags == (FLAG_NO_INFORMATION,)

    def test_exponent_gap_required(self):
        with pytest.raises(InvalidSchedule):
            schedule_scaled_tau(1, 1, 3, 3, self.EPS, 16, 1, HALF, [Fraction(1)], 10)

    def test_floors(self):
        with pytest.raises(ValueError):
            schedule_scaled_tau(0, 0, 0, 6, self.EPS, 2, Fraction(1, 3), HALF, [Fraction(1)], 128)
        with pytest.raises(ValueError):
            schedule_scaled_tau(0, 0, 0, 6, self.EPS, 2, 1, Fraction(1, 5), [Fraction(1)], 128)
        with pytest.raises(ValueError):
            schedule_scaled_tau(0, 0, 0, 6, self.EPS, 2, 1, HALF, [Fraction(1, 3)], 128)
        with pytest.raises(TrivialCase):
            schedule_scaled_tau(0, 0, 0, 6, self.EPS, 2, 1, 0, [Fraction(1)], 128)
        with pytest.raises(ValueError):
            schedule_scaled_tau(0, 0, 0, 6, self.EPS, 2, 0, HALF, [Fraction(1)], 128)


class TestLogRank:
    def test_greedy_two_generators(self):
        P, rep = log_rank_construct(weights_1d([1, 10, 11, 9]), rademacher(), 0, 1, 0)
        assert P.generators == ((Fraction(1),), (Fraction(10),))
        assert rep.r == 2 and rep.n_prime == 0 and rep.coverage == 4
        assert rep.q == Fraction(1, 8)
        assert rep.p_val == HALF
        assert rep.rank_within_bound and rep.residual_within_bound
        json.dumps(rep.to_json_dict())

    def test_already_covered(self):
        P, rep = log_rank_construct(weights_1d([1, 2]), rademacher(), 0, 2, 2)
        assert P == zero_gap(1)
        assert rep.r == 0 and rep.coverage == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            log_rank_construct(weights_1d([1]), rademacher(), 0, 1, 2)
        a2 = WeightVector(2, ((Fraction(1), Fraction(1)),))
        with pytest.raises(ValueError):
            log_rank_construct(a2, rademacher(), 0, 1, 0)


    @pytest.mark.parametrize("enum_cap, r, n_prime", [(242, 4, 1), (243, 5, 0), (244, 5, 0)])
    def test_rank_cap_is_the_largest_power_of_three_within_enum_cap(self, enum_cap, r, n_prime):
        a = weights_1d([1, 10, 100, 1000, 10000])
        _, rep = log_rank_construct(a, rademacher(), 0, 1, 0, RunConfig(enum_cap=enum_cap))
        assert (rep.r, rep.n_prime) == (r, n_prime)


def log_rank_loop_per_entry(a, d, cfg, rank_budget=12):
    """The greedy loop of log_rank_construct as it walked one weight per
    entry (the oracle): returns the generators and n'."""
    weights = [e[0] for e in a.entries]
    img = {Fraction(0)}
    gens = []

    def uncovered():
        pts = tuple(sorted(img))
        return [w for w in weights if not near(pts, w, d)]

    rank_budget = min(rank_budget, int(math.log(cfg.enum_cap, 3)))
    residual = uncovered()
    while residual and len(gens) < rank_budget:
        best = None
        for g in _greedy_candidates(residual, img, d):
            grown = img | {y + g for y in img} | {y - g for y in img}
            pts = tuple(sorted(grown))
            score = sum(1 for w in residual if near(pts, w, d))
            key = (-score, g)
            if best is None or key < best[0]:
                best = (key, g, grown)
        if best is None or -best[0][0] == 0:
            break
        _, g, grown = best
        gens.append(g)
        img = grown
        residual = uncovered()
    return gens, len(residual)


class TestLogRankFromCounts:
    @given(
        repeated_weight_vectors(dims=(1,), max_values=4, max_mult=200),
        st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
        st.integers(1, 12),
    )
    @example(weights_1d([1] * 200 + [10] * 150 + [11] * 3 + [9, 0, -1]), Fraction(0), 12)
    @example(weights_1d([1] * 5 + [7, -7]), Fraction(0), 1)
    def test_matches_per_entry_loop(self, a, delta, rank_budget):
        """The loop sees only a and delta, so a point-mass summand keeps the
        exact law at one atom however many entries repeat.  A small rank
        budget leaves a residual, so n' and the scores' ties count."""
        cfg = RunConfig()
        P, rep = log_rank_construct(a, point_mass(1), 1, 1, delta, cfg, rank_budget)
        gens, n_prime = log_rank_loop_per_entry(a, delta, cfg, rank_budget)
        assert P.generators == tuple((g,) for g in gens)
        assert (rep.r, rep.n_prime, rep.coverage) == (len(gens), n_prime, a.n - n_prime)
