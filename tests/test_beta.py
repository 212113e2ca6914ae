"""Residual-mass search and the concentration bound evaluators."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lostructure.beta import (
    EXACT,
    UPPER_BOUND,
    BOUND_LEDGER_HEADER,
    BetaResult,
    _covered_mass,
    _grid_scan,
    _interval_dim,
    _pair_miss,
    _rank1_candidates,
    _rank1_grid,
    _rank1_scan,
    append_bound_ledger,
    beta,
    check_cp_bound,
    cp_bound_rhs,
    mass_outside,
    weighted_sum_bound_rhs,
)
from lostructure.concentration import MODE_EXACT, MODE_MC
from lostructure.config import RunConfig
from lostructure.distributions import (
    AtomicMeasure,
    CompoundPoissonSpec,
    levy_measure_star,
    weights_1d,
)
from lostructure.errors import FLAG_DEGENERATE_BETA, UnsupportedRank
from lostructure.gap import Cgap, box_body, cgap_image, interval_body, zero_cgap


def star(entries):
    return levy_measure_star(weights_1d(entries))


class TestMassOutside:
    def test_strict_distance(self):
        W = star([1, 2, 5])
        assert mass_outside(W, {Fraction(0)}, 1) == 4
        assert mass_outside(W, {Fraction(0)}, 4) == 2
        assert mass_outside(W, {Fraction(0)}, 5) == 0

    def test_empty_set_misses_everything(self):
        assert mass_outside(star([1, 2, 5]), set(), 100) == 6

    def test_requires_line(self):
        from lostructure.distributions import WeightVector

        W2 = levy_measure_star(WeightVector(2, ((1, 0),)))
        with pytest.raises(ValueError):
            mass_outside(W2, {Fraction(0)}, 0)


class TestBetaRankZero:
    def test_closed_form(self):
        W = star([1, 2, 5])
        for tau in (0, 1, Fraction(9, 2), 5):
            res = beta(W, tau, 0, 1)
            assert res.value == mass_outside(W, {Fraction(0)}, tau)
            assert res.exactness == EXACT
            assert res.witness == zero_cgap()

    def test_vanishes_past_support(self):
        assert beta(star([1, 2]), 2, 0, 1).value == 0


class TestBetaRankOne:
    def test_unit_weights_covered(self):
        res = beta(star([1] * 6), 0, 1, 3)
        assert res.value == 0
        assert res.exactness == EXACT

    def test_budget_one_reduces_to_origin(self):
        assert beta(star([1] * 6), 0, 1, 1).value == 12

    def test_two_scale_majority(self):
        W = star([1] * 70 + [99] * 30)
        res = beta(W, 0, 1, 3)
        assert res.value == 60  # both signs of the 30 large entries
        assert res.witness.h == (Fraction(1),)

    def test_two_scale_wide_budget(self):
        assert beta(star([1] * 70 + [99] * 30), 0, 1, 199).value == 0

    def test_positive_window(self):
        res = beta(star([10, 11, 29]), 1, 1, 3)
        assert res.value == 2
        assert res.witness.h == (Fraction(10),)
        assert res.witness.body == interval_body(1)
        assert res.candidates_searched == 8

    def test_even_budget_rounds_down(self):
        W = star([10, 11, 29])
        assert beta(W, 1, 1, 2).value == mass_outside(W, {Fraction(0)}, 1)


class TestBetaRankTwo:
    def test_two_generator_cover(self):
        W = star([1, 1, 10, 10, 10])
        res = beta(W, 0, 2, 9)
        assert res.value == 0
        assert res.exactness == UPPER_BOUND
        assert res.witness.lattice_size() <= 9


class TestBetaValidation:
    def test_rank_range(self):
        with pytest.raises(UnsupportedRank):
            beta(star([1]), 0, 3, 5)
        with pytest.raises(UnsupportedRank):
            beta(star([1]), 0, -1, 5)

    def test_m_floor(self):
        with pytest.raises(ValueError):
            beta(star([1]), 0, 1, 0)

    def test_tau_sign(self):
        with pytest.raises(ValueError):
            beta(star([1]), -1, 1, 3)


@st.composite
def integer_measures(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    vals = draw(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=n, max_size=n, unique=True)
    )
    masses = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n))
    return AtomicMeasure(1, tuple(((Fraction(v),), Fraction(m)) for v, m in zip(vals, masses)))


class TestBetaProperties:
    @given(integer_measures(), st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=7))
    def test_witness_reproduces_value(self, W, tau, m):
        res = beta(W, tau, 1, m)
        assert mass_outside(W, cgap_image(res.witness), tau) == res.value

    @given(integer_measures(), st.integers(min_value=0, max_value=2), st.integers(min_value=1, max_value=5))
    def test_monotone_in_budget_and_rank(self, W, tau, m):
        v1 = beta(W, tau, 1, m).value
        assert v1 <= beta(W, tau, 0, 1).value
        assert beta(W, tau, 1, m + 2).value <= v1

    @given(integer_measures(), st.fractions(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
    def test_random_probes_never_beat_optimum(self, W, tau, M):
        res = beta(W, tau, 1, 2 * M + 1)
        img = cgap_image(res.witness)
        assert mass_outside(W, img, tau) == res.value
        for num in range(1, 41):
            h = Fraction(num, 7)
            probe = {k * h for k in range(-M, M + 1)}
            assert mass_outside(W, probe, tau) >= res.value


def brute_force_rank1_scan(atoms, tau, M):
    """Oracle: the direct form of _rank1_scan, _covered_mass at every
    candidate."""
    best = None
    cands = _rank1_candidates(atoms, tau, M)
    for h in cands:
        miss, missed = _covered_mass(atoms, h, M, tau)
        if best is None or miss < best[0]:
            best = (miss, h, missed)
    return best[0], best[1], best[2], len(cands)


@st.composite
def scan_atoms(draw):
    """Distinct rational atoms, some in +-w pairs, with small masses so
    that equal misses are common."""
    base = draw(
        st.lists(st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3])), max_size=6, unique=True)
    )
    mirrored = draw(st.lists(st.booleans(), min_size=len(base), max_size=len(base)))
    values = set(base) | {-w for w, flip in zip(base, mirrored) if flip}
    masses = draw(
        st.lists(
            st.builds(Fraction, st.integers(1, 3), st.sampled_from([1, 2, 7])),
            min_size=len(values),
            max_size=len(values),
        )
    )
    return list(zip(sorted(values), masses))


class TestRank1ScanOracle:
    @given(
        scan_atoms(),
        st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 2)]),
        st.integers(0, 4),
    )
    @example([(Fraction(-2), Fraction(1)), (Fraction(2), Fraction(1))], Fraction(0), 0)
    @example([(Fraction(-1), Fraction(1)), (Fraction(1, 2), Fraction(1)), (Fraction(3), Fraction(2))], Fraction(1), 2)
    @example([(Fraction(2), Fraction(1)), (Fraction(3), Fraction(1))], Fraction(0), 1)
    @example([], Fraction(1, 2), 3)
    @example([(Fraction(0), Fraction(3)), (Fraction(2), Fraction(1))], Fraction(0), 1)
    @example([(Fraction(1, 2), Fraction(1)), (Fraction(3), Fraction(1))], Fraction(1, 2), 1)
    def test_sweep_matches_brute_force(self, atoms, tau, M):
        assert _rank1_scan(atoms, tau, M) == brute_force_rank1_scan(atoms, tau, M)


class TestBoundRhs:
    def test_compound_frozen_values(self):
        assert cp_bound_rhs(1.0, 1.0, 0, 1) == 2.0
        assert cp_bound_rhs(4.0, 1.0, 0, 1) == 1.0
        assert cp_bound_rhs(1.0, 1.0, 1, 2) == pytest.approx(0.5 + 2**2.5)

    def test_vacuous_when_residual_zero(self):
        assert cp_bound_rhs(1.0, 0.0, 0, 1) == math.inf

    def test_constant_scales_whole_bound(self):
        assert cp_bound_rhs(2.0, 1.5, 0, 1, c=2.0) == 2 * cp_bound_rhs(2.0, 1.5, 0, 1)

    def test_monotonicity(self):
        assert cp_bound_rhs(1.0, 1.0, 0, 4) < cp_bound_rhs(1.0, 1.0, 0, 2)
        assert cp_bound_rhs(9.0, 1.0, 0, 1) < cp_bound_rhs(4.0, 1.0, 0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            cp_bound_rhs(0.0, 1.0, 0, 1)
        with pytest.raises(ValueError):
            cp_bound_rhs(1.0, -1.0, 0, 1)

    def test_weighted_core(self):
        assert weighted_sum_bound_rhs(tau=0, p_val=4.0, r=0, m=1, beta_val=1.0) == 1.0

    def test_window_refinement_factor(self):
        core = weighted_sum_bound_rhs(tau=0, p_val=4.0, r=0, m=1, beta_val=1.0)
        both = weighted_sum_bound_rhs(kappa=2, delta=1, tau=1, p_val=4.0, r=0, m=1, beta_val=1.0)
        assert both == 3 * core
        equal = weighted_sum_bound_rhs(kappa=1, delta=1, tau=1, p_val=4.0, r=0, m=1, beta_val=1.0)
        assert equal == 2 * core

    def test_weighted_validation(self):
        assert weighted_sum_bound_rhs(tau=0, p_val=0.0, r=0, m=1, beta_val=1.0) == math.inf
        assert weighted_sum_bound_rhs(tau=0, p_val=1.0, r=0, m=1, beta_val=0.0) == math.inf
        with pytest.raises(ValueError):
            weighted_sum_bound_rhs(tau=1, p_val=1.0, r=0, m=1, beta_val=1.0)
        with pytest.raises(ValueError):
            weighted_sum_bound_rhs(tau=0, p_val=-1.0, r=0, m=1, beta_val=1.0)
        with pytest.raises(ValueError):
            weighted_sum_bound_rhs(kappa=1, delta=0, tau=1, p_val=1.0, r=0, m=1, beta_val=1.0)


class TestCheckCpBound:
    def test_exact_zero_window(self):
        cp = CompoundPoissonSpec(weights_1d([1, 1, 1, 1]), 1.0)
        rep = check_cp_bound(cp, 0, 0, 1)
        want_lhs = float(mpmath.exp(-2) * mpmath.besseli(0, 2))
        assert rep.lhs.mode == MODE_EXACT
        assert abs(rep.lhs.value - want_lhs) < 1e-9
        assert rep.rhs == pytest.approx(math.sqrt(2))  # alpha=2, beta=1
        assert rep.slack == pytest.approx(rep.rhs / rep.lhs.value)
        assert rep.flags == ()
        assert rep.constants_used == {"c_cp": 1.0}
        assert rep.params["n"] == 4 and rep.params["r"] == 0 and rep.params["m"] == 1

    def test_degenerate_residual_flagged(self):
        cp = CompoundPoissonSpec(weights_1d([1, 1]), 1.0)
        rep = check_cp_bound(cp, 1, 0, 1)
        assert rep.flags == (FLAG_DEGENERATE_BETA,)
        assert rep.rhs == math.inf
        assert rep.slack == math.inf

    def test_window_estimate_deterministic(self):
        cfg = RunConfig(mc_samples=10**4)
        cp = CompoundPoissonSpec(weights_1d([1, 1]), 1.0)
        a = check_cp_bound(cp, Fraction(1, 2), 0, 1, cfg)
        b = check_cp_bound(cp, Fraction(1, 2), 0, 1, cfg)
        assert a.lhs.mode == MODE_MC
        assert a.lhs.value == b.lhs.value
        assert 0 < a.lhs.value <= 1


class TestJumpLawIsAMeasure:
    @pytest.mark.parametrize(
        "entries, tau, r, m",
        [
            ([1, 1, 2], 0, 0, 1),
            ([10, 11, 29], 1, 1, 3),
            ([1, 3, 3, 7], Fraction(1, 2), 1, 5),
            ([1, 1, 10, 10, 10], 0, 2, 9),
        ],
    )
    def test_law_and_measure_give_the_same_beta(self, entries, tau, r, m):
        jump = CompoundPoissonSpec(weights_1d(entries), 1.0).normalized_jump_law()
        assert beta(jump, tau, r, m) == beta(AtomicMeasure(1, jump.atoms), tau, r, m)


class TestBoundLedger:
    def test_header_once_then_rows(self, tmp_path):
        path = tmp_path / "bounds.csv"
        rep = check_cp_bound(CompoundPoissonSpec(weights_1d([1, 1]), 1.0), 0, 0, 1)
        append_bound_ledger(path, "a-1", rep)
        append_bound_ledger(path, "a-2", rep)
        lines = path.read_text().splitlines()
        assert lines[0] == BOUND_LEDGER_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("a-1,2,0,1,0,")
        assert all(len(line.split(",")) == 9 for line in lines[1:])


# ---------------------------------------------------------------------------
# The integer-grid kernels against the Fraction forms they replaced.
# ---------------------------------------------------------------------------


def fraction_covered_mass(atoms, h, M, tau):
    """Oracle: _covered_mass in Fraction arithmetic."""
    miss = Fraction(0)
    missed = []
    for w, mass in atoms:
        if h == 0:
            ok = abs(w) <= tau
        else:
            nu = round(w / h)
            ok = False
            for cand in (nu - 1, nu, nu + 1):
                c = max(-M, min(M, cand))
                if abs(w - c * h) <= tau:
                    ok = True
                    break
        if not ok:
            miss += mass
            missed.append((w, mass))
    return miss, missed


def fraction_rank1_candidates(atoms, tau, M):
    """Oracle: _rank1_candidates in Fraction arithmetic."""
    cand = {Fraction(0)}
    for w, _ in atoms:
        for nu in range(1, M + 1):
            cand.add(abs((w + tau) / nu))
            cand.add(abs((w - tau) / nu))
            cand.add(abs(w / nu))
    return sorted(cand)


def fraction_rank1_scan(atoms, tau, M):
    """Oracle: the first candidate with the least miss, all in Fractions."""
    best = None
    cands = fraction_rank1_candidates(atoms, tau, M)
    for h in cands:
        miss, missed = fraction_covered_mass(atoms, h, M, tau)
        if best is None or miss < best[0]:
            best = (miss, h, missed)
    return best[0], best[1], best[2], len(cands)


def fraction_beta_rank2(W, tau, m):
    """Oracle: the rank-2 beam with every scan in Fractions."""
    atoms = W.scalar_atoms()
    searched = 0
    best = None
    M_max = (m - 1) // 2
    for M1 in range(0, M_max + 1):
        M2_cap = (m // (2 * M1 + 1) - 1) // 2
        _, h1, missed, s1 = fraction_rank1_scan(atoms, tau, M1)
        searched += s1
        for M2 in range(0, M2_cap + 1):
            h2_pool = {Fraction(0)}
            if missed:
                _, h2_best, _, s2 = fraction_rank1_scan(missed, tau, M2)
                searched += s2
                h2_pool.add(h2_best)
            for h2 in sorted(h2_pool):
                witness = Cgap(2, (h1, h2), box_body([_interval_dim(M1), _interval_dim(M2)]))
                val = mass_outside(W, cgap_image(witness), tau)
                key = (val, abs(h1) + abs(h2), (h1, h2))
                if best is None or key < best[0]:
                    best = (key, witness)
    key, witness = best
    return BetaResult(key[0], witness, UPPER_BOUND, searched)


# tau off the atoms' grid (denominators 5, 7), on it, and zero
grid_taus = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(3, 7), Fraction(5, 2)])
probe_hs = st.one_of(
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5])),
    st.builds(lambda k, d: Fraction(float(Fraction(k, d))), st.integers(-30, 30), st.sampled_from([3, 7, 10])),
)


class TestCoveredMassOracle:
    @given(scan_atoms(), probe_hs, st.integers(0, 5), grid_taus)
    @example([(Fraction(1), Fraction(1)), (Fraction(-3), Fraction(2))], Fraction(0), 2, Fraction(1))
    @example([(Fraction(5, 2), Fraction(1)), (Fraction(-5, 2), Fraction(1))], Fraction(-1), 2, Fraction(1, 2))
    @example([(Fraction(7, 3), Fraction(1)), (Fraction(-7, 3), Fraction(2))], Fraction(-2, 3), 3, Fraction(1, 3))
    @example([(Fraction(4), Fraction(1)), (Fraction(1, 2), Fraction(3))], Fraction(float(Fraction(1, 3))), 4, Fraction(1, 2))
    @example([(Fraction(2), Fraction(1)), (Fraction(-2), Fraction(1))], Fraction(3), 0, Fraction(2))
    @example([], Fraction(1, 2), 3, Fraction(1, 2))
    def test_matches_fraction_form(self, atoms, h, M, tau):
        got = _covered_mass(atoms, h, M, tau)
        assert got == fraction_covered_mass(atoms, h, M, tau)
        assert isinstance(got[0], Fraction)

    @pytest.mark.parametrize("h", [Fraction(2, 3), Fraction(-2, 3)])
    def test_atom_at_exactly_tau(self, h):
        # |2h| + tau and -(|2h| - tau) sit at distance exactly tau from
        # +-2h, so nu = +-2 covers them; a hair further out is missed, and
        # with M = 1 only the inner one stays within tau of +-h
        tau = Fraction(2, 5)
        edge = abs(2 * h)
        atoms = [(edge + tau, Fraction(1)), (-(edge - tau), Fraction(1)), (edge + tau + Fraction(1, 35), Fraction(1))]
        assert _covered_mass(atoms, h, 2, tau) == (Fraction(1), atoms[2:])
        assert _covered_mass(atoms, h, 1, tau) == (Fraction(2), [atoms[0], atoms[2]])


class TestRank1CandidatesOracle:
    @given(scan_atoms(), grid_taus, st.integers(0, 5))
    @example([], Fraction(1, 2), 3)
    @example([(Fraction(3), Fraction(1))], Fraction(2, 5), 0)
    @example([(Fraction(-7, 2), Fraction(1)), (Fraction(5, 3), Fraction(2))], Fraction(3, 7), 5)
    def test_matches_fraction_form(self, atoms, tau, M):
        got = _rank1_candidates(atoms, tau, M)
        assert got == fraction_rank1_candidates(atoms, tau, M)
        assert all(isinstance(h, Fraction) for h in got)


class TestSharedGrid:
    """The rank-2 search scans subsets of the atoms at every M <= M_max on
    one grid built for M_max."""

    @given(scan_atoms(), grid_taus, st.integers(0, 5), st.data())
    def test_grid_for_larger_budget_scans_the_same(self, atoms, tau, M_max, data):
        S, T, grid = _rank1_grid(atoms, tau, M_max)
        keep = data.draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
        sub = [g for g, k in zip(grid, keep) if k]
        sub_atoms = [g[2] for g in sub]
        for M in range(M_max + 1):
            miss, h, missed, searched = fraction_rank1_scan(sub_atoms, tau, M)
            got_h, got_missed, got_searched = _grid_scan(sub, T, M, S)
            assert (got_h, [g[2] for g in got_missed], got_searched) == (h, missed, searched)

    @given(scan_atoms(), grid_taus, st.integers(1, 11))
    @example([(Fraction(-5), Fraction(1)), (Fraction(2), Fraction(2)), (Fraction(7, 2), Fraction(1))], Fraction(2, 5), 9)
    def test_rank2_matches_fraction_form(self, atoms, tau, m):
        if not atoms:
            return
        W = AtomicMeasure(1, tuple(((w,), mass) for w, mass in atoms))
        assert beta(W, tau, 2, m) == fraction_beta_rank2(W, tau, m)


@st.composite
def pair_cases(draw):
    """(atoms, tau, h1, h2, M1, M2) with signed h1, h2 on lcm(1..4)'s grid.
    The atoms sit on image points, one step past the box, and at tau or a
    hair past tau from them."""
    tau = draw(grid_taus)
    hs = st.builds(Fraction, st.integers(-24, 24), st.sampled_from([1, 2, 3, 4]))
    h1, h2 = draw(hs), draw(hs)
    M1, M2 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    off = st.sampled_from([Fraction(0), tau, -tau, tau + Fraction(1, 7), -tau - Fraction(1, 7)])
    pts = st.builds(lambda a, b, o: a * h1 + b * h2 + o, st.integers(-M1 - 1, M1 + 1), st.integers(-M2 - 1, M2 + 1), off)
    values = draw(st.lists(pts, max_size=8, unique=True))
    masses = st.builds(Fraction, st.integers(1, 3), st.sampled_from([1, 2, 7]))
    return [(w, draw(masses)) for w in sorted(values)], tau, h1, h2, M1, M2


def atomic(atoms):
    return AtomicMeasure(1, tuple(((w,), mass) for w, mass in atoms))


@st.composite
def rank2_cases(draw):
    """(atoms, tau, m) that reach the rank-2 beam's corners: +-w pairs of
    equal mass (pairs tie), every atom within tau of 0 (only h2 = 0 is
    scored), atoms on multiples of one step with tau = 0 (H2 a multiple of
    H1, so the image points collide), the empty measure, and m in {1, 2}
    (M_max = 0)."""
    tau = draw(grid_taus)
    kind = draw(st.sampled_from(("mirrored", "near_zero", "multiples", "empty")))
    masses = st.builds(Fraction, st.integers(1, 2), st.sampled_from([1, 3]))
    if kind == "mirrored":
        base = draw(st.lists(st.builds(Fraction, st.integers(1, 12), st.sampled_from([1, 2, 3])), max_size=4, unique=True))
        pairs = [(w, draw(masses)) for w in base]
        atoms = pairs + [(-w, mass) for w, mass in pairs]
    elif kind == "near_zero":
        ks = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5, unique=True))
        atoms = [(w, draw(masses)) for w in sorted({tau * k / 4 for k in ks})]
    elif kind == "multiples":
        step = draw(st.builds(Fraction, st.integers(1, 6), st.sampled_from([1, 2, 3])))
        ks = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4, unique=True))
        atoms = [(s * k * step, draw(masses)) for k in ks for s in (1, -1)]
        tau = Fraction(0)
    else:
        atoms = []
    # M1 and M2 are both positive only from m = 9 on
    m = draw(st.integers(9, 15) if kind == "multiples" else st.one_of(st.sampled_from([1, 2]), st.integers(3, 15)))
    return sorted(atoms), tau, m


class TestRank2Oracle:
    @given(rank2_cases())
    @example(([], Fraction(1, 2), 7))
    @example(([(Fraction(-1), Fraction(1)), (Fraction(1), Fraction(1))], Fraction(0), 1))
    @example(([(Fraction(-2), Fraction(1)), (Fraction(3), Fraction(1))], Fraction(0), 2))
    @example(([(Fraction(-1, 3), Fraction(1)), (Fraction(1, 4), Fraction(2))], Fraction(1, 2), 9))
    @example(([(Fraction(k), Fraction(1)) for k in (-4, -2, 2, 4, 6)], Fraction(0), 9))
    @example(([(Fraction(-5), Fraction(1)), (Fraction(-3), Fraction(1)), (Fraction(3), Fraction(1)), (Fraction(5), Fraction(1))], Fraction(1, 2), 5))
    def test_matches_fraction_beam(self, case):
        atoms, tau, m = case
        W = atomic(atoms)
        assert beta(W, tau, 2, m) == fraction_beta_rank2(W, tau, m)

    @given(pair_cases())
    @example(([(Fraction(2), Fraction(1)), (Fraction(-4), Fraction(1))], Fraction(0), Fraction(-2), Fraction(4), 2, 1))
    @example(([(Fraction(7, 2), Fraction(1))], Fraction(1, 2), Fraction(3), Fraction(-1, 2), 0, 4))
    @example(([(Fraction(6), Fraction(1)), (Fraction(7), Fraction(2))], Fraction(0), Fraction(1), Fraction(1), 3, 3))
    @example(([], Fraction(1), Fraction(0), Fraction(0), 4, 4))
    def test_pair_miss_matches_cgap_image(self, case):
        """The integer miss of a pair is the Fraction mass outside its Cgap's
        image, for signed generators; h1 and h2 have denominators dividing
        lcm(1..4), so they are on the grid of _rank1_grid(.., 4)."""
        atoms, tau, h1, h2, M1, M2 = case
        S, T, grid = _rank1_grid(atoms, tau, 4)
        D = math.lcm(*(mass.denominator for _, mass in atoms))
        K = Cgap(2, (h1, h2), box_body([_interval_dim(M1), _interval_dim(M2)]))
        got = _pair_miss(grid, int(h1 * S), int(h2 * S), M1, M2, T)
        assert Fraction(got, D) == mass_outside(atomic(atoms), cgap_image(K), tau)
