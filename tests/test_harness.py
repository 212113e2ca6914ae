"""Planted instances, window helpers, and the CSV reporting plumbing."""

import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from lostructure import harness
from lostructure.config import RunConfig, calibrated_config
from lostructure.concentration import conc_interval
from lostructure.distributions import (
    CompoundPoissonSpec,
    WeightVector,
    rademacher,
    symmetrize,
    tail_mass,
    weighted_sum_law,
    weights_1d,
)
from lostructure.beta import check_cp_bound
from lostructure.errors import EnumerationCapExceeded, InvalidWindow
from lostructure.gap import Gap
from lostructure.harness import (
    CSV_HEADER,
    KINDS,
    SUITES,
    Instance,
    binomial_center_mass,
    central_atom_mass,
    gen_planted,
    min_admissible_n_prime,
    product_coordinate_params,
    report_csv,
    run_suite,
    window_params_for_outliers,
)
from lostructure.recovery import RecoveryParams, log_rank_construct, select_m


class TestGenPlanted:
    def test_arithmetic_progression(self):
        inst = gen_planted("ap", {"g": 3, "n": 50})
        vals = sorted(e[0] for e in inst.weight.entries)
        assert vals == [3 * k for k in range(1, 51)]
        P = inst.planted["gap"]
        assert P.rank == 1 and P.generators == ((Fraction(3),),)
        assert P.dims == (Fraction(50),)
        assert inst.planted["outliers"] == ()

    def test_determinism_and_seed_sensitivity(self):
        a = gen_planted("ap", {"n": 30}, seed=7)
        b = gen_planted("ap", {"n": 30}, seed=7)
        c = gen_planted("ap", {"n": 30}, seed=8)
        assert a.weight.entries == b.weight.entries
        assert a.weight.entries != c.weight.entries  # order is seed-dependent
        assert sorted(a.weight.entries) == sorted(c.weight.entries)

    def test_outliers_are_huge_and_indexed(self):
        inst = gen_planted("outliers", seed=3)
        g = inst.planted["gap"].generators[0][0]
        idx = inst.planted["outliers"]
        assert len(idx) == 5
        for k in idx:
            assert abs(inst.weight.entries[k][0]) >= 10**4 * g

    def test_two_generator_family(self):
        inst = gen_planted("gap2", seed=1)
        P = inst.planted["gap"]
        assert P.rank == 2
        assert inst.weight.n == 40  # 8 sign combinations x 5 copies

    def test_dense_random_has_no_plant(self):
        assert gen_planted("dense_random").planted is None

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_planted("mystery")

    def test_every_listed_kind_generates(self):
        for kind in KINDS:
            assert gen_planted(kind).id
        with pytest.raises(ValueError, match=", ".join(KINDS)):
            gen_planted("mystery")


# Small parameter sets per kind, seeds 0-6, and the sha256 of each kind's
# sorted-key instance JSON: any change to what gen_planted builds shows here.
PLANTED_GRID = {
    "ap": ({}, {"g": Fraction(5, 2), "n": 12}),
    "gap2": ({}, {"g1": 2, "g2": Fraction(7, 3), "copies": 2}),
    "outliers": (
        {},
        {"g": Fraction(3, 2), "H": 1000, "n_pad": 0, "n_sig": 6, "n_out": 2},
        {"n_pad": 8, "n_sig": 5, "n_out": 1},
    ),
    "dense_random": ({}, {"n": 7}),
    "product_d": (
        {},
        {"d": 1, "n_pad": 4, "n_sig": 5, "n_out": 1},
        {"d": 3, "gs": [1, Fraction(1, 2), 3], "n_pad": 3, "n_sig": 4, "n_out": 2},
    ),
}
PLANTED_SHA256 = {
    "ap": "7fac741454c52e92b7777b98e2469a36f8a2a3055a260eeb1024c0a79a25ccc3",
    "gap2": "c3f9f7c5c9b2450f97ae2f2299adb910731b3ca9b0f54fc9a546603f4bfc9eb2",
    "outliers": "2259fee03cc63dc31321aa4cbe4ab623e52066a9f768aa262d33575bd6633ce7",
    "dense_random": "eb45ed3554c0aad0ce32e5ff1aaa8ad6e925116580b3c0f64d1eb7fc0d80a219",
    "product_d": "4f09973954df44f1b9a5934a21edab2ab1b0d33577e6fc2c98cb50bd146aaff7",
}


@pytest.mark.parametrize("kind", KINDS)
def test_planted_instances_are_pinned(kind):
    blob = [gen_planted(kind, p, seed).to_json_dict() for p in PLANTED_GRID[kind] for seed in range(7)]
    digest = hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()
    assert digest == PLANTED_SHA256[kind]


PAD_SIGNAL_OUTLIER_ERRORS = [
    ("product_d", {"d": 3, "gs": [1, 2]}, "exactly d entries in gs"),
    ("product_d", {"d": 2, "gs": [1, 2, 3]}, "exactly d entries in gs"),
    ("product_d", {"d": 0}, "need d >= 1"),
    ("product_d", {"n_out": -1}, "nonnegative"),
    ("outliers", {"n_out": -1}, "nonnegative"),
    ("outliers", {"n_pad": -1}, "nonnegative"),
    ("outliers", {"n_sig": -3}, "nonnegative"),
]


@pytest.mark.parametrize("kind, params, fragment", PAD_SIGNAL_OUTLIER_ERRORS)
def test_malformed_pad_signal_outlier_params(kind, params, fragment):
    with pytest.raises(ValueError, match=fragment):
        gen_planted(kind, params)


PAD_SIGNAL_OUTLIER_EDGES = [
    ("outliers", {"n_pad": 2}),  # the pad row equals +g
    ("outliers", {"H": 1}),  # at seed 0 the H row equals +g
    ("outliers", {"n_pad": 0, "n_out": 0}),
    ("outliers", {"n_sig": 0}),
    ("product_d", {"d": 3, "gs": [0, 2, Fraction(1, 3)], "n_pad": 2, "n_sig": 7}),
    ("product_d", {"d": 1, "n_pad": 1, "n_sig": 0, "n_out": 3}),
]


@pytest.mark.parametrize("kind, params", PAD_SIGNAL_OUTLIER_EDGES)
@pytest.mark.parametrize("seed", [0, 1])
def test_pad_signal_outlier_weights_match_the_public_constructor(kind, params, seed):
    """_pad_signal_outliers' trusted WeightVector equals the validated one in ==,
    repr, JSON and counts."""
    weight = gen_planted(kind, params, seed).weight
    public = WeightVector(weight.dim, weight.entries)
    assert weight == public and repr(weight) == repr(public)
    assert json.dumps(weight.to_json_dict()) == json.dumps(public.to_json_dict())
    assert weight.counts == public.counts


@pytest.mark.parametrize(
    "kind, params, fragment",
    [
        ("outliers", {"n_pad": 0, "n_sig": 0, "n_out": 0}, "need n >= 1 entries"),
        ("product_d", {"d": 1, "gs": [0], "n_pad": 0, "n_sig": 0, "n_out": 0}, "need n >= 1 entries"),
        ("product_d", {"gs": [0, 0]}, "must not be identically zero"),
        ("outliers", {"g": 0}, "must not be identically zero"),
    ],
)
def test_pad_signal_outlier_weights_raise_the_public_errors(kind, params, fragment):
    with pytest.raises(ValueError, match=fragment):
        gen_planted(kind, params)


class TestInstanceValidation:
    def test_planted_structure_must_cover(self):
        plant = {
            "gap": Gap(1, 1, (Fraction(1),), ((Fraction(1),),)),
            "outliers": (),
            "delta0": Fraction(0),
        }
        with pytest.raises(ValueError):
            Instance("bad", weights_1d([1, 5]), rademacher(), plant, 0)
        plant2 = dict(plant, outliers=(1,))
        Instance("ok", weights_1d([1, 5]), rademacher(), plant2, 0)


class TestWindowHelpers:
    def test_center_mass_frozen(self):
        assert binomial_center_mass(4, 0) == Fraction(3, 8)
        assert binomial_center_mass(4, 2) == Fraction(7, 8)
        assert binomial_center_mass(3, 1) == Fraction(3, 4)
        assert binomial_center_mass(2, 10) == 1

    def test_central_atom_frozen(self):
        assert central_atom_mass(4) == Fraction(3, 8)
        assert central_atom_mass(5) == Fraction(5, 16)

    def test_center_mass_monotone(self):
        masses = [binomial_center_mass(10, w) for w in range(0, 11, 2)]
        assert masses == sorted(masses)
        assert masses[-1] == 1

    def test_min_admissible_boundary(self):
        base = RecoveryParams(Fraction(1), 0, 1, 0, 0, 1, 20, Fraction(1))
        k = min_admissible_n_prime(base)
        assert k == 4
        select_m(RecoveryParams(Fraction(1), 0, 1, 0, 0, k, 20, Fraction(1)))
        with pytest.raises(InvalidWindow):
            select_m(RecoveryParams(Fraction(1), 0, 1, 0, 0, k - 1, 20, Fraction(1)))

    def test_min_admissible_exhausted(self):
        base = RecoveryParams(Fraction(1, 2), 0, 1, 0, 0, 1, 8, Fraction(1, 2))
        with pytest.raises(InvalidWindow):
            min_admissible_n_prime(base)


class TestOutlierWindowParams:
    def test_certified_parameters(self):
        cfg = RunConfig()
        inst = gen_planted("outliers", {"n_pad": 6200, "n_sig": 45, "n_out": 2}, seed=0)
        params = window_params_for_outliers(inst, cfg)
        g = inst.planted["gap"].generators[0][0]
        assert params.tau == params.kappa == 8 * g
        assert params.delta == g / 2
        assert params.r == 1
        assert params.q == binomial_center_mass(45, 2) * central_atom_mass(2)
        assert params.p_val == Fraction(1, 2)
        assert params.n_prime == 3095

    def test_q_is_a_lower_bound_on_the_exact_window_mass(self):
        # a small admissible member of the recovery suite's family;
        # the suite's own size (n_pad 5948) needs ~4.6e5 atoms and minutes
        inst = gen_planted("outliers", {"n_pad": 1500, "n_sig": 10, "n_out": 2}, seed=0)
        params = window_params_for_outliers(inst, RunConfig())
        exact = conc_interval(weighted_sum_law(inst.law, inst.weight), params.tau).value
        assert params.q <= exact

    def test_heavy_pad_rejected(self):
        plant = {
            "gap": Gap(1, 1, (Fraction(1),), ((Fraction(1),),)),
            "outliers": (),
            "delta0": Fraction(1, 2),
        }
        half = [Fraction(1, 2)] * 5  # pad total 5/2 exceeds tau/4 = 2
        inst = Instance("heavy", weights_1d(half + [1, -1, 1, -1]), rademacher(), plant, 0)
        with pytest.raises(ValueError):
            window_params_for_outliers(inst, RunConfig())


class TestReportCsv:
    def test_empty_writes_header_only(self, tmp_path):
        path = str(tmp_path / "out.csv")
        report_csv([], path)
        assert (tmp_path / "out.csv").read_text() == CSV_HEADER + "\n"

    def test_bound_report_row(self, tmp_path):
        path = str(tmp_path / "out.csv")
        rep = check_cp_bound(CompoundPoissonSpec(weights_1d([1, 1]), 1.0), 0, 0, 1)
        report_csv([("cp", "case-1", rep)], path)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[:7] == ["cp", "case-1", "2", "", "0", "1", "0"]
        assert float(fields[9]) > 0 and float(fields[11]) > 1  # lhs, slack

    def test_log_rank_row_and_append(self, tmp_path):
        path = str(tmp_path / "out.csv")
        _, rep = log_rank_construct(weights_1d([1, 10, 11, 9]), rademacher(), 0, 1, 0)
        report_csv([("lr", "b", rep)], path)
        report_csv([("lr", "a", rep)], path)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 3  # single header
        assert lines[1].split(",")[1] == "b" and lines[2].split(",")[1] == "a"
        assert lines[1].split(",")[2] == "4" and lines[1].split(",")[12] == "4"

    def test_rows_sorted_within_one_call(self, tmp_path):
        path = str(tmp_path / "out.csv")
        _, rep = log_rank_construct(weights_1d([1, 2]), rademacher(), 0, 2, 2)
        report_csv([("lr", "b", rep), ("lr", "a", rep)], path)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert [ln.split(",")[1] for ln in lines[1:]] == ["a", "b"]

    def test_reruns_byte_identical(self, tmp_path):
        rep = check_cp_bound(CompoundPoissonSpec(weights_1d([1, 1, 1]), 2.0), 0, 0, 1)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        report_csv([("cp", "x", rep)], p1)
        report_csv([("cp", "x", rep)], p2)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_rejects_unknown_payload(self, tmp_path):
        with pytest.raises(TypeError):
            report_csv([42], str(tmp_path / "out.csv"))


class TestRunSuite:
    def test_regularity_smoke(self, tmp_path):
        rep = run_suite("regularity")
        assert rep.instances == rep.passes == 200
        assert rep.failures == ()
        assert 0 < rep.calibration["max_ratio_to_bound"] <= 1
        path = str(tmp_path / "suite.csv")
        report_csv([rep], path)
        lines = (tmp_path / "suite.csv").read_text().splitlines()
        assert len(lines) == 201
        assert all(ln.startswith("regularity,") for ln in lines[1:])

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonexistent")

    def test_suite_registry(self):
        assert set(SUITES) == {
            "regularity",
            "ratio_stability",
            "beta_oracle",
            "gap_laws",
            "recovery",
            "product_recovery",
            "log_rank",
        }


class TestSuiteErrors:
    """Where the suites catch: a package error in one case fails that case
    with one ERROR row and leaves the others as in the golden seed-0 run; any
    other exception propagates out of run_suite."""

    CATCHING = [
        ("recovery", "recover"),
        ("product_recovery", "recover_multid"),
        ("log_rank", "log_rank_construct"),
    ]

    @staticmethod
    def patch(monkeypatch, target, exc, on_call):
        real, calls = getattr(harness, target), []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) == on_call:
                raise exc
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, target, flaky)

    @pytest.mark.parametrize("suite, target", CATCHING)
    def test_package_error_fails_one_case(self, suite, target, monkeypatch, tmp_path):
        self.patch(monkeypatch, target, EnumerationCapExceeded("budget spent"), on_call=2)
        rep = run_suite(suite, dataclasses.replace(calibrated_config(), seed=0))
        golden_dir = Path(__file__).parent / "golden"
        golden = next(
            r for r in json.loads((golden_dir / "suite_all_seed0.json").read_text()) if r["suite"] == suite
        )
        failed = rep.rows[1]["id"]  # one row per case, in case order
        assert rep.failures == ((failed, "EnumerationCapExceeded: budget spent"),)
        assert (rep.instances, rep.passes) == (golden["instances"], golden["passes"] - 1)
        report_csv([rep], str(tmp_path / "suite.csv"))
        lines = (tmp_path / "suite.csv").read_text().splitlines()[1:]
        expected = [
            ",".join([suite, failed] + [""] * 11 + ["ERROR"]) if ln.split(",")[1] == failed else ln
            for ln in (golden_dir / "suite_all_seed0.csv").read_text().splitlines()
            if ln.startswith(suite + ",")
        ]
        assert lines == expected

    @pytest.mark.parametrize("suite, target", CATCHING)
    def test_programming_error_propagates(self, suite, target, monkeypatch):
        self.patch(monkeypatch, target, AssertionError("a bug"), on_call=1)
        with pytest.raises(AssertionError, match="a bug"):
            run_suite(suite)


def product_coordinate_params_per_entry(inst, j, cfg):
    """product_coordinate_params as it summed over every entry (oracle)."""
    g = inst.planted["gap"].generators[j][j]
    out_idx = set(inst.planted["outliers"])
    n_sig = sum(
        1 for k, e in enumerate(inst.weight.entries) if k not in out_idx and abs(e[j]) == g
    )
    pad_total = sum(
        (
            abs(e[j])
            for k, e in enumerate(inst.weight.entries)
            if k not in out_idx and abs(e[j]) != g
        ),
        Fraction(0),
    )
    tau = 8 * g
    if pad_total > tau / 4:
        raise ValueError("pad block too heavy for the certified window estimate")
    q = binomial_center_mass(n_sig, 2)
    if out_idx:
        q *= central_atom_mass(len(out_idx))
    p_val = tail_mass(symmetrize(inst.law), Fraction(1))  # tau/kappa = 1
    base = RecoveryParams(q, tau, tau, g / 2, 1, 1, inst.weight.n, p_val, cfg.constants)
    return dataclasses.replace(base, n_prime=min_admissible_n_prime(base))


class TestParamsFromCounts:
    @pytest.mark.parametrize("seed", range(4))
    def test_generated_families_match_per_entry_sums(self, seed):
        """The suites' own sizes: smaller members admit no window."""
        cfg = RunConfig()
        inst = gen_planted("outliers", {"n_pad": 5948, "n_sig": 50, "n_out": 2}, seed=seed)
        assert window_params_for_outliers(inst, cfg) == product_coordinate_params_per_entry(inst, 0, cfg)
        inst = gen_planted("product_d", {"d": 2, "n_pad": 11950, "n_sig": 48, "n_out": 2}, seed=seed)
        for j in range(2):
            assert product_coordinate_params(inst, j, cfg) == product_coordinate_params_per_entry(inst, j, cfg)

    def test_outlier_whose_value_is_g(self):
        """Outliers are positions, not values: the outlier at g is neither
        signal nor pad, and the huge outlier is not pad either."""
        cfg = RunConfig()
        g, pad = Fraction(2), Fraction(1, 4000)
        signal = [g, -g] * 25
        entries = [pad] * 3000 + signal[:20] + [g] + signal[20:] + [pad] * 2948 + [10**5 * g]
        plant = {"gap": Gap(1, 1, (Fraction(50),), ((g,),)), "outliers": (3020, 5999), "delta0": pad}
        inst = Instance("hand", weights_1d(entries), rademacher(), plant, 0)
        params = window_params_for_outliers(inst, cfg)
        assert params == product_coordinate_params_per_entry(inst, 0, cfg)
        assert params.q == binomial_center_mass(50, 2) * central_atom_mass(2)


class TestInstanceValidationFromCounts:
    def test_reports_first_missing_index(self):
        plant = {"gap": Gap(1, 1, (Fraction(1),), ((Fraction(1),),)), "outliers": (1,), "delta0": Fraction(0)}
        with pytest.raises(ValueError, match="entry 3$"):
            Instance("bad", weights_1d([1, 5, -1, 5, 7, 5]), rademacher(), plant, 0)
        Instance("ok", weights_1d([1, 5, -1]), rademacher(), plant, 0)

    def test_outlier_index_out_of_range(self):
        plant = {"gap": Gap(1, 1, (Fraction(1),), ((Fraction(1),),)), "outliers": (2,), "delta0": Fraction(0)}
        with pytest.raises(ValueError, match="out of range"):
            Instance("bad", weights_1d([1, 5]), rademacher(), plant, 0)
