"""Drive the CLI through main(argv) and check outputs, files, exit codes."""

import json
from fractions import Fraction

import pytest

from lostructure.cli import main
from lostructure.distributions import (
    from_scalar_atoms,
    levy_measure_star,
    point_mass,
    rademacher,
    weights_1d,
)
from lostructure.errors import EnumerationCapExceeded
from lostructure.harness import binomial_center_mass, gen_planted
from lostructure.rational import format_fraction


def write_json(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run_json(capsys, argv):
    rc = main(argv)
    return rc, json.loads(capsys.readouterr().out)


def three_atom_path(tmp_path):
    F = from_scalar_atoms(
        [(0, Fraction(1, 2)), (Fraction(2, 5), Fraction(1, 5)), (1, Fraction(3, 10))]
    )
    return write_json(tmp_path, "law.json", F.to_json_dict())


class TestConc:
    def test_exact_window(self, tmp_path, capsys):
        rc, out = run_json(capsys, ["conc", three_atom_path(tmp_path), "--tau", "1/2"])
        assert rc == 0
        assert out["value"] == "7/10"
        assert out["mode"] == "exact"
        assert out["witness"] == ["1/4"]

    def test_zero_window_default(self, tmp_path, capsys):
        rc, out = run_json(capsys, ["conc", three_atom_path(tmp_path)])
        assert rc == 0
        assert out["value"] == "1/2" and out["witness"] == ["0"]

    def test_mc_point_mass(self, tmp_path, capsys):
        law = write_json(tmp_path, "pm.json", point_mass(3).to_json_dict())
        rc, out = run_json(
            capsys, ["conc", law, "--tau", "1", "--mode", "mc", "--samples", "2000"]
        )
        assert rc == 0
        assert out["value"] == 1.0 and out["mode"] == "monte_carlo"

    def test_exact_needs_dim_one(self, tmp_path, capsys):
        F2 = {"dim": 2, "atoms": [[["0", "0"], "1"]]}
        law = write_json(tmp_path, "d2.json", F2)
        assert main(["conc", law, "--tau", "1"]) == 2
        assert "mc" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "res.json"
        rc = main(["conc", three_atom_path(tmp_path), "--out", str(target)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["value"] == "1/2"


class TestGapVerbs:
    def gap1(self, tmp_path, dims, gens):
        payload = {
            "dim": 1,
            "rank": len(gens),
            "dims": [str(L) for L in dims],
            "generators": [[str(g)] for g in gens],
        }
        return write_json(tmp_path, "gap.json", payload)

    def test_image(self, tmp_path, capsys):
        rc, out = run_json(capsys, ["gap", "image", self.gap1(tmp_path, [2], [1])])
        assert rc == 0
        assert out["size"] == 5
        assert out["image"] == [["-2"], ["-1"], ["0"], ["1"], ["2"]]

    def test_proper_detects_collision(self, tmp_path, capsys):
        rc, out = run_json(capsys, ["gap", "proper", self.gap1(tmp_path, [1, 1], [1, 1])])
        assert rc == 0
        assert out == {"proper": False, "size": 5}

    def test_dilate_is_exact(self, tmp_path, capsys):
        rc, out = run_json(
            capsys, ["gap", "dilate", self.gap1(tmp_path, ["2/5"], [1]), "--t", "3"]
        )
        assert rc == 0
        assert out["dims"] == ["6/5"]

    def test_sandwich_interval(self, tmp_path, capsys):
        box = write_json(
            tmp_path, "box.json", {"rank": 1, "constraints": [{"u": ["1"], "b": "3"}]}
        )
        rc, out = run_json(capsys, ["gap", "sandwich", box])
        assert rc == 0
        assert out["t_star"] == 1
        assert out["gap"]["dims"] == ["3"] and out["gap"]["generators"] == [["1"]]

    def test_embed_collapses(self, tmp_path, capsys):
        rc, out = run_json(capsys, ["gap", "embed", self.gap1(tmp_path, [1, 1], [1, 1])])
        assert rc == 0
        assert out["collapsed"] is True
        assert out["gap"]["dims"] == ["2"] and out["gap"]["generators"] == [["1"]]
        assert out["size_ratio"] == "1"


class TestBetaVerb:
    def test_minority_mass(self, tmp_path, capsys):
        W = levy_measure_star(weights_1d([10, 11, 29]))
        mp = write_json(tmp_path, "measure.json", W.to_json_dict())
        rc, out = run_json(capsys, ["beta", mp, "--tau", "1", "--r", "1", "--m", "3"])
        assert rc == 0
        assert out["value"] == "2"
        assert out["exactness"] == "exact"
        assert out["witness"]["h"] == ["10"]
        assert out["candidates_searched"] == 8


class TestCheckBound:
    def test_ledger_and_exit(self, tmp_path, capsys):
        wp = write_json(tmp_path, "w.json", weights_1d([1, 1, 1, 1]).to_json_dict())
        ledger = tmp_path / "bounds.csv"
        rc, out = run_json(
            capsys, ["check-bound", wp, "--id", "case", "--ledger", str(ledger)]
        )
        assert rc == 0  # slack above one
        assert out["slack"] > 1
        lines = ledger.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("case,4,0,1,0,")


class TestRecoverVerb:
    def instance_paths(self, tmp_path):
        inst = {
            "id": "unit",
            "weight": weights_1d([1] * 1200).to_json_dict(),
            "law": rademacher().to_json_dict(),
        }
        params = {
            "q": format_fraction(binomial_center_mass(1200, 10)),
            "tau": 10,
            "kappa": 6,
            "delta": 3,
            "r": 0,
            "n_prime": 516,
            "p_val": "1/2",
        }
        return (
            write_json(tmp_path, "inst.json", inst),
            write_json(tmp_path, "params.json", params),
        )

    def test_full_pipeline(self, tmp_path, capsys):
        ip, pp = self.instance_paths(tmp_path)
        csv = tmp_path / "rows.csv"
        rc, out = run_json(capsys, ["recover", ip, pp, "--csv", str(csv)])
        assert rc == 0  # no flags raised
        assert out["m"] == 1
        assert out["coverage"]["K_star"] == 1200
        assert out["flags"] == []
        lines = csv.read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "recover" and fields[1] == "unit" and fields[12] == "1200"

    def test_logrank_mode(self, tmp_path, capsys):
        inst = {
            "id": "lr",
            "weight": weights_1d([1, 10, 11, 9]).to_json_dict(),
            "law": rademacher().to_json_dict(),
        }
        ip = write_json(tmp_path, "lr.json", inst)
        pp = write_json(tmp_path, "lrp.json", {"tau": 0, "kappa": 1, "delta": 0})
        rc, out = run_json(capsys, ["recover", ip, pp, "--mode", "logrank"])
        assert rc == 0
        assert out["gap"]["generators"] == [["1"], ["10"]]
        assert out["report"]["r"] == 2 and out["report"]["coverage"] == 4

    def test_zero_tau_schedule(self, tmp_path, capsys):
        inst = {
            "weight": weights_1d([1] * 128).to_json_dict(),
            "law": rademacher().to_json_dict(),
        }
        ip = write_json(tmp_path, "s.json", inst)
        pp = write_json(
            tmp_path,
            "sp.json",
            {"A": 1, "theta": 6, "eps1": 1, "eps2": 1, "b_n": 2, "q_list": ["1/2"], "p_val": "1/2"},
        )
        rc, out = run_json(capsys, ["recover", ip, pp, "--mode", "zero-tau"])
        assert rc == 0
        assert out == [
            {
                "index": 0,
                "r": 0,
                "n_prime": 64,
                "m": 1,
                "flags": [],
                "fallback_rank": None,
                "fallback_covers": None,
            }
        ]

    def test_scaled_tau_schedule(self, tmp_path, capsys):
        inst = {
            "weight": weights_1d([1] * 128).to_json_dict(),
            "law": rademacher().to_json_dict(),
        }
        ip = write_json(tmp_path, "s2.json", inst)
        pp = write_json(
            tmp_path,
            "sp2.json",
            {
                "A": 0,
                "B": 0,
                "D": 0,
                "theta": 6,
                "eps": {"eps1": 1, "eps2": 1, "eps3": 0.4, "eps4": 1},
                "b_n": 2,
                "rho_n": 1,
                "p_val": "1/2",
                "q_list": ["1"],
            },
        )
        rc, out = run_json(capsys, ["recover", ip, pp, "--mode", "scaled-tau"])
        assert rc == 0
        assert out[0]["r"] == 1 and out[0]["n_prime"] == 64 and out[0]["m"] == 1


class TestGenVerb:
    def test_deterministic_outputs(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--kind", "ap", "--params", '{"n": 10}', "--seed", "5"]
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()
        blob = json.loads(f1.read_text())
        assert blob["planted"]["gap"]["rank"] == 1
        assert len(blob["weight"]["entries"]) == 10


class TestSuiteVerb:
    def test_gap_laws_summary(self, tmp_path, capsys):
        csv = tmp_path / "suite.csv"
        rc = main(["suite", "gap_laws", "--csv", str(csv)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "gap_laws: 1700/1700 pass" in captured.err
        blob = json.loads(captured.out)
        assert blob[0]["passes"] == 1700
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("suite,id,")
        assert len(lines) > 1 and all(r.startswith("gap_laws,") for r in lines[1:])


class TestGlobalFlags:
    def test_config_is_honored(self, tmp_path, capsys):
        cfg = {"enum_cap": 10}
        cp = write_json(tmp_path, "cfg.json", cfg)
        gap = write_json(
            tmp_path,
            "wide.json",
            {"dim": 1, "rank": 1, "dims": ["10"], "generators": [["1"]]},
        )
        assert main(["gap", "image", gap]) == 0
        capsys.readouterr()
        with pytest.raises(EnumerationCapExceeded):
            main(["--config", cp, "gap", "image", gap])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestBadInput:
    """Unreadable or malformed input: exit code 2, one line on stderr."""

    def assert_one_line_error(self, capsys, argv, *fragments):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("lostructure: error: ")
        assert "Traceback" not in err
        for f in fragments:
            assert f in err

    def test_recover_on_empty_objects(self, tmp_path, capsys):
        x = write_json(tmp_path, "x.json", {})
        self.assert_one_line_error(capsys, ["recover", x, x], "x.json", "KeyError", "'weight'")

    def test_non_json_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        self.assert_one_line_error(capsys, ["conc", str(bad)], "bad.json", "JSONDecodeError")
        self.assert_one_line_error(capsys, ["recover", str(bad), str(bad)], "bad.json")
        self.assert_one_line_error(capsys, ["conc", str(tmp_path / "missing.json")], "missing.json")
        self.assert_one_line_error(capsys, ["--config", str(bad), "suite", "gap_laws"], "bad.json")

    def test_gen_params_not_json(self, capsys):
        self.assert_one_line_error(capsys, ["gen", "--kind", "ap", "--params", "{"], "--params", "JSONDecodeError")

    def test_gen_params_not_an_object(self, capsys):
        for text in ("[1]", "3", "null"):
            self.assert_one_line_error(capsys, ["gen", "--kind", "ap", "--params", text], "--params", "JSON object")

    def test_gen_unknown_kind(self, capsys):
        """argparse rejects the kind: its usage and error line, exit code 2."""
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "mystery"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("lostructure gen: error: argument --kind: invalid choice: 'mystery'")

    def test_recover_params_missing_field(self, tmp_path, capsys):
        inst = write_json(tmp_path, "inst.json", gen_planted("ap", {"n": 4}).to_json_dict())
        params = write_json(tmp_path, "params.json", {"tau": "0"})
        for mode in ("full", "logrank", "zero-tau", "scaled-tau"):
            self.assert_one_line_error(capsys, ["recover", inst, params, "--mode", mode], "params.json", "KeyError")

    @pytest.mark.parametrize("text", ["abc", "1/0", ""])
    def test_malformed_rational_flags(self, tmp_path, capsys, text):
        law = three_atom_path(tmp_path)
        measure = write_json(tmp_path, "measure.json", levy_measure_star(weights_1d([1, 2])).to_json_dict())
        weights = write_json(tmp_path, "w.json", weights_1d([1, 1]).to_json_dict())
        gap = write_json(tmp_path, "gap.json", {"dim": 1, "rank": 1, "dims": ["2"], "generators": [["1"]]})
        for argv in (
            ["conc", law, "--tau", text],
            ["beta", measure, "--tau", text],
            ["check-bound", weights, "--tau", text],
            ["check-bound", weights, "--lam", text],
            ["gap", "dilate", gap, "--t", text],
            ["gap", "embed", gap, "--t", text],
        ):
            self.assert_one_line_error(capsys, argv, argv[-2] + ": ")

    def test_zero_denominator_in_file(self, tmp_path, capsys):
        measure = write_json(tmp_path, "measure.json", {"dim": 1, "atoms": [[["1"], "1/0"]]})
        self.assert_one_line_error(capsys, ["beta", measure], "measure.json", "ZeroDivisionError")

    def test_negative_tau_still_raises(self, tmp_path):
        """A negative tau parses; beta rejects it, and that error surfaces."""
        measure = write_json(tmp_path, "measure.json", levy_measure_star(weights_1d([1, 2])).to_json_dict())
        weights = write_json(tmp_path, "w.json", weights_1d([1, 1]).to_json_dict())
        for argv in (["beta", measure, "--tau=-1"], ["check-bound", weights, "--tau=-1"]):
            with pytest.raises(ValueError, match="tau must be nonnegative"):
                main(argv)

    def test_computation_errors_still_raise(self, tmp_path):
        """Only parsing is mapped to exit code 2: delta > kappa is rejected by
        the computation, and that error surfaces."""
        inst = write_json(tmp_path, "inst.json", gen_planted("ap", {"n": 4}).to_json_dict())
        params = write_json(tmp_path, "params.json", {"tau": "0", "kappa": "1", "delta": "2"})
        with pytest.raises(ValueError, match="delta <= kappa"):
            main(["recover", inst, params, "--mode", "logrank"])
