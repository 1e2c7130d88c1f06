import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import isoflag
from isoflag import cli, counting, gram
from isoflag.cases import fields_for, sweep_cases
from isoflag.cli import main, parse_field, parse_gamma, UsageError
from isoflag.fields import RATIONALS
from isoflag.linalg import NoSolution


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _err = run(capsys, *argv)
    return code, json.loads(out)


class TestParsers:
    def test_parse_field(self):
        assert parse_field("rat") is RATIONALS
        f = parse_field("gf:2,2")
        assert f.p == 2 and f.m == 2

    def test_parse_field_bad(self):
        with pytest.raises(UsageError):
            parse_field("gf:4")
        with pytest.raises(UsageError):
            parse_field("real")

    @pytest.mark.parametrize("text", ["gf:3,2,5", "gf:3,1,x", "gf:3,,"])
    def test_parse_field_extra_comma_fields(self, text):
        # gf:p[,m] has at most two comma fields; a third is not ignored
        with pytest.raises(UsageError, match="more than two comma fields"):
            parse_field(text)

    def test_parse_gamma(self):
        assert parse_gamma("4,2,2") == {4: 1, 2: 2}


class TestSubcommands:
    def test_psi(self, capsys):
        code, payload = run_json(capsys, "psi", "--shape", "3,2,2,1")
        assert code == 0
        assert payload["result"]["psi"] == [1, 0, 0, -1]
        assert payload["manifest"]["command"] == "psi"

    def test_gram(self, capsys):
        code, payload = run_json(capsys, "gram", "--shape", "1",
                                 "--mode", "symplectic")
        assert code == 0
        vals = {(v["t"], v["r"], v["delta"]): v["value"]
                for v in payload["result"]["values"]}
        assert vals[(1, 1, -1)] == ["1"]
        assert vals[(1, 1, 1)] == ["-1"]
        assert vals[(1, 1, 0)] == ["0"]

    def test_build(self, capsys):
        code, payload = run_json(capsys, "build", "--shape", "2,1",
                                 "--mode", "symplectic")
        assert code == 0
        res = payload["result"]
        assert res["jordan"] == [4, 2]
        assert res["checks"]["adapted"] and res["checks"]["position"]
        assert all(res["checks"]["split"].values())

    def test_verify_orthogonal(self, capsys):
        code, payload = run_json(capsys, "verify", "--shape", "2,1",
                                 "--kappa", "1", "--mode", "orthogonal",
                                 "--field", "gf:5")
        assert code == 0
        assert payload["result"]["checks"]["intertwiner"]
        assert payload["manifest"]["diagnostics"]["mu_zero_levels"] == []

    def test_flags(self, capsys):
        code, payload = run_json(capsys, "flags", "--shape", "1",
                                 "--mode", "symplectic")
        assert code == 0
        assert payload["result"]["dims"] == [0, 1, 2]
        assert payload["result"]["position"] is True

    def test_count_type_a(self, capsys):
        code, payload = run_json(capsys, "count", "--type", "A",
                                 "--n", "2", "--q", "3")
        assert code == 0
        res = payload["result"]
        assert res["count"] == res["adjoint_order"] == 24
        assert res["relation_holds"]
        # count takes no model options, so its manifest records none, and
        # type A reads no --kappa
        params = payload["manifest"]["parameters"]
        assert "mode" not in params and "field" not in params
        assert "kappa" not in params

    def test_count_off_class(self, capsys):
        # an off-class gamma must find a count different from |PGL_n|;
        # zero pairs is that relation holding, not a failed check
        code, payload = run_json(capsys, "count", "--type", "A", "--n", "2",
                                 "--q", "3", "--gamma", "1,1")
        res = payload["result"]
        assert code == 0
        assert res["count"] == 0 and res["expected_relation"] == "differs"
        assert res["relation_holds"]
        # no class meets a flag, and off class that is no failure
        assert not res["class_relation_holds"]

    def test_count_rank1_type_c(self, capsys):
        # Sp2 = SL2 is isogenous to PGL2, so both have 24 points over F3:
        # the count meets the adjoint order and |Sp2(F3)| alike
        code, payload = run_json(capsys, "count", "--type", "C",
                                 "--shape", "1", "--q", "3")
        res = payload["result"]
        assert code == 0
        assert res["count"] == res["group_order"] == res["adjoint_order"] \
            == 24
        assert res["relation_holds"] and res["double_count_consistent"]

    @pytest.mark.parametrize("override", [
        {"count": 23}, {"double_count_consistent": False},
        {"class_relation_holds": False}],
        ids=["count-misses-group-order", "double-count-fails",
             "class-gate-fails"])
    def test_count_failed_check_exits_1(self, capsys, monkeypatch, override):
        # each of the three checks alone decides the exit code
        real = counting.count_pairs
        monkeypatch.setattr(counting, "count_pairs", lambda *a, **kw:
                            dict(real(*a, **kw), **override))
        code, payload = run_json(capsys, "count", "--type", "C",
                                 "--shape", "1", "--q", "3")
        res = payload["result"]
        assert code == 1
        assert res["relation_holds"] == ("count" not in override)

    def test_broken_double_count_exits_1(self, capsys, monkeypatch):
        # a flag on the anisotropic line of e_1 lies outside the SO3(F3)
        # orbit of isotropic flags, so the rows over all five flags no
        # longer meet the column on the first, and the double count fails
        outside = tuple(zip((0, 1, 0), (1, 0, 0), (0, 0, 1)))
        real = counting.enumerate_isotropic_flags_cached
        monkeypatch.setattr(counting, "enumerate_isotropic_flags_cached",
                            lambda space: real(space) + [outside])
        code, payload = run_json(capsys, "count", "--type", "B",
                                 "--shape", "1", "--kappa", "1", "--q", "3")
        res = payload["result"]
        assert code == 1 and not res["double_count_consistent"]
        assert res["count"] == 5 * 6 and res["row_count"] == 8 * 4

    def test_lost_unipotent_exits_1(self, capsys, monkeypatch):
        # a group list short of one unipotent fails Steinberg's count
        real = counting.enumerate_group_cached

        def short(space):
            group = real(space)
            one = counting.mat_identity(space.nu)
            return counting.GroupEnum(
                space, [g for g in group.elements if g != one],
                group.generators, group.kept)

        monkeypatch.setattr(counting, "enumerate_group_cached", short)
        code, _out, err = run(capsys, "count", "--type", "C",
                              "--shape", "1", "--q", "3")
        assert code == 1 and "verification failed" in err
        assert "8 unipotent elements, not the 9" in err

    def test_sweep_covers_the_registry(self, capsys):
        code, payload = run_json(capsys, "sweep", "--total", "2")
        assert code == 0
        res = payload["result"]
        got = [(tuple(c["shape"]["parts"]), c["shape"]["kappa"], c["mode"],
                c["field_name"]) for c in res["cases"]]
        want = [(shape.parts, shape.kappa, mode, name)
                for shape, mode in sweep_cases(2)
                for name, _field in fields_for(mode, shape.kappa)]
        assert got == want and res["models"] == len(want) == 40
        assert all(c["checks"]["intertwiner"] for c in res["cases"])

    def test_sweep_failed_split_exits_1(self, capsys, monkeypatch):
        real = cli.split_check
        monkeypatch.setattr(cli, "split_check", lambda model, cut:
                            dict(real(model, cut), **{"pass": False}))
        code, payload = run_json(capsys, "sweep", "--total", "2")
        assert code == 1
        failed = [c["shape"]["parts"] for c in payload["result"]["cases"]
                  if not all(c["checks"]["split"].values())]
        assert [1, 1] in failed

    def test_identities(self, capsys):
        code, payload = run_json(capsys, "identities", "--kmax", "4")
        assert code == 0
        assert all(r["holds"] for r in payload["result"]["results"])

    def test_conjecture210(self, capsys):
        code, payload = run_json(capsys, "conjecture210", "--kmax", "4")
        assert code == 0
        rows = payload["result"]["results"]
        assert [r["matches"] for r in rows] == [True, True, True]


# count inputs that are handled as usage errors before any enumeration
COUNT_USAGE_ERRORS = [
    (("count", "--q", "3"), "needs --type and --q"),
    (("count", "--type", "A", "--n", "2"), "needs --type and --q"),
    (("count", "--type", "A", "--q", "3"), "needs --n"),
    (("count", "--type", "C", "--shape", "2,x", "--q", "3"), "bad shape"),
    (("count", "--type", "C", "--shape", "1", "--q", "2"), "odd q"),
    (("count", "--type", "C", "--shape", "1", "--kappa", "1", "--q", "3"),
     "even dimension"),
    # each type reads either --n or a shape, and rejects the other
    (("count", "--type", "A", "--n", "2", "--q", "3", "--shape", "2"),
     "does not read --shape"),
    (("count", "--type", "A", "--n", "2", "--q", "3", "--shape", "2",
      "--kappa", "1"), "does not read --shape"),
    (("count", "--type", "A", "--n", "2", "--q", "3", "--kappa", "1"),
     "does not read --kappa"),
    (("count", "--type", "A", "--n", "2", "--q", "3", "--kappa", "0"),
     "does not read --kappa"),
    (("count", "--type", "C", "--n", "9", "--shape", "1", "--q", "3"),
     "does not read --n"),
]
COUNT_USAGE_IDS = ["count-no-type", "count-no-q", "type-a-no-n",
                   "shape-not-int", "form-q-2", "symplectic-odd-nu",
                   "type-a-shape", "type-a-shape-kappa", "type-a-kappa",
                   "type-a-kappa-0", "type-c-n"]


class TestExitCodes:
    def test_usage_error_missing_shape(self, capsys):
        code, _out, err = run(capsys, "build")
        assert code == 2 and "usage error" in err

    def test_usage_error_bad_mode(self, capsys):
        code, _out, err = run(capsys, "build", "--shape", "1",
                              "--mode", "weird")
        assert code == 2

    def test_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2

    def test_foreign_option_rejected(self, capsys):
        # --q belongs to count only
        with pytest.raises(SystemExit) as exc:
            main(["psi", "--shape", "2,1", "--q", "3"])
        assert exc.value.code == 2

    def test_resource_bound(self, capsys):
        code, _out, err = run(capsys, "count", "--type", "A",
                              "--n", "5", "--q", "5")
        assert code == 3 and "resource bound" in err

    @pytest.mark.parametrize("argv, fragment", [
        (("count", "--type", "A", "--n", "2", "--q", "4"), "prime"),
        # type B needs an odd dimension; shape (2), kappa 0 gives nu = 4
        (("count", "--type", "B", "--shape", "2", "--q", "3"), "nu = 4"),
        (("gram", "--mode", "orthogonal", "--shape", "2"), "invalid"),
        (("build", "--mode", "orthogonal", "--shape", "1", "--kappa", "1",
          "--field", "gf:2"), "characteristic"),
        (("count", "--type", "A", "--n", "3", "--q", "3", "--gamma", "x"),
         "bad gamma"),
        (("count", "--type", "A", "--n", "3", "--q", "3", "--gamma", "2"),
         "sum to nu = 3"),
        (("count", "--type", "A", "--n", "3", "--q", "3", "--gamma", "0,3"),
         "positive"),
        (("count", "--type", "A", "--n", "0", "--q", "3"), "nu = 0"),
        (("count", "--type", "A", "--n", "-1", "--q", "3"), "nu = -1"),
        (("gram", "--shape", "1", "--field", "gf:3,0"), "degree 0"),
        (("gram", "--shape", "1", "--field", "gf:3,-1"), "degree -1"),
        (("gram", "--shape", "1", "--window", "-3"), "window -3"),
        (("identities", "--window", "-1"), "--window -1"),
        (("identities", "--kmax", "0", "--window", "0"), "--kmax 0"),
        (("conjecture210", "--kmax", "1"), "--kmax 1"),
        (("sweep", "--total", "0"), "--total 0"),
    ] + COUNT_USAGE_ERRORS, ids=[
        "nonprime-q", "count-parity", "shape-mode", "orthogonal-char2",
        "gamma-not-int", "gamma-sum", "gamma-zero", "n-zero", "n-negative",
        "degree-zero", "degree-negative", "gram-window", "identities-window",
        "identities-kmax", "conjecture-kmax", "sweep-total"]
        + COUNT_USAGE_IDS)
    def test_bad_input_is_usage_error(self, capsys, argv, fragment):
        code, _out, err = run(capsys, *argv)
        assert code == 2 and "usage error" in err and fragment in err

    @pytest.mark.parametrize("argv, fragment", COUNT_USAGE_ERRORS,
                             ids=COUNT_USAGE_IDS)
    def test_count_usage_errors_without_asserts(self, argv, fragment):
        # the count's input checks raise, not assert, so python -O keeps
        # them
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "isoflag.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and "usage error" in proc.stderr
        assert fragment in proc.stderr

    def test_failed_group_gate_exits_1(self, capsys, monkeypatch):
        # a generator that is no isometry must stop the count with a
        # message, not a traceback
        real = counting._generators
        monkeypatch.setattr(counting, "_GROUP_CACHE", {})
        monkeypatch.setattr(counting, "_generators", lambda space:
                            real(space) + [((2, 0), (0, 1))])
        code, _out, err = run(capsys, "count", "--type", "C",
                              "--shape", "1", "--q", "5")
        assert code == 1 and "verification failed" in err
        assert "does not preserve the form" in err

    def test_runaway_closure_exits_1(self, capsys, monkeypatch):
        # a reflection is an isometry outside SO3, so the closure outgrows
        # the order formula and the count stops with a message
        real = counting._generators
        reflection = ((1, 0, 0), (0, 2, 0), (0, 0, 1))
        monkeypatch.setattr(counting, "_GROUP_CACHE", {})
        monkeypatch.setattr(counting, "_generators", lambda space:
                            real(space) + [reflection])
        code, _out, err = run(capsys, "count", "--type", "B", "--shape", "1",
                              "--kappa", "1", "--q", "3")
        assert code == 1 and "verification failed" in err
        assert "more than the formula 24" in err

    def test_singular_half_level_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(gram, "solve_linear", lambda a, b: NoSolution())
        code, _out, err = run(capsys, "gram", "--shape", "1", "--kappa", "1",
                              "--mode", "orthogonal")
        assert code == 1 and "verification failed" in err
        assert "half level" in err

    def test_vanishing_level_scale_exits_1(self, capsys, monkeypatch):
        # (2, 1)'s one window level, 1, gets nu = 0 from a zero L
        monkeypatch.setattr(gram.GramTable, "_apply",
                            lambda self, K, t, e: self.field.zero)
        code, _out, err = run(capsys, "gram", "--shape", "2,1",
                              "--mode", "orthogonal")
        assert code == 1 and "verification failed" in err
        assert "level 1's scale nu is 0" in err

    def test_tractability_bound_names_bound_and_value(self, capsys):
        code, _out, err = run(capsys, "count", "--type", "C",
                              "--shape", "4", "--q", "3")
        assert code == 3 and "resource bound" in err
        assert "nu = 8" in err and "bound 7" in err

    def test_group_order_bound_names_bound_and_value(self, capsys):
        code, _out, err = run(capsys, "count", "--type", "A",
                              "--n", "4", "--q", "5")
        assert code == 3 and "resource bound" in err
        assert "116064000000" in err and "MAX_GROUP_ORDER = 1000000" in err

    def test_scan_cap_names_bound_and_value(self, capsys):
        # GF(11^3) extends to GF(11^6), whose 1771561 elements are more
        # than the embedding search may scan
        code, _out, err = run(capsys, "gram", "--shape", "2,1", "--kappa",
                              "1", "--mode", "orthogonal-odd", "--field",
                              "gf:11,3")
        assert code == 3 and "resource bound" in err
        assert "q = 1771561" in err and "FINITE_SCAN_CAP = 1000000" in err

    def test_every_package_exception_has_an_exit_code(self, capsys,
                                                      monkeypatch):
        # an exception class of the package that main does not map would
        # end a run with a traceback instead of exit 1, 2 or 3
        classes = [obj for info in pkgutil.iter_modules(isoflag.__path__)
                   for obj in vars(importlib.import_module(
                       f"isoflag.{info.name}")).values()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and obj.__module__.startswith("isoflag.")]
        assert {"NotNilpotent", "IsotropyViolation",
                "BoundExceeded"} <= {c.__name__ for c in classes}

        def raise_(cls):
            raise cls("probe")

        for cls in classes:
            monkeypatch.setitem(cli.COMMANDS, "psi",
                                lambda args, cls=cls: raise_(cls))
            code, _out, err = run(capsys, "psi", "--shape", "1")
            assert code in (1, 2, 3) and "probe" in err, cls

    def test_increasing_shape_rejected_without_asserts(self):
        # python -O strips assert statements; shape validation must not
        # depend on them
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "isoflag.cli", "psi",
             "--shape", "1,3"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and "usage error" in proc.stderr


class TestStandardLibraryOnly:
    def test_runs_without_sympy(self):
        # the package needs no third-party module: with sympy made
        # unimportable, the CLI still builds extension fields and runs
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys\n"
                "sys.modules['sympy'] = None\n"
                "from isoflag import cli\n"
                "from isoflag.fields import get_finite_field\n"
                "assert get_finite_field(3, 2).modulus == (1, 0, 1)\n"
                "assert get_finite_field(2, 3).modulus == (1, 1, 0, 1)\n"
                "sys.exit(cli.main(['psi', '--shape', '2,1']))\n")
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["psi"] == [1, -1]


class TestOutputFormats:
    def test_deterministic_json(self, capsys):
        _code, p1 = run_json(capsys, "psi", "--shape", "2,1")
        _code, p2 = run_json(capsys, "psi", "--shape", "2,1")
        p1["manifest"].pop("wall_time_s")
        p2["manifest"].pop("wall_time_s")
        assert p1 == p2

    def test_csv(self, capsys):
        code, out, _err = run(capsys, "psi", "--shape", "2,1",
                              "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("result.psi[0],1") for line in lines)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _err = run(capsys, "psi", "--shape", "2,1",
                              "--out", str(target))
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert payload["result"]["psi"] == [1, -1]
