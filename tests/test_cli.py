import argparse
import dataclasses
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from gauss_deficit import cli, inequalities
from gauss_deficit.cli import COMMANDS, RunConfig, flow_trace, main, run
from gauss_deficit.hamilton_jacobi import (beta_of_a, hj_hc_check,
                                           quadratic_datum)
from gauss_deficit.numerics import ParameterError, gauss_hermite_rule
from gauss_deficit.reports import DeficitReport


# the names of the curvature hypotheses, one per report
CURVATURE_HYPOTHESES = ("semi-log", "hessian-", "(log v)''", "log f1''")


def small(command, **kw):
    kw.setdefault("count", 3)
    kw.setdefault("grid_n", 1025)
    kw.setdefault("gh_nodes", 64)
    return RunConfig(command=command, **kw)


class TestRunConfig:
    def test_unknown_command_rejected(self):
        with pytest.raises(ParameterError):
            RunConfig(command="verify-nothing")

    def test_from_sources_flag_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 3.0\ncount = 7  # comment\n\n# full line\n")
        c = RunConfig.from_sources("verify-lsi", str(cfg), {"beta": 4.0})
        assert c.beta == 4.0  # flag overrides file
        assert c.count == 7
        assert isinstance(c.count, int)

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("betas = 3.0\n")
        with pytest.raises(ParameterError):
            RunConfig.from_sources("verify-lsi", str(cfg), {})

    def test_command_not_a_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = verify-hc\n")
        with pytest.raises(ParameterError):
            RunConfig.from_sources("verify-lsi", str(cfg), {})


# two values per RunConfig parameter, as a flag or a config-file line
# writes them, and the type each is read as
FIELD_SAMPLES = {
    "beta": ("2.5", "3", float), "p": ("2", "1.5", float),
    "q": ("4", "5", float), "tau": ("1", "0.5", float),
    "a": ("1", "2", float), "count": ("2", "5", int),
    "seed": ("3", "4", int), "grid_lo": ("-12", "-10", float),
    "grid_hi": ("12", "10", float), "grid_n": ("2049", "1025", int),
    "gh_nodes": ("32", "48", int), "tol": ("1e-6", "1e-7", float),
    "out": ("x.csv", "y.json", str), "format": ("csv", "json", str),
}
# every subcommand's flags, besides -h
FLAGS = {"--beta", "--p", "--q", "--tau", "--a", "--count", "--seed",
         "--grid-lo", "--grid-hi", "--grid-n", "--gh-nodes", "--tol", "--out",
         "--format", "--config"}


def _flag_args(column: int):
    args = []
    for key, sample in FIELD_SAMPLES.items():
        args += ["--" + key.replace("_", "-"), sample[column]]
    return args


def _config_file(tmp_path, column: int) -> str:
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {sample[column]}\n"
                            for key, sample in FIELD_SAMPLES.items()))
    return str(path)


def _main_config(monkeypatch, argv) -> RunConfig:
    """The RunConfig that main builds from argv, caught before any item
    runs."""
    seen = []

    def capture(config):
        seen.append(config)
        raise ParameterError("caught")

    monkeypatch.setattr(cli, "run", capture)
    monkeypatch.setattr(cli, "flow_trace", capture)
    assert main(argv) == 2
    return seen[0]


def _assert_read_as(config: RunConfig, column: int):
    for key, sample in FIELD_SAMPLES.items():
        cast = sample[2]
        assert type(getattr(config, key)) is cast, key
        assert getattr(config, key) == cast(sample[column]), key


class TestDerivedFlags:
    def test_samples_cover_every_field(self):
        names = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(FIELD_SAMPLES) == names - {"command"}

    def test_each_command_accepts_exactly_the_flags(self):
        parser = cli._build_parser()
        subs = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
        assert set(subs.choices) == set(COMMANDS)
        for sub in subs.choices.values():
            flags = {o for a in sub._actions for o in a.option_strings}
            assert flags - {"-h", "--help"} == FLAGS

    @pytest.mark.parametrize("command", COMMANDS)
    def test_flags_read_as_the_field_type(self, monkeypatch, command):
        _assert_read_as(_main_config(monkeypatch, [command, *_flag_args(0)]),
                        0)

    def test_config_keys_read_as_the_field_type(self, monkeypatch, tmp_path):
        config = _main_config(monkeypatch, [
            "verify-lsi", "--config", _config_file(tmp_path, 0)])
        _assert_read_as(config, 0)

    def test_flag_beats_file_for_every_key(self, monkeypatch, tmp_path):
        config = _main_config(monkeypatch, [
            "verify-lsi", "--config", _config_file(tmp_path, 0),
            *_flag_args(1)])
        _assert_read_as(config, 1)

    def test_unknown_format_exit_two(self, capsys):
        assert main(["verify-lsi", "--format", "xml"]) == 2
        err = capsys.readouterr().err
        assert err == "gauss-deficit: unknown format 'xml'\n"


class TestRun:
    def test_hj_suites_read_gh_nodes(self):
        config = RunConfig.from_sources("verify-hj", None,
                                        {"gh_nodes": 8, "count": 1})
        a, beta = config.a, config.beta
        f = quadratic_datum(a, beta_of_a(a, beta), config.grid())
        want = hj_hc_check(f, a, config.tau, beta, rule=gauss_hermite_rule(8))
        got = run(config).reports[0]
        assert got.to_dict() == want.to_dict()
        default = run(RunConfig(command="verify-hj", count=1)).reports[0]
        assert got.lhs != default.lhs

    def test_matrix_suite_reads_gh_nodes(self, monkeypatch):
        # no cap: --gh-nodes governs the matrix checks as every other suite
        rules, check = [], cli.matrix_check

        def recording(v1, v2, B, which, rule, triple=None):
            rules.append(rule)
            return check(v1, v2, B, which, rule, triple)

        monkeypatch.setattr(cli, "matrix_check", recording)
        run(RunConfig(command="verify-matrix", gh_nodes=96, count=3))
        assert [r.nodes.size for r in rules] == [96] * 3

    def test_lsi_suite_passes_with_extremiser(self):
        b = run(small("verify-lsi", beta=2.0))
        assert b.all_pass
        assert b.summary["count"] == 3
        assert b.summary["max_abs_extremiser_slack"] < 1e-9
        assert b.reports[0].slack == pytest.approx(0, abs=1e-9)

    def test_deterministic_modulo_timing(self):
        b1 = run(small("verify-hc", seed=3))
        b2 = run(small("verify-hc", seed=3))
        d1, d2 = b1.to_dict(), b2.to_dict()
        d1.pop("timing_ms"), d2.pop("timing_ms")
        assert d1 == d2

    def test_seed_changes_random_items(self):
        b1 = run(small("verify-talagrand", seed=0))
        b2 = run(small("verify-talagrand", seed=1))
        # item 0 is the deterministic extremiser; later items are sampled
        assert b1.reports[0].slack == b2.reports[0].slack
        assert b1.reports[2].slack != b2.reports[2].slack

    def test_single_worker_equivalent(self):
        config = small("verify-lsi", seed=5)
        b1 = run(config)
        tasks, _ = cli._SUITES["verify-lsi"](config)
        assert cli._worker_count() == 1
        assert [r.slack for r in b1.reports] == [t().slack for t in tasks]

    @pytest.mark.parametrize("command", [
        "verify-lsi", "verify-reverse-hc", "verify-talagrand"])
    def test_item_depends_only_on_seed_and_index(self, command):
        b3 = run(small(command, seed=5, count=3))
        b6 = run(small(command, seed=5, count=6))
        assert ([r.to_dict() for r in b3.reports]
                == [r.to_dict() for r in b6.reports[:3]])

    def test_items_run_in_order_on_calling_thread(self, monkeypatch):
        seen = []
        builder = cli._SUITES["verify-lsi"]

        def record(i, task):
            seen.append((threading.get_ident(), i))
            return task()

        def recording(config):
            tasks, extremisers = builder(config)
            return ([lambda i=i, t=t: record(i, t)
                     for i, t in enumerate(tasks)], extremisers)

        monkeypatch.setitem(cli._SUITES, "verify-lsi", recording)
        run(small("verify-lsi", count=5))
        assert seen == [(threading.get_ident(), i) for i in range(5)]

    def test_flow_trace_not_runnable_via_run(self):
        with pytest.raises(ParameterError):
            run(small("flow-trace"))

    def test_sharp_constants_content(self):
        b = run(RunConfig(command="sharp-constants"))
        names = {r.inequality for r in b.reports}
        assert {"lsi_gauss", "hc_ratio", "talagrand_gauss",
                "mikulincer", "beckner_b", "hj_t", "bl_h"} <= names
        assert b.all_pass

    def test_extremiser_summary_only_where_equality_is_proved(self):
        assert "max_abs_extremiser_slack" in run(small("verify-hc")).summary
        for command in ("verify-poincare", "verify-beckner"):
            assert "max_abs_extremiser_slack" not in run(
                small(command)).summary

    @pytest.mark.parametrize("beta", [2.0, 0.5])
    def test_summary_names_the_betas_that_ran(self, beta):
        # same-sign items run at 2 unless --beta > 1, opposite-sign ones at
        # 0.5 unless --beta < 1: both betas run whatever --beta is
        b = run(small("verify-reverse-hc", beta=beta, count=4))
        assert b.summary["betas"] == [0.5, 2.0]
        assert json.loads(b.to_json())["summary"]["betas"] == [0.5, 2.0]
        assert run(small("verify-lsi", beta=beta)).summary["betas"] == [beta]
        # no report of verify-matrix carries a beta
        assert "betas" not in run(small("verify-matrix", count=1)).summary

    # verify-general-lsi needs beta > 1
    @pytest.mark.parametrize("beta, command", [
        (beta, command) for beta in (2.0, 0.5) for command in (
            "verify-hc", "verify-reverse-hc", "verify-lsi",
            "verify-talagrand", "verify-poincare", "verify-beckner",
            "verify-general-lsi", "verify-matrix", "verify-bl")
        if beta > 1 or command != "verify-general-lsi"])
    def test_gaussian_item_margin_is_exact(self, beta, command):
        # item 0 is a Gaussian (for Poincare and Beckner f = (gamma_beta/
        # gamma)^{1/p}, so gamma f^p = gamma_beta) whose curvature meets the
        # bound with equality, on the default grid; only verify-bl at
        # beta < 1 certifies gamma_beta at 1, where the exact margin is
        # 1 - 1/beta
        report = run(RunConfig(command=command, beta=beta,
                               count=1)).reports[0]
        (hyp,) = [h for h in report.hypotheses
                  if any(k in h.name for k in CURVATURE_HYPOTHESES)]
        exact = 1.0 - 1.0 / beta if command == "verify-bl" and beta < 1 else 0
        assert abs(hyp.margin - exact) <= 1e-12

    @pytest.mark.parametrize("command", ["verify-poincare", "verify-beckner"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixture_item_margins_are_the_posterior_moments(self, command,
                                                            seed):
        # items > 0 at beta = 2: gamma f^p is the FP-class input v, so the
        # margin is that of v's own (log v)'' from its component posterior
        config = RunConfig(command=command, count=4, seed=seed)
        x = config.grid().points
        for i, report in enumerate(run(config).reports[1:], 1):
            v = cli._density(config, i)
            want = np.min(v.tag.d2log(x)[2:-2]) + 1.0 / config.beta
            (hyp,) = report.hypotheses
            assert hyp.margin == pytest.approx(want, rel=0, abs=1e-12)

    def test_counterexample_mixture_series(self):
        b = run(RunConfig(command="counterexample-mixture"))
        slacks = [r.slack for r in b.reports]
        assert slacks[0] == pytest.approx(0, abs=1e-9)
        assert slacks[-1] < 0  # a = 4 violates the unhypothesised bound
        assert not b.reports[-1].asserted
        assert b.all_pass  # failure of the certificate is the point


class TestBundleSerialization:
    def test_json_round_trip(self):
        b = run(small("verify-lsi"))
        assert json.loads(b.to_json()) == b.to_dict()

    def test_csv_shape(self):
        b = run(small("verify-lsi"))
        lines = b.to_csv().strip().splitlines()
        assert lines[0].startswith("index,inequality,lhs")
        assert len(lines) == 1 + len(b.reports)
        # repr floats survive exact round trip
        slack = float(lines[1].split(",")[5])
        assert slack == b.reports[0].slack


class TestMain:
    def test_exit_zero_and_json_output(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["verify-lsi", "--count", "2", "--grid-n", "1025",
                     "--gh-nodes", "64", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["summary"]["failed"] == 0

    def test_csv_extension_resolves_format(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["verify-lsi", "--count", "2", "--grid-n", "1025",
                     "--gh-nodes", "64", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("index,inequality")

    def test_explicit_format_beats_extension(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["verify-lsi", "--count", "2", "--grid-n", "1025",
                     "--gh-nodes", "64", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        json.loads(out.read_text())

    def test_underflowing_grid_values_with_log_closures(self, tmp_path):
        # gamma_0.25 underflows to 0 at +-20; the certificates read log
        # closures there, not the grid values
        out = tmp_path / "r.json"
        code = main(["verify-lsi", "--beta", "0.25", "--grid-lo", "-20",
                     "--grid-hi", "20", "--count", "3", "--out", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["reports"]) == 3

    @pytest.mark.parametrize("slack", [2e-5, -2e-5, float("nan")])
    def test_equality_gate_fails_either_side(self, slack):
        # a case of equality fails when |slack| > tol on either side; the
        # same report at any other index only below -tol
        r = DeficitReport("x", 0.0, slack, 0.0)
        assert cli._summarize([r], [0], 1e-5)["failed"] == 1
        assert cli._summarize([r], [], 1e-5)["failed"] == (slack < 0
                                                          or slack != slack)
        assert cli._summarize([r], [0], 1e-4)["failed"] == (slack != slack)

    def test_weakened_constant_exits_one(self, tmp_path, monkeypatch):
        # the LSI constant 0.1 % too large in the favourable direction
        # leaves slack 9.7e-5 at the Gaussian: it passes as an inequality
        # and fails as a case of equality
        exact = inequalities.sharp_constant
        monkeypatch.setattr(inequalities, "sharp_constant",
                            lambda name, **kw: exact(name, **kw) * 0.999)
        out = tmp_path / "r.json"
        assert main(["verify-lsi", "--count", "1", "--grid-n", "1025",
                     "--out", str(out)]) == 1
        report = json.loads(out.read_text())["reports"][0]
        assert 1e-5 < report["slack"] < 1e-4

    def test_coarse_rule_fails_at_the_extremiser(self, tmp_path):
        # 16 GH nodes read the LSI of gamma_0.25 1.1e-2 above its constant
        out = tmp_path / "r.json"
        assert main(["verify-lsi", "--gh-nodes", "16", "--beta", "0.25",
                     "--count", "1", "--out", str(out)]) == 1
        assert json.loads(out.read_text())["summary"]["failed"] == 1

    def test_usage_error_exit_two(self):
        # p outside the forward regime is a parameter error, not a failure
        assert main(["verify-hc", "--p", "0.5"]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--beta", "nan"], ["--beta", "-1"], ["--tol", "-1"],
        ["--tol", "inf"], ["--p", "nan"], ["--grid-lo=-inf"],
        ["--grid-n", "3"], ["--gh-nodes", "1"], ["--seed", "-1"],
        ["--count", "0"]])
    def test_bad_numeric_flag_exit_two(self, flags, capsys):
        assert main(["verify-lsi", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gauss-deficit: ")
        assert err.count("\n") == 1  # one line, no traceback

    def test_gh_nodes_up_to_the_last_positive_rule(self, capsys):
        # hermegauss's weights stay positive up to 370 nodes; from 371 on
        # they underflow, and the flag is refused before any item runs
        assert main(["verify-hc", "--gh-nodes", "370", "--count", "2"]) == 0
        capsys.readouterr()
        assert main(["verify-hc", "--gh-nodes", "371", "--count", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("gauss-deficit: gh_nodes=371")
        assert err.count("\n") == 1  # one line, no traceback

    def test_package_error_exit_two(self, capsys):
        # on [-3, 3] v^2/gamma_beta still climbs at the grid's edge: the
        # check raises IntegrabilityError, and no report can be written
        assert main(["verify-hc", "--grid-lo", "-3", "--grid-hi", "3",
                     "--count", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("gauss-deficit: ") and "gamma_beta" in err
        assert err.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize("command", ["verify-hc", "flow-trace"])
    @pytest.mark.parametrize("missing", [True, False])
    def test_unwritable_out_exit_two(self, tmp_path, capsys, command,
                                     missing):
        # a missing directory, or a directory as --out: the run finished
        # but its report cannot be written, a usage error told in one line,
        # not a failed check
        out = tmp_path / "absent" / "r.json" if missing else tmp_path
        assert main([command, "--count", "1", "--grid-n", "1025",
                     "--gh-nodes", "64", "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("gauss-deficit: ")
        assert err.count("\n") == 1  # one line, no traceback

    def test_bad_config_file_value_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = nan\n")
        assert main(["verify-lsi", "--config", str(cfg)]) == 2
        assert "beta" in capsys.readouterr().err

    def test_python_dash_m_runs_cleanly(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                   PYTHONWARNINGS="error")
        done = subprocess.run(
            [sys.executable, "-m", "gauss_deficit", "sharp-constants"],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "Warning" not in done.stderr
        assert json.loads(done.stdout)["summary"]["failed"] == 0
        bad = subprocess.run(
            [sys.executable, "-m", "gauss_deficit", "verify-hc", "--beta",
             "nan"], capture_output=True, text=True, env=env, timeout=120)
        assert bad.returncode == 2
        assert "Traceback" not in bad.stderr

    def test_suites_run_without_scipy(self):
        # scipy is a test oracle only: no suite may load it, even lazily
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = (
            "import sys\n"
            "import gauss_deficit as gd\n"
            "from gauss_deficit import cli\n"
            "for name in cli._SUITES:\n"
            "    gd.run(cli.RunConfig(command=name, count=1))\n"
            "gd.flow_trace(cli.RunConfig(command='flow-trace', count=1))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "[]"

    def test_flow_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["flow-trace", "--count", "2", "--grid-n", "1025",
                     "--gh-nodes", "64", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,Q,certificate_margin,mass"
        assert "non-decreasing" in lines[-1]
        qs = [float(l.split(",")[1]) for l in lines[1:-1]]
        assert all(b >= a - 1e-7 for a, b in zip(qs, qs[1:]))


class TestFlowTrace:
    def test_reverse_regime(self):
        rows, verdict = flow_trace(small("flow-trace", p=-2.0, q=-4.0,
                                         beta=2.0, count=1))
        assert verdict == "non-decreasing"
        assert len(rows) == 8
        for t, qv, margin, mass in rows:
            assert margin >= -1e-4
            assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("tol, code, verdict", [
        (None, 0, "non-decreasing"), ("0", 1, "violates non-decreasing")])
    def test_verdict_reads_tol(self, monkeypatch, capsys, tol, code,
                               verdict):
        # Q falls by 1e-6 at one step: within the default tol 1e-5 of
        # max(1, max |Q|) = 1, past tol 0
        series = iter([1.0] * 4 + [1.0 - 1e-6] * 4)
        monkeypatch.setattr(cli, "q_functional",
                            lambda v, triple, rule: next(series))
        argv = ["flow-trace", "--grid-n", "1025", "--gh-nodes", "64"]
        assert main(argv + ([] if tol is None else ["--tol", tol])) == code
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last == f"verdict,{verdict},,"

    def test_rejects_small_beta(self):
        with pytest.raises(ParameterError):
            flow_trace(small("flow-trace", beta=0.5))

    def test_rejects_mixed_sign_exponents(self):
        with pytest.raises(ParameterError):
            flow_trace(small("flow-trace", p=0.5, q=-1.0))


class TestGeneralLSISuite:
    def test_symmetry_read_through_the_closures(self, capsys):
        # x -> -x is not a reversal of the nodes on [-10, 12]: v and V are
        # compared with their closures at -x, so the symmetric inputs pass,
        # and item 2 fails only the tail hypothesis (|V'| v = 3.6e-8 at -10)
        assert main(["verify-general-lsi", "--count", "3", "--grid-lo", "-10",
                     "--grid-hi", "12"]) == 0
        bundle = json.loads(capsys.readouterr().out)
        assert bundle["summary"]["asserted"] == 2
        for report in bundle["reports"]:
            sym = [h for h in report["hypotheses"] if h["name"] == "symmetry"]
            assert sym[0]["pass"] and sym[0]["margin"] == 0.0
        failed = [h["name"] for h in bundle["reports"][2]["hypotheses"]
                  if not h["pass"]]
        assert failed == ["|V'| v -> 0"]

    def test_beta_at_most_one_exits_two(self, capsys):
        # the suite runs at the beta asked for, and the statement needs
        # beta > 1: one line, no report
        assert main(["verify-general-lsi", "--beta", "0.5",
                     "--count", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "gauss-deficit: requires beta > 1\n"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_slack_does_not_see_the_grid_spacing(self, seed):
        # V', V'' and (log v)' are exact, and the trapezoid sums of the
        # smooth integrands, decayed at the grid's ends, converge spectrally
        slacks = [[r.slack for r in run(RunConfig(
            command="verify-general-lsi", seed=seed, count=6,
            grid_n=n)).reports] for n in (4097, 16385)]
        np.testing.assert_allclose(slacks[1], slacks[0], rtol=0, atol=1e-12)


# the suites that need beta > 1
BETA_ABOVE_ONE = ("verify-hj", "verify-dual-talagrand", "verify-general-lsi")


def _every_suite():
    """(name, run) of every suite at beta 2 and 0.5 (count 3), and of
    flow-trace."""
    for beta in (2.0, 0.5):
        for command in cli._SUITES:
            if beta < 1 and command in BETA_ABOVE_ONE:
                continue
            config = RunConfig(command=command, beta=beta, count=3)
            yield f"{command} beta={beta}", lambda c=config: run(c)
    yield "flow-trace", lambda: flow_trace(RunConfig(command="flow-trace",
                                                     count=3))


def _certify_tol(beta_c):
    """A curvature certificate's tolerance, 1e-4 over the beta it ran at."""
    return lambda params: 1e-4 / beta_c(params)


# the tolerance each hypothesis is judged at, by name, from its report's
# params: loosening a gate changes this table
GATE_TOLS = {
    "beta-semi-log-subharmonic": _certify_tol(lambda p: max(p["beta"], 1.0)),
    "beta-semi-log-concave": _certify_tol(lambda p: min(p["beta"], 1.0)),
    "log f1'' >= -1/beta": _certify_tol(lambda p: max(p["beta"], 1.0)),
    "log f1'' <= -1/beta": _certify_tol(lambda p: min(p["beta"], 1.0)),
    "semi-log-convex(beta)": _certify_tol(lambda p: p["beta"]),
    "semi-log-concave(beta)": _certify_tol(lambda p: p["beta"]),
    "(log v)''>=-K/beta": _certify_tol(lambda p: p["beta"] / p["K"]),
    "hessian-convex-vs-B": 1e-4, "hessian-concave-vs-B": 1e-4,
    "V''>=K": 1e-4, "V''<=L": 1e-4,
    "log-concave": 1e-6, "laplacian>=1-1/beta": 1e-6,
    "symmetry": 1e-8, "|V'| v -> 0": 1e-8,
    # the regime and integrability checks
    "beta>1-for-pq>0": 0.0, "beta<1-for-pq<0": 0.0, "beta>1": 0.0,
    "beta<1": 0.0, "beta(1-1/a)<1": 0.0, "exp-moment-integrable": 0.0,
    "exp-moment-integrable(a=0.01)": 0.0,
    "exp-moment-integrable(a=0.005)": 0.0,
}


class TestGateTolerances:
    def test_every_hypothesis_carries_its_gate(self):
        seen = set()
        for _, task in _every_suite():
            result = task()
            for report in getattr(result, "reports", ()):
                for h in report.hypotheses:
                    want = GATE_TOLS[h.name]
                    if callable(want):
                        want = want(report.params)
                    assert h.tol == want, (report.inequality, h.name)
                    assert h.passed == (h.margin >= -want)
                    seen.add(h.name)
        # no suite reaches the reverse Brascamp-Lieb cases
        assert seen == set(GATE_TOLS) - {"beta<1", "log f1'' <= -1/beta"}


class TestDefaultRuleCallers:
    @pytest.mark.parametrize("command", ["verify-talagrand",
                                         "counterexample-mixture"])
    def test_gh_nodes_reaches_the_entropy(self, command):
        entropies = [[r.params["entropy"] for r in run(RunConfig(
            command=command, count=2, gh_nodes=m)).reports][1]
            for m in (24, 96)]
        assert entropies[0] != entropies[1]


class TestInterpolatedReads:
    def test_closure_built_inputs_are_read_exactly(self, monkeypatch):
        # every input a suite builds carries its exact closure, and every
        # Hopf-Lax datum its exact f' and f'', so the only linear
        # interpolation left is the inverse CDF of brenier_1d, and no suite
        # takes a grid gradient
        interp, gradient = np.interp, np.gradient
        current, interps, gradients = [None], [], []

        def recording(fn, allowed, calls):
            def read(*args, **kw):
                caller = sys._getframe(1).f_code.co_name
                if caller != allowed:
                    calls.append((current[0], caller))
                return fn(*args, **kw)
            return read

        monkeypatch.setattr(np, "interp",
                            recording(interp, "brenier_1d", interps))
        monkeypatch.setattr(np, "gradient",
                            recording(gradient, None, gradients))
        for current[0], task in _every_suite():
            task()
        assert interps == []
        assert gradients == []

    def test_one_grid_gradient_in_the_library(self):
        # caffarelli_check, which no suite runs, reads T' exactly by
        # Monge-Ampere, and hopf_lax reads its datum's exact f': no module
        # takes a grid gradient
        src = os.path.dirname(cli.__file__)
        takers = []
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), encoding="utf-8") as fh:
                    takers += [name] * fh.read().count("np.gradient(")
        assert takers == []


# three grid windows: the default, a narrow coarse one and a wide fine one
WINDOWS = [(-12.0, 12.0, 4097), (-8.0, 8.0, 1025), (-40.0, 40.0, 16385)]


class TestBrascampLiebSuite:
    @pytest.mark.parametrize("beta", [2.0, 0.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_window_leaves_the_bundle(self, seed, beta):
        # the double integral is read by Gauss-Hermite over R^2; the grid
        # only certifies f1 at its nodes, and gamma_beta's (log f1)'' is
        # the same at every node
        bundles = []
        for lo, hi, n in WINDOWS:
            d = run(RunConfig(command="verify-bl", beta=beta, seed=seed,
                              count=6, grid_lo=lo, grid_hi=hi,
                              grid_n=n)).to_dict()
            del d["config"], d["timing_ms"]
            bundles.append(json.dumps(d))
        assert bundles[1:] == bundles[:1] * 2

    @pytest.mark.parametrize("beta", [2.0, 0.5])
    def test_an_item_builds_no_grid_sized_2d_array(self, beta):
        # one 4097^2 array of doubles is 134 MB, a 513^2 level 2.1 MB; an
        # item reads 0.54 MB at its peak on the default grid
        tasks, _ = cli._SUITES["verify-bl"](RunConfig(
            command="verify-bl", beta=beta, count=3))
        for task in tasks:
            tracemalloc.start()
            try:
                task()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1_000_000


class TestHamiltonJacobiSuites:
    @pytest.mark.parametrize("beta", [1.25, 2.0, 4.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_window_leaves_the_bundle(self, seed, beta):
        # Hopf-Lax is read by Newton at the Gauss-Hermite nodes, and the
        # hypotheses from the datum's inf f'' and kappa: the grid only
        # holds the datum's field, which no check reads
        for command in ("verify-hj", "verify-dual-talagrand"):
            bundles = []
            for lo, hi, n in WINDOWS:
                d = run(RunConfig(command=command, beta=beta, seed=seed,
                                  count=6, grid_lo=lo, grid_hi=hi,
                                  grid_n=n)).to_dict()
                del d["config"], d["timing_ms"]
                bundles.append(json.dumps(d))
            assert bundles[1:] == bundles[:1] * 2, command
