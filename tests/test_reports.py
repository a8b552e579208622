import numpy as np
import pytest

from gauss_deficit.numerics import ParameterError
from gauss_deficit.reports import DeficitReport, HypothesisCheck


class TestHypothesisCheck:
    def test_to_dict(self):
        h = HypothesisCheck("curvature", 0.25, 1e-4)
        assert h.to_dict() == {"name": "curvature", "pass": True,
                               "margin": 0.25}

    @pytest.mark.parametrize("tol", [0.0, 1e-8, 1e-4, 0.5])
    def test_passes_down_to_minus_tol(self, tol):
        assert HypothesisCheck("h", -tol, tol).passed
        below = np.nextafter(-tol, -np.inf)
        assert not HypothesisCheck("h", below, tol).passed
        assert HypothesisCheck("h", below, tol).to_dict()["pass"] is False

    def test_default_tolerance_is_zero(self):
        assert HypothesisCheck("regime", 0.0).passed
        assert not HypothesisCheck("regime", -1e-300).passed


class TestDeficitReport:
    def test_build_le(self):
        r = DeficitReport("demo", lhs=1.0, rhs=1.5, sharp_constant=0.5)
        assert r.slack == pytest.approx(0.5)
        assert r.direction == "le"
        assert r.holds and r.asserted

    def test_build_ge(self):
        r = DeficitReport("demo", lhs=2.0, rhs=1.5, sharp_constant=0.5,
                          direction="ge")
        assert r.slack == pytest.approx(0.5)
        assert r.holds

    @pytest.mark.parametrize("direction, slack", [("le", -0.25),
                                                  ("ge", 0.25)])
    def test_slack_and_passes_follow_direction(self, direction, slack):
        r = DeficitReport("demo", 1.25, 1.0, 0.5, direction=direction)
        assert r.slack == slack
        assert r.holds == (slack >= 0)
        assert r.passes(0.25) and r.passes(1.0)
        assert r.passes(0.0) == (slack >= 0)
        assert r.passes(np.nextafter(0.25, 0.0)) == (slack >= 0)

    @pytest.mark.parametrize("direction", ["lt", "LE", "", None])
    def test_unknown_direction_refused(self, direction):
        # any direction but "le" used to read as "ge"
        with pytest.raises(ParameterError, match="direction"):
            DeficitReport("x", 1.0, 2.0, 0.0, direction=direction)

    def test_failed_hypothesis_blocks_assertion(self):
        r = DeficitReport("demo", 1.0, 0.5, 0.5,
                          hypotheses=[HypothesisCheck("h", -0.1, 1e-4)])
        assert not r.asserted
        assert not r.holds  # slack negative, but nothing was claimed
        assert r.passes(0.0)  # nothing claimed, so nothing failed

    def test_to_dict_handles_numpy_scalars(self):
        r = DeficitReport("demo", np.float64(1.0), 2.0, 0.5,
                          params={"x": np.float64(3.0),
                                  "v": np.array([1.0, 2.0])})
        d = r.to_dict()
        assert d["params"]["x"] == 3.0
        assert d["params"]["v"] == [1.0, 2.0]
        assert isinstance(d["params"]["x"], float)
        assert type(d["lhs"]) is float and type(d["slack"]) is float

    def test_to_dict_schema(self):
        r = DeficitReport("demo", 1.0, 2.0, 0.5,
                          hypotheses=(HypothesisCheck("h", 0.1, 1e-4),))
        assert r.to_dict() == {
            "inequality": "demo", "lhs": 1.0, "rhs": 2.0,
            "sharp_constant": 0.5, "slack": 1.0, "direction": "le",
            "hypotheses": [{"name": "h", "pass": True, "margin": 0.1}],
            "params": {}}
