"""Tests for Birkhoff centres and stationary hull rectangles."""

import numpy as np
import pytest

from repro.models import make_sir_model
from repro.steadystate import (
    birkhoff_centre_2d,
    hull_steady_rectangle,
    uncertain_fixed_points,
)


@pytest.fixture(scope="module")
def sir_birkhoff():
    """The paper's Figure-3 region (computed once for the module)."""
    model = make_sir_model()
    return model, birkhoff_centre_2d(model, x0_guess=[0.7, 0.05])


class TestUncertainFixedPoints:
    def test_curve_shape(self, sir_model):
        curve = uncertain_fixed_points(sir_model, resolution=9)
        assert curve.shape == (9, 2)

    def test_fixed_points_have_zero_drift(self, sir_model):
        curve = uncertain_fixed_points(sir_model, resolution=5)
        thetas = sir_model.theta_set.grid(5)
        for fp, theta in zip(curve, thetas):
            assert np.linalg.norm(sir_model.drift(fp, theta)) < 1e-7

    def test_endpoint_fixed_points_match_paper_extremes(self, sir_model):
        curve = uncertain_fixed_points(sir_model, resolution=11)
        # theta = 1 equilibrium: high S, low I; theta = 10: low S, higher I.
        assert curve[0, 0] > 0.85  # S at theta_min
        assert curve[-1, 0] < 0.5  # S at theta_max
        assert curve[-1, 1] > curve[0, 1]  # I increases with theta

    def test_monotone_s_in_theta(self, sir_model):
        curve = uncertain_fixed_points(sir_model, resolution=15)
        assert np.all(np.diff(curve[:, 0]) < 1e-9)


class TestBirkhoffCentre:
    def test_requires_2d(self, gps_map):
        with pytest.raises(ValueError):
            birkhoff_centre_2d(gps_map)

    def test_converged_with_polygon(self, sir_birkhoff):
        _, result = sir_birkhoff
        assert result.converged
        assert not result.degenerate
        assert result.polygon is not None
        assert result.polygon.area > 0.01

    def test_corner_fixed_points_on_boundary_region(self, sir_birkhoff):
        _, result = sir_birkhoff
        for fp in result.corner_fixed_points:
            assert result.contains(fp, tol=1e-3)

    def test_uncertain_fixed_points_inside(self, sir_birkhoff):
        """Figure 3: the uncertain steady states lie in the imprecise region."""
        model, result = sir_birkhoff
        curve = uncertain_fixed_points(model, resolution=11)
        for fp in curve:
            assert result.contains(fp, tol=1e-3)

    def test_region_strictly_larger_than_uncertain_curve(self, sir_birkhoff):
        """Figure 3's key claim: points with smaller S / larger I than any
        uncertain equilibrium belong to the imprecise steady-state set."""
        model, result = sir_birkhoff
        curve = uncertain_fixed_points(model, resolution=21)
        vertices = result.polygon.vertices
        assert vertices[:, 0].min() < curve[:, 0].min() - 0.01
        assert vertices[:, 1].max() > curve[:, 1].max() + 0.01

    def test_distance_and_membership(self, sir_birkhoff):
        _, result = sir_birkhoff
        centroid = result.polygon.centroid
        assert result.contains(centroid)
        assert result.distance(centroid) == 0.0
        assert result.distance([2.0, 2.0]) > 1.0

    def test_region_shrinks_with_theta_range(self, sir_birkhoff):
        _, wide = sir_birkhoff
        narrow_model = make_sir_model(theta_max=2.0)
        narrow = birkhoff_centre_2d(narrow_model, x0_guess=[0.7, 0.05])
        assert narrow.converged
        assert narrow.polygon.area < wide.polygon.area

    def test_degenerate_for_singleton_theta(self):
        model = make_sir_model(theta_min=5.0, theta_max=5.0)
        result = birkhoff_centre_2d(model, x0_guess=[0.7, 0.05])
        assert result.degenerate
        assert result.certified
        # The degenerate region is the unique equilibrium.
        fp = result.corner_fixed_points[0]
        assert np.linalg.norm(model.drift(fp, [5.0])) < 1e-8
        assert result.contains(fp, tol=1e-6)
        assert result.distance(fp) < 1e-6

    def test_history_recorded(self, sir_birkhoff):
        _, result = sir_birkhoff
        assert len(result.history) == result.rounds


class TestHullSteadyRectangle:
    def test_narrow_theta_converges(self):
        model = make_sir_model(theta_max=2.0)
        rect = hull_steady_rectangle(model, [0.7, 0.3])
        assert rect.converged
        assert np.all(rect.widths() >= 0)
        assert np.all(rect.lower >= -0.05)
        assert np.all(rect.upper <= 1.05)

    def test_rectangle_contains_birkhoff_region(self):
        model = make_sir_model(theta_max=2.0)
        rect = hull_steady_rectangle(model, [0.7, 0.3])
        region = birkhoff_centre_2d(model, x0_guess=[0.7, 0.05])
        for vertex in region.polygon.vertices:
            assert rect.contains(vertex, tol=1e-2)

    def test_wide_theta_diverges(self):
        model = make_sir_model(theta_max=6.0)
        rect = hull_steady_rectangle(model, [0.7, 0.3], horizon=50.0)
        assert not rect.converged

    def test_rectangle_contains_uncertain_fixed_points(self):
        model = make_sir_model(theta_max=3.0)
        rect = hull_steady_rectangle(model, [0.7, 0.3])
        curve = uncertain_fixed_points(model, resolution=9)
        for fp in curve:
            assert rect.contains(fp, tol=1e-2)


class TestCatalogGoldenValues:
    """Frozen Birkhoff findings of the catalog's steady-state questions.

    Hard-coded from the scalar-solve growth loop (one ``solve_ivp`` per
    seed and escape trajectory) at each scenario's registered kwargs, so
    the batched growth loop must reproduce the same region, round count
    and memberships.
    """

    #: scenario -> (birkhoff_area, birkhoff_rounds,
    #:              uncertain_fp_inside_region, uncertain_fp_total)
    GOLDEN = {
        "gossip-spread": (0.015622798623272302, 7, 11, 11),
        "repairable-queue": (0.03384545858436354, 6, 81, 81),
        "sir-steadystate": (0.0016575997091359887, 4, 21, 21),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_steadystate_findings_match_frozen_values(self, name):
        from repro.scenarios import get_scenario, run_question

        spec = get_scenario(name)
        question = next(q for q in spec.questions if q.kind == "steadystate")
        findings = run_question(spec, question).findings
        area, rounds, inside, total = self.GOLDEN[name]
        np.testing.assert_allclose(findings["birkhoff_area"], area, rtol=5e-4)
        assert findings["birkhoff_rounds"] == rounds
        assert findings["uncertain_fp_inside_region"] == inside
        assert findings["uncertain_fp_total"] == total
        assert findings["birkhoff_inside_steady_rect"] == 1.0
