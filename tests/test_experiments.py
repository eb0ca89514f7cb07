import numpy as np
import pytest

from mmotlab import Coupling
from mmotlab.experiments import (
    coulomb_equal_space,
    coulomb_perturbed_space,
    run_experiment,
    six_cell_symmetric_plan,
    symmetrized_plan,
    twowell_space,
    xyz_symmetric_space,
)


class TestInstanceBuilders:
    def test_coulomb_equal_space(self):
        space = coulomb_equal_space(5)
        assert space.shape == (5, 5, 5)
        for ax in space.axes:
            assert np.allclose(ax.weights, 0.2)
            assert ax.points[0, 0] == 0.0 and ax.points[-1, 0] == 1.0

    def test_coulomb_perturbed_space_weights_slope(self):
        space = coulomb_perturbed_space(6, seed=0)
        for ax in space.axes:
            assert abs(ax.weights.sum() - 1.0) <= 1e-12
            # increasing underlying profile survives the +-10% jitter on
            # well-separated indices
            assert ax.weights[-1] > ax.weights[0]

    def test_perturbed_space_is_seed_deterministic(self):
        a = coulomb_perturbed_space(6, seed=5)
        b = coulomb_perturbed_space(6, seed=5)
        c = coulomb_perturbed_space(6, seed=6)
        assert np.array_equal(a.axes[0].weights, b.axes[0].weights)
        assert not np.array_equal(a.axes[0].weights, c.axes[0].weights)

    def test_xyz_symmetric_space(self):
        space = xyz_symmetric_space(10)
        pts = space.axes[0].points[:, 0]
        assert len(pts) == 20
        assert np.allclose(sorted(-p for p in pts if p < 0), [p for p in pts if p > 0])
        w = space.axes[0].weights
        assert np.allclose(w[pts < 0], 1 / 30)
        assert np.allclose(w[pts > 0], 2 / 30)

    def test_twowell_space(self):
        space = twowell_space(20)
        assert space.shape == (21, 21, 31)
        assert space.axes[2].points[-1, 0] == pytest.approx(1.5)
        assert abs(space.axes[2].weights.sum() - 1.0) <= 1e-12

    def test_twowell_space_needs_even_steps(self):
        with pytest.raises(ValueError):
            twowell_space(21)

    def test_six_cell_plan(self):
        plan, space = six_cell_symmetric_plan()
        assert len(plan.entries) == 6
        assert space.n == 3

    def test_symmetrized_plan_averages_axis_permutations(self):
        plan, space = six_cell_symmetric_plan()
        assert dict(symmetrized_plan(plan).entries) == pytest.approx(
            dict(plan.entries)
        )
        single = Coupling({(0, 1, 2): 1 / 3, (1, 2, 0): 1 / 3, (2, 0, 1): 1 / 3}, space)
        assert dict(symmetrized_plan(single).entries) == pytest.approx(
            dict(plan.entries)
        )

    def test_symmetrized_plan_needs_identical_axes(self):
        space = coulomb_perturbed_space(4, seed=0)
        plan = Coupling({(i, i, i): w for i, w in enumerate(space.axes[0].weights)}, space)
        with pytest.raises(ValueError):
            symmetrized_plan(plan)


class TestRunExperiment:
    def test_unknown_name(self):
        with pytest.raises(KeyError):
            run_experiment("unknown")

    def test_report_carries_name_and_spec(self):
        report = run_experiment("expcos-signature")
        assert report["name"] == "expcos-signature"
        assert report["spec"]["name"] == "expcos-signature"
        assert "assertions" in report and "payload" in report

    def test_override_params(self):
        report = run_experiment("coulomb-unequal", grid_size=5, seed=9)
        assert report["spec"]["params"]["grid_size"] == 5
        assert report["spec"]["params"]["seed"] == 9

    @pytest.mark.parametrize(
        "name",
        [
            "coulomb-equal",
            "coulomb-unequal",
            "coulomb-sharpness-search",
            "xyz-unique",
            "twowell-extremal",
            "expcos-signature",
            "symmetric-witness",
        ],
    )
    def test_fast_experiments_pass(self, name):
        report = run_experiment(name)
        assert all(a["passed"] for a in report["assertions"]), report["assertions"]
