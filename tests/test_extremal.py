import itertools

import numpy as np
import pytest

from mmotlab import (
    Coulomb1D,
    Coupling,
    DiscreteMarginal,
    PreconditionError,
    ProductSpace,
    Tabulated,
    check_thm41,
    find_theta,
    is_vertex,
    lemma_trip_check,
    solve_exact,
    symmetry_witness,
)
from mmotlab.extremal import _vertex_certificate

from conftest import random_rational_marginal, unique_feasible_oracle


def _uniform(points):
    n = len(points)
    return DiscreteMarginal(points, np.full(n, 1.0 / n))


class TestIsVertex:
    def setup_method(self):
        m = _uniform([0.0, 1.0])
        self.space = ProductSpace([m, m])

    def test_permutation_plan_is_vertex(self):
        plan = Coupling({(0, 1): 0.5, (1, 0): 0.5}, self.space)
        cert = is_vertex(plan)
        assert cert.is_extremal and cert.kernel_direction is None

    def test_checkerboard_is_not_vertex(self):
        plan = Coupling(
            {(i, j): 0.25 for i in range(2) for j in range(2)}, self.space
        )
        cert = is_vertex(plan)
        assert not cert.is_extremal
        direction = cert.kernel_direction
        assert direction is not None and set(direction) == set(plan.entries)
        # the kernel direction keeps all marginals fixed
        for axis in range(2):
            sums = {}
            for cell, v in direction.items():
                sums[cell[axis]] = sums.get(cell[axis], 0.0) + v
            assert all(abs(s) <= 1e-9 for s in sums.values())

    def test_three_marginal_diagonal_vertex(self):
        m = _uniform([0.0, 1.0, 2.0])
        space = ProductSpace([m, m, m])
        plan = Coupling({(i, i, i): 1 / 3 for i in range(3)}, space)
        assert is_vertex(plan).is_extremal

    def test_oracle_agreement_on_random_instances(self):
        rng = np.random.default_rng(42)
        agree = 0
        for trial in range(100):
            sizes = rng.integers(2, 5, size=3)
            axes = [random_rational_marginal(rng, int(s)) for s in sizes]
            space = ProductSpace(axes)
            costs = rng.uniform(0.0, 1.0, size=tuple(int(s) for s in sizes))
            result = solve_exact(Tabulated(costs, space), space)
            plans = [result.plan]
            # a strict mixture with a permuted-cost optimum is usually not
            # a vertex; include it to exercise the negative branch
            other = solve_exact(Tabulated(np.max(costs) - costs, space), space)
            if other.plan.support() != result.plan.support():
                mixed = {}
                for idx, mass in result.plan.entries.items():
                    mixed[idx] = mixed.get(idx, 0.0) + 0.5 * mass
                for idx, mass in other.plan.entries.items():
                    mixed[idx] = mixed.get(idx, 0.0) + 0.5 * mass
                plans.append(Coupling(mixed, space))
            for plan in plans:
                assert is_vertex(plan).is_extremal == unique_feasible_oracle(plan)
                agree += 1
        assert agree >= 100


class TestLemmaTripCheck:
    def test_requires_three_axes(self):
        m = _uniform([0.0, 1.0])
        plan = Coupling({(0, 1): 0.5, (1, 0): 0.5}, ProductSpace([m, m]))
        with pytest.raises(ValueError):
            lemma_trip_check(plan)

    def test_positive_implies_vertex(self):
        rng = np.random.default_rng(31)
        hits = 0
        for _ in range(100):
            sizes = rng.integers(2, 4, size=3)
            axes = [random_rational_marginal(rng, int(s)) for s in sizes]
            space = ProductSpace(axes)
            costs = rng.uniform(0.0, 1.0, size=tuple(int(s) for s in sizes))
            plan = solve_exact(Tabulated(costs, space), space).plan
            if lemma_trip_check(plan):
                hits += 1
                assert is_vertex(plan).is_extremal
        assert hits > 0  # the implication must actually fire

    def test_diagonal_plan_passes(self):
        m = _uniform([0.0, 1.0, 2.0])
        space = ProductSpace([m, m, m])
        plan = Coupling({(i, i, i): 1 / 3 for i in range(3)}, space)
        assert lemma_trip_check(plan)


class TestVertexCertificateHelper:
    def test_empty_support(self):
        cert = _vertex_certificate([], [lambda c: (0, c[0])])
        assert cert.is_extremal


class TestFindTheta:
    def test_single_map_trivially_feasible(self):
        maps = [({0: 0, 1: 1}, {0: 0, 1: 1})]
        result = find_theta(maps)
        assert result.feasible

    def test_disjoint_second_axis_domains(self):
        # the two maps share no axis-2 image, so no constraints bind
        maps = [({0: 0}, {0: 0}), ({1: 1}, {1: 1})]
        result = find_theta(maps)
        assert result.feasible
        assert set(result.theta.values()) == {0}

    def test_strict_chain(self):
        # same axis-2 point reachable by both maps forces theta(0) > theta(1)
        maps = [({0: 0}, {0: 0}), ({1: 0}, {1: 1})]
        result = find_theta(maps)
        assert result.feasible
        assert result.theta[0] > result.theta[1]

    def test_two_cycle_infeasible(self):
        # x2=0 forces theta(0) > theta(1); x2=1 forces theta(1) > theta(0)
        maps = [
            ({0: 0, 1: 1}, {0: 0, 1: 1}),
            ({0: 1, 1: 0}, {0: 0, 1: 1}),
        ]
        result = find_theta(maps)
        assert not result.feasible
        assert result.cycle is not None and len(result.cycle) >= 2
        assert set(result.cycle) <= {0, 1}


class TestCheckThm41:
    def _space(self, n1=2, n2=2, n3=4):
        return ProductSpace(
            [
                _uniform(list(np.arange(n1, dtype=float))),
                _uniform(list(np.arange(n2, dtype=float))),
                _uniform(list(np.arange(n3, dtype=float))),
            ]
        )

    def test_valid_two_map_family(self):
        space = self._space()
        maps = [
            ({0: 0, 1: 1}, {0: 0, 1: 1}),
            ({0: 1, 1: 0}, {0: 2, 1: 3}),
        ]
        report = check_thm41(space, maps)
        assert report.hypothesis_i and report.hypothesis_ii and report.hypothesis_iii
        assert report.failures == ()

    def test_non_injective_h_fails(self):
        space = self._space()
        maps = [({0: 0, 1: 0}, {0: 0, 1: 1})]
        report = check_thm41(space, maps)
        assert not report.hypothesis_i
        assert any(f[0] == "H_not_injective" for f in report.failures)
        assert any(f[0] == "H_not_onto" for f in report.failures)

    def test_overlapping_k_ranges_fail(self):
        space = self._space()
        maps = [
            ({0: 0, 1: 1}, {0: 0, 1: 1}),
            ({0: 1, 1: 0}, {0: 2, 1: 3}),
            ({0: 0, 1: 1}, {0: 3, 1: 2}),
        ]
        report = check_thm41(space, maps)
        assert not report.hypothesis_ii
        assert any(f[0] == "K_ranges_overlap" for f in report.failures)

    def test_non_injective_k_and_cyclic_theta_fail(self):
        space = self._space(3, 3, 3)
        maps = [
            ({0: 0, 1: 1, 2: 2}, {0: 0, 1: 1, 2: 2}),
            # K sends two points to 1, and x2 = 1 then asks for theta(1) > theta(1)
            ({0: 1, 1: 0, 2: 2}, {0: 1, 1: 1, 2: 0}),
        ]
        report = check_thm41(space, maps)
        assert report.hypothesis_i
        assert not report.hypothesis_ii and not report.hypothesis_iii
        assert report.theta is None
        assert report.failures == (("K_not_injective", 1), ("theta_infeasible", (1,)))

    def test_explicit_theta_strictness(self):
        space = self._space()
        maps = [
            ({0: 0, 1: 1}, {0: 0, 1: 1}),
            ({0: 0, 1: 1}, {0: 2, 1: 3}),
        ]
        good = check_thm41(space, maps, theta={0: 5, 1: 5, 2: 0, 3: 0})
        assert good.hypothesis_iii
        bad = check_thm41(space, maps, theta={0: 0, 1: 0, 2: 0, 3: 0})
        assert not bad.hypothesis_iii
        assert any(f[0] == "theta_not_strict" for f in bad.failures)

    def test_explicit_theta_missing_constrained_indices(self):
        space = self._space()
        maps = [
            ({0: 0, 1: 1}, {0: 0, 1: 1}),
            ({0: 1, 1: 0}, {0: 2, 1: 3}),
        ]
        # the constraints are theta(0) > theta(3) and theta(1) > theta(2)
        with pytest.raises(ValueError, match=r"theta .*\[1, 2, 3\]"):
            check_thm41(space, maps, theta={0: 1.0})

    def test_wrong_arity_space(self):
        m = _uniform([0.0, 1.0])
        with pytest.raises(ValueError):
            check_thm41(ProductSpace([m, m]), [])

    def test_maps_must_cover_domain(self):
        space = self._space()
        with pytest.raises(ValueError, match="positive-weight"):
            check_thm41(space, [({5: 0}, {5: 0})])


class TestSymmetryWitness:
    def _symmetric_plan(self):
        m = _uniform([0.0, 1.0, 2.0])
        space = ProductSpace([m, m, m])
        entries = {perm: 1 / 6 for perm in itertools.permutations((0, 1, 2))}
        return Coupling(entries, space)

    def test_six_cell_masses(self):
        plan = self._symmetric_plan()
        witness = symmetry_witness(plan, [0], [1], [2])
        cyclic = {(0, 1, 2), (2, 0, 1), (1, 2, 0)}
        for perm in itertools.permutations((0, 1, 2)):
            expected = 5 / 36 if perm in cyclic else 7 / 36
            assert witness.mass(perm) == pytest.approx(expected, abs=1e-15)

    def test_marginals_and_cost_preserved(self):
        plan = self._symmetric_plan()
        witness = symmetry_witness(plan, [0], [1], [2], model=Coulomb1D())
        for a in range(3):
            assert np.max(np.abs(witness.marginal(a) - plan.marginal(a))) <= 1e-12
        assert witness.transport_cost(Coulomb1D()) == pytest.approx(
            plan.transport_cost(Coulomb1D())
        )
        assert plan.tv_distance(witness) >= 1 / 18 - 1e-12

    def test_overlapping_sets_rejected(self):
        plan = self._symmetric_plan()
        with pytest.raises(PreconditionError, match="disjoint"):
            symmetry_witness(plan, [0], [0], [2])

    def test_asymmetric_plan_rejected(self):
        m = _uniform([0.0, 1.0, 2.0])
        space = ProductSpace([m, m, m])
        plan = Coupling(
            {(0, 1, 2): 1 / 3, (1, 2, 0): 1 / 3, (2, 0, 1): 1 / 3}, space
        )
        with pytest.raises(PreconditionError, match="not invariant"):
            symmetry_witness(plan, [0], [1], [2])

    def test_distinct_marginals_rejected(self):
        m1 = _uniform([0.0, 1.0, 2.0])
        m2 = DiscreteMarginal([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        space = ProductSpace([m1, m1, m2])
        plan = Coupling({(i, i, i): w for i, w in enumerate([0.2, 0.3, 0.5])}, space)
        with pytest.raises(PreconditionError, match="identical"):
            symmetry_witness(plan, [0], [1], [2])

    def test_empty_box_rejected(self):
        m = _uniform([0.0, 1.0, 2.0])
        space = ProductSpace([m, m, m])
        plan = Coupling({(i, i, i): 1 / 3 for i in range(3)}, space)
        with pytest.raises(PreconditionError, match="no mass"):
            symmetry_witness(plan, [0], [1], [2])
