from decimal import Decimal, localcontext

import numpy as np
import pytest

from socialhk import bounds, dynamics, graphs, spectral
from socialhk.dynamics import OpinionState
from socialhk.errors import CompleteGraph
from socialhk.graphs import dumbbell_graph, path_graph, star_graph

from conftest import philox, random_connected_graph


class TestConductanceLowerBound:
    def test_p4_value(self):
        # ln(0.01*sqrt(2)) / ln(0.6), evaluated independently
        rep = bounds.conductance_lower_bound(0.2, 0.01, 1.0)
        assert rep.value == pytest.approx(8.336693379459332, rel=1e-12)
        assert not rep.degenerate

    def test_eps_at_threshold_is_zero(self):
        rep = bounds.conductance_lower_bound(0.3, 1.0 / np.sqrt(2), 1.0)
        assert rep.value == 0.0 and rep.degenerate

    def test_phi_half_degenerate(self):
        rep = bounds.conductance_lower_bound(0.5, 0.01, 1.0)
        assert rep.value == 0.0 and rep.degenerate

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bounds.conductance_lower_bound(0.0, 0.01, 1.0)
        with pytest.raises(ValueError):
            bounds.conductance_lower_bound(0.2, -1.0, 1.0)

    def test_value_recomputable_from_echoed_inputs(self):
        rep = bounds.conductance_lower_bound(0.17, 0.003, 2.0)
        i = rep.inputs
        want = np.log(i["eps"] * np.sqrt(2) / i["R"]) / np.log(1 - 2 * i["phi"])
        assert rep.value == pytest.approx(want, rel=1e-15)
        rep = bounds.constant_influence_upper_bound(5, 2, 0.01, 1.5)
        i = rep.inputs
        shrink = np.log1p(-1 / (i["n"] ** 2 * i["d"]))
        assert rep.extras["kappa_eps"] == pytest.approx(
            np.log(i["eps"] / (i["n"] ** 2 * i["R"])) / shrink, rel=1e-15
        )


class TestConstantInfluenceUpperBound:
    def test_n4_d3(self):
        rep = bounds.constant_influence_upper_bound(4, 3, 0.01, 1.0)
        assert rep.extras["kappa_eps"] == pytest.approx(350.4306043216731, rel=1e-12)
        assert np.ceil(rep.extras["kappa_eps"]) == 351
        assert rep.extras["kappa_R_half"] == pytest.approx(164.61637496489413, rel=1e-12)
        assert rep.value == pytest.approx(164.61637496489413, rel=1e-12)
        assert rep.extras["lambda2_upper"] == pytest.approx(1 - 1 / 48, rel=1e-15)

    @pytest.mark.parametrize("n, d", [(10**5, 5 * 10**4), (10**6, 10**6)])
    def test_kappa_on_large_graphs(self, n, d):
        # 1 - 1/(n^2 d) is within an ulp or two of 1 (1 itself at 10^6), so
        # log(1 - x) keeps few of x's digits; the reference is evaluated in
        # 40-digit decimals
        rep = bounds.constant_influence_upper_bound(n, d, 0.01, 1.0)
        with localcontext() as ctx:
            ctx.prec = 40
            want = (Decimal(0.01) / (n * n)).ln() / (1 - Decimal(1) / (n * n * d)).ln()
        assert rep.extras["kappa_eps"] == pytest.approx(float(want), rel=1e-13)

    def test_eps_equal_cap_gives_zero(self):
        rep = bounds.constant_influence_upper_bound(3, 2, 9.0, 1.0)
        assert rep.extras["kappa_eps"] == pytest.approx(0.0, abs=1e-12)

    def test_n2_d1(self):
        rep = bounds.constant_influence_upper_bound(2, 1, 0.1, 1.0)
        assert rep.extras["kappa_eps"] == pytest.approx(12.822764458957513, rel=1e-12)


class TestLinkBreakBudget:
    @pytest.mark.parametrize("n,want", [(4, 2048), (1, 2), (10, 200000)])
    def test_values(self, n, want):
        rep = bounds.link_break_budget(n, 1.0)
        assert rep.value == want
        assert rep.extras["per_break_decrement"] == pytest.approx(1 / (2 * n**3))
        assert rep.extras["initial_energy_cap"] == pytest.approx(n * n)

    def test_budget_holds_on_random_runs(self):
        rng = philox(107)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            x0 = rng.uniform(0, 3, g.n)
            traj = dynamics.simulate(g, OpinionState(x0, 1.0), 60)
            assert len(traj.events_of("link_break")) <= 2 * g.n**5


class TestWitnessState:
    def test_p3_direction_and_decay(self):
        st = bounds.eigenvector_witness_state(path_graph(3), 1.0, scale=0.9)
        assert st.spread() == pytest.approx(0.9, rel=1e-12)
        v = st.opinions
        assert v[0] == pytest.approx(-v[2], abs=1e-9)
        assert abs(v[1]) <= 1e-9
        traj = dynamics.simulate(path_graph(3), st, 30)
        norms = [np.linalg.norm(s) for s in traj.states[:10]]
        for a, b in zip(norms, norms[1:]):
            assert b == pytest.approx(0.5 * a, rel=1e-9)

    def test_keeps_influence_graph_full(self):
        for g in (path_graph(4), star_graph(4), dumbbell_graph(6)):
            st = bounds.eigenvector_witness_state(g, 1.0)
            traj = dynamics.simulate(g, st, 50)
            assert traj.lock_k == 0
            assert not traj.events_of("link_break") and not traj.events_of("link_form")

    def test_complete_rejected(self):
        with pytest.raises(CompleteGraph):
            bounds.eigenvector_witness_state(graphs.complete_graph(4), 1.0)


def measured_k_eps(g, state, max_steps=3000):
    traj = dynamics.simulate(g, state, max_steps)
    ss = dynamics.steady_state(traj)
    return traj, ss


class TestLowerBoundConsistency:
    @pytest.mark.parametrize("g,phi", [(path_graph(4), 0.2), (dumbbell_graph(6), 0.1)])
    def test_witness_exceeds_bound(self, g, phi):
        phi_computed, _ = graphs.conductance(g)
        assert phi_computed == pytest.approx(phi, abs=1e-12)
        for eps in (1e-2, 1e-3):
            rep = bounds.conductance_lower_bound(phi_computed, eps, 1.0)
            st = bounds.eigenvector_witness_state(g, 1.0, scale=0.9)
            traj, ss = measured_k_eps(g, st)
            k = dynamics.eps_convergence_time(traj, ss, eps)
            assert k > rep.value - 1e-9


class TestUpperBoundConsistency:
    def test_narrow_states_meet_kappa(self):
        rng = philox(109)
        for _ in range(12):
            g = random_connected_graph(rng, int(rng.integers(2, 11)))
            x0 = rng.uniform(-0.45, 0.45, g.n)
            traj = dynamics.simulate(g, OpinionState(x0, 1.0), 4000)
            ss = dynamics.steady_state(traj)
            d = graphs.diameter(g)
            for eps in (1e-2, 1e-3):
                k = dynamics.eps_convergence_time(traj, ss, eps)
                rep = bounds.constant_influence_upper_bound(g.n, d, eps, 1.0)
                assert k <= min(np.ceil(rep.extras["kappa_eps"]), rep.extras["kappa_R_half"])

    def test_lambda2_diameter_bound(self):
        rng = philox(113)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 11)))
            lam2 = spectral.decompose(g).second_largest_abs()
            rep = bounds.lambda2_diameter_bound(g.n, graphs.diameter(g))
            assert lam2 <= rep.value + 1e-9
