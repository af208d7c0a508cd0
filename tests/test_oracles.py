import math

import numpy as np
import pytest

from renewinv import (
    approximate_nonruin,
    closed_form_lstar_exponential_ruin,
    convolution_renewal_solve,
    exact_nonruin_exponential,
    renewal_data_from_model,
    RiskModel,
    ruin_bound_report,
)


class TestVolterraSolver:
    def test_exponential_ruin_closed_form(self, exp_mixture):
        data = renewal_data_from_model(RiskModel(exp_mixture, 0.9))
        grid, m = convolution_renewal_solve(data.f, data.v, 0.9, 5.0, 1e-3)
        assert grid[-1] == pytest.approx(5.0, rel=1e-12)
        assert m[-1] == pytest.approx(0.9 * math.exp(-0.5), abs=1e-6)
        exact = 0.9 * np.exp(-0.1 * grid)
        assert float(np.max(np.abs(m - exact))) < 1e-6

    def test_zero_defect_returns_forcing_term(self):
        grid, m = convolution_renewal_solve(math.exp, lambda u: math.cos(u), 0.0, 2.0, 1e-2)
        assert np.allclose(m, np.cos(grid), atol=1e-12)

    def test_zero_forcing_returns_zero(self):
        grid, m = convolution_renewal_solve(lambda y: math.exp(-y), lambda u: 0.0, 0.7, 3.0, 1e-2)
        assert np.all(m == 0.0)

    def test_coarse_step_warns(self):
        with pytest.warns(UserWarning, match="too coarse"):
            convolution_renewal_solve(lambda y: math.exp(-y), lambda u: 0.5, 0.5, 2.0, 0.5)

    def test_coarse_step_warns_on_every_call(self):
        # the calibration error is memoized per step; the warning is not
        for _ in range(3):
            with pytest.warns(UserWarning, match="too coarse"):
                convolution_renewal_solve(lambda y: math.exp(-y), lambda u: 0.5, 0.5, 2.0, 0.25)

    def test_gamma32_pipeline_envelope(self, gamma32_mixture):
        # sanity envelope: the integral-equation solution and the
        # accelerated pipeline must agree within a few bound-widths
        model = RiskModel(gamma32_mixture, 0.9)
        data = renewal_data_from_model(model)
        h = 1e-3
        grid, m = convolution_renewal_solve(data.f, data.v, 0.9, 10.0, h)
        approx = approximate_nonruin(model, 5.0, 10.0)
        _, report = ruin_bound_report(model)
        sup = 0.0
        for k in range(approx.lattice.truncation_index + 1):
            u = k / 5.0
            volterra_nonruin = 1.0 - m[int(round(u / h))]
            sup = max(sup, abs(float(approx.lattice.values[k]) - volterra_nonruin))
        assert sup < 3.0 * (report.total_bound(5.0) + 100.0 * h * h)

    def test_gamma32_disputed_cell(self, gamma32_mixture):
        # two independent routes agree that the non-ruin value at u = 15 is
        # 0.7292, not the 0.7248 printed in the 4-decimal reference table
        model = RiskModel(gamma32_mixture, 0.9)
        data = renewal_data_from_model(model)
        grid, m = convolution_renewal_solve(data.f, data.v, 0.9, 15.0, 1e-3)
        volterra_value = 1.0 - m[-1]
        approx = approximate_nonruin(model, 5.0, 15.0)
        assert volterra_value == pytest.approx(0.72922, abs=5e-5)
        assert approx.nonruin(15.0) == pytest.approx(volterra_value, abs=5e-5)
        assert abs(approx.nonruin(15.0) - 0.7248) > 4e-3


class TestClosedFormLstar:
    def test_value_at_08(self):
        expected = 1.0 - 0.9 * (5.0 / 5.1) ** 5
        assert closed_form_lstar_exponential_ruin(0.9, 5.0, 0.8) == pytest.approx(
            expected, rel=1e-15
        )

    def test_origin_matches_compound_base_case(self):
        # at u = 0 the closed form equals the Panjer mass at zero
        assert closed_form_lstar_exponential_ruin(0.9, 5.0, 0.0) == pytest.approx(
            0.1 / 0.85, rel=1e-13
        )

    def test_operator_converges_pointwise(self):
        for u in [0.5, 1.0, 7.0]:
            val = closed_form_lstar_exponential_ruin(0.9, 1e4, u)
            assert abs(val - exact_nonruin_exponential(0.9, 1.0, u)) < 1e-4
