import json

import pytest

from renewinv import Component, GammaMixture, inversion


@pytest.fixture(autouse=True)
def _cold_pass_memo():
    # m2_lattice memoizes its last passes across calls; a cold memo keeps
    # pass counts and monkeypatched pipelines independent of test order
    inversion._memoized_pass.cache_clear()


@pytest.fixture
def exp_mixture():
    return GammaMixture.exponential()


@pytest.fixture
def gamma32_mixture():
    return GammaMixture((Component(1.0, 1.5, 1.0),))


@pytest.fixture
def half_mixture():
    return GammaMixture((Component(0.5, 1.0, 1.0), Component(0.5, 1.5, 1.0)))


@pytest.fixture
def all_table_mixtures(exp_mixture, gamma32_mixture, half_mixture):
    return {"exponential": exp_mixture, "gamma_3_2": gamma32_mixture, "mixture": half_mixture}


@pytest.fixture
def write_spec(tmp_path):
    def _write(components, name="model"):
        path = tmp_path / f"{name}.json"
        payload = {
            "name": name,
            "components": [{"p": p, "alpha": a, "beta": b} for p, a, b in components],
        }
        path.write_text(json.dumps(payload))
        return str(path)

    return _write
