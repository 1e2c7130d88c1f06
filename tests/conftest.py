import pytest
from hypothesis import settings

from isoflag.cases import fields_for, sweep_cases

# every run draws the same examples, and writes no example database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def model_sweep():
    """All verified models of the acceptance sweep, built once per session."""
    from isoflag.model import build_model

    models = {}
    for shape, mode in sweep_cases(5):
        for name, field in fields_for(mode, shape.kappa):
            models[(shape.parts, shape.kappa, mode, name)] = \
                build_model(shape, mode, field)
    return models
