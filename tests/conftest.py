import pytest

from uwbheading import pipeline


@pytest.fixture(scope="session")
def bench_world(tmp_path_factory):
    """The seed-0 world at benchmark scale, 5 Hz: cmd_generate's paths of a
    600 s training split (3000 rows) and a 200 s test split (1000 rows)."""
    cfg = pipeline.GenerateConfig(
        seed=0, train_duration_s=600.0, test_duration_s=200.0, rate_hz=5.0
    )
    return pipeline.cmd_generate(cfg, tmp_path_factory.mktemp("bench_world"))
