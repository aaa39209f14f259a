import numpy as np
import pytest

from spectral_tta import bench, twocore


TINY_OVERRIDE = {
    "dataset": {"n_train": 240, "n_test": 120, "channels": 2, "height": 4, "width": 4},
    "model": {"conv_channels": [3, 3], "train_epochs": 12, "insert_index": 3},
    "pca": {"rank": 24, "fit_samples": 128, "fit_batch": 64},
    "adapt": {"batch_size": 40, "learning_rate": 0.25, "steps_per_batch": 5},
}


@pytest.fixture(scope="session")
def tiny_config():
    return bench.load_config(TINY_OVERRIDE)


@pytest.fixture(scope="session")
def tiny_model(tiny_config):
    return bench.train_from_config(tiny_config)


@pytest.fixture(scope="session")
def tiny_basis(tiny_config, tiny_model):
    return bench.fit_basis_from_config(tiny_config, tiny_model)


@pytest.fixture(scope="session")
def tiny_test_set(tiny_config):
    _, (x, y) = bench.gen_dataset(bench._dataset_spec(tiny_config))
    return x, y


@pytest.fixture(autouse=True)
def no_grid_helper():
    """Each test starts and ends without the grid's helper process: a
    helper keeps the code it was forked with, so one forked under a test's
    monkeypatches must serve no other test."""
    twocore.close()
    yield
    twocore.close()


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
