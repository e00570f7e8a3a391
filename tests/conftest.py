"""Test-suite settings shared by every module under ``tests/``."""

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests run without a deadline (grid and elimination kernels vary
# widely in run time on a loaded machine) and keep no example database.
# Each test sets only its max_examples.
settings.register_profile("oklab", deadline=None, database=None)
settings.load_profile("oklab")

_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Hypothesis also caches the constants it reads from local source
    # files, from collection on; keep that cache in a temporary directory
    # so no run writes ``.hypothesis/`` into the checkout.
    config.stash[_HOME] = tempfile.mkdtemp(prefix="oklab-hypothesis-")
    set_hypothesis_home_dir(config.stash[_HOME])


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[_HOME], ignore_errors=True)
