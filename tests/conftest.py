"""Shared fixtures: canonical spaces and the bundled problem instances."""

import random

import pytest
from hypothesis import settings

import cat0feas as cf

# Print the reproduction blob of every falsifying example: the example
# database (.hypothesis/) is not kept in version control, so an example
# found in one run would otherwise be lost to the next.
settings.register_profile("cat0feas", print_blob=True)
settings.load_profile("cat0feas")


@pytest.fixture(scope="session")
def e1():
    return cf.EuclideanSpace(1)


@pytest.fixture(scope="session")
def e2():
    return cf.EuclideanSpace(2)


@pytest.fixture(scope="session")
def e5():
    return cf.EuclideanSpace(5)


@pytest.fixture(scope="session")
def disk():
    return cf.PoincareDiskSpace()


@pytest.fixture(scope="session")
def tripod_space():
    return cf.tripod()


@pytest.fixture(scope="session")
def caterpillar():
    """A 5-vertex tree with unequal edge lengths, for non-tripod coverage."""
    tree = cf.MetricTree(
        vertices=("A", "B", "C", "D", "E"),
        edges=(("A", "B", 2.0), ("B", "C", 1.0), ("C", "D", 0.5), ("B", "E", 3.0)),
    )
    return cf.TreeSpace(tree)


@pytest.fixture(scope="session")
def bundled():
    return cf.load_bundled_config("default")


@pytest.fixture(scope="session")
def instances(bundled):
    return {inst.name: inst for inst in bundled.instances}


@pytest.fixture()
def rng():
    return random.Random(1357)


def sample_spaces(e2, e5, tripod_space, disk):
    """The concrete space suite used by sampled-property tests."""
    return [e2, e5, tripod_space, disk]
