"""Shared fixtures: the worked example games of ``games.py``; the session
drops its builds when it ends.

``C``, ``parts`` and ``make_structure`` are re-exported for the modules that
import them from here.
"""

import pytest

from stabledec import MarriageSpec, RoommateSpec, marriage_to_game, roommate_to_game
from games import (
    CYCLE7,
    EIGHT,
    MARRIAGE33,
    ROOMMATE10,
    SEVEN,
    SIX,
    C,
    build,
    make_structure,
    parts,
)

__all__ = ["C", "make_structure", "parts"]


def pytest_sessionfinish(session, exitstatus):
    # drop the session's builds before pytest's closing garbage collections
    # (its unraisable-exception check runs gc.collect() five times), which
    # would otherwise walk every graph built: about 3 s of wall time on a
    # 2-core machine
    build.cache_clear()


@pytest.fixture(scope="session")
def g7():
    """Seven agents, one simple five-coalition ring component."""
    return SEVEN


@pytest.fixture(scope="session")
def g8():
    """Eight agents, one ring component that is not simple."""
    return EIGHT


@pytest.fixture(scope="session")
def g6():
    """Six agents, two ring components, no stable structure."""
    return SIX


@pytest.fixture(scope="session")
def rm10_spec() -> RoommateSpec:
    """Ten-agent roommate instance; agent 10 finds nobody acceptable."""
    return RoommateSpec(10, ROOMMATE10)


@pytest.fixture(scope="session")
def rm10(rm10_spec):
    return roommate_to_game(rm10_spec)


@pytest.fixture(scope="session")
def mar33_spec() -> MarriageSpec:
    """Three-by-three marriage market with two even rings."""
    return MarriageSpec(3, 3, MARRIAGE33)


@pytest.fixture(scope="session")
def mar33(mar33_spec):
    return marriage_to_game(mar33_spec)


@pytest.fixture(scope="session")
def cycle7(g7):
    return [make_structure(g7, text) for text in CYCLE7]
