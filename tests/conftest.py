"""Shared fixtures and hypothesis configuration."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
# Many more examples for the EC oracle and table tests, which CI runs once
# with --hypothesis-profile=deep.
settings.register_profile("deep", parent=settings.get_profile("suite"), max_examples=2000)
settings.load_profile("suite")

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def cases_dir() -> Path:
    return ROOT / "cases"


@pytest.fixture(scope="session")
def scenarios_dir() -> Path:
    return ROOT / "scenarios"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return Path(__file__).resolve().parent / "data"


def _route_ids(hops):
    """The node ids a hop table walks, first sender to last receiver; None for no table."""
    if hops is None:
        return None
    return (hops[0][0].id, *(hop[1].id for hop in hops))


@pytest.fixture(scope="session")
def route_of():
    """A route as node ids, read from its hop table (a ``Flow``'s or a ``Packet``'s)."""
    return _route_ids
