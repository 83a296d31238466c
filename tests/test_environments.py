from __future__ import annotations

import pytest

from vmptrace.environments import (
    ELASTICITY_LABELS,
    OVERBOOKING_LABELS,
    Capabilities,
    EnvironmentId,
    capabilities,
    enumerate_environments,
    env_from_capabilities,
    env_from_coords,
)
from vmptrace.errors import ValidationError


def test_coordinates_decode_to_capabilities():
    assert capabilities(env_from_coords(0, 0)) == Capabilities(False, False, False, False)
    assert capabilities(env_from_coords(1, 0)) == Capabilities(True, False, False, False)
    assert capabilities(env_from_coords(2, 1)) == Capabilities(False, True, True, False)
    assert capabilities(env_from_coords(0, 3)) == Capabilities(False, False, True, True)
    assert capabilities(env_from_coords(3, 3)) == Capabilities(True, True, True, True)


def test_combined_axis_values_are_unions_of_the_single_bits():
    full = capabilities(env_from_coords(3, 3))
    assert full.horizontal == capabilities(env_from_coords(1, 0)).horizontal
    assert full.vertical == capabilities(env_from_coords(2, 0)).vertical
    assert full.server_overbooking == capabilities(env_from_coords(0, 1)).server_overbooking
    assert full.network_overbooking == capabilities(env_from_coords(0, 2)).network_overbooking


def test_bad_coordinates_name_the_offending_axis():
    with pytest.raises(ValidationError, match="elasticity"):
        env_from_coords(4, 0)
    with pytest.raises(ValidationError, match="elasticity"):
        env_from_coords(-1, 0)
    with pytest.raises(ValidationError, match="overbooking"):
        env_from_coords(0, 4)
    with pytest.raises(ValidationError, match="overbooking"):
        env_from_coords(0, -1)


def test_enumeration_covers_the_lattice_in_lexicographic_order():
    envs = enumerate_environments()
    assert len(envs) == 16
    assert envs[0] == env_from_coords(0, 0)
    assert envs[8] == env_from_coords(2, 0)
    assert envs[-1] == env_from_coords(3, 3)
    coords = [(env.elasticity, env.overbooking) for env in envs]
    assert coords == sorted(coords)
    assert len(set(envs)) == 16


def test_capability_round_trip_for_every_environment():
    for env in enumerate_environments():
        assert env_from_capabilities(capabilities(env)) == env


def test_rendering_and_labels():
    env = env_from_coords(2, 1)
    assert str(env) == "(2,1)"
    assert env.label == "Vertical / Server"
    assert str(env_from_coords(0, 0)) == "(0,0)"
    assert env_from_coords(0, 0).label == "Not Considered / Not Considered"
    assert env_from_coords(3, 3).label == "Horizontal and Vertical / Server and Network"
    assert len(ELASTICITY_LABELS) == 4
    assert len(OVERBOOKING_LABELS) == 4
    assert ELASTICITY_LABELS[1] == "Horizontal"
    assert OVERBOOKING_LABELS[2] == "Network"


def test_convenience_flags():
    assert not capabilities(env_from_coords(0, 0)).any_elasticity
    assert capabilities(env_from_coords(1, 0)).any_elasticity
    assert capabilities(env_from_coords(3, 0)).any_elasticity


def test_environment_ids_order_like_their_coordinates():
    assert env_from_coords(0, 1) < env_from_coords(1, 0)
    assert env_from_coords(1, 2) < env_from_coords(1, 3)
    assert sorted([env_from_coords(3, 3), env_from_coords(0, 0)]) == [
        env_from_coords(0, 0),
        env_from_coords(3, 3),
    ]
    assert EnvironmentId(2, 1) == env_from_coords(2, 1)
