"""The sixteen dynamic placement environments and their capability lattice.

An environment is a pair of small integers ``(elasticity, overbooking)``, each
in ``{0, 1, 2, 3}``. The elasticity coordinate encodes which elasticity kinds
a provider supports (0 none, 1 horizontal, 2 vertical, 3 both); the
overbooking coordinate encodes which resource classes may be overbooked
(0 none, 1 server resources, 2 networking, 3 both). Coordinates decompose
into independent capability bits, so the sixteen environments form a lattice
ordered by capability inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

ELASTICITY_LABELS = (
    "Not Considered",
    "Horizontal",
    "Vertical",
    "Horizontal and Vertical",
)

OVERBOOKING_LABELS = (
    "Not Considered",
    "Server",
    "Network",
    "Server and Network",
)


@dataclass(frozen=True, order=True)
class EnvironmentId:
    """One of the sixteen environments, identified by its coordinates."""

    elasticity: int
    overbooking: int

    def __post_init__(self):
        _check_coordinate("elasticity", self.elasticity)
        _check_coordinate("overbooking", self.overbooking)

    def __str__(self) -> str:
        return f"({self.elasticity},{self.overbooking})"

    @property
    def label(self) -> str:
        """Human-readable capability description, e.g. ``Horizontal / Server``."""
        return (
            f"{ELASTICITY_LABELS[self.elasticity]} / "
            f"{OVERBOOKING_LABELS[self.overbooking]}"
        )


@dataclass(frozen=True)
class Capabilities:
    """Independent capability bits decoded from an environment coordinate pair."""

    horizontal: bool
    vertical: bool
    server_overbooking: bool
    network_overbooking: bool

    @property
    def any_elasticity(self) -> bool:
        return self.horizontal or self.vertical


def _check_coordinate(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= 3:
        raise ValidationError(f"{name} coordinate must be an integer in 0..3, got {value!r}")


def env_from_coords(elasticity: int, overbooking: int) -> EnvironmentId:
    """Build an environment id, rejecting out-of-range coordinates."""
    return EnvironmentId(elasticity, overbooking)


def capabilities(env: EnvironmentId) -> Capabilities:
    """Decode an environment's coordinates into capability bits.

    Horizontal elasticity is enabled for elasticity coordinates {1, 3},
    vertical for {2, 3}; server overbooking for overbooking coordinates
    {1, 3}, network overbooking for {2, 3}.
    """
    return Capabilities(
        horizontal=env.elasticity in (1, 3),
        vertical=env.elasticity in (2, 3),
        server_overbooking=env.overbooking in (1, 3),
        network_overbooking=env.overbooking in (2, 3),
    )


def env_from_capabilities(caps: Capabilities) -> EnvironmentId:
    """Inverse of :func:`capabilities`."""
    return EnvironmentId(
        elasticity=int(caps.horizontal) + 2 * int(caps.vertical),
        overbooking=int(caps.server_overbooking) + 2 * int(caps.network_overbooking),
    )


def enumerate_environments() -> tuple[EnvironmentId, ...]:
    """All sixteen environments in lexicographic (elasticity, overbooking) order."""
    return tuple(EnvironmentId(e, o) for e in range(4) for o in range(4))
