"""Room geometry for the indoor optical-wireless link.

Coordinates are metric, right-handed, with the origin in a floor corner and
z pointing up.  The ceiling plane sits at z = room_z_m; the lamp and the QKD
receiver both hang there facing down in the nominal layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DegenerateGeometryError",
    "Point3",
    "Pose",
    "LinkGeometry",
    "SurfaceGrid",
    "RoomScenario",
    "concentrator_gain",
    "lambert_mode",
    "link_geometry",
    "wall_and_floor_grids",
]

# Positions closer than this are treated as coincident (no defined link).
_COINCIDENT_EPS = 1e-12


class DegenerateGeometryError(ValueError):
    """Raised when a link between two coincident positions is requested."""


@dataclass(frozen=True, slots=True)
class Point3:
    x: float
    y: float
    z: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def minus(self, other: "Point3") -> "Point3":
        return Point3(self.x - other.x, self.y - other.y, self.z - other.z)

    def dot(self, other: "Point3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def normalized(self) -> "Point3":
        n = self.norm()
        big = max(abs(self.x), abs(self.y), abs(self.z))
        if n == math.inf and big < math.inf:  # the squares overflow: divide by the largest component first
            return Point3(self.x / big, self.y / big, self.z / big).normalized()
        if n < _COINCIDENT_EPS:
            raise DegenerateGeometryError("cannot normalize a zero-length vector")
        return Point3(self.x / n, self.y / n, self.z / n)


@dataclass(frozen=True, slots=True)
class Pose:
    """A position plus a unit pointing axis (emission or acceptance axis)."""

    position: Point3
    axis: Point3

    def __post_init__(self) -> None:
        if not abs(self.axis.norm() - 1.0) <= 1e-9:  # nan fails
            raise ValueError(f"pose axis must be a unit vector, got norm {self.axis.norm()!r}")

    @classmethod
    def aimed_at(cls, position: Point3, target: Point3) -> "Pose":
        return cls(position, target.minus(position).normalized())


@dataclass(frozen=True, slots=True)
class LinkGeometry:
    """Scalars of a single emitter-to-collector line of sight.

    Angles are in radians: ``irradiance_angle`` is measured from the emitter
    axis to the line of sight, ``incidence_angle`` from the collector axis to
    the reverse line of sight.
    """

    distance: float
    irradiance_angle: float
    incidence_angle: float


@dataclass(frozen=True, slots=True)
class SurfaceGrid:
    """Uniform rectangular tessellation of one room surface.

    ``origin`` is a surface corner; cell (i, j) has its center at
    origin + (i + 1/2) * cell_u * u_dir + (j + 1/2) * cell_v * v_dir.
    """

    origin: Point3
    u_dir: Point3
    v_dir: Point3
    normal: Point3
    n_u: int
    n_v: int
    cell_u: float
    cell_v: float
    reflectivity: float

    def patch_count(self) -> int:
        return self.n_u * self.n_v

    def area(self) -> float:
        return self.n_u * self.cell_u * self.n_v * self.cell_v


def _clamped_acos(x: float) -> float:
    # Dot products drift a few ulp outside [-1, 1]; clamp before acos.
    return math.acos(min(1.0, max(-1.0, x)))


def link_geometry(emitter: Pose, collector: Pose) -> LinkGeometry:
    """Distance and axis angles for the emitter -> collector line of sight."""
    offset = collector.position.minus(emitter.position)
    d = offset.norm()
    if d < _COINCIDENT_EPS:
        raise DegenerateGeometryError("emitter and collector positions coincide")
    direction = Point3(offset.x / d, offset.y / d, offset.z / d)
    irradiance = _clamped_acos(emitter.axis.dot(direction))
    incidence = _clamped_acos(collector.axis.dot(Point3(-direction.x, -direction.y, -direction.z)))
    return LinkGeometry(distance=d, irradiance_angle=irradiance, incidence_angle=incidence)


@dataclass(frozen=True, slots=True)
class RoomScenario:
    """The static room: its surfaces, the lamp, the transmitter, and the
    receiver with its optics and FOV (the spectral levels are on ``Setup``).

    Distances in meters, angles in degrees.  The frozen dataclass is
    hashable so derived quantities can be memoized per room.
    """

    room_x_m: float
    room_y_m: float
    room_z_m: float
    wall_reflectivity: float
    floor_reflectivity: float

    lamp: Pose
    lamp_semi_angle_deg: float

    transmitter: Pose
    tx_semi_angle_deg: float

    receiver: Pose
    fov_deg: float
    detector_area_m2: float
    concentrator_index: float
    filter_transmission: float
    filter_bandwidth_nm: float

    def __post_init__(self) -> None:
        # Every rule is written so that nan fails it and every bound excludes
        # +-inf: a non-finite value names its field here, not deep in a sum.
        for name in ("room_x_m", "room_y_m", "room_z_m", "detector_area_m2", "filter_bandwidth_nm"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        for name in ("wall_reflectivity", "floor_reflectivity"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        for name in ("lamp_semi_angle_deg", "tx_semi_angle_deg"):
            value = getattr(self, name)
            if not (0.0 < value < 90.0 and math.isfinite(lambert_mode(value))):
                raise ValueError(
                    f"{name} must lie in (0, 90) degrees (Lambert mode is undefined outside) "
                    f"with a finite mode -ln 2 / ln cos(semi-angle), got {value!r}"
                )
        concentrator_gain(self.concentrator_index, self.fov_deg)
        if not 0.0 < self.filter_transmission <= 1.0:
            raise ValueError(f"filter_transmission must lie in (0, 1], got {self.filter_transmission!r}")
        for name in ("lamp", "transmitter", "receiver"):
            pos = getattr(self, name).position
            if not (
                0.0 <= pos.x <= self.room_x_m
                and 0.0 <= pos.y <= self.room_y_m
                and 0.0 <= pos.z <= self.room_z_m
            ):
                raise ValueError(f"{name} position {pos} lies outside the room volume")
        if self.receiver.position.minus(self.transmitter.position).norm() < _COINCIDENT_EPS:
            sizes = ", ".join(f"{k} = {getattr(self, k)!r}" for k in ("room_x_m", "room_y_m", "room_z_m"))
            raise ValueError(f"transmitter and receiver lie closer than {_COINCIDENT_EPS} m apart in the room {sizes}")


def lambert_mode(semi_angle_deg: float) -> float:
    """Lambert mode number m = -ln 2 / ln cos(semi-angle at half power), for a
    semi-angle in (0, 90) degrees; inf where the cosine rounds to 1."""
    log_cos = math.log(math.cos(math.radians(semi_angle_deg)))
    return -math.log(2.0) / log_cos if log_cos < 0.0 else math.inf


def concentrator_gain(index: float, fov_deg: float) -> float:
    """Ideal non-imaging concentrator gain n^2 / sin^2(fov), after the receiver's
    rule: a FOV in (0, 90] degrees wide enough that 1 / sin^2(fov) is finite
    (in a narrower cone sin^2 underflows), an index >= 1 and a finite gain (a
    huge index would overflow it)."""
    if not 0.0 < fov_deg <= 90.0:
        raise ValueError(f"fov_deg must lie in (0, 90] degrees, got {fov_deg!r}")
    s = math.sin(math.radians(fov_deg))
    if not (s * s > 0.0 and 1.0 / (s * s) < math.inf):
        raise ValueError(f"fov_deg must be wide enough for a finite concentrator gain n^2 / sin^2(fov) at n = 1, got {fov_deg!r}")
    if not (1.0 <= index and index * index / (s * s) < math.inf):
        raise ValueError(f"concentrator_index must be >= 1 with a finite gain n^2 / sin^2(fov) at fov_deg = {fov_deg!r}, got {index!r}")
    return index * index / (s * s)


def wall_and_floor_grids(room: RoomScenario, patches_per_meter: int) -> tuple[SurfaceGrid, ...]:
    """Tessellations of the floor and the four walls (the ceiling emits, it
    does not reflect in the single-bounce model).

    Cell counts round to the nearest integer per meter so the grids always
    cover each surface exactly; cell size absorbs the remainder.
    """
    if patches_per_meter < 1:
        raise ValueError("patches_per_meter must be a positive integer")
    x, y, z = room.room_x_m, room.room_y_m, room.room_z_m
    r_wall, r_floor = room.wall_reflectivity, room.floor_reflectivity

    def cells(length: float) -> int:
        return max(1, round(length * patches_per_meter))

    ex = Point3(1.0, 0.0, 0.0)
    ey = Point3(0.0, 1.0, 0.0)
    ez = Point3(0.0, 0.0, 1.0)
    o = Point3(0.0, 0.0, 0.0)

    def grid(origin, u_dir, v_dir, normal, len_u, len_v, refl) -> SurfaceGrid:
        n_u, n_v = cells(len_u), cells(len_v)
        return SurfaceGrid(
            origin=origin,
            u_dir=u_dir,
            v_dir=v_dir,
            normal=normal,
            n_u=n_u,
            n_v=n_v,
            cell_u=len_u / n_u,
            cell_v=len_v / n_v,
            reflectivity=refl,
        )

    return (
        grid(o, ex, ey, ez, x, y, r_floor),                                  # floor, faces up
        grid(o, ey, ez, ex, y, z, r_wall),                                   # wall x = 0
        grid(Point3(x, 0.0, 0.0), ey, ez, Point3(-1.0, 0.0, 0.0), y, z, r_wall),  # wall x = X
        grid(o, ex, ez, ey, x, z, r_wall),                                   # wall y = 0
        grid(Point3(0.0, y, 0.0), ex, ez, Point3(0.0, -1.0, 0.0), x, z, r_wall),  # wall y = Y
    )
