"""Room geometry for the indoor optical-wireless link.

Coordinates are metric, right-handed, with the origin in a floor corner and
z pointing up.  The ceiling plane sits at z = room_z_m; the lamp and the QKD
receiver both hang there facing down in the nominal layout.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

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
# The upper end of a range that admits every finite value and not inf.
_LARGEST_FLOAT = float(np.finfo(float).max)
# The lower end of a range that excludes 0: a float is >= it exactly when it is > 0.
_SMALLEST_POSITIVE = math.ulp(0.0)


class DegenerateGeometryError(ValueError):
    """Raised when a link between two coincident positions is requested."""


@dataclass(frozen=True, slots=True)
class Point3:
    """A position in meters in the room frame (origin in a floor corner, z up),
    or a direction in that frame; ``x``, ``y`` and ``z`` are its components."""

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
        _one_number(**{f"pose axis {k}": v for k, v in zip("xyz", self.axis.as_tuple())})
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


def _shown(value: object) -> str:
    """``repr(value)``, but an int past Python's int-to-text limit shows as its size in bits, and a container holding one says so."""
    try:
        return repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return f"an int of {value.bit_length()} bits" if isinstance(value, int) else f"a {type(value).__name__} holding an int too long to print"


def _array(name: str, value: object) -> np.ndarray:
    """``np.asarray(value)``, each element as given, once each is a bool, int or float of Python or numpy: the one reading of a caller's
    number.  Text fails as text (numpy would parse it), and None, a complex number, a dict, a ragged sequence or another object as no real number."""
    try:
        checked = np.asarray(value)
    except ValueError:  # a ragged sequence
        checked = np.asarray(None)
    kind = checked.dtype.kind
    if kind in "biuf" or (kind == "O" and all(isinstance(v, (int, float, np.bool_, np.integer, np.floating)) for v in checked.flat)):
        return checked
    raise ValueError(f"{name} must be {'a number, not text' if kind in 'SU' else 'a real number'}, got {_shown(value)}")


def _real(name: str, value: object) -> np.ndarray:
    """``_array(name, value)`` as a float array (0-d for one value): the one place that decides a Python int, a float in the float range."""
    checked = _array(name, value)
    for v in checked.flat if checked.dtype.kind == "O" else ():  # Python ints too large for a numpy int, maybe for a float
        if isinstance(v, int) and not abs(v) <= _LARGEST_FLOAT:
            raise ValueError(f"{name} must lie in the float range, got an int of {v.bit_length()} bits")
    return checked.astype(float, copy=False)


def _in_range(name: str, value: float | np.ndarray, lo: float, hi: float) -> float | np.ndarray:
    """``value`` as a numpy float or a float array, once it is ``_real`` and it (each element) lies in [lo, hi]: a nan fails, an empty
    array passes; only a Python float skips the array.  The rule of every checked number that is an interval, scalar or array: "non-negative" is
    [0, inf], "finite" ends at _LARGEST_FLOAT (plain "finite" is [-_LARGEST_FLOAT, _LARGEST_FLOAT]) and "positive" starts at _SMALLEST_POSITIVE."""
    if isinstance(value, float):  # a Python float or np.float64, compared without an array
        if lo <= value <= hi:
            return np.float64(value)
    else:
        checked = _real(name, value)[()]
        if not checked.size or (checked.min() >= lo and checked.max() <= hi):  # min and max carry a nan through, so a nan element fails
            return checked
    rules = {(0.0, math.inf): "be non-negative", (0.0, _LARGEST_FLOAT): "be non-negative and finite", (-_LARGEST_FLOAT, _LARGEST_FLOAT): "be finite",
             (_SMALLEST_POSITIVE, _LARGEST_FLOAT): "be positive and finite", (1.0, _LARGEST_FLOAT): "be >= 1 and finite"}
    interval = f"{'(0' if lo == _SMALLEST_POSITIVE else f'[{lo:g}'}, {hi:g}]"
    raise ValueError(f"{name} must {rules.get((lo, hi), f'lie in {interval}')}, got {_shown(value)}")


def _count(name: str, value: int, least: int = 1, most: int | None = None) -> int:
    """``value`` as an int, once it is an integer (as ``numbers.Integral`` admits numpy's) of at least ``least``
    and, where given, at most ``most``: the rule of every checked count and seed."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {_shown(value)}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be an integer <= {most:,}, got {_shown(value)}")
    return int(value)


def _one_number(**values: object) -> None:
    """Refuse anything but one real number (see ``_real``) as any of these fields, naming it; a Python float costs no numpy call."""
    for name, value in values.items():
        if not isinstance(value, float) and (shape := _real(name, value).shape):
            raise ValueError(f"{name} must be one number, not an array of shape {shape}")


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of 3-vectors along the last axis, bit for bit: the same products,
    each difference taken in its order, without its axis handling (20-30 us a call
    under numpy 2.4 on a 2-core x86 VM)."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Any orthonormal pair completing ``axis`` to a right-handed frame."""
    helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = _cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    return e1, _cross(axis, e1)


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
            _in_range(name, getattr(self, name), _SMALLEST_POSITIVE, _LARGEST_FLOAT)
        for name in ("wall_reflectivity", "floor_reflectivity"):
            _in_range(name, getattr(self, name), 0.0, 1.0)
        _one_number(**{f.name: getattr(self, f.name) for f in fields(self) if f.type == "float"})
        for name in ("lamp_semi_angle_deg", "tx_semi_angle_deg"):
            value = getattr(self, name)
            if not (0.0 < value < 90.0 and math.isfinite(lambert_mode(value))):
                raise ValueError(
                    f"{name} must lie in (0, 90) degrees (Lambert mode is undefined outside) "
                    f"with a finite mode -ln 2 / ln cos(semi-angle), got {value!r}"
                )
        concentrator_gain(self.concentrator_index, self.fov_deg)
        _in_range("filter_transmission", self.filter_transmission, _SMALLEST_POSITIVE, 1.0)
        for name in ("lamp", "transmitter", "receiver"):
            for axis in "xyz":
                _in_range(f"{name} position {axis}", getattr(getattr(self, name).position, axis), 0.0, getattr(self, f"room_{axis}_m"))
        if self.receiver.position.minus(self.transmitter.position).norm() < _COINCIDENT_EPS:
            sizes = ", ".join(f"{k} = {getattr(self, k)!r}" for k in ("room_x_m", "room_y_m", "room_z_m"))
            raise ValueError(f"transmitter and receiver lie closer than {_COINCIDENT_EPS} m apart in the room {sizes}")


def lambert_mode(semi_angle_deg: float) -> float:
    """Lambert mode number m = -ln 2 / ln cos(semi-angle at half power), for a
    semi-angle in (0, 90) degrees; inf where the cosine rounds to 1."""
    _one_number(semi_angle_deg=semi_angle_deg)
    log_cos = math.log(math.cos(math.radians(semi_angle_deg)))
    return -math.log(2.0) / log_cos if log_cos < 0.0 else math.inf


def concentrator_gain(index: float, fov_deg: float) -> float:
    """Ideal non-imaging concentrator gain n^2 / sin^2(fov), after the receiver's
    rule: a FOV in (0, 90] degrees wide enough that 1 / sin^2(fov) is finite
    (in a narrower cone sin^2 underflows), an index >= 1 and a finite gain (a
    huge index would overflow it)."""
    if not (isinstance(index, float) and isinstance(fov_deg, float)):  # a float is one number; spares a sweep a call per FOV
        _one_number(index=index, fov_deg=fov_deg)
    _in_range("fov_deg", fov_deg, _SMALLEST_POSITIVE, 90.0)
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
    patches_per_meter = _count("patches_per_meter", patches_per_meter)
    x, y, z = room.room_x_m, room.room_y_m, room.room_z_m
    r_wall, r_floor = room.wall_reflectivity, room.floor_reflectivity
    ex = Point3(1.0, 0.0, 0.0)
    ey = Point3(0.0, 1.0, 0.0)
    ez = Point3(0.0, 0.0, 1.0)
    o = Point3(0.0, 0.0, 0.0)
    faces = (  # origin, u and v directions, inward normal, u and v lengths, reflectivity
        (o, ex, ey, ez, x, y, r_floor),                                      # floor, faces up
        (o, ey, ez, ex, y, z, r_wall),                                       # wall x = 0
        (Point3(x, 0.0, 0.0), ey, ez, Point3(-1.0, 0.0, 0.0), y, z, r_wall),  # wall x = X
        (o, ex, ez, ey, x, z, r_wall),                                       # wall y = 0
        (Point3(0.0, y, 0.0), ex, ez, Point3(0.0, -1.0, 0.0), x, z, r_wall),  # wall y = Y
    )
    counts = {length: max(1, round(length * patches_per_meter)) for length in (x, y, z)}  # cells along a side of this length
    return tuple(
        SurfaceGrid(
            origin=origin,
            u_dir=u_dir,
            v_dir=v_dir,
            normal=normal,
            n_u=counts[len_u],
            n_v=counts[len_v],
            cell_u=len_u / counts[len_u],
            cell_v=len_v / counts[len_v],
            reflectivity=refl,
        )
        for origin, u_dir, v_dir, normal, len_u, len_v, refl in faces
    )
