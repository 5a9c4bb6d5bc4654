"""Irrep layouts, feature containers, and harmonic basis functions.

Conventions fixed here and relied on everywhere else:

* SO(3) feature blocks have shape ``(multiplicity, 2l+1)`` with components
  ordered ``m = -l, ..., +l``.
* SO(2) feature blocks have shape ``(multiplicity, 2)`` for order ``m > 0``
  with components ordered ``(x_{-m}, x_{+m})``, and ``(multiplicity, 1)``
  for ``m = 0``.  The pair ``(x_{-m}, x_{+m})`` is read as the complex
  number ``x_{+m} + i x_{-m}``; a planar rotation by ``phi`` multiplies it
  by ``e^{i m phi}``.
* Blocks may carry leading batch axes, ``(..., multiplicity, dim)``, shared
  by every block of a container: one container then holds the features of
  all nodes ``(N, ...)`` or all edges ``(E, ...)``.  The channel axis is
  always -2 and the component axis -1.
* Real spherical harmonics are orthonormal over the unit sphere and carry
  no Condon-Shortley phase; the polar axis is the fixed target axis of the
  local frames (the z-axis, see :mod:`so2frames.frames`).
* All arithmetic is 64-bit.

Layout strings follow the ``<mult>x<index><e|m>`` grammar, e.g.
``"256x0e+128x1e"`` for SO(3) degrees and ``"1024x0m+256x1m"`` for SO(2)
orders.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SO3 = "so3"
SO2 = "so2"

_TOKEN = re.compile(r"^(\d+)x(\d+)([em])$")


class LayoutError(ValueError):
    """Malformed layout spec or mismatched feature data."""


@dataclass(frozen=True)
class IrrepsLayout:
    """Ordered (index, multiplicity) pairs describing a feature container.

    ``index`` is the SO(3) degree ``l`` or the SO(2) order ``m`` depending
    on ``kind``; entries are sorted strictly ascending by index.
    """

    kind: str
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.kind not in (SO3, SO2):
            raise LayoutError(f"unknown layout kind {self.kind!r}")
        seen = -1
        for index, mult in self.entries:
            if index <= seen:
                raise LayoutError("layout entries must be strictly ascending by index")
            if mult < 1:
                raise LayoutError(f"multiplicity must be positive, got {mult}")
            if index < 0:
                raise LayoutError(f"index must be non-negative, got {index}")
            seen = index

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.entries)

    @property
    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    def mult(self, index: int) -> int:
        for idx, mult in self.entries:
            if idx == index:
                return mult
        return 0

    def component_dim(self, index: int) -> int:
        if self.kind == SO3:
            return 2 * index + 1
        return 2 if index > 0 else 1

    def block_shape(self, index: int) -> tuple[int, int]:
        return (self.mult(index), self.component_dim(index))

    @property
    def total_dim(self) -> int:
        return sum(mult * self.component_dim(idx) for idx, mult in self.entries)

    def format(self) -> str:
        suffix = "e" if self.kind == SO3 else "m"
        return "+".join(f"{mult}x{idx}{suffix}" for idx, mult in self.entries)

    def __str__(self) -> str:
        return self.format()


@lru_cache(maxsize=256)
def layout_parse(spec: str) -> IrrepsLayout:
    """Parse a layout spec like ``"4x0e+2x1e"`` into a canonical layout.

    Raises :class:`LayoutError` on malformed tokens, duplicate indices, or
    mixed ``e``/``m`` suffixes.  The result is sorted ascending and
    round-trips through :meth:`IrrepsLayout.format`.  Layouts are frozen,
    so each spec is parsed once and its layout shared.
    """
    tokens = spec.replace(" ", "").split("+")
    entries: dict[int, int] = {}
    kinds = set()
    for token in tokens:
        match = _TOKEN.match(token)
        if match is None:
            raise LayoutError(f"malformed layout token {token!r}")
        mult, index, suffix = int(match.group(1)), int(match.group(2)), match.group(3)
        if mult < 1:
            raise LayoutError(f"multiplicity must be positive in {token!r}")
        if index in entries:
            raise LayoutError(f"duplicate index {index} in {spec!r}")
        entries[index] = mult
        kinds.add(suffix)
    if len(kinds) != 1:
        raise LayoutError(f"mixed e/m suffixes in {spec!r}")
    kind = SO3 if kinds.pop() == "e" else SO2
    return IrrepsLayout(kind, tuple(sorted(entries.items())))


def so3_layout(entries) -> IrrepsLayout:
    return IrrepsLayout(SO3, tuple(sorted(entries)))


def so2_layout(entries) -> IrrepsLayout:
    return IrrepsLayout(SO2, tuple(sorted(entries)))


def batch_size(block) -> int:
    """Number of items in a block's leading batch axes (1 without any)."""
    return math.prod(block.shape[:-2])


class _Features:
    """Common container logic: a layout plus one block per layout entry."""

    kind: str

    def __init__(self, layout: IrrepsLayout, blocks):
        if layout.kind != self.kind:
            raise LayoutError(f"expected a {self.kind} layout, got {layout.kind}")
        blocks = tuple(blocks)
        if len(blocks) != len(layout.entries):
            raise LayoutError(
                f"{len(layout.entries)} layout entries but {len(blocks)} blocks")
        # blocks are numpy arrays or autodiff Vars; both expose .shape
        batch = tuple(blocks[0].shape[:-2]) if blocks else ()
        for (idx, mult), block in zip(layout.entries, blocks):
            expect = batch + (mult, layout.component_dim(idx))
            if tuple(block.shape) != expect:
                raise LayoutError(
                    f"block for index {idx} has shape {tuple(block.shape)}, "
                    f"expected {expect}")
        self.layout = layout
        self.blocks = blocks
        self.batch_shape = batch

    @classmethod
    def zeros(cls, layout: IrrepsLayout, batch_shape=()):
        return cls(layout, [np.zeros(tuple(batch_shape) + layout.block_shape(idx))
                            for idx in layout.indices])

    def block(self, index: int):
        for (idx, _), block in zip(self.layout.entries, self.blocks):
            if idx == index:
                return block
        raise KeyError(index)

    def items(self):
        for (idx, _), block in zip(self.layout.entries, self.blocks):
            yield idx, block

    def map_blocks(self, fn):
        return type(self)(self.layout, [fn(b) for b in self.blocks])

    def as_arrays(self):
        """Blocks as plain ndarrays (unwraps autodiff Vars)."""
        out = []
        for block in self.blocks:
            out.append(np.asarray(getattr(block, "value", block), dtype=np.float64))
        return out

    def flatten(self) -> np.ndarray:
        return np.concatenate([b.ravel() for b in self.as_arrays()])

    def norm(self) -> float:
        return float(np.linalg.norm(self.flatten()))

    def to_json(self) -> str:
        return json.dumps({
            "layout": self.layout.format(),
            "data": [b.tolist() for b in self.as_arrays()],
        })

    @classmethod
    def from_json(cls, text: str):
        doc = json.loads(text)
        layout = layout_parse(doc["layout"])
        blocks = [np.asarray(b, dtype=np.float64) for b in doc["data"]]
        return cls(layout, blocks)

    def __repr__(self):
        return f"{type(self).__name__}({self.layout})"


class So3Features(_Features):
    """Multi-channel SO(3) irrep coefficients, one block per degree."""

    kind = SO3


class So2Features(_Features):
    """Multi-channel SO(2) irrep coefficients, one block per order."""

    kind = SO2

    def complex_view(self) -> dict[int, np.ndarray]:
        """Per order m>0: the channels as x_{+m} + i x_{-m}."""
        out = {}
        for m, block in self.items():
            if m == 0:
                continue
            arr = np.asarray(getattr(block, "value", block))
            out[m] = arr[..., 1] + 1j * arr[..., 0]
        return out


DEFAULT_L_CAP = 8


def real_spherical_harmonics(l_max: int, direction) -> So3Features:
    """Orthonormal real spherical harmonics at a unit direction.

    One channel per degree ``l <= l_max``.  Normalization is orthonormal
    over the sphere: the integral of ``Y_{lm} Y_{l'm'}`` equals
    ``delta_{ll'} delta_{mm'}``.  Raises ``ValueError`` if the input is not
    unit length (tolerance 1e-12) or ``l_max`` exceeds the cap.
    """
    if l_max < 0 or l_max > DEFAULT_L_CAP:
        raise ValueError(f"l_max must be in [0, {DEFAULT_L_CAP}], got {l_max}")
    d = np.asarray(direction, dtype=np.float64)
    if d.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {d.shape}")
    norm = float(np.linalg.norm(d))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"direction must be unit length, |r| = {norm!r}")
    # Imported here rather than at module level: loading scipy.special adds
    # about 3.5 MiB of peak RSS to every process that imports so2frames,
    # and the model itself never evaluates harmonics.
    from scipy.special import sph_harm_y

    x, y, z = (float(c) for c in d)
    # the polar angle from atan2 keeps full precision next to the poles
    theta = math.atan2(math.hypot(x, y), z)
    phi = math.atan2(y, x)
    blocks = []
    for l in range(l_max + 1):
        m = np.arange(l + 1)
        # scipy's harmonics carry the Condon-Shortley phase (-1)^m; drop it
        Y = (-1.0) ** m * sph_harm_y(l, m, theta, phi)
        v = np.empty((1, 2 * l + 1))
        v[0, l] = Y[0].real
        v[0, l + 1:] = math.sqrt(2.0) * Y[1:].real
        v[0, :l] = math.sqrt(2.0) * Y[:0:-1].imag
        blocks.append(v)
    layout = so3_layout([(l, 1) for l in range(l_max + 1)])
    return So3Features(layout, blocks)


def circular_harmonics(m_max: int, angle: float) -> So2Features:
    """Real circular harmonics: B^0 = [1], B^m = [sin(m d), cos(m d)].

    One channel per order ``m <= m_max``; the (sin, cos) pair sits in the
    container's ``(x_{-m}, x_{+m})`` slots.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be non-negative, got {m_max}")
    blocks = [np.array([[1.0]])]
    for m in range(1, m_max + 1):
        blocks.append(np.array([[math.sin(m * angle), math.cos(m * angle)]]))
    layout = so2_layout([(m, 1) for m in range(m_max + 1)])
    return So2Features(layout, blocks)


def so2_rotation_matrix(m: int, phi: float) -> np.ndarray:
    """The order-m representation matrix of a planar rotation by phi.

    Acts on the ``(x_{-m}, x_{+m})`` pair; equals multiplication of
    ``x_{+m} + i x_{-m}`` by ``e^{i m phi}``.
    """
    if m == 0:
        return np.array([[1.0]])
    c, s = math.cos(m * phi), math.sin(m * phi)
    return np.array([[c, s], [-s, c]])


def rotate_so2(features: So2Features, phi: float) -> So2Features:
    """Apply the stabilizer rotation by angle phi to every order."""
    blocks = []
    for m, block in features.items():
        arr = np.asarray(getattr(block, "value", block))
        blocks.append(arr @ so2_rotation_matrix(m, phi).T)
    return So2Features(features.layout, blocks)
