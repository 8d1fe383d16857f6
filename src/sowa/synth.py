"""Synthetic anomaly corpus generator.

Backgrounds are seeded multi-octave value noise; defects come in four
pattern families of increasing spatial extent:

    point   - 1..2 small high-contrast disks        (<= 0.5% of pixels from 32 px;
                                                     smaller images get one 5-pixel disk)
    line    - a thin random polyline                (<= 2%)
    plane   - a filled ellipse or rectangle         (5..40%)
    motley  - a rectangular patch with re-seeded,
              contrast-inverted texture             (1..10%)

Every other sample is normal. Masks are exact by construction, pixel values
are quantized to the 8-bit grid at generation time so images carry what an
8-bit photograph can (and the pinned benchmark outputs stay bit-exact), and
everything is a pure function of (spec, sample index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from . import numerics
from .errors import ConfigError, DataError, UsageError

KINDS = ("point", "line", "plane", "motley")
SPLITS = ("train", "test")

# (min_fraction, max_fraction) of anomalous pixels per pattern family
AREA_BOUNDS: Dict[str, Tuple[float, float]] = {
    "point": (0.0, 0.005),
    "line": (0.0, 0.02),
    "plane": (0.05, 0.40),
    "motley": (0.01, 0.10),
}


@dataclass
class Sample:
    """One labeled image: pixels in [0, 1], label and mask in {-1, +1}."""

    image: np.ndarray  # (H, W, 3) float
    label: int
    mask: np.ndarray  # (H, W) int8
    category: str
    split: str
    defect: str
    sample_id: str

    def validate(self) -> "Sample":
        if self.mask.shape != self.image.shape[:2]:
            raise DataError(
                f"{self.sample_id}: mask {self.mask.shape} does not match "
                f"image {self.image.shape[:2]}"
            )
        if self.label not in (-1, 1):
            raise DataError(f"{self.sample_id}: label must be -1 or +1")
        return self


@dataclass
class Dataset:
    samples: List[Sample]

    def split(self, name: str) -> List[Sample]:
        """The samples of split ``name``: ``"train"``, ``"test"`` or ``"all"``."""
        if name == "all":
            return list(self.samples)
        if name not in SPLITS:
            raise UsageError(f"split must be one of {SPLITS + ('all',)}, got {name!r}")
        return [s for s in self.samples if s.split == name]


@dataclass(frozen=True)
class PatternSpec:
    kind: str = "mixed"
    seed: int = 0
    octaves: int = 3
    base_cells: int = 4
    amplitude: float = 0.3  # background texture swing around mid-gray

    def __post_init__(self):
        if self.kind not in KINDS + ("mixed",):
            raise ConfigError(f"kind must be one of {KINDS + ('mixed',)}, got {self.kind!r}")
        for name, minimum in (("seed", 0), ("octaves", 1), ("base_cells", 2)):
            numerics.check_integer(getattr(self, name), name, minimum, ConfigError)
        numerics.check_float(self.amplitude, "amplitude", 0.0, 1.0, ConfigError)


def _sample_rng(spec: PatternSpec, index: int, stream: int = 0) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=spec.seed, spawn_key=(index, stream))
    return np.random.Generator(np.random.PCG64(seq))


def _value_noise(rng: np.random.Generator, size: int, spec: PatternSpec) -> np.ndarray:
    """Multi-octave value noise in [0, 1] with mean near 0.5."""
    total = np.zeros((size, size))
    weight_sum = 0.0
    for octave in range(spec.octaves):
        cells = min(spec.base_cells * 2**octave, size)
        grid = rng.uniform(0.0, 1.0, size=(cells, cells)).astype(numerics.default_dtype())
        weight = 0.55**octave
        total += weight * numerics.bilinear_upsample(grid, size, size)
        weight_sum += weight
    return total / weight_sum


def _background(rng: np.random.Generator, size: int, spec: PatternSpec) -> np.ndarray:
    """Mid-gray texture with damped amplitude so defects carry the contrast."""
    noise = _value_noise(rng, size, spec)
    tint = rng.uniform(-0.03, 0.03, size=3)
    field = 0.5 + spec.amplitude * (noise[:, :, None] - 0.5) + tint[None, None, :]
    return np.clip(field, 0.0, 1.0)


def _contrast_color(region_mean: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A color far from the local background on every channel."""
    dark = rng.uniform(0.0, 0.08, size=3)
    bright = rng.uniform(0.92, 1.0, size=3)
    return np.where(region_mean > 0.5, dark, bright)


def _disk_pixels(center: Tuple[int, int], radius: float, size: int) -> np.ndarray:
    r0, c0 = center
    rr, cc = np.mgrid[0:size, 0:size]
    return (rr - r0) ** 2 + (cc - c0) ** 2 <= radius**2


def _paint_point(image, mask, rng, size):
    budget = int(AREA_BOUNDS["point"][1] * size * size)
    count = int(rng.integers(1, 3))
    for i in range(count):
        radius = float(rng.choice([1.0, 1.5]))
        center = (int(rng.integers(4, size - 4)), int(rng.integers(4, size - 4)))
        disk = _disk_pixels(center, radius, size)
        if i == 0 and disk.sum() > budget:  # small images: shrink the first disk, never skip it
            disk = _disk_pixels(center, 1.0, size)
        elif int(mask.sum() + disk.sum()) > budget:
            break
        color = _contrast_color(image[disk].mean(axis=0), rng)
        image[disk] = color
        mask |= disk


def _paint_line(image, mask, rng, size):
    budget = int(AREA_BOUNDS["line"][1] * size * size)
    points = rng.uniform(4, size - 4, size=(int(rng.integers(3, 6)), 2))
    width2 = bool(rng.integers(0, 2))
    pixels: List[Tuple[int, int]] = []
    seen = set()
    for (r0, c0), (r1, c1) in zip(points[:-1], points[1:]):
        steps = int(max(abs(r1 - r0), abs(c1 - c0)) * 2) + 1
        for t in np.linspace(0.0, 1.0, steps):
            r, c = int(round(r0 + t * (r1 - r0))), int(round(c0 + t * (c1 - c0)))
            for dr, dc in ((0, 0), (0, 1)) if width2 else ((0, 0),):
                key = (min(max(r + dr, 0), size - 1), min(max(c + dc, 0), size - 1))
                if key not in seen:
                    seen.add(key)
                    pixels.append(key)
    pixels = pixels[:budget]
    rows = np.array([p[0] for p in pixels])
    cols = np.array([p[1] for p in pixels])
    color = _contrast_color(image[rows, cols].mean(axis=0), rng)
    image[rows, cols] = color
    mask[rows, cols] = True


def _paint_plane(image, mask, rng, size):
    lo, hi = AREA_BOUNDS["plane"]
    target = float(rng.uniform(lo + 0.02, hi - 0.05))
    if rng.integers(0, 2):  # rectangle with exact area control
        height = int(np.clip(np.sqrt(target * size * size * rng.uniform(0.6, 1.6)), 4, size - 2))
        width = int(np.clip(target * size * size / height, 4, size - 2))
        r0 = int(rng.integers(0, size - height + 1))
        c0 = int(rng.integers(0, size - width + 1))
        region = np.zeros((size, size), dtype=bool)
        region[r0 : r0 + height, c0 : c0 + width] = True
    else:  # ellipse fully inside the frame
        aspect = float(rng.uniform(0.6, 1.6))
        a = np.sqrt(target * size * size * aspect / np.pi)
        b = target * size * size / (np.pi * a)
        a, b = float(min(a, size / 2 - 1)), float(min(b, size / 2 - 1))
        r0 = float(rng.uniform(a + 1, size - a - 1))
        c0 = float(rng.uniform(b + 1, size - b - 1))
        rr, cc = np.mgrid[0:size, 0:size]
        region = ((rr - r0) / a) ** 2 + ((cc - c0) / b) ** 2 <= 1.0
    fraction = region.mean()
    if not lo <= fraction <= hi:  # rasterization slop: fall back to an exact rectangle
        side = int(np.sqrt(0.15 * size * size))
        region = np.zeros((size, size), dtype=bool)
        region[:side, :side] = True
    color = _contrast_color(image[region].mean(axis=0), rng)
    image[region] = color
    mask |= region


def _paint_motley(image, mask, rng, size, spec):
    lo, hi = AREA_BOUNDS["motley"]
    # keep clear of the lower bound: integer side rounding can shave ~h/N off
    target = float(rng.uniform(lo + 0.01, hi - 0.01))
    height = int(np.clip(np.sqrt(target * size * size * rng.uniform(0.7, 1.4)), 3, size - 2))
    width = int(np.clip(target * size * size / height, 3, size - 2))
    r0 = int(rng.integers(0, size - height + 1))
    c0 = int(rng.integers(0, size - width + 1))
    other = _value_noise(rng, size, spec)
    patch = 1.0 - other[r0 : r0 + height, c0 : c0 + width]
    image[r0 : r0 + height, c0 : c0 + width] = patch[:, :, None]
    mask[r0 : r0 + height, c0 : c0 + width] = True


def generate_sample(spec: PatternSpec, index: int, image_size: int, category: str) -> Sample:
    """Deterministically build sample ``index``; even indices are normal.

    ``image_size`` must be at least 10: point centres keep 4 pixels from the
    border, and below 10 pixels a motley blob covers more than its area bound.
    """
    numerics.check_integer(image_size, "image_size", 10)
    rng = _sample_rng(spec, index)
    image = _background(rng, image_size, spec)
    mask = np.zeros((image_size, image_size), dtype=bool)
    normal = index % 2 == 0
    if normal:
        kind = "good"
    else:
        kind = spec.kind
        if kind == "mixed":
            kind = KINDS[(index // 2) % len(KINDS)]
        defect_rng = _sample_rng(spec, index, stream=1)
        if kind == "point":
            _paint_point(image, mask, defect_rng, image_size)
        elif kind == "line":
            _paint_line(image, mask, defect_rng, image_size)
        elif kind == "plane":
            _paint_plane(image, mask, defect_rng, image_size)
        else:
            _paint_motley(image, mask, defect_rng, image_size, spec)

    # quantize to the 8-bit grid, round-half-up, as an 8-bit camera would
    image = np.floor(np.clip(image, 0.0, 1.0) * 255.0 + 0.5) / 255.0
    split = "train" if (normal and (index // 2) % 2 == 0) else "test"
    label = -1 if normal else 1
    stem = f"{index:05d}"
    return Sample(
        image=image.astype(numerics.default_dtype()),
        label=label,
        mask=np.where(mask, 1, -1).astype(np.int8),
        category=category,
        split=split,
        defect=kind,
        sample_id=f"{category}/{split}/{kind}/{stem}",
    ).validate()


def synth_generate(spec: PatternSpec, n: int, image_size: int = 64) -> Dataset:
    """Generate ``n`` samples: half normal (alternating train/test), half
    defective (always test). ``image_size`` must be at least 10, as for
    ``generate_sample``."""
    numerics.check_integer(n, "n", 1)
    category = f"synthetic_{spec.kind}"
    samples = [generate_sample(spec, i, image_size, category) for i in range(n)]
    return Dataset(samples=samples)
