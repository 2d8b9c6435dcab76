"""Seeded construction of candidate maps and random collineations."""

from __future__ import annotations

from . import linalg
from .embeddings import PointMap, kappa_rho
from .errors import ParamOutOfRange
from .fields import create_field, prime_power
from .prng import SplitMix64
from .projective import ProjectiveSpace, SemilinearMap, checked_alpha, standard_frame
from .veronese import VeroneseMap, veronese_for


def space_for(n: int, q: int) -> ProjectiveSpace:
    p, k = prime_power(q)
    return ProjectiveSpace(create_field(p, k), n)


def random_semilinear(
    space: ProjectiveSpace, rng: SplitMix64, alpha: int | None = None
) -> SemilinearMap:
    """Random collineation; the matrix is redrawn until it is invertible.

    None draws alpha first; any other alpha goes through `checked_alpha`
    before the first draw, as the `SemilinearMap` constructor takes it.
    Each attempt draws the (n+1)^2 matrix codes row by row with
    `randbelow(q)` and makes one `linalg.rank` test.  An invertible
    matrix goes to `SemilinearMap.from_basis`: its codes are integers in
    [0, q) and the rank test is the constructor's own, so the
    constructor's checks could not fail.  Callers: `veronese_kappa_map`,
    `frame_injection_map` and the suites.
    """
    field = space.field
    alpha = rng.randbelow(field.k) if alpha is None else checked_alpha(field, alpha)
    q, size = field.q, space.n + 1
    while True:
        matrix = [[rng.randbelow(q) for _ in range(size)] for _ in range(size)]
        if linalg.rank(field, matrix) == size:
            return SemilinearMap.from_basis(space, linalg.transpose(matrix), alpha)


def veronese_point_map(n: int, q: int) -> PointMap:
    ver = veronese_for(space_for(n, q))
    return PointMap.from_images(ver.source, ver.target, ver.image())


def compose_with_veronese(ver: VeroneseMap, kappa: SemilinearMap) -> PointMap:
    return PointMap.from_images(ver.source, ver.target, kappa_rho(ver.source, kappa))


def veronese_kappa_map(n: int, q: int, seed: int) -> tuple[PointMap, SemilinearMap]:
    """Veronese table composed with a seeded random collineation."""
    ver = veronese_for(space_for(n, q))
    rng = SplitMix64(seed)
    kappa = random_semilinear(ver.target, rng)
    return compose_with_veronese(ver, kappa), kappa


def frame_injection_map(seed: int) -> PointMap:
    """Random injection of the 7-point plane onto a random frame (n=2, q=2).

    PGL(6, 2) acts regularly on ordered frames, so a random collineation
    of the standard frame is a uniformly random ordered frame.
    """
    ver = veronese_for(space_for(2, 2))
    source, target = ver.source, ver.target
    rng = SplitMix64(seed)
    kappa = random_semilinear(target, rng)
    frame = list(kappa.images(standard_frame(target)))
    rng.shuffle(frame)
    return PointMap.from_images(source, target, frame)


def broken_map(n: int, q: int, seed: int) -> PointMap:
    """Veronese table with one entry moved off the image (stays injective).

    The replacement is drawn by index and unranked with `point_at`, so
    the target, which can be far larger than the source, is never
    enumerated.
    """
    ver = veronese_for(space_for(n, q))
    rng = SplitMix64(seed)
    images = list(ver.image())
    target = ver.target
    image = set(images)
    victim = rng.randbelow(len(images))
    while True:
        replacement = target.point_at(rng.randbelow(target.point_count))
        if replacement not in image:
            break
    images[victim] = replacement
    return PointMap.from_images(ver.source, target, images)


def generate_embedding(kind: str, n: int, q: int, seed: int | None = None) -> PointMap:
    """Build a candidate map of the requested kind.

    Kinds: ``veronese`` (no seed), ``veronese_kappa``, ``frame_injection``
    (forces n=2, q=2), ``broken`` (negative control).  A seed must lie in
    [0, 2**64), which `SplitMix64` checks.
    """
    if kind == "veronese":
        if seed is not None:
            raise ParamOutOfRange("veronese takes no seed")
        return veronese_point_map(n, q)
    seeded = {
        "veronese_kappa": lambda: veronese_kappa_map(n, q, seed)[0],
        "frame_injection": lambda: frame_injection_map(seed),
        "broken": lambda: broken_map(n, q, seed),
    }
    if kind not in seeded:
        raise ParamOutOfRange(f"unknown kind {kind!r}")
    if kind == "frame_injection" and (n, q) != (2, 2):
        raise ParamOutOfRange("frame_injection is defined for n=2, q=2")
    if seed is None:
        raise ParamOutOfRange(f"{kind} needs a seed")
    return seeded[kind]()
