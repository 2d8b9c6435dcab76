"""Seeded construction of candidate maps and random collineations."""

from __future__ import annotations

from .embeddings import PointMap, kappa_rho
from .errors import ParamOutOfRange, SingularMatrix
from .fields import create_field, prime_power
from .prng import SplitMix64
from .projective import ProjectiveSpace, SemilinearMap, standard_frame
from .veronese import VeroneseMap, veronese_for


def space_for(n: int, q: int) -> ProjectiveSpace:
    p, k = prime_power(q)
    return ProjectiveSpace(create_field(p, k), n)


def random_semilinear(
    space: ProjectiveSpace, rng: SplitMix64, alpha: int | None = None
) -> SemilinearMap:
    """Random collineation; the matrix is redrawn until it is invertible."""
    if alpha is None:
        alpha = rng.randbelow(space.field.k)
    q, size = space.field.q, space.n + 1
    while True:
        matrix = tuple(tuple(rng.randbelow(q) for _ in range(size)) for _ in range(size))
        try:
            return SemilinearMap(space, matrix, alpha)
        except SingularMatrix:
            pass


def veronese_point_map(n: int, q: int) -> PointMap:
    ver = veronese_for(space_for(n, q))
    return PointMap.from_function(ver.source, ver.target, ver.apply)


def compose_with_veronese(ver: VeroneseMap, kappa: SemilinearMap) -> PointMap:
    source = ver.source
    return PointMap(source, ver.target, dict(zip(source.points(), kappa_rho(source, kappa))))


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
    table = {src: frame[i] for i, src in enumerate(source.points())}
    return PointMap(source, target, table)


def broken_map(n: int, q: int, seed: int) -> PointMap:
    """Veronese table with one entry moved off the image (stays injective).

    The replacement is drawn by index and unranked with `point_at`, so
    the target, which can be far larger than the source, is never
    enumerated.
    """
    base = veronese_point_map(n, q)
    rng = SplitMix64(seed)
    src_pts = base.source.points()
    target = base.target
    image = set(base.image())
    victim = src_pts[rng.randbelow(len(src_pts))]
    while True:
        replacement = target.point_at(rng.randbelow(target.point_count))
        if replacement not in image:
            break
    table = dict(base.table)
    table[victim] = replacement
    return PointMap(base.source, base.target, table)


def generate_embedding(kind: str, n: int, q: int, seed: int | None = None) -> PointMap:
    """Build a candidate map of the requested kind.

    Kinds: ``veronese`` (no seed), ``veronese_kappa``, ``frame_injection``
    (forces n=2, q=2), ``broken`` (negative control).
    """
    if kind == "veronese":
        return veronese_point_map(n, q)
    if kind == "veronese_kappa":
        if seed is None:
            raise ParamOutOfRange("veronese_kappa needs a seed")
        return veronese_kappa_map(n, q, seed)[0]
    if kind == "frame_injection":
        if (n, q) != (2, 2):
            raise ParamOutOfRange("frame_injection is defined for n=2, q=2")
        if seed is None:
            raise ParamOutOfRange("frame_injection needs a seed")
        return frame_injection_map(seed)
    if kind == "broken":
        if seed is None:
            raise ParamOutOfRange("broken needs a seed")
        return broken_map(n, q, seed)
    raise ParamOutOfRange(f"unknown kind {kind!r}")
