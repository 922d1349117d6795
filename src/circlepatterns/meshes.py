"""Convenience constructors for common cellular surfaces."""

from __future__ import annotations

from .surface import CellularSurface, build_surface, surface_from_walks


def tetrahedron() -> CellularSurface:
    return build_surface(faces=[[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])


def cube() -> CellularSurface:
    return build_surface(faces=[
        [0, 3, 2, 1], [4, 5, 6, 7],
        [0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7],
    ])


def octahedron() -> CellularSurface:
    return build_surface(faces=[
        [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4],
        [1, 0, 5], [2, 1, 5], [3, 2, 5], [0, 3, 5],
    ])


def torus_grid(m: int, n: int) -> CellularSurface:
    """m-by-n quadrilateral grid with opposite sides identified (genus 1).

    Faces and vertices are indexed row-major as i*n + j with i modulo m
    (horizontal) and j modulo n (vertical).  Works for all m, n >= 1; small
    grids contain double edges or loops, which the walk form handles.
    """
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be positive")

    def v(i, j):
        return (i % m) * n + (j % n)

    walks = []
    for i in range(m):
        for j in range(n):
            tokens = [
                (v(i, j), ("h", i, j), 1),
                (v(i + 1, j), ("v", (i + 1) % m, j), 1),
                (v(i + 1, j + 1), ("h", i, (j + 1) % n), -1),
                (v(i, j + 1), ("v", i, j), -1),
            ]
            walks.append((tokens, True))
    return surface_from_walks(walks)


def triangulated_torus(m: int, n: int) -> CellularSurface:
    """Regular 6-valent triangulation of the torus (grid plus diagonals).

    Needs m, n >= 3 so that vertex pairs determine edges uniquely.
    """
    if m < 3 or n < 3:
        raise ValueError("triangulated torus needs m, n >= 3")

    def v(i, j):
        return (i % m) * n + (j % n)

    faces = []
    for i in range(m):
        for j in range(n):
            faces.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            faces.append([v(i, j), v(i + 1, j + 1), v(i, j + 1)])
    return build_surface(faces=faces)
