"""Reference values computed apart from fatflat, and the checks that use them.

Nothing here imports fatflat.  The interpolated warping profile is rebuilt
from its definition with scipy's adaptive quadrature, so a check that
compares against it does not share the program's bump-integral table,
its ramp-blend formulas or its curvature code.  Every check returns None
when the value is accepted and a short reason when it is not.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def _sinh_minus_linear(r: float) -> float:
    if r >= 1.0:
        return math.sinh(r) - r
    term, total, n = r ** 3 / 6.0, 0.0, 3
    while abs(term) > 1e-18 * max(total, 1e-300):
        total += term
        term *= r * r / ((n + 1) * (n + 2))
        n += 2
    return total


class RefProfile:
    """(sigma, tau) jets of the interpolated profile with bump width k.

    The step rho is F(y)/F(k), F the integral of the bump
    exp(-k^2/(k^2 - y^2)) from -k, y = r - (k + 1/k), so that
    sigma = r + rho (sinh r - r) and tau = 1 + rho (cosh r - 1).
    """

    def __init__(self, k: float = 19.0):
        self.k = k
        self.total = quad(self._f, -k, k, epsabs=0.0, epsrel=1e-13,
                          limit=200)[0]

    def _f(self, y: float) -> float:
        u = self.k * self.k - y * y
        return math.exp(-self.k * self.k / u) if u > 0.0 else 0.0

    def _fp(self, y: float) -> float:
        kk = self.k * self.k
        u = kk - y * y
        return self._f(y) * (-2.0 * kk * y / (u * u)) if u > 0.0 else 0.0

    def rho(self, r: float) -> tuple[float, float, float]:
        y = r - (self.k + 1.0 / self.k)
        if y <= -self.k:
            return 0.0, 0.0, 0.0
        if y >= self.k:
            return 1.0, 0.0, 0.0
        # integrate over the shorter side so rho near 1 keeps its digits
        if y < 0.0:
            value = quad(self._f, -self.k, y, epsabs=0.0, epsrel=1e-13,
                         limit=200)[0] / self.total
        else:
            value = 1.0 - quad(self._f, y, self.k, epsabs=0.0, epsrel=1e-13,
                               limit=200)[0] / self.total
        return value, self._f(y) / self.total, self._fp(y) / self.total

    def jets(self, r: float):
        """(sigma, sigma', sigma'', tau, tau', tau'') and sigma' - 1."""
        p, p1, p2 = self.rho(r)
        sh, ch = math.sinh(r), math.cosh(r)
        sml = _sinh_minus_linear(r)
        cm1 = 2.0 * math.sinh(0.5 * r) ** 2
        sigma_p_m1 = p1 * sml + p * cm1
        return ((r + p * sml, 1.0 + sigma_p_m1,
                 p2 * sml + 2.0 * p1 * cm1 + p * sh,
                 1.0 + p * cm1, p1 * cm1 + p * sh,
                 p2 * cm1 + 2.0 * p1 * sh + p * ch), sigma_p_m1)

    def polar3_metric(self, position) -> np.ndarray:
        """diag(1, sigma^2, tau^2) in the (r, theta, z) chart."""
        (sg, _, _, tu, _, _), _ = self.jets(float(position[0]))
        return np.diag([1.0, sg * sg, tu * tu])

    def four_d_components(self, r: float, theta: float) -> dict:
        """The six nonzero R_(ijij) of the (r, theta, phi, z) chart."""
        (sg, sgp, sgpp, tu, tup, tupp), sgp_m1 = self.jets(r)
        st2 = math.sin(theta) ** 2
        theta_r = -sg * sgpp
        theta_z = -sg * sgp * tu * tup
        return {
            (1, 0, 1, 0): theta_r,
            (2, 0, 2, 0): theta_r * st2,
            (3, 0, 3, 0): -tu * tupp,
            (2, 1, 2, 1): -sgp_m1 * (sgp + 1.0) * sg * sg * st2,
            (1, 3, 1, 3): theta_z,
            (2, 3, 2, 3): theta_z * st2,
        }


def rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def metric_orthonormal(g: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Gram-Schmidt (twice) of the rows of ``raw`` in the inner product g."""
    frame: list[np.ndarray] = []
    for row in raw:
        for _ in range(2):
            for prev in frame:
                row = row - float(prev @ g @ row) * prev
        frame.append(row / math.sqrt(float(row @ g @ row)))
    return np.array(frame)


def disk_vertices(count: int = 256) -> np.ndarray:
    ang = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def shoelace_area(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


# ---------------------------------------------------------------------------
# checks: None when accepted, else the reason


def within(name: str, value: float, bound: float):
    if not value <= bound:  # also rejects NaN
        return f"{name} = {value:.3e} exceeds {bound:.1e}"
    return None


def check_energy_drift(energies: np.ndarray, duration: float):
    drift = float(np.max(np.abs(energies - energies[0])))
    return within("energy drift", drift, 1e-8 * (1.0 + duration))


def check_return(start_pos, start_vel, end_pos, end_vel):
    gap = max(float(np.max(np.abs(end_pos - start_pos))),
              float(np.max(np.abs(-end_vel - start_vel))))
    return within("time-reversed return gap", gap, 1e-6)


def check_gram_identity(vectors: np.ndarray, g: np.ndarray):
    gram = vectors @ g @ vectors.T
    return within("transported Gram defect",
                  float(np.max(np.abs(gram - np.eye(len(vectors))))), 1e-8)


def check_riccati(u: np.ndarray, expected: np.ndarray):
    return within("Riccati operator error",
                  float(np.max(np.abs(u - expected))), 1e-6)


def check_riccati_comparison(u: np.ndarray, duration: float):
    """Nonpositive curvature keeps U(T) >= I/(1 + T) (Riccati comparison)."""
    if not np.all(np.isfinite(u)):
        return "Riccati operator is not finite"
    low = float(np.min(np.linalg.eigvalsh(0.5 * (u + u.T))))
    return within("Riccati comparison defect", 1.0 / (1.0 + duration) - low,
                  1e-9)


def check_holonomy(hol: np.ndarray, angle: float):
    return within("holonomy distance from the twist",
                  float(np.linalg.norm(hol - rotation(angle))), 1e-8)


def check_rk4_order(ratio: float):
    if not ratio >= 8.0:
        return f"RK4 error ratio {ratio:.3f} below 8"
    return None


def check_sections(kmax: float, kmin: float, expected: float, tol: float):
    """Both extremes of a scan equal the exact sectional curvature."""
    gap = max(abs(kmax - expected), abs(kmin - expected))
    return within(f"section gap from {expected:g} (max {kmax}, min {kmin})",
                  gap, tol)


def check_union_estimate(vertices: np.ndarray, shift, samples: int,
                         estimate_gap: float, program_area: float):
    """The program's exact area is the shoelace area, and its Monte-Carlo
    estimate lies within 3 sigma of it.  ``estimate_gap`` is the report's
    |estimate - program_area|; sigma is the hit-or-miss standard error over
    the joint bounding box."""
    area = shoelace_area(vertices)
    if not abs(program_area - area) <= 1e-12 * area:
        return f"program area {program_area!r} is not the shoelace area {area!r}"
    moved = vertices + np.asarray(shift, dtype=float)
    span = (np.maximum(vertices.max(0), moved.max(0))
            - np.minimum(vertices.min(0), moved.min(0)))
    box = float(np.prod(span))
    p = area / box
    sigma = box * math.sqrt(p * (1.0 - p) / samples)
    return within("|estimate - area| / sigma", estimate_gap / sigma, 3.0)
