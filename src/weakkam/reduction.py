"""Period lifts and subsolution tilts.

``lift_system`` pulls a built-in Lagrangian back through the phase-space
map (x, v, t) -> (x, v/N, N t), so an N-periodic structure of the base
becomes 1-periodic for the lift, with N * (lifted action) = (base action)
on time-rescaled curves. The lift is the same ``LagrangianSystem`` with
lift order N (mass 1/N^2, modulation N times as fast), so its evaluators,
bounds, critical subsolution and kernel symmetries are the family's own
closed forms.

``tilt_system`` subtracts the exact differential of a subsolution f and
adds the critical value, producing a pointwise-nonnegative Lagrangian that
vanishes precisely on the Aubry set. Discretely the differential part is
integrated exactly (it telescopes to boundary values), so the tilt changes
every fixed-endpoint action by the same constant and leaves minimizers
untouched, which is the whole point of the construction.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConfigurationError, InvalidSubsolutionError
from .systems import DiscretizedCurve, LagrangianSystem, reduce_mod_1

SUBSOLUTION_TAGS = ("zero", "constant", "maupertuis")
BLEND_HALF_WIDTH = 1e-2


def lift_system(sys: LagrangianSystem, n: int) -> LagrangianSystem:
    """The order-n period lift of a built-in system: the same family with
    its lift order multiplied by n, so lifts compose. An order below 1 is
    rejected by the system's own validation."""
    return dataclasses.replace(sys, lift=sys.lift * n)


def lift_curve(curve: DiscretizedCurve, n: int) -> DiscretizedCurve:
    """Time-rescale a curve by 1/n; sample values are unchanged, so the
    quadrature nodes of base and lift align and N * A_lift = A_base holds
    to rounding."""
    if n < 1:
        raise ConfigurationError("lift order must be a positive integer")
    return DiscretizedCurve(t0=curve.t0 / n, t1=curve.t1 / n,
                            samples=curve.samples.copy(), winding=curve.winding)


class Subsolution:
    """Interface of a time-independent subsolution f(x, t) with its exact
    x-derivative."""

    tag = "abstract"

    def value(self, x, t):
        raise NotImplementedError

    def dx(self, x, t):
        raise NotImplementedError


class ZeroSubsolution(Subsolution):
    tag = "zero"

    def value(self, x, t):
        return np.zeros_like(np.asarray(x, dtype=float))

    dx = value


class ConstantSubsolution(Subsolution):
    tag = "constant"

    def __init__(self, kappa: float = 1.0):
        self.kappa = float(kappa)

    def value(self, x, t):
        return np.full_like(np.asarray(x, dtype=float), self.kappa)

    def dx(self, x, t):
        return np.zeros_like(np.asarray(x, dtype=float))


class MaupertuisSubsolution(Subsolution):
    """Primitive of the critical-speed field for the single-well cosine
    potential (spatial frequency 1, no time modulation).

    On [0, 1/2] the value is (2 sqrt(A) / pi)(1 - cos(pi x)), mirrored at
    x = 1/2. The mirror corner is replaced on a band of half-width 1e-2 by
    a C^2 blend whose slope stays below the critical speed, so the tilted
    Lagrangian remains nonnegative there with a strict margin.
    """

    tag = "maupertuis"

    def __init__(self, amp: float = 1.0):
        if amp <= 0:
            raise ConfigurationError("amplitude must be positive")
        self.amp = float(amp)
        w = BLEND_HALF_WIDTH
        root = math.sqrt(self.amp)
        g1 = 2.0 * root * math.sin(math.pi * (0.5 - w))
        g2 = 2.0 * root * math.pi * math.cos(math.pi * (0.5 - w))
        self._w = w
        self._a = -(g1 + g2 * w) / w ** 2
        self._b = g2 + 2.0 * self._a * w
        self._edge_value = (2.0 * root / math.pi) * (1.0 - math.cos(math.pi * (0.5 - w)))
        self._root = root

    def _pieces(self, x):
        u = reduce_mod_1(np.asarray(x, dtype=float))
        folded = np.minimum(u, 1.0 - u)
        sign = np.where(u <= 0.5, 1.0, -1.0)
        xi = folded - 0.5  # in [-1/2, 0]
        in_band = xi >= -self._w
        return folded, sign, xi, in_band

    def _blend_value(self, xi):
        w, a, b = self._w, self._a, self._b
        return (self._edge_value + a * (xi ** 3 + w ** 3) / 3.0
                + b * (xi ** 2 - w ** 2) / 2.0)

    def value(self, x, t):
        folded, _, xi, in_band = self._pieces(x)
        smooth = (2.0 * self._root / math.pi) * (1.0 - np.cos(math.pi * folded))
        return np.where(in_band, self._blend_value(xi), smooth)

    def dx(self, x, t):
        folded, sign, xi, in_band = self._pieces(x)
        smooth = 2.0 * self._root * np.sin(math.pi * folded)
        blend = self._a * xi ** 2 + self._b * xi
        return sign * np.where(in_band, blend, smooth)


def subsolution_from_tag(tag: str, sys, kappa: float = 1.0) -> Subsolution:
    if tag == "zero":
        return ZeroSubsolution()
    if tag == "constant":
        return ConstantSubsolution(kappa)
    if tag == "maupertuis":
        if not (isinstance(sys, LagrangianSystem) and sys.family == "mechanical-cos"
                and sys.freq == 1 and sys.eps == 0.0 and sys.lift == 1):
            raise ConfigurationError(
                "the maupertuis subsolution fits the single-well cosine "
                "potential without time modulation or lift only")
        return MaupertuisSubsolution(amp=sys.amp)
    raise ConfigurationError(f"unknown subsolution tag {tag!r}; "
                             f"choose one of {SUBSOLUTION_TAGS}")


class TiltedSystem:
    """L(x,v,t) - f_x(x,t) v + c for a time-independent subsolution f, with
    the differential part integrated exactly along curves (boundary term),
    not by quadrature. Quadrature runs on the base system, so only the
    pointwise ``lagrangian`` of the tilt itself is evaluated, by the
    nonnegativity sweep. It has no ``mass``: L_v couples to x through f_x,
    so the flow integrates the base instead."""

    def __init__(self, base, sub: Subsolution, c: float):
        self.base = base
        self.sub = sub
        self.c = float(c)
        self.tilt_minimum = None
        self.tilt_witness = None

    def lagrangian(self, x, v, t):
        v = np.asarray(v, dtype=float)
        return self.base.lagrangian(x, v, t) - self.sub.dx(x, t) * v + self.c

    def quadrature_system(self):
        return self.base.quadrature_system()

    def kernel_symmetries(self, n, s, delta):
        # the boundary offset f(start) - f(end) breaks the base's symmetries
        return ()

    def action_offset(self, x0, x1, t0, t1):
        # c (t1 - t0) plus the exact telescoped differential f(start) - f(end).
        return (self.c * (np.asarray(t1, dtype=float) - np.asarray(t0, dtype=float))
                + self.sub.value(reduce_mod_1(x0), t0)
                - self.sub.value(reduce_mod_1(x1), t1))

    def label(self):
        return f"tilt(f={self.sub.tag},c={self.c:g}) of {self.base.label()}"


# lattice (x, v, t) of the nonnegativity sweep, its velocity range, and the
# most negative tilted Lagrangian the sweep accepts
TILT_LATTICE = (64, 32, 16)
TILT_V_BOUND = 3.0
TILT_TOLERANCE = 1e-6


def tilt_system(sys, f_tag: str, c: float, kappa: float = 1.0) -> TiltedSystem:
    """Build the tilted Lagrangian and sweep a lattice for negativity.

    The sweep covers x in [0,1), v in [-TILT_V_BOUND, TILT_V_BOUND], t in
    [0,1); superlinearity makes large |v| harmless, the risk sits at
    moderate v. Records the minimum and its location; raises when the
    minimum drops below -TILT_TOLERANCE.
    """
    sub = subsolution_from_tag(f_tag, sys, kappa=kappa)
    tilted = TiltedSystem(sys, sub, c)
    nx, nv, nt = TILT_LATTICE
    xs = np.arange(nx) / nx
    vs = np.linspace(-TILT_V_BOUND, TILT_V_BOUND, nv)
    ts = np.arange(nt) / nt
    xg, vg, tg = np.meshgrid(xs, vs, ts, indexing="ij")
    values = tilted.lagrangian(xg, vg, tg)
    flat = int(np.argmin(values))
    witness = (float(xg.flat[flat]), float(vg.flat[flat]), float(tg.flat[flat]))
    minimum = float(values.flat[flat])
    tilted.tilt_minimum = minimum
    tilted.tilt_witness = witness
    if minimum < -TILT_TOLERANCE:
        raise InvalidSubsolutionError(
            f"tilted Lagrangian reaches {minimum:.3e} at {witness}",
            witness=witness, minimum=minimum)
    return tilted
