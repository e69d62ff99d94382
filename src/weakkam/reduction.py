"""Period lifts and subsolution tilts.

``lift_system`` pulls a built-in Lagrangian back through the phase-space
map (x, v, t) -> (x, v/N, N t), so an N-periodic structure of the base
becomes 1-periodic for the lift, with N * (lifted action) = (base action)
on time-rescaled curves. The lift is the same ``LagrangianSystem`` with
lift order N (mass 1/N^2, modulation N times as fast), so its evaluators,
bounds, critical subsolution and kernel symmetries are the family's own
closed forms.

``tilt_system`` subtracts the exact differential of a subsolution f and
adds the critical value c, producing a pointwise-nonnegative Lagrangian
that vanishes precisely on the Aubry set. The ``maupertuis`` f is the
system's own ``critical_subsolution`` folded at the maxima of the
potential, for every system without time modulation; ``zero`` is f = 0.
The differential part integrates exactly (it telescopes to boundary
values), so the tilt changes the action from (x0, t0) to (x1, t1) by
c (t1 - t0) + f(x0) - f(x1) and leaves minimizers untouched, which is the
whole point of the construction. So a tilt is a record, not a system: its
kernel is the base's kernel plus that boundary term, and its curve action
the base's plus the same term.
"""
from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable

import numpy as np

from .errors import ConfigurationError, InvalidSubsolutionError
from .systems import DiscretizedCurve, LagrangianSystem, curve_action, reduce_mod_1
from .tropical import Grid, TropicalKernel, assemble_kernel

SUBSOLUTION_TAGS = ("zero", "maupertuis")


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


def _subsolution(sys: LagrangianSystem, tag: str):
    """(f, f_x) of a subsolution tag, both functions of x alone.

    ``zero`` is f = 0. ``maupertuis`` folds the primitive u of the slope p
    of ``sys.critical_subsolution`` at the zeros x0 + Z/q of p, the maxima
    of the potential: f(x) = u(x0 + d) - u(x0), with d the distance from x
    to the nearest zero, and f_x = +-p(x0 + d), signed by the side of that
    zero. The corner halfway between two zeros is a maximum of f, so f
    stays a viscosity subsolution. No time-independent f follows the
    moving ceiling of eps != 0.
    """
    if tag == "zero":
        return (lambda x: np.zeros(np.shape(x)),) * 2
    if tag != "maupertuis":
        raise ConfigurationError(f"unknown subsolution tag {tag!r}; "
                                 f"choose one of {SUBSOLUTION_TAGS}")
    if sys.eps != 0.0:
        raise ConfigurationError("the maupertuis subsolution is time-independent: "
                                 "it needs a system without time modulation")
    _, u, p, _ = sys.critical_subsolution()
    q, x0 = sys.freq, sys.crest

    def fold(x):
        r = reduce_mod_1(q * (np.asarray(x, dtype=float) - x0))
        return x0 + np.minimum(r, 1.0 - r) / q, np.where(r <= 0.5, 1.0, -1.0)

    def f(x):
        return u(fold(x)[0]) - u(x0)

    def f_x(x):
        z, sign = fold(x)
        return sign * p(z)

    return f, f_x


@dataclasses.dataclass(frozen=True)
class TiltedSystem:
    """L(x, v, t) - f_x(x) v + c for a time-independent subsolution f of
    ``base``, with the minimum of the tilted Lagrangian over the lattice
    sweep of ``tilt_system`` and the lattice point where it is reached.

    The differential part integrates exactly along every curve, so a tilt
    changes the action from (x0, t0) to (x1, t1) by the boundary term
    c (t1 - t0) + f(x0) - f(x1) and by nothing else. Its curve action and
    its kernel are therefore the base's plus that term, and its minimizers
    are the base's; the solver stack never sees a tilt. Its pointwise
    ``lagrangian`` serves the sweep. It has no ``mass``: L_v couples to x
    through f_x, so the flow integrates the base instead.
    """

    base: LagrangianSystem
    f: Callable
    f_x: Callable
    c: float
    tilt_minimum: float
    tilt_witness: tuple | None

    def lagrangian(self, x, v, t):
        v = np.asarray(v, dtype=float)
        return self.base.lagrangian(x, v, t) - self.f_x(x) * v + self.c

    def _boundary_term(self, x0, x1, t0, t1):
        """c (t1 - t0) + f(x0) - f(x1), for lifted x0 and x1."""
        return self.c * (t1 - t0) + self.f(reduce_mod_1(x0)) - self.f(reduce_mod_1(x1))

    def curve_action(self, curve: DiscretizedCurve) -> float:
        """The base's ``curve_action`` plus the boundary term."""
        term = self._boundary_term(curve.samples[0], curve.samples[-1], curve.t0, curve.t1)
        return curve_action(self.base, curve) + float(term)

    def kernel(self, grid: Grid, s, delta) -> TropicalKernel:
        """The base's ``assemble_kernel``, with its symmetry reduction, plus
        the boundary term of every grid pair."""
        kernel = assemble_kernel(self.base, grid, s, delta)
        pts = grid.points
        term = self._boundary_term(pts[:, None], pts[None, :], kernel.s,
                                  kernel.s + kernel.delta)
        return dataclasses.replace(kernel, matrix=kernel.matrix + term)


# lattice (x, v, t) of the nonnegativity sweep, its velocity range, and the
# most negative tilted Lagrangian the sweep accepts
TILT_LATTICE = (64, 32, 16)
TILT_V_BOUND = 3.0
TILT_TOLERANCE = 1e-6


def tilt_system(sys: LagrangianSystem, f_tag: str, c: float) -> TiltedSystem:
    """Build the tilted Lagrangian and sweep a lattice for negativity.

    The sweep covers x in [0,1), v in [-TILT_V_BOUND, TILT_V_BOUND], t in
    [0,1); superlinearity makes large |v| harmless, the risk sits at
    moderate v. Returns the tilt with the minimum and its location; raises
    when the minimum is not at least -TILT_TOLERANCE.
    """
    if not math.isfinite(c):
        raise ConfigurationError("the tilt's critical value must be finite")
    draft = TiltedSystem(sys, *_subsolution(sys, f_tag), float(c), math.nan, None)
    nx, nv, nt = TILT_LATTICE
    xs = np.arange(nx) / nx
    vs = np.linspace(-TILT_V_BOUND, TILT_V_BOUND, nv)
    ts = np.arange(nt) / nt
    xg, vg, tg = np.meshgrid(xs, vs, ts, indexing="ij")
    values = draft.lagrangian(xg, vg, tg)
    flat = int(np.argmin(values))
    witness = (float(xg.flat[flat]), float(vg.flat[flat]), float(tg.flat[flat]))
    minimum = float(values.flat[flat])
    if not minimum >= -TILT_TOLERANCE:
        raise InvalidSubsolutionError(
            f"tilted Lagrangian reaches {minimum:.3e} at {witness}",
            witness=witness, minimum=minimum)
    return dataclasses.replace(draft, tilt_minimum=minimum, tilt_witness=witness)
