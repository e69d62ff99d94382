"""Built-in time-periodic Lagrangians on the unit torus.

Two analytic families are provided: the free kinetic Lagrangian
L = v^2/2, and a pendulum-type family with a cosine potential whose
strength is modulated 1-periodically in time,

    L(x, v, t) = v^2/2 - A cos(2 pi q x) (1 + eps cos(2 pi t)).

Both are one closed form: the free family is the cosine family at
amplitude 0. A period lift of order N, L(x, v/N, N t), is the same family
with ``lift`` = N: its mass is 1/N^2 and its modulation runs N times as
fast. Every evaluator reads one phase 2 pi q (x mod 1) and one modulation
1 + eps cos(2 pi N t) (``modulation``), so L from ``lagrangian`` and from
``lagrangian_and_grads`` agree bit for bit. The flow's stepper
(``flow._rk4``) inlines the float form of this phase and of L_x and L_xx,
at a modulation it tabulates once per integration, and steps bit for bit
as these closed forms would.
The evaluators accept scalars or numpy arrays; all reduce x and t
mod 1 internally, so spatial and temporal periodicity hold to the last bit
whenever the shifted argument is representable.

Each family also gives a critical subsolution (``critical_subsolution``):
a ceiling c'(t) = max_x U(x, t) and a slope p with H(x, p, t) <= c'(t),
with its primitive u, so L + c'(t) >= p v. The winding search turns it
into a lower bound on the action of every curve with given lifted
endpoints, and prunes the windings that bound rules out; folded at its
zeros, it is the Maupertuis subsolution of a tilt.

The minimizer, the winding search and kernel assembly read these systems
and nothing else; a subsolution tilt is its base's kernel plus an exact
boundary term (``reduction.TiltedSystem``), not a system of its own.

Curves are stored lifted to the real line with an explicit winding count;
positions reduce mod 1 only at API boundaries, because the action depends
on the lift, not on the projection.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

TWO_PI = 2.0 * math.pi

FAMILIES = ("free", "mechanical-cos")
# floats of lifted samples that one evaluation block holds, 256 KiB per
# array: a block's working set stays in cache, whatever the batch size
BLOCK_FLOATS = 32_768
# floats of lifted samples that one search batch may hold over the first shell
# of windings: 8 MB per batch-level array (samples, values, gradients)
BATCH_FLOATS = 1_000_000
# the fewest rows a batch or block holds when it has as many: fewer rows
# take BLAS's small-matrix routines, which round differently
MIN_BATCH_PAIRS = 16


def reduce_mod_1(z):
    """Canonical torus representative in [0, 1).

    Tiny negative inputs would round z - floor(z) up to exactly 1.0, so
    that case folds back to 0.
    """
    r = z - np.floor(z)
    return np.where(r == 1.0, 0.0, r)


def positive_integer(value, what: str, least: int = 1) -> int:
    """``value`` as an int, or ``ConfigurationError`` naming ``what``
    unless it is an integer of at least ``least``: any integer type, but
    not a bool. The one integer check of every count, size and index."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        bound = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            least, f"an integer of at least {least}")
        raise ConfigurationError(f"{what} must be {bound}")
    return int(value)


def torus_distance(a, b):
    """Shortest distance on the unit circle, vectorized."""
    d = np.abs(reduce_mod_1(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))
    return np.minimum(d, 1.0 - d)


@dataclass(frozen=True)
class LagrangianSystem:
    """A built-in Lagrangian family with exact derivative evaluators.

    Every quantity reads the potential's phase, 2 pi q (x mod 1), and its
    modulation, 1 + eps cos 2 pi N t, each from one evaluator; the free
    family is the cosine family at amplitude 0. The kinetic part is
    ``mass`` v^2/2 with the constant mass 1/N^2 of the lift order N =
    ``lift``, so L_v depends on v alone and the flow reduces to
    v' = L_x / mass. Base systems have N = 1 and skip every lift branch.

    Only analytic built-ins are supported: shooting and monodromy
    integration need exact derivatives, so numeric user-supplied
    Lagrangians are deliberately out of scope.
    """

    family: str = "mechanical-cos"
    amp: float = 1.0
    freq: int = 1
    eps: float = 0.0
    lift: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown Lagrangian family {self.family!r}; "
                                     f"choose one of {FAMILIES}")
        for name, what in (("freq", "spatial frequency"), ("lift", "lift order")):
            object.__setattr__(self, name, positive_integer(getattr(self, name), what))
        if not math.isfinite(self.amp):
            raise ConfigurationError("potential amplitude must be finite")
        if not abs(self.eps) < 1.0:
            raise ConfigurationError("time-modulation amplitude must satisfy |eps| < 1")
        if self.family == "free":
            object.__setattr__(self, "amp", 0.0)

    # -- closed forms ----------------------------------------------------

    @property
    def mass(self) -> float:
        return 1.0 / self.lift ** 2

    def _phase(self, x):
        """2 pi q (x mod 1), read by every closed form. A tiny negative x
        rounds x - floor(x) up to exactly 1.0, which folds to phase 0 as in
        ``reduce_mod_1``; the fold is masked in place because this runs in
        the minimizer's hot loop, and ``out`` keeps a scalar input a
        writable 0-d array."""
        x = np.asarray(x, dtype=float)
        phase = np.subtract(x, np.floor(x), out=np.empty_like(x))
        phase[phase == 1.0] = 0.0
        phase *= TWO_PI * self.freq
        return phase

    def modulation(self, t):
        """1 + eps cos(2 pi N t), the one closed form of the time
        modulation; the scalar 1.0 when eps = 0."""
        if self.eps == 0.0:
            return 1.0
        if self.lift != 1:
            t = np.asarray(t, dtype=float) * self.lift
        return 1.0 + self.eps * np.cos(TWO_PI * reduce_mod_1(t))

    def potential(self, x, t):
        """Potential energy U(x, t); the Lagrangian is v^2/2 - U."""
        return np.cos(self._phase(x)) * (self.amp * self.modulation(t))

    def lagrangian(self, x, v, t):
        v = np.asarray(v, dtype=float)
        if self.lift != 1:
            v = v / self.lift
        return 0.5 * v * v - self.potential(x, t)

    def lagrangian_xx(self, x, v, t):
        w = TWO_PI * self.freq
        return self.amp * w * w * np.cos(self._phase(x)) * self.modulation(t)

    def lagrangian_and_grads(self, x, v, t):
        """(L, L_x, L_v) in one call; shares the phase and the modulation,
        and its L equals ``lagrangian`` bit for bit.

        Inputs must already have a common shape (the hot loops guarantee
        it); on a base system L_v aliases v and must not be mutated.
        """
        v = np.asarray(v, dtype=float)
        if self.lift != 1:
            v = v / self.lift
        phase, m = self._phase(x), self.modulation(t)
        lag = np.cos(phase)
        lag *= -(self.amp * m)
        lag += 0.5 * v * v
        lx = np.sin(phase)
        lx *= self.amp * (TWO_PI * self.freq) * m
        return lag, lx, v if self.lift == 1 else v / self.lift

    def lagrangian_xx_bound(self) -> float:
        """Sup of |L_xx| over phase space, used to scale preconditioners."""
        return abs(self.amp) * (TWO_PI * self.freq) ** 2 * (1.0 + abs(self.eps))

    def potential_upper_bound(self) -> float:
        """Sup of the potential; L >= v^2/2 - this bound pointwise."""
        return abs(self.amp) * (1.0 + abs(self.eps))

    def hamiltonian(self, x, p, t):
        """Legendre-dual energy, H = p^2 / (2 mass) + U(x, t) = (N p)^2/2 + U."""
        return 0.5 * (np.asarray(p, dtype=float) * self.lift) ** 2 + self.potential(x, t)

    @property
    def crest(self) -> float:
        """A maximum of the potential: 0, or 1/(2q) when A < 0."""
        return 0.5 / self.freq if self.amp < 0 else 0.0

    def critical_subsolution(self):
        """(c', u, p, Lambda): a ceiling c'(t) = max_x U(x, t), a slope p
        with H(x, p, t) <= c'(t) everywhere, its primitive u on the lifted
        line, and the Lipschitz constant Lambda of p; so L + c'(t) >= p v
        pointwise, the weak KAM subsolution inequality, whose ceiling
        averages to |A| over a period.

        With a = |A| (1 - |eps|) = min_t c'(t) and x0 = ``crest``,
        p = 2 sqrt(mass a) |sin(pi q (x - x0))| gives p^2 / (2 mass) =
        a (1 - cos), at most c'(t) (1 - cos) = c'(t) - U(x, t). Its zeros
        x0 + Z/q are the maxima of the potential. The free family is
        amplitude 0, so u = p = 0.
        """
        root = 2.0 * math.sqrt(self.mass * abs(self.amp) * (1.0 - abs(self.eps)))
        q = self.freq
        x0 = self.crest

        def ceiling(t):
            return self.potential(np.full(np.shape(t), x0), t)

        def u(z):
            w = q * (np.asarray(z, dtype=float) - x0)
            k = np.floor(w)
            return (root / (math.pi * q)) * (2.0 * k + 1.0 - np.cos(math.pi * (w - k)))

        def p(z):
            return root * np.abs(np.sin(math.pi * q * (np.asarray(z, dtype=float) - x0)))

        return ceiling, u, p, math.pi * q * root

    # -- kernel symmetries -----------------------------------------------

    def kernel_symmetries(self, n: int, s: float, delta: float):
        """(shift, reverses) of the n-point kernel over [s, s + delta],
        whose reflection x -> -x always holds. ``shift`` is the least
        declared grid shift that leaves it invariant: 1 at amplitude 0
        (the free family), else n / gcd(n, q), the fewest grid steps k
        whose length k/n is a multiple of the potential's period 1/q (n,
        none, when n and q are coprime). ``reverses`` says that time
        reversal about the window's middle transposes the kernel, as it
        does when the modulation is even about it: when eps = 0 or
        N (2s + delta) is an integer.
        """
        shift = 1 if self.amp == 0.0 else n // math.gcd(n, self.freq)
        return shift, self.eps == 0.0 or float(self.lift * (2.0 * s + delta)).is_integer()

    def label(self):
        if self.family == "free":
            base = "free"
        else:
            base = f"mechanical-cos(A={self.amp:g},q={self.freq},eps={self.eps:g})"
        return base if self.lift == 1 else f"lift(N={self.lift}) of {base}"


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, v, t) with x reduced to [0, 1)."""

    x: float
    v: float
    t: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.v) and np.isfinite(self.t)):
            raise ConfigurationError("phase point coordinates must be finite")
        object.__setattr__(self, "x", float(reduce_mod_1(self.x)))
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "t", float(self.t))


@dataclass(frozen=True)
class DiscretizedCurve:
    """A curve sampled on a uniform time grid, lifted to the real line.

    ``samples[k]`` is the lifted position at time t0 + k*spacing; ``winding``
    is the net integer displacement of the lift relative to the reduced
    endpoints.
    """

    t0: float
    t1: float
    samples: np.ndarray
    winding: int = 0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ConfigurationError("a curve needs at least two samples")
        if not self.t1 > self.t0:
            raise ConfigurationError("curve requires t1 > t0")
        object.__setattr__(self, "samples", samples)

    @property
    def n_segments(self) -> int:
        return self.samples.size - 1

    @property
    def spacing(self) -> float:
        return (self.t1 - self.t0) / self.n_segments

    def times(self) -> np.ndarray:
        return self.t0 + self.spacing * np.arange(self.samples.size)

    def midpoint_times(self) -> np.ndarray:
        return self.t0 + self.spacing * (np.arange(self.n_segments) + 0.5)

    def start(self) -> float:
        return float(reduce_mod_1(self.samples[0]))

    def end(self) -> float:
        return float(reduce_mod_1(self.samples[-1]))


def midpoint_geometry(rows, h):
    """Segment midpoints and finite-difference velocities of lifted sample
    rows with time step h: the points where the midpoint rule evaluates
    the Lagrangian."""
    mid = 0.5 * (rows[:, 1:] + rows[:, :-1])
    return mid, (rows[:, 1:] - rows[:, :-1]) * (1.0 / h)


def block_rows(width: int) -> int:
    """Rows of ``width`` floats that one ``BLOCK_FLOATS`` block holds, at least one."""
    return max(1, BLOCK_FLOATS // max(1, width))


def row_blocks(m: int, width: int) -> list:
    """Contiguous slices of near-equal size covering m rows of ``width``
    floats: as few as keep every block within ``BLOCK_FLOATS`` floats, but
    none under ``MIN_BATCH_PAIRS`` rows unless m is."""
    count = max(1, min(-(-m // block_rows(width)), m // MIN_BATCH_PAIRS))
    bounds = np.arange(count + 1) * m // count
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def batch_count(m: int, width: int, workers: int) -> int:
    """Search batches for m pairs of ``width`` floats: one per worker, more
    where one would exceed ``BATCH_FLOATS`` floats, but none under
    ``MIN_BATCH_PAIRS`` pairs unless m is."""
    return max(1, min(max(workers, -(-m * width // BATCH_FLOATS)), m // MIN_BATCH_PAIRS))


def exact_row_actions(sys, a, b, rows):
    """Midpoint-rule actions over [a, b] of the lifted sample rows, one per row.

    Each segment contributes spacing * L at its ``midpoint_geometry``
    point and midpoint time. Each row is summed with math.fsum, so a value
    does not depend on the other rows of the batch; the rows are evaluated
    and summed one ``row_blocks`` block at a time.
    """
    n_seg = rows.shape[1] - 1
    h = (b - a) / n_seg
    tmid = a + h * (np.arange(n_seg) + 0.5)
    values = np.empty(rows.shape[0])
    for block in row_blocks(rows.shape[0], rows.shape[1]):
        mid, vel = midpoint_geometry(rows[block], h)
        terms = h * np.asarray(sys.lagrangian(mid, vel, tmid), dtype=float)
        values[block] = [math.fsum(row) for row in terms.tolist()]
    return values


def curve_action(sys, curve: DiscretizedCurve) -> float:
    """Midpoint-rule action of a discretized curve: its one-row
    ``exact_row_actions``."""
    return float(exact_row_actions(sys, curve.t0, curve.t1, curve.samples[None, :])[0])
