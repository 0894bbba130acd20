"""Steady-state detection over per-step times.

Training steps are identical in performance mode up to the per-step
gradient jitter, so once the measured step time has converged the
remaining steps carry no information — simulating them only burns wall
clock.  The detector watches a sliding window of measured step times and
declares steady state when the window's relative spread falls inside a
tolerance; the run then *extrapolates* the remaining steps at the window
mean instead of simulating them.

Accuracy: with zero jitter the steps differ only by ulp-level float
accumulation noise (cumulative staging counters), so detection fires at
any tolerance down to ~1e-15 and the extrapolated mean matches a full
simulation to ~1e-15 relative — the equivalence tests pin that bound.
With jitter enabled the spread stays well above the default tolerance, so
detection never fires unless the caller widens ``rel_tol`` — in which
case the error is bounded by the tolerance (see ``docs/performance.md``).
"""

from __future__ import annotations

from repro.errors import ConfigError


class SteadyStateDetector:
    """Declares convergence when a window of samples agrees within tol."""

    def __init__(self, window: int = 3, rel_tol: float = 1e-9):
        if window < 2:
            raise ConfigError(f"steady-state window must be >= 2, got {window}")
        if rel_tol < 0:
            raise ConfigError(f"rel_tol must be >= 0, got {rel_tol}")
        self.window = window
        self.rel_tol = rel_tol
        self._samples: list[float] = []

    def observe(self, sample: float, phase: int = 0) -> None:
        """Record one sample; ``phase`` mirrors :class:`PeriodicSteadyState`
        (a flat signal has a single phase)."""
        self._samples.append(sample)

    def rearm(self) -> None:
        """Forget every sample after a world perturbation.

        A mid-run fault (rank failure, blacklist, regrow, straggler
        slowdown) changes the steady-state step time, and the first steps
        after recovery carry a transient (cache warm-up, re-formed rings).
        Without re-arming, a window straddling the perturbation could keep
        reporting the *old* converged value and poison extrapolation; after
        ``rearm`` the detector must see a fresh window of post-recovery
        samples before it converges again.
        """
        self._samples.clear()

    @property
    def samples(self) -> list[float]:
        return list(self._samples)

    def converged(self) -> bool:
        """True once the last ``window`` samples agree within ``rel_tol``."""
        if len(self._samples) < self.window:
            return False
        tail = self._samples[-self.window:]
        lo, hi = min(tail), max(tail)
        if hi == lo:
            return True
        mean = sum(tail) / len(tail)
        if mean == 0.0:
            return False
        return (hi - lo) / mean <= self.rel_tol

    def steady_value(self) -> float:
        """The extrapolation value: mean of the converged window.

        When every sample in the window is bit-identical this returns
        that exact value rather than re-deriving it through a division.
        """
        if not self._samples:
            raise ConfigError("no samples observed")
        tail = self._samples[-self.window:]
        if all(s == tail[0] for s in tail):
            return tail[0]
        return sum(tail) / len(tail)

    def phase_value(self, phase: int) -> float:
        """The converged value for any phase: :meth:`steady_value`."""
        return self.steady_value()


class PeriodicSteadyState:
    """Steady-state detection for an H-periodic step-time signal.

    Local-SGD runs sync every H steps, so the per-step time is not constant
    — it cycles through H phases (H-1 cheap local steps, one step carrying
    the parameter-sync collective).  A plain window detector would see the
    spread between phases and never converge.  This wrapper folds each full
    period into its sum, feeds the sums to an inner
    :class:`SteadyStateDetector`, and remembers the last observed value per
    phase so extrapolation can replay the H-step cadence exactly.

    The leading partial period (samples arriving before the first phase-0
    step) is ignored; convergence is only declared on period boundaries so
    an extrapolation always starts phase-aligned.
    """

    def __init__(self, period: int, window: int = 3, rel_tol: float = 1e-9):
        if period < 1:
            raise ConfigError(f"period must be >= 1, got {period}")
        self.period = period
        self._inner = SteadyStateDetector(window, rel_tol)
        self._accum: list[float] = []
        self._started = False
        self._last: dict[int, float] = {}

    def observe(self, sample: float, phase: int) -> None:
        self._last[phase % self.period] = sample
        if not self._started:
            if phase % self.period != 0:
                return
            self._started = True
        self._accum.append(sample)
        if len(self._accum) == self.period:
            self._inner.observe(sum(self._accum))
            self._accum.clear()

    def rearm(self) -> None:
        """Forget everything after a world perturbation (see
        :meth:`SteadyStateDetector.rearm`); detection restarts at the next
        phase-0 step."""
        self._inner.rearm()
        self._accum.clear()
        self._started = False
        self._last.clear()

    def converged(self) -> bool:
        """True only on a period boundary with the period sums converged."""
        return self._started and not self._accum and self._inner.converged()

    def phase_value(self, phase: int) -> float:
        """The converged value for one phase (stepwise extrapolation)."""
        if not self.converged():
            raise ConfigError("cannot extrapolate before convergence")
        return self._last[phase % self.period]

    def extrapolate(self, next_phase: int, count: int) -> list[float]:
        """Per-step values for ``count`` extrapolated steps starting at
        phase ``next_phase``, cycling the last observed value per phase."""
        if not self.converged():
            raise ConfigError("cannot extrapolate before convergence")
        return [
            self._last[(next_phase + j) % self.period] for j in range(count)
        ]
