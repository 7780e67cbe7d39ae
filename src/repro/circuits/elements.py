"""Circuit elements for the MNA transient simulator.

Sign conventions
----------------
* Two-terminal elements connect ``a`` to ``b``; positive branch current
  flows from ``a`` to ``b`` *through the element*.
* A voltage source enforces ``v(a) - v(b) = waveform(t)`` and carries an
  explicit branch-current unknown (as does an inductor).
* A current source pushes ``waveform(t)`` amperes from ``a`` through
  itself into ``b`` (i.e. it *extracts* that current from node ``a``).

Only topology and constitutive parameters live here; all matrix stamping
is centralized in :mod:`repro.circuits.mna` so the numerical scheme
(trapezoidal vs backward-Euler companions) stays in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Tuple

from ..errors import ParameterError

#: Type of a source waveform: seconds -> volts or amperes.
Waveform = Callable[[float], float]


@dataclass(frozen=True)
class Element:
    """Base class: a named element attached to a tuple of node names."""

    name: str

    @property
    def nodes(self) -> Tuple[str, ...]:
        raise NotImplementedError

    @property
    def branch_count(self) -> int:
        """Number of extra branch-current unknowns this element introduces."""
        return 0


@dataclass(frozen=True)
class TwoTerminal(Element):
    """An element between nodes ``a`` and ``b``."""

    a: str
    b: str

    @property
    def nodes(self) -> Tuple[str, ...]:
        return (self.a, self.b)


@dataclass(frozen=True)
class Resistor(TwoTerminal):
    """Linear resistor; ``resistance`` in ohms."""

    resistance: float = 0.0

    def __post_init__(self) -> None:
        if self.resistance <= 0.0:
            raise ParameterError(
                f"resistor {self.name}: resistance must be positive, "
                f"got {self.resistance}")

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance


@dataclass(frozen=True)
class Capacitor(TwoTerminal):
    """Linear capacitor; ``capacitance`` in farads.

    ``initial_voltage`` (volts, a-to-b) seeds the companion model when the
    transient run starts from user-supplied initial conditions.  When left
    ``None`` the initial voltage is read from the initial node vector.
    """

    capacitance: float = 0.0
    initial_voltage: float | None = None

    def __post_init__(self) -> None:
        if self.capacitance <= 0.0:
            raise ParameterError(
                f"capacitor {self.name}: capacitance must be positive, "
                f"got {self.capacitance}")


@dataclass(frozen=True)
class Inductor(TwoTerminal):
    """Linear inductor; ``inductance`` in henries; carries a branch current.

    ``initial_current`` (amperes, a-to-b) is used at t = 0.
    """

    inductance: float = 0.0
    initial_current: float = 0.0

    def __post_init__(self) -> None:
        if self.inductance <= 0.0:
            raise ParameterError(
                f"inductor {self.name}: inductance must be positive, "
                f"got {self.inductance}")

    @property
    def branch_count(self) -> int:
        return 1


@dataclass(frozen=True)
class VoltageSource(TwoTerminal):
    """Ideal voltage source enforcing v(a) - v(b) = waveform(t)."""

    waveform: Waveform = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.waveform is None:
            raise ParameterError(f"voltage source {self.name} needs a waveform")

    @property
    def branch_count(self) -> int:
        return 1


@dataclass(frozen=True)
class CurrentSource(TwoTerminal):
    """Ideal current source driving waveform(t) amperes from a into b."""

    waveform: Waveform = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.waveform is None:
            raise ParameterError(f"current source {self.name} needs a waveform")


class NonlinearDevice(Element):
    """Interface for devices stamped per Newton iteration.

    Implementations provide :meth:`stamp`, which receives the candidate
    terminal voltages and adds the linearized companion (conductances
    into ``matrix``, residual currents into ``rhs``) for the current
    iterate.  See :class:`repro.circuits.mosfet.Mosfet` and
    :class:`repro.circuits.behavioral.SwitchInverter`.
    """

    def stamp(self, voltages, terminals, size, matrix, rhs) -> None:
        """Add this device's linearized stamp at the given voltage iterate.

        The device evaluates in Python floats and accumulates, one entry
        at a time, into the flat sequences
        :meth:`~repro.circuits.mna.MnaStructure.stamp_nonlinear` passes.

        Parameters
        ----------
        voltages:
            List of candidate voltages, read at the terminal positions;
            position -1 (ground) reads 0 V.
        terminals:
            Position of each of :attr:`nodes` in the system, -1 for ground.
        size:
            Number of rows of the system.
        matrix, rhs:
            The system matrix, flattened row-major (entry (i, j) at
            ``i * size + j``), and right-hand side, as flat sequences of
            floats to accumulate into, using the Norton form: rhs carries
            +I_eq into the node the linearized current flows out of.
            Ground rows and columns are not stamped.
        """
        raise NotImplementedError
