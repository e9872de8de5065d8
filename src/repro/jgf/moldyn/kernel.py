"""JGF MolDyn benchmark — Lennard-Jones molecular dynamics.

A faithful (structurally) port of the JGF molecular-dynamics kernel that the
paper uses as its running example (Figures 1, 2, 3 and 14): ``n`` particles on
a face-centred-cubic lattice interact through a truncated Lennard-Jones
potential inside a periodic box; each timestep moves the particles, recomputes
the pairwise forces using Newton's third law (the source of the data race the
paper discusses), and updates the velocities.

Refactoring (paper Figure 14): the force loop has been moved into the for
method :meth:`compute_forces`; the position and velocity updates into the for
methods :meth:`advance_positions` and :meth:`update_velocities`; and the
per-particle force/energy *update* — the step whose synchronisation strategy
Figure 15 varies — into :meth:`apply_pair_forces`.  The parallelisation
variants in :mod:`repro.jgf.moldyn.variants` only attach aspects to these
methods; the code below stays purely sequential.
"""

from __future__ import annotations

import math

import numpy as np

from repro.jgf.jgfrandom import JGFRandom


def fcc_particle_count(cells_per_edge: int) -> int:
    """Number of particles of an fcc lattice with ``cells_per_edge`` cells per edge (4 m^3)."""
    return 4 * cells_per_edge**3


class MolDyn:
    """Refactored sequential molecular-dynamics kernel."""

    #: reduced-unit timestep and truncation radius (JGF-like magnitudes)
    DT = 0.002
    CUTOFF = 2.5

    def __init__(self, n_particles: int, moves: int = 4, density: float = 0.8, seed: int = 20000) -> None:
        if n_particles < 8:
            raise ValueError("need at least 8 particles")
        self.n = n_particles
        self.moves = moves
        self.density = density
        self.box = (n_particles / density) ** (1.0 / 3.0)
        self.positions = self._lattice_positions()
        self.velocities = self._initial_velocities(seed)
        self.forces = np.zeros((self.n, 3), dtype=np.float64)
        #: [potential energy, virial] accumulated during the force sweep
        self.energy = np.zeros(2, dtype=np.float64)
        self.ekin = 0.0

    # -- initialisation -----------------------------------------------------------

    def _lattice_positions(self) -> np.ndarray:
        """Place particles on an fcc-like lattice filling the periodic box."""
        per_edge = max(1, int(math.ceil((self.n / 4) ** (1.0 / 3.0))))
        base = np.array(
            [[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]], dtype=np.float64
        )
        cell = self.box / per_edge
        positions = []
        for i in range(per_edge):
            for j in range(per_edge):
                for k in range(per_edge):
                    origin = np.array([i, j, k], dtype=np.float64)
                    for b in base:
                        positions.append((origin + b) * cell)
                        if len(positions) == self.n:
                            return np.array(positions)
        return np.array(positions[: self.n])

    def _initial_velocities(self, seed: int) -> np.ndarray:
        """Deterministic initial velocities with zero net momentum."""
        rng = JGFRandom(seed, left=-0.5, right=0.5)
        velocities = rng.doubles(3 * self.n).reshape(self.n, 3)
        velocities -= velocities.mean(axis=0)
        return velocities

    # -- base program (refactored as in paper Figure 14) ----------------------------

    def runiters(self) -> float:
        """Run all timesteps (the parallel-region method); returns the validation value."""
        for _ in range(self.moves):
            self.advance_positions(0, self.n, 1)
            self.zero_forces()
            self.compute_forces(0, self.n, 1)
            self.update_velocities(0, self.n, 1)
            self.measure_energy()
        return self.checksum()

    def advance_positions(self, start: int, end: int, step: int) -> None:
        """For method: move particles ``start <= i < end`` and wrap them into the box."""
        dt = self.DT
        box = self.box
        positions = self.positions
        velocities = self.velocities
        positions[start:end:step] += dt * velocities[start:end:step]
        positions[start:end:step] %= box

    def zero_forces(self) -> None:
        """Reset the force and energy accumulators for the next force sweep."""
        self.forces = np.zeros((self.n, 3), dtype=np.float64)
        self.energy = np.zeros(2, dtype=np.float64)

    def compute_forces(self, start: int, end: int, step: int) -> None:
        """For method: accumulate the forces exerted on/by particles ``start <= i < end``.

        Each iteration ``i`` interacts with every particle ``j > i`` (Newton's
        third law halves the work but makes the per-iteration cost triangular
        and creates the write conflict on particle ``j``'s force).
        """
        for i in range(start, end, step):
            self.interact(i)

    def interact(self, i: int) -> None:
        """Compute and apply the interactions of particle ``i`` with all ``j > i``."""
        computed = self.pair_interactions(i)
        if computed is None:
            return
        j_indices, pair_forces, potential, virial = computed
        self.apply_pair_forces(i, j_indices, pair_forces, potential, virial)

    def pair_interactions(self, i: int):
        """Compute (but do not apply) the pair interactions of particle ``i``.

        Returns ``(j_indices, pair_forces, potential, virial)`` or ``None`` when
        the particle has no neighbour within the cutoff.  Separated from
        :meth:`apply_pair_forces` so the hand-written JGF-MT baseline can reuse
        the physics while accumulating into its own private arrays.
        """
        if i >= self.n - 1:
            return None
        positions = self.positions
        delta = positions[i] - positions[i + 1 :]
        # Minimum-image convention for the periodic box.
        delta -= self.box * np.round(delta / self.box)
        r2 = np.einsum("ij,ij->i", delta, delta)
        mask = (r2 < self.CUTOFF**2) & (r2 > 1e-12)
        if not np.any(mask):
            return None
        indices = np.nonzero(mask)[0]
        r2_sel = r2[indices]
        inv_r2 = 1.0 / r2_sel
        inv_r6 = inv_r2**3
        # Lennard-Jones force magnitude / r and potential (reduced units).
        force_over_r = 48.0 * inv_r2 * inv_r6 * (inv_r6 - 0.5)
        potential = 4.0 * inv_r6 * (inv_r6 - 1.0)
        pair_forces = delta[indices] * force_over_r[:, None]
        virial = float(np.sum(force_over_r * r2_sel))
        return indices + i + 1, pair_forces, float(potential.sum()), virial

    def apply_pair_forces(self, i: int, j_indices: np.ndarray, pair_forces: np.ndarray, potential: float, virial: float) -> None:
        """Apply the accumulated pair forces of particle ``i`` (the Figure 15 hook).

        Adds the net force to particle ``i``, subtracts each pair force from
        the corresponding particle ``j`` (Newton's third law — the shared
        write), and accumulates the potential energy and virial.  The three
        parallelisation strategies of Figure 15 differ only in how this method
        is synchronised (thread-local copies, a critical section, or
        per-particle locks) — all of them attach aspects here.
        """
        forces = self.forces
        forces[i] += pair_forces.sum(axis=0)
        np.subtract.at(forces, j_indices, pair_forces)
        self.energy = self.energy + np.array([potential, virial])

    def update_velocities(self, start: int, end: int, step: int) -> None:
        """For method: update the velocities of particles ``start <= i < end``."""
        self.velocities[start:end:step] += self.DT * self.forces[start:end:step]

    def measure_energy(self) -> float:
        """Compute the kinetic energy (same value on every thread; benign to replicate)."""
        self.ekin = float(0.5 * np.sum(self.velocities**2))
        return self.ekin

    # -- validation ------------------------------------------------------------------

    def checksum(self) -> float:
        """Validation value combining kinetic and potential energy."""
        return float(self.ekin + self.energy[0])

    def interaction_counts(self) -> np.ndarray:
        """Upper-triangle interaction count per outer iteration (the cost weights)."""
        return np.arange(self.n - 1, -1, -1, dtype=np.float64)
