"""The three solver workloads and the checks on their outputs.

Each workload has a set-up step (build the star and meshes, or parse the job
document), a job (the timed solve) and a check of the job's output.  The
package is passed in by the caller, so importing this module imports
neither starspec nor numpy and the caller can time those imports.

Tolerances: the reference energies are pinned to 1e-12 relative.  The
ARPACK path starts ``eigsh`` from a random vector drawn from operating-system
entropy, so the same job gives slightly different energies in different
processes (the ladder gave -21.89225767779679, ...863 and ...938).  The
spread measured between processes is below 1e-14 relative (``BASELINE.md``),
so 1e-12 leaves room for it.

The pin is a hundred times tighter than the solver's own accuracy: roots are
found to ``DEFAULT_KAPPA_TOL`` = 1e-10 relative in kappa, and E = -kappa^2,
so a correct change to the root finding or the assembly can move an energy
by about 2e-10 relative.  Such a change must re-pin ``ref_energy`` of
``LadderTetra`` and ``VerifyN12`` in the same commit, after checking that the
new value lies within the solver's tolerance of the old.  The ``optimize-n4``
check compares two energies that are root-found separately (the optimizer's
best and the sharp star's) against the same 1e-12, so it too may need
widening to the solver's tolerance by such a change.
"""

from __future__ import annotations

import json
import os

#: relative tolerance on every pinned energy (see the module docstring)
ENERGY_RTOL = 1e-12


class CheckFailed(Exception):
    """A job finished but its output is wrong."""


def _rel_dev(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class LadderTetra:
    """``refine_until`` on the tetrahedron over a 40/48/56-panel ladder."""

    name = "ladder-tetra"
    why = ("ARPACK path (n = 1920 to 2688) with hinted ladder rungs and a "
           "symmetric star: few corrected blocks over many kappas")
    default_seed = None  # fixed inputs: acceptance 11's ladder
    L = 5.0
    alpha = 0.0
    panels = (40, 48, 56)
    order = 12
    grading = 2.0
    e_tol = 1e-6
    ref_energy = -21.8922576777969

    def __init__(self, out_dir: str):
        pass

    def setup(self, starspec, seed):
        star = starspec.make_star(
            starspec.sharp_configuration(4), self.L, self.alpha
        )
        ladder = [
            starspec.build_mesh(self.L, p, self.order, self.grading)
            for p in self.panels
        ]
        return star, ladder

    def run(self, starspec, state):
        star, ladder = state
        return starspec.refine_until(star, self.alpha, self.e_tol, ladder)

    def check(self, starspec, result) -> float:
        """Return the checked energy, or raise CheckFailed."""
        meta = result.mesh_metadata
        energy = float(result.ground_energy)
        _require(meta["converged"] is True, "ladder did not converge")
        _require(abs(meta["ladder_deltas"][-1]) < self.e_tol,
                 f"last ladder delta {meta['ladder_deltas'][-1]!r} >= {self.e_tol}")
        order = meta["observed_order"]
        _require(order is not None and order >= 2.0,
                 f"observed order {order!r} < 2")
        _require(_rel_dev(energy, self.ref_energy) <= ENERGY_RTOL,
                 f"energy {energy!r} is not within {ENERGY_RTOL} relative of "
                 f"{self.ref_energy!r}")
        return energy


class _CliWorkload:
    """A CLI job: set-up parses the job document, the job runs it to a file."""

    default_seed: int

    def __init__(self, out_dir: str):
        self.out_path = os.path.join(out_dir, f"{self.name}.out.json")

    def document(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, starspec, seed):
        from starspec import cli

        text = json.dumps(self.document(seed))
        return cli.parse_job(text)

    def run(self, starspec, job):
        from starspec import cli

        return cli.run(job, out_path=self.out_path), self.out_path

    def check(self, starspec, result) -> float:
        code, path = result
        _require(code == 0, f"the job exited with status {code}")
        with open(path) as fh:
            doc = json.load(fh)
        return self.check_document(starspec, doc)

    def check_document(self, starspec, doc) -> float:
        raise NotImplementedError


class OptimizeN4(_CliWorkload):
    """``optimize`` on four arms with two starts on the 3x5 search mesh."""

    name = "optimize-n4"
    why = ("many small dense solves (n = 60): interpreter overhead, assembler "
           "construction and Nelder-Mead objective calls")
    default_seed = 1
    L = 5.0
    alpha = 0.0
    starts = 2

    def __init__(self, out_dir: str):
        super().__init__(out_dir)
        self._sharp_energy = None

    def document(self, seed: int) -> dict:
        return {
            "command": "optimize",
            "star": {"sharp": 4},
            "alpha": self.alpha,
            "arm_length": self.L,
            "optimize": {"starts": self.starts, "seed": seed},
        }

    def sharp_energy(self, starspec) -> float:
        """Energy of the sharp star on the search mesh: the discrete maximum."""
        if self._sharp_energy is None:
            from starspec.optimizer import search_mesh

            star = starspec.make_star(
                starspec.sharp_configuration(4), self.L, self.alpha
            )
            _, energy = starspec.solve_energy(star, search_mesh(self.L), self.alpha)
            self._sharp_energy = float(energy)
        return self._sharp_energy

    def check_document(self, starspec, doc) -> float:
        res = doc["results"]
        energy = float(res["best_energy"])
        sharp = self.sharp_energy(starspec)
        _require(res["congruent_to_sharp"] is True, "best directions are not congruent to the sharp star")
        _require(energy <= sharp + ENERGY_RTOL * abs(sharp),
                 f"best energy {energy!r} exceeds the sharp energy {sharp!r}")
        gap = doc["diagnostics"]["kernel_sum_gap"]
        _require(gap is not None and gap >= -1e-12,
                 f"kernel sum gap {gap!r} < -1e-12")
        return energy


class VerifyN12(_CliWorkload):
    """``verify-sharp`` on the icosahedron with three perturbed trials."""

    name = "verify-n12"
    why = ("ARPACK path (n = 1152) on asymmetric stars: many distinct corrected "
           "blocks over few kappas")
    default_seed = 3
    L = 3.0
    alpha = 0.0
    scale = 0.05
    trials = 3
    # not resolved by the 12x8 mesh (see ROADMAP item 4): this pins what the
    # program computes, not the physics
    ref_energy = -353349.072752317

    def document(self, seed: int) -> dict:
        return {
            "command": "verify-sharp",
            "star": {"sharp": 12},
            "alpha": self.alpha,
            "arm_length": self.L,
            "verify": {"scale": self.scale, "trials": self.trials},
            "optimize": {"seed": seed},
        }

    def check_document(self, starspec, doc) -> float:
        res = doc["results"]
        energy = float(res["sharp_energy"])
        _require(res["passed"] is True, "the sharp star did not beat every perturbation")
        _require(res["degenerate"] is False, "the check was degenerate")
        _require(_rel_dev(energy, self.ref_energy) <= ENERGY_RTOL,
                 f"sharp energy {energy!r} is not within {ENERGY_RTOL} relative "
                 f"of {self.ref_energy!r}")
        return energy


WORKLOADS = {w.name: w for w in (LadderTetra, OptimizeN4, VerifyN12)}


def make(name: str, out_dir: str):
    """A workload with ``setup(starspec, seed)``, ``run(starspec, state)`` and
    ``check(starspec, result)``; CLI jobs write their output into ``out_dir``."""
    return WORKLOADS[name](out_dir)
