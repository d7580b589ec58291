"""Batch front end: parse a JSON job document, run one command, emit results.

One job per invocation.  Sweeps emit CSV; everything else emits a JSON
document with fields {job_echo, results, diagnostics, versions, meta};
``meta`` holds the timestamp and is the only nondeterministic field, so two
runs of the same job are byte-identical outside it.  Numbers are serialized
with 17 significant digits.  BLAS threading follows OMP_NUM_THREADS when
set in the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bounds import nonexistence_threshold, segment_existence_length, small_angle_bounds
from .discretization import build_mesh
from .errors import NumericalError, ParseError, ValidationError
from .geometry import make_star, sharp_configuration, spherical_design_check, unit_directions
from .optimizer import OptSettings, optimize, verify_sharp_local_max
from .spectral import bound_states

COMMANDS = ("spectrum", "sweep-angle", "optimize", "verify-sharp", "bounds", "design-check")

#: job size bounds, checked before anything is allocated.  A star of N arms
#: has a dense N * panels * order square matrix; 16,384 rows take 2 GiB.  At
#: 128 panels of order 16 one block's correction batch holds 4e7 to 7e7
#: entries (0.5 to 0.8 GiB); it grows about as the square of the order.
MAX_ROWS = 16_384
MAX_PANELS = 128
MAX_ORDER = 16
MAX_DESIGN_ORDER = 64
MAX_SWEEP_COUNT = 10_000

_DEFAULTS = {
    "panels": 8,
    "order": 12,
    "grading": 2.0,
    "kappa_floor": 1e-4,
    "kappa_tol": 1e-10,
    "levels": 1,
    "starts": 8,
    "seed": 0,
    "simplex_tol": 1e-5,
    "format": "json",
}


@dataclass(frozen=True)
class JobSpec:
    command: str
    star_sharp: int | None
    star_directions: list | None
    alpha: float | None
    arm_length: float | None
    mesh: dict
    solver: dict
    optimize: dict
    sweep: dict | None
    verify: dict | None
    bounds: dict | None
    design: dict | None
    output_format: str
    output_path: str | None
    #: whether the document carried an explicit mesh group (optimization and
    #: verification pick their own coarse meshes unless one was given)
    mesh_given: bool = False

    def echo(self) -> dict:
        star = (
            {"sharp": self.star_sharp}
            if self.star_sharp is not None
            else ({"directions": self.star_directions} if self.star_directions else None)
        )
        doc = {"command": self.command}
        if star is not None:
            doc["star"] = star
        if self.alpha is not None:
            doc["alpha"] = self.alpha
        if self.arm_length is not None:
            doc["arm_length"] = self.arm_length
        doc["mesh"] = dict(self.mesh)
        doc["solver"] = dict(self.solver)
        doc["optimize"] = dict(self.optimize)
        for name, group in (
            ("sweep", self.sweep),
            ("verify", self.verify),
            ("bounds", self.bounds),
            ("design", self.design),
        ):
            if group is not None:
                doc[name] = dict(group)
        doc["output"] = {"format": self.output_format, "path": self.output_path}
        return doc


def _require_keys(obj: dict, allowed: set, context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown keys in {context}: {sorted(unknown)}")


def _finite(v) -> bool:
    """A number in the float range: json.loads accepts NaN and Infinity, and
    bools are ints."""
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    return number and abs(v) <= sys.float_info.max


def _number(doc: dict, key: str):
    v = doc.get(key)
    if key in doc and not _finite(v):
        raise ParseError(f"'{key}' must be a finite number, got {v!r}")
    return v


def _group(doc: dict, name: str, allowed: dict, context_defaults=True) -> dict:
    raw = doc.get(name, {})
    if not isinstance(raw, dict):
        raise ParseError(f"'{name}' must be an object")
    _require_keys(raw, set(allowed), f"'{name}'")
    out = {}
    for key, (kind, default) in allowed.items():
        if key in raw:
            v = raw[key]
            if kind is int:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ParseError(f"'{name}.{key}' must be an integer, got {v!r}")
            elif kind is float:
                if not _finite(v):
                    raise ParseError(f"'{name}.{key}' must be a finite number, got {v!r}")
                v = float(v)
            elif v is not None and not isinstance(v, str):  # null: not given
                raise ParseError(f"'{name}.{key}' must be a string, got {v!r}")
            out[key] = v
        elif default is not None or context_defaults:
            out[key] = default
    return out


def parse_job(document: str) -> JobSpec:
    """Strictly parse a JSON job document; unknown keys are rejected."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ParseError("job document must be a JSON object")
    _require_keys(
        doc,
        {"command", "star", "alpha", "arm_length", "mesh", "solver", "optimize",
         "sweep", "verify", "bounds", "design", "output"},
        "the job document",
    )
    command = doc.get("command")
    if command not in COMMANDS:
        raise ParseError(f"'command' must be one of {COMMANDS}, got {command!r}")

    star_sharp = None
    star_dirs = None
    if "star" in doc:
        star = doc["star"]
        if not isinstance(star, dict):
            raise ParseError("'star' must be an object")
        _require_keys(star, {"sharp", "directions"}, "'star'")
        if ("sharp" in star) == ("directions" in star):
            raise ParseError("'star' needs exactly one of 'sharp' or 'directions'")
        if "sharp" in star:
            n = star["sharp"]
            if not isinstance(n, int) or n not in (2, 3, 4, 6, 12):
                raise ParseError(f"'star.sharp' must be one of 2, 3, 4, 6, 12, got {n!r}")
            star_sharp = n
        else:
            dirs = star["directions"]
            if (
                not isinstance(dirs, list)
                or not dirs
                or any(not isinstance(d, list) or len(d) != 3 for d in dirs)
                or not all(_finite(x) for d in dirs for x in d)
            ):
                raise ParseError(
                    "'star.directions' must be a nonempty list of 3-vectors of finite numbers"
                )
            star_dirs = [[float(x) for x in d] for d in dirs]

    alpha = _number(doc, "alpha")
    arm_length = _number(doc, "arm_length")
    if arm_length is not None and arm_length <= 0:
        raise ParseError(f"'arm_length' must be positive, got {arm_length}")

    mesh = _group(doc, "mesh", {
        "panels": (int, _DEFAULTS["panels"]),
        "order": (int, _DEFAULTS["order"]),
        "grading": (float, _DEFAULTS["grading"]),
    })
    if not (2 <= mesh["panels"] <= MAX_PANELS and 2 <= mesh["order"] <= MAX_ORDER
            and mesh["grading"] >= 1):
        raise ParseError(f"invalid mesh parameters: {mesh} (panels and order from 2 "
                         f"to {MAX_PANELS} and {MAX_ORDER}, grading >= 1)")
    solver = _group(doc, "solver", {
        "kappa_floor": (float, _DEFAULTS["kappa_floor"]),
        "kappa_tol": (float, _DEFAULTS["kappa_tol"]),
        "levels": (int, _DEFAULTS["levels"]),
    })
    if solver["kappa_floor"] <= 0 or solver["kappa_tol"] <= 0 or solver["levels"] < 1:
        raise ParseError(f"invalid solver parameters: {solver}")
    optimize_grp = _group(doc, "optimize", {
        "starts": (int, _DEFAULTS["starts"]),
        "seed": (int, _DEFAULTS["seed"]),
        "simplex_tol": (float, _DEFAULTS["simplex_tol"]),
    })
    if optimize_grp["starts"] < 1 or optimize_grp["simplex_tol"] <= 0:
        raise ParseError(f"invalid optimize parameters: {optimize_grp}")

    sweep = verify = bounds_grp = design = None
    if command == "sweep-angle":
        if "star" in doc:
            raise ParseError("sweep-angle runs a two-arm star; 'star' must be omitted")
        if "sweep" not in doc:
            raise ParseError("sweep-angle requires a 'sweep' group")
        sweep = _group(doc, "sweep", {
            "phi_min": (float, None), "phi_max": (float, None), "count": (int, None),
        })
        if any(sweep[k] is None for k in ("phi_min", "phi_max", "count")):
            raise ParseError("'sweep' needs phi_min, phi_max and count")
        if not (0 < sweep["phi_min"] <= sweep["phi_max"] <= math.pi
                and 1 <= sweep["count"] <= MAX_SWEEP_COUNT):
            raise ParseError(f"invalid sweep grid: {sweep} (at most {MAX_SWEEP_COUNT} angles)")
    elif "sweep" in doc:
        raise ParseError(f"'sweep' is only valid for sweep-angle, not {command}")

    if command == "verify-sharp":
        if star_sharp is None:
            raise ParseError("verify-sharp requires star.sharp")
        verify = _group(doc, "verify", {
            "scale": (float, 0.05), "trials": (int, 20),
        })
        if verify["scale"] < 0 or verify["trials"] < 1:
            raise ParseError(f"invalid verify parameters: {verify}")
    elif "verify" in doc:
        raise ParseError(f"'verify' is only valid for verify-sharp, not {command}")

    if command == "bounds":
        bounds_grp = _group(doc, "bounds", {
            "constant": (float, 1.0), "phi": (float, None), "k": (int, 1),
        })
        if bounds_grp["constant"] <= 0:
            raise ParseError("'bounds.constant' must be positive")
        phi = bounds_grp["phi"]
        if phi is not None and not 0 < phi <= math.pi:
            raise ParseError(f"'bounds.phi' must lie in (0, pi], got {phi}")
    elif "bounds" in doc:
        raise ParseError(f"'bounds' is only valid for the bounds command, not {command}")

    if command == "design-check":
        design = _group(doc, "design", {"order": (int, 3)})
        if not 1 <= design["order"] <= MAX_DESIGN_ORDER:
            raise ParseError(f"'design.order' must lie in [1, {MAX_DESIGN_ORDER}]")
    elif "design" in doc:
        raise ParseError(f"'design' is only valid for design-check, not {command}")

    output = _group(doc, "output", {
        "format": (str, None), "path": (str, None),
    }, context_defaults=False)
    fmt = output.get("format") or ("csv" if command == "sweep-angle" else _DEFAULTS["format"])
    if fmt not in ("json", "csv"):
        raise ParseError(f"'output.format' must be json or csv, got {fmt!r}")
    if fmt == "csv" and command != "sweep-angle":
        raise ParseError("csv output is only available for sweep-angle")
    if fmt == "json" and command == "sweep-angle":
        raise ParseError("sweep-angle writes csv output only")

    needs_star = command in ("spectrum", "optimize", "verify-sharp", "bounds", "design-check")
    if needs_star and star_sharp is None and star_dirs is None:
        raise ParseError(f"{command} requires a 'star'")
    needs_physics = command in ("spectrum", "sweep-angle", "optimize", "verify-sharp", "bounds")
    if needs_physics and (alpha is None or arm_length is None):
        raise ParseError(f"{command} requires 'alpha' and 'arm_length'")
    if command in ("spectrum", "sweep-angle", "optimize", "verify-sharp"):
        rows = (2 if sweep else star_sharp or len(star_dirs)) * mesh["panels"] * mesh["order"]
        if rows > MAX_ROWS:
            raise ParseError(f"the job's matrix has {rows} rows; at most {MAX_ROWS}")

    return JobSpec(
        command=command,
        star_sharp=star_sharp,
        star_directions=star_dirs,
        alpha=alpha,
        arm_length=arm_length,
        mesh=mesh,
        solver=solver,
        optimize=optimize_grp,
        sweep=sweep,
        verify=verify,
        bounds=bounds_grp,
        design=design,
        output_format=fmt,
        output_path=output.get("path"),
        mesh_given="mesh" in doc,
    )


# -- serialization ----------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"-inf"' if x < 0 else '"inf"'
    return format(x, ".17g")


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(_to_json(v, indent) for v in obj)
        return f"[{inner}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(str(k))}: {_to_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    raise TypeError(f"cannot serialize {type(obj)}")


def render_json(payload: dict) -> str:
    return _to_json(payload) + "\n"


# -- command execution -------------------------------------------------------


def _job_star(job: JobSpec):
    dirs = (
        sharp_configuration(job.star_sharp)
        if job.star_sharp is not None
        else job.star_directions
    )
    return make_star(dirs, job.arm_length, job.alpha)


def _job_mesh(job: JobSpec, L: float):
    return build_mesh(L, job.mesh["panels"], job.mesh["order"], job.mesh["grading"])


def _run_spectrum(job: JobSpec) -> tuple[dict, dict]:
    config = _job_star(job)
    mesh = _job_mesh(job, config.arm_length)
    n_states, res = bound_states(
        config, mesh, job.alpha, job.solver["levels"],
        kappa_floor=job.solver["kappa_floor"], kappa_tol=job.solver["kappa_tol"],
    )
    diagnostics = {"bound_states_at_floor": n_states, "mesh": mesh.metadata()}
    if res is None:
        return {"levels": []}, diagnostics
    diagnostics.update(
        ground_vector_positivity=res.ground_vector_positivity,
        arm_symmetry_residual=res.arm_symmetry_residual,
        parity=res.parity,
        residual=res.residual,
        eigensolver=res.eigensolver,
    )
    levels = [{"j": lv.index, "kappa": lv.kappa, "energy": lv.energy} for lv in res.levels]
    return {"levels": levels}, diagnostics


def _run_sweep(job: JobSpec) -> list[tuple[float, float | None, float]]:
    sw = job.sweep
    phis = np.linspace(sw["phi_min"], sw["phi_max"], sw["count"])
    rows = []
    for phi in phis:
        dirs = [(0.0, 0.0, 1.0), (math.sin(phi), 0.0, math.cos(phi))]
        config = make_star(dirs, job.arm_length, job.alpha)
        mesh = _job_mesh(job, config.arm_length)
        upper = small_angle_bounds(job.alpha, job.arm_length, phi, 1, 1.0).upper
        _, res = bound_states(
            config, mesh, job.alpha, 1,
            kappa_floor=job.solver["kappa_floor"], kappa_tol=job.solver["kappa_tol"],
        )
        rows.append((float(phi), None if res is None else res.ground_energy, upper))
    return rows


def _run_optimize(job: JobSpec) -> tuple[dict, dict]:
    n = job.star_sharp if job.star_sharp is not None else len(job.star_directions)
    settings = OptSettings(
        starts=job.optimize["starts"],
        seed=job.optimize["seed"],
        simplex_tol=job.optimize["simplex_tol"],
        mesh=_job_mesh(job, job.arm_length) if job.mesh_given else None,
        kappa_floor=job.solver["kappa_floor"],
        kappa_tol=job.solver["kappa_tol"],
    )
    res = optimize(n, job.arm_length, job.alpha, settings)
    results = {
        "best_directions": res.best_directions.tolist(),
        "best_energy": res.best_energy,
        "congruent_to_sharp": res.congruent_to_sharp,
        "congruence_tol": res.congruence_tol,
    }
    diagnostics = {
        "per_start_trace": list(res.per_start_trace),
        "kernel_sum_gap": res.kernel_sum_gap,
        "starts": res.starts,
    }
    return results, diagnostics


def _run_verify(job: JobSpec) -> tuple[dict, dict]:
    rep = verify_sharp_local_max(
        job.star_sharp,
        job.arm_length,
        job.alpha,
        scale=job.verify["scale"],
        trials=job.verify["trials"],
        seed=job.optimize["seed"],
        mesh=_job_mesh(job, job.arm_length) if job.mesh_given else None,
    )
    results = {
        "passed": rep.passed,
        "sharp_energy": rep.sharp_energy,
        "degenerate": rep.degenerate,
    }
    diagnostics = {"perturbed_energies": list(rep.perturbed_energies)}
    return results, diagnostics


def _run_bounds(job: JobSpec) -> tuple[dict, dict]:
    config = _job_star(job)
    grp = job.bounds
    results = {
        "segment_existence_length": segment_existence_length(job.alpha),
        "nonexistence_threshold": nonexistence_threshold(config, grp["constant"]),
        "nonexistence_threshold_unordered": nonexistence_threshold(
            config, grp["constant"], ordered_pairs=False
        ),
    }
    if grp.get("phi") is not None:
        b = small_angle_bounds(job.alpha, job.arm_length, grp["phi"], grp["k"], grp["constant"])
        results["small_angle"] = {
            "phi": b.phi, "k": b.k, "lower": b.lower, "upper": b.upper,
            "consistent": b.consistent,
        }
    return results, {"constant": grp["constant"]}


def _run_design(job: JobSpec) -> tuple[dict, dict]:
    dirs = (
        sharp_configuration(job.star_sharp)
        if job.star_sharp is not None
        else unit_directions(job.star_directions)
    )
    ok, dev = spherical_design_check(dirs, job.design["order"])
    return (
        {"order": job.design["order"], "is_design": ok, "max_deviation": dev},
        {"n_points": len(dirs)},
    )


def run(job: JobSpec, out_path: str | None = None, verbose: bool = False) -> int:
    """Execute one parsed job; returns the process exit status."""
    path = out_path or job.output_path
    try:
        if job.command == "sweep-angle":
            rows = _run_sweep(job)
            lines = ["phi,E_1,E_1_plus_bound"]
            for phi, energy, upper in rows:
                e = "" if energy is None else format(energy, ".17g")
                lines.append(f"{format(phi, '.17g')},{e},{format(upper, '.17g')}")
            text = "\n".join(lines) + "\n"
        else:
            runner = {
                "spectrum": _run_spectrum,
                "optimize": _run_optimize,
                "verify-sharp": _run_verify,
                "bounds": _run_bounds,
                "design-check": _run_design,
            }[job.command]
            results, diagnostics = runner(job)
            payload = {
                "job_echo": job.echo(),
                "results": results,
                "diagnostics": diagnostics,
                "versions": _versions(),
                "meta": {"timestamp": datetime.now(timezone.utc).isoformat()},
            }
            text = render_json(payload)
    except (ParseError, ValidationError) as exc:
        print(f"starspec: validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"starspec: numerical failure: {exc}", file=sys.stderr)
        return 3

    if path:
        with open(path, "w") as fh:
            fh.write(text)
        if verbose:
            print(f"starspec: wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _versions() -> dict:
    import scipy

    return {"starspec": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="starspec",
        description="Spectra of 3D Schrodinger operators with a star-shaped "
        "delta interaction; one JSON job document per invocation.",
    )
    parser.add_argument("--job", help="path to the job document (default: stdin)")
    parser.add_argument("--out", help="output path (overrides output.path)")
    parser.add_argument("--verbose", action="store_true", help="progress on stderr")
    args = parser.parse_args(argv)

    if args.job:
        try:
            with open(args.job) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"starspec: cannot read job: {exc}", file=sys.stderr)
            return 2
    else:
        text = sys.stdin.read()

    try:
        job = parse_job(text)
    except ParseError as exc:
        print(f"starspec: parse error: {exc}", file=sys.stderr)
        return 2
    if args.verbose:
        print(f"starspec: running {job.command}", file=sys.stderr)
    return run(job, out_path=args.out, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
