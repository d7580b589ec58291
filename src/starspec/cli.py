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
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bounds import (
    energy_lower_bound, nonexistence_threshold, segment_existence_length, small_angle_bounds,
)
from .discretization import batch_entries, build_mesh, chord_entries, chord_groups
from .errors import NumericalError, ParseError, ValidationError
from .geometry import (
    SHARP_SIZES, make_star, sharp_configuration, spherical_design_check, unit_directions,
)
from .optimizer import (
    LOCAL_MAX_MESH, MIN_PAIR_ANGLE, SEARCH_MESH, OptSettings, optimize, verify_sharp_local_max,
)
from .spectral import (
    DEFAULT_GRADING, DEFAULT_ORDER, DEFAULT_PANELS, bound_states,
)

COMMANDS = ("spectrum", "sweep-angle", "optimize", "verify-sharp", "bounds", "design-check")

#: job size bounds, checked before anything is allocated.  A star of N arms
#: has a dense N * panels * order square matrix; 16,384 rows take 2 GiB.
MAX_ROWS = 16_384
#: entries of the correction batches of one star, held at once: one batch for
#: the diagonal block and one for all its distinct pair chords.  At 128
#: panels of order 16 the diagonal batch holds 6.1e6 entries, a chord's
#: share of the pair batch 1e5 at chord 8/3, 2.6e7 at 1e-12 and up to 7e7 as
#: the chord goes to 0, where nearly every piece has rows of its own.  ``batch_entries`` counts a batch's
#: entries exactly, from the layout alone (``_batch_entries``): the
#: prototypes' rows and one kernel distance per subrule point.  An entry is
#: one 8-byte value, so this is about 1.3 GiB
MAX_BATCH_ENTRIES = 180_000_000
#: arms per star, for every command: ``bounds`` and ``design-check`` build no
#: matrix, but their work on the arm pairs grows as the square of this
MAX_ARMS = 256
MAX_PANELS = 128
MAX_ORDER = 16
MAX_DESIGN_ORDER = 64
MAX_SWEEP_COUNT = 10_000
#: optimizer starts and perturbed stars per job: each costs a search or a
#: solve, and ``verify-sharp`` at scale 0 repeats the sharp energy per trial
MAX_STARTS = 10_000
MAX_TRIALS = 10_000

#: the commands that solve on a mesh
_SOLVES = ("spectrum", "sweep-angle", "optimize", "verify-sharp")
#: the job schema: group -> {key: (kind, default, the commands that read
#: it)}; no other command may carry the key, and a command carries a group
#: if it reads one of its keys.  A None default means "not given".  The
#: parsed job lists its groups in this order.
_GROUPS = {
    "mesh": {
        "panels": (int, DEFAULT_PANELS, _SOLVES),
        "order": (int, DEFAULT_ORDER, _SOLVES),
        "grading": (float, DEFAULT_GRADING, _SOLVES),
    },
    "solver": {"levels": (int, 1, ("spectrum",))},
    "optimize": {
        "starts": (int, OptSettings.starts, ("optimize",)),
        "seed": (int, OptSettings.seed, ("optimize", "verify-sharp")),
    },
    "sweep": {
        "phi_min": (float, None, ("sweep-angle",)),
        "phi_max": (float, None, ("sweep-angle",)),
        "count": (int, None, ("sweep-angle",)),
    },
    "verify": {
        "scale": (float, 0.05, ("verify-sharp",)),
        "trials": (int, 20, ("verify-sharp",)),
    },
    "bounds": {
        "phi": (float, None, ("bounds",)),
        "k": (int, 1, ("bounds",)),
    },
    "design": {"order": (int, 3, ("design-check",))},
    "output": {"format": (str, None, COMMANDS), "path": (str, None, COMMANDS)},
}


def _readers(commands) -> str:
    return ", ".join(c for c in COMMANDS if c in commands)


@dataclass(frozen=True)
class JobSpec:
    #: the normalized job document, defaults filled in; echoed as ``job_echo``
    doc: dict


def _require_keys(obj: dict, allowed, context: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ParseError(f"unknown keys in {context}: {sorted(unknown)}")


def _finite(v) -> bool:
    """A number in the float range: json.loads accepts NaN and Infinity, and
    bools are ints."""
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    return number and abs(v) <= sys.float_info.max


def _group(raw: dict, name: str, command: str) -> dict:
    """The ``name`` group of the document, restricted to the keys that
    ``command`` reads, with their defaults filled in."""
    given = raw.get(name, {})
    if not isinstance(given, dict):
        raise ParseError(f"'{name}' must be an object")
    schema = _GROUPS[name]
    _require_keys(given, schema, f"'{name}'")
    out = {}
    for key, (kind, default, readers) in schema.items():
        if command not in readers:
            if key in given:
                raise ParseError(f"'{name}.{key}' is only valid for "
                                 f"{_readers(readers)}, not {command}")
            continue
        if key not in given:
            out[key] = default
            continue
        v = given[key]
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
    return out


def _star(star) -> dict:
    if not isinstance(star, dict):
        raise ParseError("'star' must be an object")
    _require_keys(star, ("sharp", "directions"), "'star'")
    if ("sharp" in star) == ("directions" in star):
        raise ParseError("'star' needs exactly one of 'sharp' or 'directions'")
    if "sharp" in star:
        n = star["sharp"]
        if not isinstance(n, int) or n not in SHARP_SIZES:
            sizes = ", ".join(map(str, SHARP_SIZES))
            raise ParseError(f"'star.sharp' must be one of {sizes}, got {n!r}")
        return {"sharp": n}
    dirs = star["directions"]
    if isinstance(dirs, list) and len(dirs) > MAX_ARMS:
        raise ParseError(f"'star.directions' has {len(dirs)} arms; at most {MAX_ARMS}")
    if (
        not isinstance(dirs, list)
        or not dirs
        or any(not isinstance(d, list) or len(d) != 3 for d in dirs)
        or not all(_finite(x) for d in dirs for x in d)
    ):
        raise ParseError(
            "'star.directions' must be a nonempty list of 3-vectors of finite numbers"
        )
    return {"directions": [[float(x) for x in d] for d in dirs]}


def parse_job(document: str) -> JobSpec:
    """Strictly parse a JSON job document; unknown keys are rejected."""
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ParseError("job document must be a JSON object")
    _require_keys(raw, ("command", "star", "alpha", "arm_length", *_GROUPS), "the job document")
    command = raw.get("command")
    if command not in COMMANDS:
        raise ParseError(f"'command' must be one of {COMMANDS}, got {command!r}")

    doc = {"command": command}
    if "star" in raw:
        doc["star"] = _star(raw["star"])
    for key in ("alpha", "arm_length"):
        if key in raw:
            if not _finite(raw[key]):
                raise ParseError(f"'{key}' must be a finite number, got {raw[key]!r}")
            doc[key] = raw[key]
    if doc.get("arm_length", 1) <= 0:
        raise ParseError(f"'arm_length' must be positive, got {doc['arm_length']}")
    for name, schema in _GROUPS.items():
        readers = {c for _, _, cs in schema.values() for c in cs}
        if command in readers:
            doc[name] = _group(raw, name, command)
        elif name in raw:
            _group(raw, name, command)  # an error naming a key given, known or not
            raise ParseError(f"'{name}' is only valid for {_readers(readers)}, not {command}")
    if command in ("optimize", "verify-sharp") and "mesh" not in raw:
        # without a mesh group these commands solve on their own coarse mesh
        doc["mesh"] = dict(SEARCH_MESH if command == "optimize" else LOCAL_MAX_MESH)

    mesh, solver, opt = doc.get("mesh"), doc.get("solver"), doc.get("optimize")
    if mesh and not (2 <= mesh["panels"] <= MAX_PANELS and 2 <= mesh["order"] <= MAX_ORDER
                     and mesh["grading"] >= 1):
        raise ParseError(f"invalid mesh parameters: {mesh} (panels and order from 2 "
                         f"to {MAX_PANELS} and {MAX_ORDER}, grading >= 1)")
    if solver and solver["levels"] < 1:
        raise ParseError(f"invalid solver parameters: {solver}")
    if opt and not (1 <= opt.get("starts", 1) <= MAX_STARTS and opt["seed"] >= 0):
        raise ParseError(f"invalid optimize parameters: {opt} (at most {MAX_STARTS} "
                         f"starts, seed >= 0)")
    if command == "sweep-angle":
        sweep = doc["sweep"]
        if "star" in doc:
            raise ParseError("sweep-angle runs a two-arm star; 'star' must be omitted")
        if None in sweep.values():
            raise ParseError("sweep-angle needs 'sweep' with phi_min, phi_max and count")
        if not (0 < sweep["phi_min"] <= sweep["phi_max"] <= math.pi
                and 1 <= sweep["count"] <= MAX_SWEEP_COUNT):
            raise ParseError(f"invalid sweep grid: {sweep} (at most {MAX_SWEEP_COUNT} angles)")
    if command == "verify-sharp":
        if "sharp" not in doc.get("star", {}):
            raise ParseError("verify-sharp requires star.sharp")
        if doc["verify"]["scale"] < 0 or not 1 <= doc["verify"]["trials"] <= MAX_TRIALS:
            raise ParseError(f"invalid verify parameters: {doc['verify']} "
                             f"(at most {MAX_TRIALS} trials)")
    if command == "bounds":
        if doc["bounds"]["k"] < 1:
            raise ParseError(f"'bounds.k' must be at least 1, got {doc['bounds']['k']}")
        phi = doc["bounds"]["phi"]
        if phi is not None and not 0 < phi <= math.pi:
            raise ParseError(f"'bounds.phi' must lie in (0, pi], got {phi}")
    if command == "design-check" and not 1 <= doc["design"]["order"] <= MAX_DESIGN_ORDER:
        raise ParseError(f"'design.order' must lie in [1, {MAX_DESIGN_ORDER}]")

    fmt = "csv" if command == "sweep-angle" else "json"
    if doc["output"]["format"] not in (None, "", fmt):
        raise ParseError(f"{command} writes {fmt} output only, "
                         f"got 'output.format' {doc['output']['format']!r}")
    doc["output"]["format"] = fmt

    if command != "sweep-angle" and "star" not in doc:
        raise ParseError(f"{command} requires a 'star'")
    if command == "design-check":
        if "alpha" in doc or "arm_length" in doc:
            raise ParseError("design-check reads neither 'alpha' nor 'arm_length'")
    elif "alpha" not in doc or "arm_length" not in doc:
        raise ParseError(f"{command} requires 'alpha' and 'arm_length'")
    if mesh:
        arms = 2 if command == "sweep-angle" else _n_arms(doc["star"])
        rows = arms * mesh["panels"] * mesh["order"]
        if rows > MAX_ROWS:
            raise ParseError(f"the job's matrix has {rows} rows; at most {MAX_ROWS}")
        entries = 0
        for n in _batch_entries(doc):
            entries += n
            if entries > MAX_BATCH_ENTRIES:
                raise ParseError(f"the job's correction batches hold more than "
                                 f"{MAX_BATCH_ENTRIES} entries")
    return JobSpec(doc)


def _batch_entries(doc: dict):
    """The entries of the correction batches that one star of the job holds
    at once, at most, batch by batch, from the layout alone
    (``batch_entries``): the diagonal block's, then the pair batch of all
    distinct pair chords.  A chord's share of a batch grows as the chord
    shrinks.  The chords of a ``spectrum`` star are known, so its pair
    batch is counted exactly, and a sweep's smallest is at phi_min.
    ``optimize`` and ``verify-sharp`` build stars with up to N(N-1)/2
    distinct chords: a search star's are no smaller than ``MIN_PAIR_ANGLE``
    allows, a perturbed star's lie near the sharp star's.  For those, N(N-1)/2
    times the largest one-chord batch bounds the pair batch: a joint batch
    is the one-chord batches of its chords with the rows of layouts shared
    across chords stored once, so sharing only removes rows.  A
    ``spectrum`` star's pair batch comes chord by chord
    (``chord_entries``), so a check of the running sum stops at the first
    chord that crosses the bound.  Nothing for a mesh or star that the run
    rejects before it builds a batch."""
    command, L = doc["command"], doc["arm_length"]
    try:
        mesh = _job_mesh(doc, L)
        if command == "sweep-angle":
            n_pairs, chords = 1, [2.0 - 2.0 * math.cos(doc["sweep"]["phi_min"])]
        elif command == "optimize":
            N = _n_arms(doc["star"])
            n_pairs, chords = N * (N - 1) // 2, [4.0 * math.sin(MIN_PAIR_ANGLE / 2) ** 2]
        else:
            star = doc["star"]
            dirs = unit_directions(
                sharp_configuration(star["sharp"]) if "sharp" in star else star["directions"]
            )
            chords = chord_groups(dirs)[0].tolist()
            N = dirs.shape[0]
            n_pairs = N * (N - 1) // 2
    except ValidationError:
        return
    yield batch_entries(mesh, None)
    if command == "spectrum":
        yield from chord_entries(mesh, chords)
    elif chords:
        yield n_pairs * max(batch_entries(mesh, c) for c in chords)


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


def _n_arms(star: dict) -> int:
    return star.get("sharp") or len(star["directions"])


def _job_star(doc: dict):
    star = doc["star"]
    dirs = sharp_configuration(star["sharp"]) if "sharp" in star else star["directions"]
    return make_star(dirs, doc["arm_length"], doc["alpha"])


def _job_mesh(doc: dict, L: float):
    mesh = doc["mesh"]
    return build_mesh(L, mesh["panels"], mesh["order"], mesh["grading"])


def _run_spectrum(job: JobSpec) -> tuple[dict, dict]:
    doc = job.doc
    config = _job_star(doc)
    mesh = _job_mesh(doc, config.arm_length)
    n_states, res = bound_states(config, mesh, doc["alpha"], doc["solver"]["levels"])
    diagnostics = {"bound_states": n_states, "mesh": mesh.metadata()}
    if res is None:
        return {"levels": []}, diagnostics
    diagnostics.update(
        ground_vector_positivity=res.ground_vector_positivity,
        arm_symmetry_residual=res.arm_symmetry_residual,
        parity=res.parity,
        residual=res.residual,
        eigensolver=res.eigensolver,
        root_evaluations=res.root_evaluations,
    )
    levels = [{"j": lv.index, "kappa": lv.kappa, "energy": lv.energy} for lv in res.levels]
    return {"levels": levels}, diagnostics


def _run_sweep(job: JobSpec) -> list[tuple[float, float | None, float]]:
    doc = job.doc
    sw, alpha, L = doc["sweep"], doc["alpha"], doc["arm_length"]
    phis = np.linspace(sw["phi_min"], sw["phi_max"], sw["count"])
    mesh = _job_mesh(doc, L)
    rows = []
    for phi in phis:
        dirs = [(0.0, 0.0, 1.0), (math.sin(phi), 0.0, math.cos(phi))]
        config = make_star(dirs, L, alpha)
        upper = small_angle_bounds(alpha, L, phi, 1).upper
        _, res = bound_states(config, mesh, alpha, 1)
        rows.append((float(phi), None if res is None else res.ground_energy, upper))
    return rows


def _run_optimize(job: JobSpec) -> tuple[dict, dict]:
    doc = job.doc
    settings = OptSettings(
        starts=doc["optimize"]["starts"],
        seed=doc["optimize"]["seed"],
        mesh=_job_mesh(doc, doc["arm_length"]),
    )
    res = optimize(_n_arms(doc["star"]), doc["arm_length"], doc["alpha"], settings)
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
        "search_kappas": [list(k) for k in res.search_kappas],
    }
    return results, diagnostics


def _run_verify(job: JobSpec) -> tuple[dict, dict]:
    doc = job.doc
    rep = verify_sharp_local_max(
        doc["star"]["sharp"],
        doc["arm_length"],
        doc["alpha"],
        scale=doc["verify"]["scale"],
        trials=doc["verify"]["trials"],
        seed=doc["optimize"]["seed"],
        mesh=_job_mesh(doc, doc["arm_length"]),
    )
    results = {
        "passed": rep.passed,
        "sharp_energy": rep.sharp_energy,
        "degenerate": rep.degenerate,
    }
    diagnostics = {"perturbed_energies": list(rep.perturbed_energies)}
    return results, diagnostics


def _run_bounds(job: JobSpec) -> tuple[dict, dict]:
    doc = job.doc
    config = _job_star(doc)
    grp = doc["bounds"]
    results = {
        "segment_existence_length": segment_existence_length(doc["alpha"]),
        "nonexistence_threshold": nonexistence_threshold(config),
        "energy_lower_bound": energy_lower_bound(config),
    }
    if grp["phi"] is not None:
        b = small_angle_bounds(doc["alpha"], doc["arm_length"], grp["phi"], grp["k"])
        results["small_angle"] = {"phi": b.phi, "k": b.k, "lower": b.lower, "upper": b.upper}
    return results, {}


def _run_design(job: JobSpec) -> tuple[dict, dict]:
    star, order = job.doc["star"], job.doc["design"]["order"]
    dirs = (
        sharp_configuration(star["sharp"])
        if "sharp" in star
        else unit_directions(star["directions"])
    )
    ok, dev = spherical_design_check(dirs, order)
    return {"order": order, "is_design": ok, "max_deviation": dev}, {"n_points": len(dirs)}


def run(job: JobSpec, out_path: str | None = None, verbose: bool = False) -> int:
    """Execute one parsed job; returns the process exit status."""
    command = job.doc["command"]
    path = out_path or job.doc["output"]["path"]
    try:
        if command == "sweep-angle":
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
            }[command]
            results, diagnostics = runner(job)
            payload = {
                "job_echo": job.doc,
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
        print(f"starspec: running {job.doc['command']}", file=sys.stderr)
    return run(job, out_path=args.out, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
