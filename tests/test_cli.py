import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from starspec import discretization
from starspec.cli import COMMANDS, MAX_BATCH_ENTRIES, main, parse_job, render_json, run
from starspec.discretization import build_mesh
from starspec.errors import ParseError
from starspec.geometry import make_star, sharp_configuration
from starspec.spectral import bound_states, solve_energy


def job_text(**kw):
    return json.dumps(kw)


MINIMAL_SPECTRUM = {
    "command": "spectrum",
    "star": {"sharp": 4},
    "alpha": 0.0,
    "arm_length": 5.0,
}


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_json_blocks() -> list[str]:
    """The fenced ``json`` blocks of README.md."""
    with open(README) as fh:
        parts = fh.read().split("```json\n")[1:]
    return [part.split("```", 1)[0] for part in parts]


class TestParseJob:
    def test_readme_examples_parse(self):
        blocks = readme_json_blocks()
        assert blocks
        for block in blocks:
            parse_job(block)

    def test_benchmark_jobs_parse(self, tmp_path):
        path = os.path.join(os.path.dirname(README), "bench", "workloads.py")
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        jobs = [w(str(tmp_path)) for w in workloads.WORKLOADS.values()
                if hasattr(w, "document")]
        assert jobs
        for w in jobs:
            parse_job(json.dumps(w.document(w.default_seed)))

    def test_minimal_defaults(self):
        job = parse_job(job_text(**MINIMAL_SPECTRUM))
        assert job.doc["command"] == "spectrum"
        assert job.doc["star"] == {"sharp": 4}
        assert job.doc["mesh"] == {"panels": 8, "order": 12, "grading": 2.0}
        assert job.doc["solver"] == {"kappa_tol": 1e-10, "levels": 1}
        assert job.doc["output"] == {"format": "json", "path": None}
        # spectrum reads no search settings, so it takes and echoes none
        assert "optimize" not in job.doc

    def test_unsupported_sharp(self):
        with pytest.raises(ParseError):
            parse_job(job_text(command="spectrum", star={"sharp": 5},
                               alpha=0.0, arm_length=1.0))

    def test_both_star_sources_rejected(self):
        with pytest.raises(ParseError):
            parse_job(job_text(command="spectrum",
                               star={"sharp": 4, "directions": [[0, 0, 1]]},
                               alpha=0.0, arm_length=1.0))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParseError):
            parse_job(job_text(command="spectrum", star={"sharp": 4},
                               alpha=0.0, arm_length=1.0, turbo=True))
        with pytest.raises(ParseError):
            parse_job(job_text(command="spectrum", star={"sharp": 4},
                               alpha=0.0, arm_length=1.0,
                               mesh={"panels": 8, "extra": 1}))

    def test_negative_length_rejected(self):
        with pytest.raises(ParseError):
            parse_job(job_text(command="spectrum", star={"sharp": 4},
                               alpha=0.0, arm_length=-5.0))

    def test_invalid_json_context(self):
        with pytest.raises(ParseError, match="line"):
            parse_job("{not json}")

    def test_sweep_requirements(self):
        with pytest.raises(ParseError):
            parse_job(job_text(command="sweep-angle", alpha=0.0, arm_length=1.0))
        job = parse_job(job_text(command="sweep-angle", alpha=0.0, arm_length=1.0,
                                 sweep={"phi_min": 0.5, "phi_max": 3.0, "count": 3}))
        assert job.doc["sweep"]["count"] == 3
        assert job.doc["output"]["format"] == "csv"

    def test_sweep_star_conflict(self):
        with pytest.raises(ParseError):
            parse_job(job_text(command="sweep-angle", star={"sharp": 2},
                               alpha=0.0, arm_length=1.0,
                               sweep={"phi_min": 0.5, "phi_max": 3.0, "count": 3}))

    def test_explicit_directions(self):
        job = parse_job(job_text(command="design-check",
                                 star={"directions": [[0, 0, 1], [0, 0, -1]]},
                                 design={"order": 1}))
        assert job.doc["star"]["directions"] == [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]


class TestBatchBound:
    """Correction batches are bounded at parse time, from the layout alone."""

    def test_general_star_at_the_size_caps_exits_2_unallocated(self, tmp_path, capsys):
        # 8 arms at 128 panels of order 16 fill MAX_ROWS; their 28 distinct
        # chords and diagonal block would ask for batches of 4.5e8 entries
        # (5 GiB)
        dirs = [[math.sin(t) * math.cos(3 * t), math.sin(t) * math.sin(3 * t), math.cos(t)]
                for t in (0.2, 0.6, 1.0, 1.4, 1.8, 2.2, 2.6, 3.0)]
        bad = tmp_path / "bad.json"
        bad.write_text(job_text(command="spectrum", star={"directions": dirs},
                                alpha=0.0, arm_length=1.0,
                                mesh={"panels": 128, "order": 16}))
        tracemalloc.start()
        try:
            code = main(["--job", str(bad), "--out", str(tmp_path / "out.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"more than {MAX_BATCH_ENTRIES} entries" in capsys.readouterr().err
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("sharp", [4, 6])
    def test_sharp_stars_at_the_size_caps_parse(self, sharp):
        parse_job(job_text(command="spectrum", star={"sharp": sharp}, alpha=0.0,
                           arm_length=5.0, mesh={"panels": 128, "order": 16}))


class TestRun:
    def test_spectrum_roundtrip(self, tmp_path):
        out = tmp_path / "res.json"
        job = parse_job(job_text(
            command="spectrum", star={"sharp": 2}, alpha=0.0, arm_length=6.0,
            mesh={"panels": 6, "order": 8},
            output={"path": str(out)},
        ))
        assert run(job) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"job_echo", "results", "diagnostics", "versions", "meta"}
        assert doc["results"]["levels"][0]["j"] == 1
        assert doc["results"]["levels"][0]["energy"] < 0
        assert doc["diagnostics"]["ground_vector_positivity"] is True
        assert doc["diagnostics"]["parity"] == "symmetric"

    def test_determinism_outside_meta(self, tmp_path):
        out = tmp_path / "res.json"
        texts = []
        for _ in range(2):
            job = parse_job(job_text(
                command="design-check", star={"sharp": 6}, design={"order": 3},
                output={"path": str(out)},
            ))
            assert run(job) == 0
            doc = json.loads(out.read_text())
            doc.pop("meta")
            texts.append(render_json(doc))
        assert texts[0] == texts[1]

    def test_seventeen_digit_floats(self, tmp_path):
        out = tmp_path / "res.json"
        job = parse_job(job_text(
            command="bounds", star={"sharp": 2}, alpha=0.125, arm_length=4.0,
            bounds={"constant": 1.0, "phi": 0.1},
            output={"path": str(out)},
        ))
        assert run(job) == 0
        text = out.read_text()
        doc = json.loads(text)
        val = doc["results"]["segment_existence_length"]
        import math

        assert val == pytest.approx(2 * math.pi * math.exp(2 * math.pi * 0.125
                                                           + 0.5772156649015329),
                                    rel=1e-15)

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        job = parse_job(job_text(
            command="sweep-angle", alpha=0.0, arm_length=6.0,
            sweep={"phi_min": 1.5, "phi_max": 3.0, "count": 3},
            mesh={"panels": 6, "order": 8},
            output={"path": str(out)},
        ))
        assert run(job) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "phi,E_1,E_1_plus_bound"
        assert len(lines) == 4
        for row in lines[1:]:
            assert len(row.split(",")) == 3

    def test_design_check_results(self):
        job = parse_job(job_text(command="design-check", star={"sharp": 12},
                                 design={"order": 5}))
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            assert run(job) == 0
        doc = json.loads(buf.getvalue())
        assert doc["results"]["is_design"] is True

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        job = parse_job(job_text(
            command="optimize", star={"sharp": 2}, alpha=3.0, arm_length=0.2,
            optimize={"starts": 2, "seed": 0},
            output={"path": str(out)},
        ))
        assert run(job) == 3
        assert not out.exists()

    @pytest.mark.parametrize("star, record", [
        ({"sharp": 4}, {"path": "sector", "dim": 48, "group_counts": [3]}),
        ({"directions": [[0, 0, 1], [1, 0, 0], [0.6, 0.8, 0]]},
         {"path": "dense", "dim": 144, "group_counts": None}),
    ], ids=["sharp4", "asymmetric3"])
    def test_spectrum_eigensolver_record(self, star, record, tmp_path):
        out = tmp_path / "res.json"
        job = parse_job(job_text(
            command="spectrum", star=star, alpha=0.0, arm_length=5.0,
            mesh={"panels": 6, "order": 8}, output={"path": str(out)},
        ))
        assert run(job) == 0
        assert json.loads(out.read_text())["diagnostics"]["eigensolver"] == record

    def test_spectrum_root_evaluations(self, tmp_path):
        # the ground root's lambda evaluations, as the library counts them
        out = tmp_path / "res.json"
        job = parse_job(job_text(
            command="spectrum", star={"sharp": 4}, alpha=0.0, arm_length=5.0,
            mesh={"panels": 6, "order": 8}, output={"path": str(out)},
        ))
        assert run(job) == 0
        star = make_star(sharp_configuration(4), 5.0, 0.0)
        res = bound_states(star, build_mesh(5.0, 6, 8, 2.0), 0.0)[1]
        assert 1 <= res.root_evaluations <= 6
        diagnostics = json.loads(out.read_text())["diagnostics"]
        assert diagnostics["root_evaluations"] == res.root_evaluations

    def test_verify_applies_solver_group(self, tmp_path):
        out = tmp_path / "res.json"
        job = parse_job(job_text(
            command="verify-sharp", star={"sharp": 2}, alpha=0.0, arm_length=5.0,
            mesh={"panels": 4, "order": 6}, solver={"kappa_tol": 1e-3},
            verify={"trials": 1}, output={"path": str(out)},
        ))
        assert run(job) == 0
        sharp_energy = json.loads(out.read_text())["results"]["sharp_energy"]
        star = make_star(sharp_configuration(2), 5.0, 0.0)
        mesh = build_mesh(5.0, 4, 6, 2.0)
        assert sharp_energy == solve_energy(star, mesh, 0.0, kappa_tol=1e-3)[1]
        assert sharp_energy != solve_energy(star, mesh, 0.0)[1]

    def test_bounds_near_coincident_arms(self, tmp_path, capsys):
        # make_star admits arms 1e-9 rad apart; tau(1e-9) is about 3.63
        out = tmp_path / "res.json"
        jb = tmp_path / "job.json"
        jb.write_text(job_text(command="bounds", alpha=0.0, arm_length=1.0,
                               star={"directions": [[0, 0, 1], [1e-9, 0, 1]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--job", str(jb), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        threshold = json.loads(out.read_text())["results"]["nonexistence_threshold"]
        assert math.isfinite(threshold)
        assert threshold == pytest.approx(3.6291635951864, rel=1e-9)

    def test_arpack_runs_repeat(self, tmp_path):
        # the perturbed icosahedra take the ARPACK path (1152 rows)
        texts = []
        for _ in range(2):
            out = tmp_path / "res.json"
            job = parse_job(job_text(
                command="verify-sharp", star={"sharp": 12}, alpha=0.0, arm_length=3.0,
                verify={"trials": 2}, optimize={"seed": 3},
            ))
            assert run(job, out_path=str(out)) == 0
            doc = json.loads(out.read_text())
            doc.pop("meta")
            texts.append(render_json(doc))
        assert texts[0] == texts[1]

    def test_search_through_subset_driver_failures(self, tmp_path):
        # LAPACK's subset driver fails at some kappas of this 8 x 8 search
        # matrix; the search falls back to the full driver there
        job = parse_job(job_text(
            command="optimize", star={"sharp": 2}, alpha=-1.0,
            arm_length=1.2313601059970256, mesh={"panels": 2, "order": 2, "grading": 1.0},
            optimize={"starts": 1},
        ))
        assert run(job, out_path=str(tmp_path / "res.json")) == 0


#: one minimal document per JSON-writing command (sweep-angle writes CSV,
#: which has no echo) and its ``job_echo``: the document normalized, the
#: defaults of every group the command reads filled in, keys in a fixed order
SOLVER_DEFAULTS = {"kappa_tol": 1e-10}
ECHOES = {
    "spectrum": (MINIMAL_SPECTRUM, {
        **MINIMAL_SPECTRUM,
        "mesh": {"panels": 8, "order": 12, "grading": 2.0},
        "solver": {**SOLVER_DEFAULTS, "levels": 1},
        "output": {"format": "json", "path": None},
    }),
    "optimize": (
        {"command": "optimize", "star": {"sharp": 2}, "alpha": 0, "arm_length": 5,
         "optimize": {"starts": 1}},
        {"command": "optimize", "star": {"sharp": 2}, "alpha": 0, "arm_length": 5,
         "mesh": {"panels": 8, "order": 12, "grading": 2.0},
         "solver": SOLVER_DEFAULTS,
         "optimize": {"starts": 1, "seed": 0, "simplex_tol": 1e-5},
         "output": {"format": "json", "path": None}},
    ),
    "verify-sharp": (
        {"command": "verify-sharp", "star": {"sharp": 2}, "alpha": -0.5, "arm_length": 3.0,
         "verify": {"trials": 1}},
        {"command": "verify-sharp", "star": {"sharp": 2}, "alpha": -0.5, "arm_length": 3.0,
         "mesh": {"panels": 8, "order": 12, "grading": 2.0},
         "solver": SOLVER_DEFAULTS,
         "optimize": {"seed": 0},
         "verify": {"scale": 0.05, "trials": 1},
         "output": {"format": "json", "path": None}},
    ),
    "bounds": (
        {"command": "bounds", "star": {"directions": [[0, 0, 1], [1, 0, 0]]},
         "alpha": 0.25, "arm_length": 2},
        {"command": "bounds", "star": {"directions": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]},
         "alpha": 0.25, "arm_length": 2,
         "bounds": {"constant": 1.0, "phi": None, "k": 1},
         "output": {"format": "json", "path": None}},
    ),
    "design-check": (
        {"command": "design-check", "star": {"sharp": 6}},
        {"command": "design-check", "star": {"sharp": 6},
         "design": {"order": 3},
         "output": {"format": "json", "path": None}},
    ),
}


class TestJobEcho:
    @pytest.mark.parametrize("command", sorted(ECHOES))
    def test_minimal_document_echo(self, command, tmp_path):
        document, expected = ECHOES[command]
        out = tmp_path / "res.json"
        assert run(parse_job(json.dumps(document)), out_path=str(out)) == 0
        echo = json.loads(out.read_text())["job_echo"]
        assert echo == expected
        assert list(echo) == list(expected)


def count_star_assemblers(monkeypatch):
    calls = []
    init = discretization.StarAssembler.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(discretization.StarAssembler, "__init__", counting_init)
    return calls


class TestOneSolverPerStar:
    def test_spectrum_two_levels(self, tmp_path, monkeypatch):
        calls = count_star_assemblers(monkeypatch)
        out = tmp_path / "res.json"
        job = parse_job(job_text(
            command="spectrum", star={"sharp": 4}, alpha=0.0, arm_length=5.0,
            mesh={"panels": 6, "order": 8}, solver={"levels": 2},
            output={"path": str(out)},
        ))
        assert run(job) == 0
        assert len(calls) == 1
        doc = json.loads(out.read_text())
        levels = doc["results"]["levels"]
        # 17-digit output of the solver that built one assembler per call;
        # level 1 comes from the 48-row sector matrix
        assert levels[0] == {"j": 1, "kappa": 4.087130620703254, "energy": -16.704636710690167}
        # level 2 comes from the full 192-row matrix, whose eigensolve rounds
        # differently with the BLAS thread count: check it against the
        # library in this process
        _, res = bound_states(
            make_star(sharp_configuration(4), 5.0, 0.0), build_mesh(5.0, 6, 8, 2.0), 0.0, 2
        )
        assert levels[1] == {"j": 2, "kappa": res.levels[1].kappa, "energy": res.levels[1].energy}
        assert doc["diagnostics"]["bound_states"] == 6

    def test_sweep_one_per_angle(self, tmp_path, monkeypatch):
        calls = count_star_assemblers(monkeypatch)
        job = parse_job(job_text(
            command="sweep-angle", alpha=0.0, arm_length=6.0,
            sweep={"phi_min": 1.5, "phi_max": 3.0, "count": 3},
            mesh={"panels": 6, "order": 8},
            output={"path": str(tmp_path / "sweep.csv")},
        ))
        assert run(job) == 0
        assert len(calls) == 3


#: settings that a command accepts in a group it reads but does not read
#: itself: (document, the key the error names)
NOT_READ = {
    "sweep-angle with solver.levels": ({
        "command": "sweep-angle", "alpha": 0.0, "arm_length": 1.0,
        "sweep": {"phi_min": 0.5, "phi_max": 1.0, "count": 2},
        "solver": {"levels": 2}}, "solver.levels"),
    "optimize with solver.levels": (dict(
        MINIMAL_SPECTRUM, command="optimize", solver={"levels": 1}), "solver.levels"),
    "verify-sharp with solver.levels": (dict(
        MINIMAL_SPECTRUM, command="verify-sharp", solver={"levels": 1}), "solver.levels"),
    "verify-sharp with optimize.starts": (dict(
        MINIMAL_SPECTRUM, command="verify-sharp", optimize={"starts": 1}), "optimize.starts"),
    "verify-sharp with optimize.simplex_tol": (dict(
        MINIMAL_SPECTRUM, command="verify-sharp", optimize={"seed": 1, "simplex_tol": 1e-5}),
        "optimize.simplex_tol"),
}
KEYS_NOT_READ = {case: doc for case, (doc, _) in NOT_READ.items()}

#: job documents that must be rejected with exit status 2, one per input
BAD_INPUTS = {
    "alpha NaN": dict(MINIMAL_SPECTRUM, alpha=float("nan")),
    "arm_length Infinity": dict(MINIMAL_SPECTRUM, arm_length=float("inf")),
    "alpha -Infinity": dict(MINIMAL_SPECTRUM, alpha=float("-inf")),
    "mesh.grading NaN": dict(MINIMAL_SPECTRUM, mesh={"grading": float("nan")}),
    # not a key: root brackets close at kappa = 0, so no floor is set
    "solver.kappa_floor NaN": dict(MINIMAL_SPECTRUM, solver={"kappa_floor": float("nan")}),
    "solver.kappa_floor": dict(MINIMAL_SPECTRUM, solver={"kappa_floor": 1e-4}),
    "solver.kappa_tol Infinity": dict(MINIMAL_SPECTRUM, solver={"kappa_tol": float("inf")}),
    "optimize.simplex_tol Infinity": dict(
        MINIMAL_SPECTRUM, command="optimize", optimize={"simplex_tol": float("inf")}),
    "sweep.phi_max NaN": {
        "command": "sweep-angle", "alpha": 0.0, "arm_length": 1.0,
        "sweep": {"phi_min": 0.5, "phi_max": float("nan"), "count": 3}},
    "verify.scale NaN": dict(
        MINIMAL_SPECTRUM, command="verify-sharp", verify={"scale": float("nan")}),
    "bounds.constant Infinity": dict(
        MINIMAL_SPECTRUM, command="bounds", bounds={"constant": float("inf")}),
    "bounds.phi NaN": dict(
        MINIMAL_SPECTRUM, command="bounds", bounds={"phi": float("nan")}),
    "direction coordinate string": dict(
        MINIMAL_SPECTRUM, star={"directions": [[0, 0, 1], ["x", 0, 0]]}),
    "direction coordinate true": dict(
        MINIMAL_SPECTRUM, star={"directions": [[0, 0, 1], [True, 0, 0]]}),
    "direction coordinate NaN": dict(
        MINIMAL_SPECTRUM, star={"directions": [[0, 0, 1], [float("nan"), 0, 0]]}),
    "output.path integer": dict(MINIMAL_SPECTRUM, output={"path": 7}),
    "output.format integer": dict(MINIMAL_SPECTRUM, output={"format": 7}),
    "bounds.phi 0": dict(MINIMAL_SPECTRUM, command="bounds", bounds={"phi": 0.0}),
    "bounds.phi above pi": dict(MINIMAL_SPECTRUM, command="bounds", bounds={"phi": 3.2}),
    "mesh.panels above the cap": dict(MINIMAL_SPECTRUM, mesh={"panels": 129}),
    "mesh.order above the cap": dict(MINIMAL_SPECTRUM, mesh={"order": 17}),
    "matrix rows above the cap": dict(
        MINIMAL_SPECTRUM, star={"sharp": 12}, mesh={"panels": 128, "order": 11}),
    "optimize directions above the row cap": dict(
        MINIMAL_SPECTRUM, command="optimize",
        star={"directions": [[0, 0, 1]] * 171}),
    "design.order above the cap": {
        "command": "design-check", "star": {"sharp": 4}, "design": {"order": 65}},
    "sweep-angle with json output": {
        "command": "sweep-angle", "alpha": 0.0, "arm_length": 1.0,
        "sweep": {"phi_min": 1.0, "phi_max": 1.0, "count": 1},
        "output": {"format": "json"}},
    "sweep.count above the cap": {
        "command": "sweep-angle", "alpha": 0.0, "arm_length": 1.0,
        "sweep": {"phi_min": 0.5, "phi_max": 1.0, "count": 10_001}},
    "bounds with 257 arms": dict(
        MINIMAL_SPECTRUM, command="bounds", star={"directions": [[0, 0, 1]] * 257}),
    "bounds with a mesh": dict(MINIMAL_SPECTRUM, command="bounds", mesh={}),
    "design-check with a solver": {
        "command": "design-check", "star": {"sharp": 4}, "solver": {"levels": 1}},
    "design-check with alpha": {"command": "design-check", "star": {"sharp": 4}, "alpha": 0},
    "spectrum with optimize settings": dict(MINIMAL_SPECTRUM, optimize={"seed": 1}),
    "sweep-angle with optimize settings": {
        "command": "sweep-angle", "alpha": 0.0, "arm_length": 1.0,
        "sweep": {"phi_min": 0.5, "phi_max": 1.0, "count": 2}, "optimize": {}},
    **KEYS_NOT_READ,
}

#: job documents that parse but must be rejected with exit status 2 when run
INVALID_JOBS = {
    "mesh.grading 1e300": dict(MINIMAL_SPECTRUM, mesh={"grading": 1e300}),
    "arm_length 1e308": dict(MINIMAL_SPECTRUM, arm_length=1e308),
    "design-check non-unit directions": {
        "command": "design-check", "star": {"directions": [[0, 0, 0], [0, 0, 2]]}},
    "bounds with phi, small-angle lower bound overflows": dict(
        MINIMAL_SPECTRUM, command="bounds", alpha=-58.0, bounds={"phi": 0.5}),
    "bounds, segment existence length overflows": dict(
        MINIMAL_SPECTRUM, command="bounds", alpha=113.0),
    "sweep-angle, small-angle bound overflows": {
        "command": "sweep-angle", "alpha": -200.0, "arm_length": 1.0,
        "sweep": {"phi_min": 0.5, "phi_max": 0.5, "count": 1}},
    "optimize with one arm": {
        "command": "optimize", "star": {"directions": [[0, 0, 1]]},
        "alpha": 0, "arm_length": 1},
}


class TestMain:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exit_2(self, case, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(BAD_INPUTS[case]))
        assert main(["--job", str(bad), "--out", str(tmp_path / "out.json")]) == 2
        assert "parse error" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("case", sorted(NOT_READ))
    def test_key_not_read_is_named(self, case, tmp_path, capsys):
        document, key = NOT_READ[case]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        assert main(["--job", str(bad), "--out", str(tmp_path / "out.json")]) == 2
        assert f"'{key}' is only valid for" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(INVALID_JOBS))
    def test_invalid_job_exit_2(self, case, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(INVALID_JOBS[case]))
        assert main(["--job", str(bad), "--out", str(tmp_path / "out.json")]) == 2
        assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_output_path_null_means_not_given(self):
        job = parse_job(job_text(**MINIMAL_SPECTRUM, output={"path": None}))
        assert job.doc["output"]["path"] is None

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(job_text(command="spectrum", star={"sharp": 4},
                                alpha=0.0, arm_length=-5.0))
        assert main(["--job", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["--job", "/nonexistent/job.json"]) == 2

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "res.json"
        jb = tmp_path / "job.json"
        jb.write_text(job_text(command="design-check", star={"sharp": 4},
                               design={"order": 2}))
        proc = subprocess.run(
            [sys.executable, "-m", "starspec.cli", "--job", str(jb),
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["results"]["is_design"] is True


#: JSON values of every kind, NaN and the infinities included (json.loads
#: accepts them)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
NUMBERS = st.integers() | st.floats()


def _group(*keys):
    return st.dictionaries(st.sampled_from(keys), NUMBERS | JSON_VALUES, max_size=3)


#: job documents near the valid ones: known keys, plausible and arbitrary values
JOB_DOCUMENTS = st.fixed_dictionaries({}, optional={
    "command": st.sampled_from(COMMANDS) | JSON_VALUES,
    "star": st.fixed_dictionaries({}, optional={
        "sharp": st.sampled_from([2, 3, 4, 6, 12]) | JSON_VALUES,
        "directions": st.lists(st.lists(NUMBERS, min_size=3, max_size=3), max_size=3)
        | JSON_VALUES,
    }) | JSON_VALUES,
    "alpha": NUMBERS | JSON_VALUES,
    "arm_length": NUMBERS | JSON_VALUES,
    "mesh": _group("panels", "order", "grading", "extra"),
    "solver": _group("kappa_tol", "levels"),
    "optimize": _group("starts", "seed", "simplex_tol"),
    "sweep": _group("phi_min", "phi_max", "count"),
    "verify": _group("scale", "trials"),
    "bounds": _group("constant", "phi", "k"),
    "design": _group("order"),
    "output": _group("format", "path"),
    "extra": JSON_VALUES,
})


class TestParseJobFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(JOB_DOCUMENTS)
    def test_documents_raise_only_parse_error(self, doc):
        try:
            parse_job(json.dumps(doc))
        except ParseError:
            pass

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.text(max_size=40) | JSON_VALUES.map(json.dumps))
    def test_any_text_raises_only_parse_error(self, text):
        try:
            parse_job(text)
        except ParseError:
            pass


def _unit(theta, phi):
    return [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]


#: unit directions, and arbitrary 3-vectors (rejected when run)
DIRECTIONS = (
    st.builds(_unit, st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi))
    | st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)
)
SMALL_SHARP = st.sampled_from([2, 3]).map(lambda n: {"sharp": n})
SMALL_STARS = SMALL_SHARP | st.lists(DIRECTIONS, min_size=1, max_size=3).map(
    lambda dirs: {"directions": dirs})


def _small_job(command):
    """Valid documents of one command, small enough to run: at most three
    arms, at most 4 panels of order 4, one start, one trial, two angles;
    each carries only the groups and keys its command reads."""
    groups = {
        "command": st.just(command),
        "alpha": st.floats(-3.0, 3.0),
        "arm_length": st.floats(0.05, 8.0),
        "star": SMALL_STARS,
    }
    if command in ("spectrum", "sweep-angle", "optimize", "verify-sharp"):
        groups["mesh"] = st.fixed_dictionaries({
            "panels": st.integers(2, 4), "order": st.integers(2, 4),
            "grading": st.floats(1.0, 4.0)})
        solver = {"kappa_tol": st.floats(1e-12, 1e-2)}
        if command == "spectrum":
            solver["levels"] = st.integers(1, 3)
        groups["solver"] = st.fixed_dictionaries({}, optional=solver)
    if command == "optimize":
        groups["optimize"] = st.fixed_dictionaries({"starts": st.just(1)}, optional={
            "seed": st.integers(0, 3), "simplex_tol": st.floats(1e-6, 1e-1)})
    elif command == "verify-sharp":
        groups["optimize"] = st.fixed_dictionaries({}, optional={"seed": st.integers(0, 3)})
    if command == "sweep-angle":
        del groups["star"]
        groups["sweep"] = st.fixed_dictionaries({
            "phi_min": st.floats(1e-3, 3.1), "phi_max": st.just(3.14),
            "count": st.integers(1, 2)})
    elif command == "verify-sharp":
        groups["star"] = SMALL_SHARP
        groups["verify"] = st.fixed_dictionaries({
            "scale": st.floats(0.0, 0.5), "trials": st.just(1)})
    elif command == "bounds":
        groups["bounds"] = st.fixed_dictionaries({}, optional={
            "constant": st.floats(0.01, 10.0), "phi": st.floats(1e-3, math.pi),
            "k": st.integers(-1, 3)})
    elif command == "design-check":
        del groups["alpha"], groups["arm_length"]
        groups["design"] = st.fixed_dictionaries({"order": st.integers(1, 8)})
    return st.fixed_dictionaries(groups)


class TestMainFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(COMMANDS).flatmap(_small_job))
    @example(INVALID_JOBS["optimize with one arm"])
    def test_exit_status_without_traceback(self, doc):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            job = os.path.join(tmp, "job.json")
            with open(job, "w") as fh:
                json.dump(doc, fh)
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main(["--job", job, "--out", os.path.join(tmp, "out")])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
