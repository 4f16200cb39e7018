import io
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import hdgwg
from hdgwg import cli, experiments, linalg
from hdgwg.assembly import (CoefficientField, ElementTables, FormSums,
                            form_terms)
from hdgwg.experiments import manufactured_case
from hdgwg.mesh import build_structured_mesh
from hdgwg.spaces import SpaceCase, build_space_triple

from cellwise import read_matrix

CONVERGE = ["converge", "--method", "hdg", "--regime", "rho-h",
            "--k", "0", "--rho", "1", "--levels", "3", "--first-level", "1"]


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_converge_writes_expected_csv(tmp_path):
    rc = cli.main(CONVERGE + ["--outdir", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "convergence.csv")
    assert header == ["level", "h", "dofs", "err_flux", "err_scalar", "order"]
    assert len(rows) == 3
    assert 0.5 < float(rows[-1][5]) < 1.5


def test_converge_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert cli.main(CONVERGE + ["--outdir", str(a)]) == 0
    assert cli.main(CONVERGE + ["--outdir", str(b)]) == 0
    assert (a / "convergence.csv").read_bytes() == (b / "convergence.csv").read_bytes()


def test_config_file_supplies_values(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("# convergence setup\nlevels = 3\nfirst-level = 1\nrho = 1\n")
    c1 = tmp_path / "c1"
    c2 = tmp_path / "c2"
    c1.mkdir()
    c2.mkdir()
    rc = cli.main(["converge", "--method", "hdg", "--regime", "rho-h",
                   "--config", str(cfg), "--outdir", str(c1)])
    assert rc == 0
    assert cli.main(CONVERGE + ["--outdir", str(c2)]) == 0
    assert (c1 / "convergence.csv").read_text() == (c2 / "convergence.csv").read_text()


def test_flag_overrides_config(tmp_path):
    base = ["converge", "--method", "hdg", "--regime", "rho-h"]
    # an explicit flag beats the config value, also when it equals the
    # flag's default (--k 0)
    cases = [("rho = 0.125\n", ["--rho", "0.5"]), ("k = 1\n", ["--k", "0"])]
    for n, (line, flag) in enumerate(cases):
        cfg = tmp_path / "study{}.cfg".format(n)
        cfg.write_text(line + "levels = 3\nfirst-level = 1\n")
        d1 = tmp_path / "d1-{}".format(n)
        d2 = tmp_path / "d2-{}".format(n)
        rc = cli.main(base + flag + ["--config", str(cfg), "--outdir", str(d1)])
        assert rc == 0
        rc = cli.main(base + flag + ["--levels", "3", "--first-level", "1",
                                     "--outdir", str(d2)])
        assert rc == 0
        assert ((d1 / "convergence.csv").read_text()
                == (d2 / "convergence.csv").read_text())


def test_bad_config_lines(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("levels 3\n")
    rc = cli.main(["converge", "--method", "hdg", "--regime", "rho-h",
                   "--config", str(cfg), "--outdir", str(tmp_path)])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err
    cfg.write_text("granularity = 3\n")
    rc = cli.main(["converge", "--method", "hdg", "--regime", "rho-h",
                   "--config", str(cfg), "--outdir", str(tmp_path)])
    assert rc == 2


def test_config_value_outside_choices_is_rejected(tmp_path, capsys):
    # a config value passes the flag's checks: --regime takes rho-h,
    # rho_h or inv
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("regime = bogus\n")
    rc = cli.main(["converge", "--method", "hdg", "--config", str(cfg),
                   "--outdir", str(tmp_path)])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not (tmp_path / "convergence.csv").exists()


def test_config_svg_takes_true_or_false(tmp_path, capsys):
    cfg = tmp_path / "svg.cfg"
    for value, svg in (("false", False), ("true", True)):
        out = tmp_path / value
        cfg.write_text("svg = {}\nlevels = 3\nfirst-level = 1\n".format(value))
        rc = cli.main(["converge", "--method", "hdg", "--regime", "rho-h",
                       "--config", str(cfg), "--outdir", str(out)])
        assert rc == 0
        assert (out / "convergence.csv").exists()
        assert (out / "convergence.svg").exists() == svg
    cfg.write_text("svg = yes\n")
    out = tmp_path / "yes"
    rc = cli.main(["converge", "--method", "hdg", "--regime", "rho-h",
                   "--config", str(cfg), "--outdir", str(out)])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not (out / "convergence.svg").exists()


def test_invalid_degree_exits_with_message(tmp_path, capsys):
    rc = cli.main(["converge", "--method", "hdg", "--regime", "rho-h",
                   "--k", "7", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_missing_method_exits(tmp_path, capsys):
    rc = cli.main(["converge", "--regime", "rho-h", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "required" in capsys.readouterr().err


def test_seed_is_a_check_flag(tmp_path, capsys):
    # only check draws random vectors; the studies reject --seed
    for argv in (CONVERGE, ["limit", "--method", "wg"],
                 ["infsup", "--method", "hdg", "--regime", "inv"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", "1", "--outdir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    parser, _ = cli._build_parser()
    assert parser.parse_args(["check", "--seed", "1"]).seed == 1


def test_limit_command(tmp_path):
    rc = cli.main(["limit", "--method", "wg", "--k", "0", "--level", "2",
                   "--rhos", "1e-1,1e-2", "--outdir", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "limit.csv")
    assert header == ["rho", "dist_flux", "dist_scalar", "slope"]
    assert len(rows) == 2
    assert float(rows[0][1]) + float(rows[0][2]) > float(rows[1][1]) + float(rows[1][2])


@pytest.mark.parametrize("rhos", [",", "0.1", "0.1,0"])
def test_limit_rejects_rhos_without_a_slope(tmp_path, capsys, rhos):
    rc = cli.main(["limit", "--method", "wg", "--k", "0", "--level", "1",
                   "--rhos", rhos, "--outdir", str(tmp_path)])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not (tmp_path / "limit.csv").exists()


@pytest.mark.parametrize("flag", ["--rhos", "--level-list"])
def test_infsup_rejects_an_empty_sweep(tmp_path, capsys, flag):
    rc = cli.main(["infsup", "--method", "hdg", "--regime", "inv",
                   flag, ",", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "empty inf-sup sweep" in capsys.readouterr().err
    assert not (tmp_path / "infsup.csv").exists()


@pytest.mark.parametrize("module", ["hdgwg", "hdgwg.cli"])
def test_python_m_runs_the_cli(tmp_path, module):
    # the console script's exit codes, also from ``python -m``
    src = str(pathlib.Path(hdgwg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", module, "infsup", "--method", "hdg",
         "--regime", "inv", "--rhos", ",", "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 2
    assert "empty inf-sup sweep" in run.stderr
    assert not (tmp_path / "infsup.csv").exists()


def test_infsup_command(tmp_path):
    rc = cli.main(["infsup", "--method", "hdg", "--regime", "inv",
                   "--k", "0", "--rhos", "1,1e-2", "--level-list", "1,2",
                   "--outdir", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "infsup.csv")
    assert header == ["h", "rho", "beta"]
    assert len(rows) == 4
    assert all(float(r[2]) > 0.0 for r in rows)


def test_infsup_runs_past_the_dense_range(tmp_path):
    # level 4 (2,784 DOFs) is solved by inertia counting; there is no cap
    rc = cli.main(["infsup", "--method", "hdg", "--regime", "rho-h",
                   "--k", "0", "--level-list", "4", "--outdir", str(tmp_path)])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "infsup.csv")
    assert rows and all(float(r[2]) > 0.0 for r in rows)


@pytest.mark.parametrize("method,regime", [("hdg", "inv"), ("wg", "rho-h")])
def test_infsup_gram_breakdown_is_a_numerical_failure(tmp_path, capsys,
                                                      method, regime):
    # at rho = 1e-16 the study's own Gram matrix loses definiteness to
    # rounding: a numerical failure (exit 1), not a bad flag (exit 2)
    rc = cli.main(["infsup", "--method", method, "--regime", regime,
                   "--k", "0", "--rhos", "1e-16", "--level-list", "1",
                   "--outdir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "numerical failure: inf-sup at level 1, rho = 1e-16: norm matrix N "
        "must be symmetric positive definite\n")


def test_infsup_count_failure_names_level_and_rho(tmp_path, capsys):
    # the level-3 pencil (992 DOFs) at rho = 1e-14 hits a zero pivot at
    # sigma = -guess, the guess being the level-2 beta
    rc = cli.main(["infsup", "--method", "hdg", "--regime", "inv",
                   "--k", "0", "--rhos", "1e-14", "--level-list", "1,2,3",
                   "--outdir", str(tmp_path)])
    assert rc == 1
    assert re.fullmatch(
        r"numerical failure: inf-sup at level 3, rho = 1e-14: inf-sup count "
        r"at sigma = \S+: a zero diagonal pivot forced a row exchange, so "
        r"the factor is no LDL\^T\n", capsys.readouterr().err)


REFINEMENT_FAILURE = ("refinement: residual 1.000e+00 exceeds tolerance "
                      "1.000e-10 after 5 steps")


def _failing_solve(monkeypatch, at):
    """Make the ``at``-th solve of a study (0 first) fail in refinement."""
    solve = experiments.solve_element_system
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) > at:
            raise linalg.SingularMatrixError(REFINEMENT_FAILURE)
        return solve(*args)

    monkeypatch.setattr(experiments, "solve_element_system", failing)


@pytest.mark.parametrize("at,stage", [(0, "level 1"), (2, "level 3")])
def test_converge_failure_names_level_and_rho(tmp_path, capsys, monkeypatch,
                                              at, stage):
    _failing_solve(monkeypatch, at)
    rc = cli.main(CONVERGE + ["--outdir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "numerical failure: converge at {}, rho = 1.0: {}\n".format(
            stage, REFINEMENT_FAILURE))
    assert not (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize("method,at,stage", [
    ("hdg", 0, "primal solve"), ("wg", 0, "mixed solve"),
    ("hdg", 1, "rho = 0.1"), ("wg", 2, "rho = 0.01")])
def test_limit_failure_names_level_and_rho(tmp_path, capsys, monkeypatch,
                                           method, at, stage):
    # the conforming limit is solved first, then one system per rho
    _failing_solve(monkeypatch, at)
    rc = cli.main(["limit", "--method", method, "--k", "0", "--level", "2",
                   "--rhos", "1e-1,1e-2", "--outdir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "numerical failure: limit at level 2, {}: {}\n".format(
            stage, REFINEMENT_FAILURE))
    assert not (tmp_path / "limit.csv").exists()


def _first_level_matrix(argv):
    """The assembled system of a converge invocation's first level, by
    ``FormSums``, and its DOF map."""
    value = dict(zip(argv[1::2], argv[2::2]))
    prob = manufactured_case(value.get("--case", "sine"))
    mesh = build_structured_mesh(2**int(value.get("--first-level", "2")))
    case = SpaceCase(value["--method"], value["--regime"].replace("-", "_"),
                     int(value["--k"]), float(value["--rho"]))
    dofs = build_space_triple(mesh, case)
    tables = ElementTables(mesh, case)
    coeff = CoefficientField(alpha=prob.alpha)
    sums = FormSums(form_terms, mesh, dofs, coeff, tables)
    return sums.matrix(form_terms, dofs, coeff, tables), dofs


DUMPED = ["converge", "--method", "hdg", "--regime", "inv", "--k", "1",
          "--rho", "0.1", "--levels", "3", "--case", "varcoef"]


def test_dump_matrix_round_trips(tmp_path, monkeypatch):
    # the dumped matrix is the first level's system, exactly, and the
    # element matrices that level's solve was given sum to it: the varcoef
    # case tells the solve's quadrature rule from any other
    solve = experiments.solve_element_system
    for n, argv in enumerate((CONVERGE, DUMPED)):
        solved = []

        def recording(*args):
            solved.append(args)
            return solve(*args)

        monkeypatch.setattr(experiments, "solve_element_system", recording)
        dump = tmp_path / "system{}.txt".format(n)
        rc = cli.main(argv + ["--outdir", str(tmp_path),
                              "--dump-matrix", str(dump)])
        assert rc == 0
        with open(dump) as fh:
            back = read_matrix(fh)
        want, dofs = _first_level_matrix(argv)
        assert back.shape == want.shape
        assert abs(want - back).max() == 0.0
        stacks, cell_dofs, _, cell_blocks, _ = solved[0]
        assert cell_blocks == dofs.cell_blocks
        rows = np.broadcast_to(cell_dofs[:, :, None], stacks.shape)
        cols = np.broadcast_to(cell_dofs[:, None, :], stacks.shape)
        kept = (rows >= 0) & (cols >= 0)
        summed = sp.csr_matrix((stacks[kept], (rows[kept], cols[kept])),
                               shape=want.shape)
        assert abs(summed - want).max() <= 1e-14 * abs(want).max()


def test_dump_matrix_is_the_form_sums_matrix_byte_for_byte(tmp_path):
    # --dump-matrix writes write_matrix of the FormSums matrix of the
    # first level, the text the assembled solve path wrote before the
    # studies solved element matrices
    dump = tmp_path / "dump.txt"
    assert cli.main(DUMPED + ["--outdir", str(tmp_path),
                              "--dump-matrix", str(dump)]) == 0
    want = io.StringIO()
    linalg.write_matrix(_first_level_matrix(DUMPED)[0], want)
    assert dump.read_bytes() == want.getvalue().encode()


def test_outdir_is_created(tmp_path):
    out = tmp_path / "results" / "run1"
    assert cli.main(CONVERGE + ["--outdir", str(out)]) == 0
    assert (out / "convergence.csv").exists()


def test_svg_output(tmp_path):
    rc = cli.main(CONVERGE + ["--outdir", str(tmp_path), "--svg"])
    assert rc == 0
    text = (tmp_path / "convergence.svg").read_text()
    assert text.startswith("<svg")
    assert "polyline" in text


def test_svg_drops_a_non_positive_point_whole(tmp_path):
    # (10, 0) has no logarithm: the pairs around it keep their places, so
    # (100, 100) is drawn at the right and top margins
    path = tmp_path / "plot.svg"
    cli._write_svg(str(path), [(1, 1), (10, 0), (100, 100)], "t")
    points = re.search(r'points="([^"]*)"', path.read_text()).group(1)
    assert points.split() == ["40.00,320.00", "440.00,40.00"]


def test_check_command(tmp_path, capsys):
    rc = cli.main(["check", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "self-check: pass" in out
    assert out.count(" ok") >= 12


def test_readme_commands_run_as_written(tmp_path, capsys):
    # every hdgwg line of the README's command block runs as printed
    readme = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("hdgwg ")]
    assert [argv[0] for argv in commands] == [
        "converge", "limit", "infsup", "check"]
    csv = {"converge": "convergence.csv", "limit": "limit.csv",
           "infsup": "infsup.csv"}
    for n, argv in enumerate(commands):
        out = tmp_path / str(n)
        assert cli.main(argv + ["--outdir", str(out)]) == 0
        printed = capsys.readouterr().out
        if argv[0] == "check":
            assert "self-check: pass" in printed
        else:
            assert (out / csv[argv[0]]).exists()


def test_readme_names_every_option():
    # every option of every subcommand is documented; --level must not be
    # found inside --levels or --level-list
    readme = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    _, subparsers = cli._build_parser()
    missing = {(name, option) for name, sub in subparsers.items()
               for action in sub._actions for option in action.option_strings
               if action.dest != "help"
               and not re.search(re.escape(option) + r"(?![\w-])", readme)}
    assert missing == set()


def test_readme_states_the_counting_crossover():
    # the pencil size from which beta is counted, wherever README gives it
    readme = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    stated = re.findall(r"COUNTING_MIN_DOFS` = (\d+)", readme)
    stated += re.findall(r"Pencils of (\d+) DOFs or more", readme)
    assert len(stated) == 2
    assert set(stated) == {str(linalg.COUNTING_MIN_DOFS)}
