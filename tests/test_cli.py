import pytest

from hdgwg import cli, experiments

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


def test_infsup_command(tmp_path):
    rc = cli.main(["infsup", "--method", "hdg", "--regime", "inv",
                   "--k", "0", "--rhos", "1,1e-2", "--level-list", "1,2",
                   "--outdir", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "infsup.csv")
    assert header == ["h", "rho", "beta"]
    assert len(rows) == 4
    assert all(float(r[2]) > 0.0 for r in rows)


def test_dump_matrix_round_trips(tmp_path, monkeypatch):
    # the dumped matrix is the first level's solved system, exactly: the
    # varcoef case tells the solve's quadrature rule from any other
    varcoef = ["converge", "--method", "hdg", "--regime", "inv", "--k", "1",
               "--rho", "0.1", "--levels", "3", "--case", "varcoef"]
    solve = experiments.solve_symmetric_indefinite
    for n, argv in enumerate((CONVERGE, varcoef)):
        solved = []

        def recording(matrix, rhs, **kwargs):
            solved.append(matrix)
            return solve(matrix, rhs, **kwargs)

        monkeypatch.setattr(experiments, "solve_symmetric_indefinite",
                            recording)
        dump = tmp_path / "system{}.txt".format(n)
        rc = cli.main(argv + ["--outdir", str(tmp_path),
                              "--dump-matrix", str(dump)])
        assert rc == 0
        with open(dump) as fh:
            back = read_matrix(fh)
        assert back.shape == solved[0].shape
        assert abs(solved[0] - back).max() == 0.0


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


def test_check_command(tmp_path, capsys):
    rc = cli.main(["check", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "self-check: pass" in out
    assert out.count(" ok") >= 12
