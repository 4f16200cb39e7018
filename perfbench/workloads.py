"""The benchmark's workloads and the check of the studies' outputs.

A workload is a list of study invocations (``hdgwg`` argument lists without
``--outdir``).  One pass runs every invocation once.  ``SMOKE`` holds the
same invocations at tiny levels, for the benchmark's own tests.

Each invocation writes one CSV.  ``check_outputs`` compares it with the
values the seed code wrote (``reference.json``) and applies the
acceptance-style sanity gates.  Tolerances, per column:

* ``level``, ``dofs``: exact.  They are integers fixed by the mesh and space.
* ``h``, ``rho``: relative 1e-12.  ``h`` is one division, ``rho`` echoes the
  input; anything larger is a changed input.
* ``err_flux``, ``err_scalar``: relative 1e-6.  Solving each system with
  its unknowns randomly permuted (so the LU pivots in another order) moves
  them by at most 5e-10 relative; a defect in a form or a norm moves them by
  far more.
* ``order``: absolute 1e-5.  It is log2 of a ratio of the errors above; a
  relative change of 1e-6 in each moves it by < 3e-6.
* ``dist_flux``, ``dist_scalar``: relative 1e-6 plus absolute 1e-7.  The
  limit study solves with penalties up to 1/(rho h) ~ 3e6, and its smallest
  distances sit on the solver's roundoff floor: the wg scalar distances at
  level 5 and rho <= 1e-3 are 1e-10..6e-9, the permuted solve moves them by
  up to 7e-10, and the seed's wg flux distance at rho = 1e-5 lies 9e-8 above
  the trend of the larger rhos.  A more accurate solver may remove that, and is
  not a defect.  The distances at rho = 0.1 (1e-4..1e-3) stay tight.
* ``slope``: must be the least-squares slope of log(dist_flux + dist_scalar)
  against log(rho) over the rows, to 1e-9, and at least 0.45.  It follows the
  distances, so it is not compared with its seed value.
* ``beta``: relative 1e-7.  The LAPACK routine sygv in place of sygvd moves
  it by 5e-14; the looser bound leaves room for an iterative inf-sup solver
  converged to 1e-8.
"""

from __future__ import annotations

import math

_REGIMES = (("hdg", "rho-h", "1"), ("wg", "rho-h", "1"),
            ("hdg", "inv", "0.1"), ("wg", "inv", "0.1"))
_INFSUP_RHOS = "1,1e-2,1e-4"


def _converge(method, regime, k, rho, levels):
    return ["converge", "--method", method, "--regime", regime, "--k", str(k),
            "--rho", rho, "--levels", str(levels), "--case", "sine"]


def _limit(method, level):
    return ["limit", "--method", method, "--k", "1", "--level", str(level)]


def _infsup(method, regime, k, levels):
    return ["infsup", "--method", method, "--regime", regime, "--k", str(k),
            "--rhos", _INFSUP_RHOS, "--level-list", levels]


def _infsup_levels(method, regime, k, full):
    if not full:
        return "1"
    # hdg/inv k=1 at level 3 has 2064 DOFs, over the 2000-DOF dense cap
    return "1,2" if (method, regime, k) == ("hdg", "inv", 1) else "1,2,3"


def _workloads(full):
    conv_levels = 6 if full else 3
    return {
        "converge-k0": [_converge(m, r, 0, rho, conv_levels)
                        for m, r, rho in _REGIMES],
        "converge-k1": [_converge("hdg", "inv", 1, "0.1", conv_levels)],
        "limit-k1": [_limit(m, 5 if full else 2) for m in ("hdg", "wg")],
        "infsup": [_infsup(m, r, k, _infsup_levels(m, r, k, full))
                   for m, r, _ in _REGIMES for k in (0, 1)],
    }


WORKLOADS = _workloads(full=True)
SMOKE = _workloads(full=False)

OUTPUT_CSV = {"converge": "convergence.csv", "limit": "limit.csv",
              "infsup": "infsup.csv"}

_EXACT = {"level", "dofs"}
# column -> (relative, absolute) tolerance; see the module docstring
_TOL = {"h": (1e-12, 0.0), "rho": (1e-12, 0.0), "err_flux": (1e-6, 0.0),
        "err_scalar": (1e-6, 0.0), "order": (0.0, 1e-5),
        "dist_flux": (1e-6, 1e-7), "dist_scalar": (1e-6, 1e-7),
        "beta": (1e-7, 0.0)}
_SLOPE_FIT_TOL = 1e-9

# final observed order per k, from the acceptance criteria
_ORDER_RANGE = {0: (0.9, 1.2), 1: (1.8, 2.2)}
_MIN_LIMIT_SLOPE = 0.45


def invocation_key(argv):
    return " ".join(argv)


def read_csv(path):
    """Header and rows of a study CSV, numbers as floats."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return {"header": header, "rows": rows}


def _value_error(column, got, want):
    """Why ``got`` fails to match ``want`` in ``column``, or None."""
    if math.isnan(want) or math.isnan(got):
        return None if math.isnan(want) and math.isnan(got) else "nan mismatch"
    if column in _EXACT:
        return None if got == want else "not exactly equal"
    rtol, atol = _TOL[column]
    if abs(got - want) <= rtol * abs(want) + atol:
        return None
    return "|diff| > {:g} |ref| + {:g}".format(rtol, atol)


def _fitted_slope(rows, col):
    xs = [math.log(row[col["rho"]]) for row in rows]
    ys = [math.log(row[col["dist_flux"]] + row[col["dist_scalar"]])
          for row in rows]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
            / sum((x - xm) ** 2 for x in xs))


def _sanity_errors(argv, table):
    col = {name: i for i, name in enumerate(table["header"])}
    rows = table["rows"]
    errors = []
    if argv[0] == "converge":
        k = int(argv[argv.index("--k") + 1])
        lo, hi = _ORDER_RANGE[k]
        order = rows[-1][col["order"]]
        if not lo <= order <= hi:
            errors.append("final order {:.4f} outside [{}, {}]".format(
                order, lo, hi))
    elif argv[0] == "limit":
        slope = rows[0][col["slope"]]
        fitted = _fitted_slope(rows, col)
        if any(abs(row[col["slope"]] - fitted) > _SLOPE_FIT_TOL
               for row in rows):
            errors.append("slope {!r} is not the fit {!r}".format(
                slope, fitted))
        if not slope >= _MIN_LIMIT_SLOPE:
            errors.append("limit slope {:.4f} < {}".format(
                slope, _MIN_LIMIT_SLOPE))
    else:
        for row in rows:
            if not row[col["beta"]] > 0.0:
                errors.append("beta {} not > 0".format(row[col["beta"]]))
    return errors


def check_outputs(argv, table, reference):
    """List of reasons why ``table`` (from ``read_csv``) is wrong; empty if
    it matches the reference values and passes the sanity gates."""
    want = reference.get(invocation_key(argv))
    if want is None:
        return ["no reference values for this invocation"]
    if table["header"] != want["header"]:
        return ["header {} != {}".format(table["header"], want["header"])]
    if len(table["rows"]) != len(want["rows"]):
        return ["{} rows, expected {}".format(
            len(table["rows"]), len(want["rows"]))]
    errors = []
    for i, (got_row, want_row) in enumerate(zip(table["rows"], want["rows"])):
        for column, got, expected in zip(want["header"], got_row, want_row):
            if column == "slope":
                continue  # checked against the distances by _sanity_errors
            why = _value_error(column, got, expected)
            if why:
                errors.append("row {} {}: {!r} vs {!r} ({})".format(
                    i, column, got, expected, why))
    return errors + _sanity_errors(argv, table)
