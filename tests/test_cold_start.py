"""Start-up cost: importing the package and its CLI loads no SciPy module
at all.  SciPy's HiGHS extension module loads only at the first LP, and
alone: neither ``scipy.optimize`` nor ``scipy.sparse`` nor ``numpy.ma``
loads at all.  Loaded that way, it is still the module object that
``scipy.optimize`` uses, whichever of the two comes first."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeshrink
from treeshrink.cli import main
from treeshrink.ot_core import transport_lp

SRC = str(Path(treeshrink.__file__).resolve().parents[1])

# One 3 x 3 transport problem: too large for the closed forms, so HiGHS
# solves it.
TRANSPORT_3X3 = ([0.2, 0.3, 0.5], [0, 3], [0.5, 0.25, 0.25], [0, 3],
                 [0, 1, 2, 1, 0, 1, 2, 1, 0])


def run_fresh(code):
    """Run ``code`` in a fresh interpreter; return what it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def loaded_scipy_modules(code):
    """Run ``code`` in a fresh interpreter; return the scipy modules it
    loaded (the package itself included), and ``numpy.ma`` if it loaded that."""
    report = ("import sys; print(' '.join(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy' or m == 'numpy.ma'))")
    return set(run_fresh(f"{code}\n{report}").splitlines()[-1].split())


def transport_lp_values():
    """The 3 x 3 problem's value, as a fresh interpreter prints it."""
    return transport_lp(*TRANSPORT_3X3)[0].tolist()


def test_import_loads_no_solver_or_sparse_module():
    loaded = loaded_scipy_modules("import treeshrink, treeshrink.cli")
    assert loaded == set()


def test_bregman_reduction_and_scoring_load_no_lp_solver():
    # Every barycenter has two support points and every transport problem a
    # two-atom or one-atom side, so nothing reaches HiGHS; the stage tables
    # are numpy block sums, so no sparse matrix is built either.
    loaded = loaded_scipy_modules(
        "from treeshrink import ReductionConfig, cli, nested_distance, random_init, reduce_tree\n"
        "original = cli._bench_tree(2, 3, 1, 0)\n"
        "for solver in ('ibp', 'mam'):\n"
        "    final, _ = reduce_tree(original, random_init([2, 2, 2]), ReductionConfig(solver))\n"
        "    nested_distance(original, final)")
    assert not loaded & {"scipy.optimize", "scipy.sparse", "numpy.ma"}


# A transport LP, and the CLI's exact reduction onto three children a node:
# barycenter LPs on three support points, then exact scoring.
FIRST_LPS = {
    "transport_lp": "from treeshrink.ot_core import transport_lp\n"
                    f"transport_lp(*{TRANSPORT_3X3!r})",
    "cli_reduce_lp": "import runpy, sys\n"
                     "sys.argv = ['treeshrink', 'reduce', '-i', {tree!r}, '--solver', 'lp',\n"
                     "            '--target-branching', '3', '-o', {out!r}]\n"
                     "try:\n"
                     "    runpy.run_module('treeshrink.cli', run_name='__main__')\n"
                     "except SystemExit as stop:\n"
                     "    assert stop.code == 0, stop.code",
}


@pytest.mark.parametrize("case", FIRST_LPS)
def test_first_lp_loads_the_solver(tmp_path, case):
    tree = tmp_path / "tree.json"
    assert main(["gen", "--stages", "3", "--branching", "3", "-o", str(tree)]) == 0
    loaded = loaded_scipy_modules(
        FIRST_LPS[case].format(tree=str(tree), out=str(tmp_path / "small.json")))
    assert "scipy.optimize._highspy._core" in loaded
    assert not loaded & {"scipy.optimize", "scipy.sparse", "numpy.ma"}


def test_scipy_optimize_after_the_first_lp_shares_the_solver():
    out = run_fresh(
        "import sys\n"
        "from treeshrink import ot_core\n"
        f"values, _ = ot_core.transport_lp(*{TRANSPORT_3X3!r})\n"
        "from scipy.optimize import linprog\n"
        "res = linprog([1, 2, 3], A_eq=[[1, 1, 1]], b_eq=[1], method='highs')\n"
        "assert res.status == 0 and res.fun == 1, res\n"
        "assert sys.modules['scipy.optimize._highspy._core'] is ot_core._highs_binding()[0]\n"
        "print(values.tolist())")
    assert out == f"{transport_lp_values()}\n"


def test_first_lp_after_scipy_optimize_reuses_its_solver():
    out = run_fresh(
        "import sys\n"
        "import scipy.optimize\n"
        "core = sys.modules['scipy.optimize._highspy._core']\n"
        "from treeshrink import ot_core\n"
        f"values, _ = ot_core.transport_lp(*{TRANSPORT_3X3!r})\n"
        "assert ot_core._highs_binding()[0] is core\n"
        "print(values.tolist())")
    assert out == f"{transport_lp_values()}\n"


def test_two_threads_make_the_first_lp_at_once():
    out = run_fresh(
        "import sys, threading\n"
        "from treeshrink.ot_core import transport_lp\n"
        "sys.setswitchinterval(1e-6)\n"
        "start = threading.Barrier(2)\n"
        "values = [None, None]\n"
        "def solve(i):\n"
        "    start.wait()\n"
        f"    values[i] = transport_lp(*{TRANSPORT_3X3!r})[0].tolist()\n"
        "threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]\n"
        "for thread in threads:\n"
        "    thread.start()\n"
        "for thread in threads:\n"
        "    thread.join(timeout=60)\n"
        "    assert not thread.is_alive(), 'a thread is still loading'\n"
        "assert None not in values, 'a thread raised'\n"
        "print(values[0])\n"
        "print(values[1])")
    assert out == f"{transport_lp_values()}\n" * 2

