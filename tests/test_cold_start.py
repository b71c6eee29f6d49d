"""Start-up cost: scipy's LP solver loads only at the first LP, and neither
``scipy.sparse`` nor ``numpy.ma`` loads at all."""

import os
import subprocess
import sys
from pathlib import Path

import treeshrink

SRC = str(Path(treeshrink.__file__).resolve().parents[1])


def loaded_scipy_modules(code):
    """Run ``code`` in a fresh interpreter; return the scipy submodules it
    loaded, and ``numpy.ma`` if it loaded that."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    report = ("import sys; print(' '.join(m for m in sys.modules "
              "if m.startswith('scipy.') or m == 'numpy.ma'))")
    out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env,
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_import_loads_no_solver_or_sparse_module():
    loaded = loaded_scipy_modules("import treeshrink, treeshrink.cli")
    assert not loaded & {"scipy.optimize", "scipy.sparse", "numpy.ma"}


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


def test_first_lp_loads_the_solver():
    loaded = loaded_scipy_modules(
        "from treeshrink.ot_core import transport_lp\n"
        "transport_lp([0.2, 0.3, 0.5], [0, 3], [0.5, 0.25, 0.25], [0, 3], [0, 1, 2, 1, 0, 1, 2, 1, 0])")
    assert "scipy.optimize" in loaded
