"""Import hygiene: numpy is the only runtime dependency, and ``rcm`` starts lean.

One fresh interpreter with ``scipy`` and ``networkx`` blocked imports the
package, checks that importing the CLI pulls in neither the experiment
harnesses nor the service tier, then runs the percolation analysis and an
``rcm simulate`` sweep — so an undeclared dependency or an eager import that
creeps back fails here.
"""

from __future__ import annotations

from conftest import run_with_undeclared_imports_blocked

_LEAN_START = """
import contextlib, io

import repro
import repro.cli

leaked = [name for name in ("repro.experiments", "repro.service", "networkx") if name in sys.modules]
assert not leaked, f"importing repro.cli loaded {leaked}"

import numpy as np
from repro.dht import HypercubeOverlay
from repro.percolation import component_size_distribution

overlay = HypercubeOverlay.build(5)
alive = np.ones(overlay.n_nodes, dtype=bool)
alive[[1, 2, 4, 8, 16]] = False
summary = component_size_distribution(overlay, alive)
assert summary.component_sizes == (26, 1), summary

output = io.StringIO()
with contextlib.redirect_stdout(output):
    code = repro.cli.main(
        ["simulate", "--geometry", "xor", "--d", "8", "--q", "0.3", "--pairs", "200", "--seed", "3"]
    )
assert code == 0, code
assert "0.30" in output.getvalue(), output.getvalue()
leaked = [name for name in ("scipy", "networkx", "repro.experiments", "repro.service") if name in sys.modules]
assert not leaked, f"rcm simulate loaded {leaked}"
"""


def test_package_and_simulate_run_with_undeclared_dependencies_blocked():
    completed = run_with_undeclared_imports_blocked(_LEAN_START)
    assert completed.returncode == 0, completed.stderr
