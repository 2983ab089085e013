"""Library results do not depend on the BLAS thread count.

Only the CLI pins OpenBLAS to one thread, and only when it is imported
before numpy.  A library caller that imports numpy first runs BLAS on as
many threads as OPENBLAS_NUM_THREADS says, and each result must still be
the same to the bit.
"""

import json
import os
import subprocess
import sys

import pytest

# numpy first, so that no pin applies; one Cholesky-route MC variance (the
# d = 3 Euclidean field), one psi-table fit and one cap weight's integral
_CHILD = """
import numpy as np
import hashlib, json, os
from polyspec import fieldsim, geometry, variance, walk
from polyspec.geometry import BallSpec, Geometry

spec = variance.PolyspectrumSpec(variance.FieldSpec(Geometry.EUCLIDEAN, 3, 6.0), 3, 1.0)
domain = fieldsim.build_domain(Geometry.EUCLIDEAN, 3, 1.0, 10)
mc = fieldsim.mc_polyspectrum_variance(spec, 7, domain, 1000)
table = walk._PsiTable(3, 4)
table(np.array([3.5]))
weight = geometry.make_weight(BallSpec(Geometry.SPHERICAL, 3, 0.7))
print(json.dumps({"mc": mc.estimate.hex(), "ci95": [v.hex() for v in mc.ci95],
                  "psi_table": hashlib.sha256(table.coef.tobytes()).hexdigest(),
                  "cap_weight": weight.integral.hex(),
                  "threads": len(os.listdir("/proc/self/task"))}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
def test_library_results_do_not_depend_on_blas_threads():
    def child(threads):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True,
                              text=True, check=True, env=env, timeout=300)
        return json.loads(proc.stdout)

    one, two = child("1"), child("2")
    # the second child did run OpenBLAS workers
    assert one.pop("threads") < two.pop("threads")
    assert one == two
