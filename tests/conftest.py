"""Shared pytest set-up.

No test run may leave the package's bytecode in the source tree: a
benchmark run in the same checkout would import from it and read its
set-up time low. Setting ``sys.dont_write_bytecode`` here covers the
package imports of every test module, whether or not
``PYTHONDONTWRITEBYTECODE`` is set; the tests that start a Python child
give it ``PYTHONDONTWRITEBYTECODE=1``. Only this file's own bytecode,
written before the line below runs, lands in ``tests/__pycache__``.

Golden checks come in two kinds. Decision goldens pin only tokens,
evictions, occupancies and exact integer bytes, which hold under every
SIMD dispatch and BLAS kernel. Float goldens pin float bits as well, which
hold only under the default dispatch and kernels; each carries the
``float_golden`` marker, and CI runs the ``-m "not float_golden"``
selection under other dispatches and kernels.
"""

import sys

sys.dont_write_bytecode = True


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "float_golden: pins float bits that hold only under the default SIMD dispatch and BLAS kernels"
    )
