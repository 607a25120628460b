"""Shared pytest set-up.

No test run may leave the package's bytecode in the source tree: a
benchmark run in the same checkout would import from it and read its
set-up time low. Setting ``sys.dont_write_bytecode`` here covers the
package imports of every test module, whether or not
``PYTHONDONTWRITEBYTECODE`` is set; the tests that start a Python child
give it ``PYTHONDONTWRITEBYTECODE=1``. Only this file's own bytecode,
written before the line below runs, lands in ``tests/__pycache__``.
"""

import sys

sys.dont_write_bytecode = True
