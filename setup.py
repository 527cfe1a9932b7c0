"""Setuptools shim with no packaging metadata.

The repository has no ``pyproject.toml`` or ``setup.cfg``, and this call
to ``setup()`` names no packages, so installing from it does not install
``repro``.  Run the code from the source tree with ``PYTHONPATH=src``
(see ``README.md``); CI installs only ``requirements-ci.txt``.
"""

from setuptools import setup

setup()
