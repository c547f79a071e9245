"""Legacy setup shim; all metadata lives in ``pyproject.toml``.

Where the ``wheel`` package is installed (any fresh virtualenv or CI
runner), ``pip install -e .`` builds a PEP 660 editable install from
``pyproject.toml`` alone.  Without ``wheel`` (an offline host), both
pip routes fail — PEP 660 needs ``bdist_wheel`` and
``--no-use-pep517`` needs ``wheel`` too — so this shim keeps the
setuptools route open: ``python setup.py develop`` installs the package
and its ``repro-cosched`` console script.
"""

from setuptools import setup

setup()
