from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import railho


def test_pyproject_reads_the_package_version():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert read_configuration(pyproject)["project"]["version"] == railho.__version__
