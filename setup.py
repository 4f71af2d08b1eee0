"""Setup script.

Metadata lives here (rather than a [project] table in pyproject.toml)
because the offline build environment lacks the ``wheel`` package that
PEP 660 editable installs require; with a plain setup.py, ``pip install -e .``
falls back to the classic ``setup.py develop`` path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Non-linear workload characterization with neural networks "
        "(IISWC 2006 reproduction)"
    ),
    long_description=open("README.md").read(),
    long_description_content_type="text/markdown",
    python_requires=">=3.9",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.20"],
    extras_require={"dev": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
