from __future__ import annotations

import pytest
from hypothesis import Phase, settings

from guiseq.corpus import app_model, program_model
from guiseq.programdb import build_class_db, build_edg
from guiseq.ripper import build_efg_from_structure, rip

# ``tests/mutants.py`` selects this profile: a property that kills a mutant
# need only fail, and shrinking its counterexample costs most of the run.
settings.register_profile("no-shrink", phases=[p for p in Phase if p is not Phase.shrink])


@pytest.fixture(scope="session")
def example_app():
    return app_model("example-app")


@pytest.fixture(scope="session")
def example_efg(example_app):
    return build_efg_from_structure(rip(example_app))


@pytest.fixture(scope="session")
def example_edg(example_efg):
    edg, warnings = build_edg(
        build_class_db(program_model("example-app-curated")), example_efg
    )
    assert not warnings
    return edg


@pytest.fixture(scope="session")
def jabref_app():
    return app_model("jabref-scenario")


@pytest.fixture(scope="session")
def jabref_efg(jabref_app):
    return build_efg_from_structure(rip(jabref_app))


@pytest.fixture(scope="session")
def jabref_edg(jabref_efg):
    edg, warnings = build_edg(
        build_class_db(program_model("jabref-scenario")), jabref_efg
    )
    assert not warnings
    return edg


@pytest.fixture(scope="session")
def rachota_app():
    return app_model("rachota-scenario")


@pytest.fixture(scope="session")
def rachota_efg(rachota_app):
    return build_efg_from_structure(rip(rachota_app))


@pytest.fixture(scope="session")
def rachota_edg(rachota_efg):
    edg, warnings = build_edg(
        build_class_db(program_model("rachota-scenario")), rachota_efg
    )
    assert not warnings
    return edg
