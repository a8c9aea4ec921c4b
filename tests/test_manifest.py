"""Each named case writes the bundle bytes recorded in bundle_manifest.json."""

import json

import pytest

from update_manifest import CASES, MANIFEST, STAGED, run_case


def test_manifest_names_every_case():
    assert sorted(json.loads(MANIFEST.read_text("utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_bundle_matches_manifest(tmp_path, name):
    assert run_case(name, tmp_path) == json.loads(MANIFEST.read_text("utf-8"))[name]


@pytest.mark.parametrize("name", STAGED)
def test_report_over_stage_caches_writes_the_uncached_bundle(name):
    case = json.loads(MANIFEST.read_text("utf-8"))[name]
    assert case["cached_files"] == case["files"]
