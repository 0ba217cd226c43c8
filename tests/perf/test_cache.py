"""Tests for the content-addressed result cache and source fingerprint."""

import pickle

import pytest

from repro.experiments.common import SCALES
from repro.perf import ResultCache, clear_fingerprint_cache, source_fingerprint


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache", fingerprint="test-fp")


def test_put_get_roundtrip(cache):
    key = cache.key_for("table2", SCALES["tiny"], "ursa-ejf", seed=0)
    payload = {"makespan": 12.5, "series": [1.0, 2.0, 3.0]}
    cache.put(key, payload)
    assert cache.get(key) == payload
    assert len(cache) == 1


def test_miss_raises_keyerror(cache):
    key = cache.key_for("table2", SCALES["tiny"], "ursa-ejf", seed=0)
    with pytest.raises(KeyError, match=key):
        cache.get(key)
    assert len(cache) == 0


def test_key_depends_on_every_config_axis(cache):
    sc_tiny, sc_bench = SCALES["tiny"], SCALES["bench"]
    base = cache.key_for("table2", sc_tiny, "ursa-ejf", seed=0)
    assert cache.key_for("table3", sc_tiny, "ursa-ejf", seed=0) != base
    assert cache.key_for("table2", sc_bench, "ursa-ejf", seed=0) != base
    assert cache.key_for("table2", sc_tiny, "y+s", seed=0) != base
    assert cache.key_for("table2", sc_tiny, "ursa-ejf", seed=1) != base
    assert cache.key_for("table2", sc_tiny, "ursa-ejf", seed=0, kwargs={"policy": "srjf"}) != base
    # identical inputs → identical key (content addressing is stable)
    assert cache.key_for("table2", sc_tiny, "ursa-ejf", seed=0) == base


def test_key_depends_on_source_fingerprint(tmp_path):
    a = ResultCache(tmp_path / "a", fingerprint="fp-1")
    b = ResultCache(tmp_path / "b", fingerprint="fp-2")
    sc = SCALES["tiny"]
    assert a.key_for("table2", sc, "ursa-ejf") != b.key_for("table2", sc, "ursa-ejf")


@pytest.mark.parametrize(
    "garbage",
    [
        b"not a pickle",           # UnpicklingError
        b"garbage\n",              # pickle parses a frame, then ValueError
        b"",                       # EOFError
        pickle.dumps([1, 2, 3]),   # valid pickle, wrong shape (no "payload")
    ],
)
def test_corrupt_object_is_a_miss(cache, garbage):
    key = cache.key_for("fig8", SCALES["tiny"], 1)
    cache.put(key, {"jct": 1.0})
    path = cache._path(key)
    path.write_bytes(garbage)
    with pytest.raises(KeyError):
        cache.get(key)
    # and a fresh put over the corrupt entry heals it
    cache.put(key, {"jct": 2.0})
    assert cache.get(key) == {"jct": 2.0}


def test_len_and_clear(cache):
    for unit in ("a", "b", "c"):
        cache.put(cache.key_for("fig8", SCALES["tiny"], unit), {"unit": unit})
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0


def test_source_fingerprint_tracks_content(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "a.py").write_text("x = 1\n")
    (tree / "b.py").write_text("y = 2\n")
    clear_fingerprint_cache()
    fp1 = source_fingerprint(tree)
    assert fp1 == source_fingerprint(tree)  # stable (and memoized)

    clear_fingerprint_cache()
    (tree / "a.py").write_text("x = 42\n")
    assert source_fingerprint(tree) != fp1

    clear_fingerprint_cache()
    (tree / "a.py").write_text("x = 1\n")
    assert source_fingerprint(tree) == fp1  # content-based, not mtime-based


def test_default_fingerprint_is_repro_source_tree(tmp_path):
    cache = ResultCache(tmp_path / "c")
    assert cache.fingerprint == source_fingerprint()
    assert len(cache.fingerprint) == 64


def test_payloads_stored_with_meta(cache):
    sc = SCALES["tiny"]
    key = cache.key_for("table5", sc, (2.0, "y+u"), seed=3)
    meta = cache.key_material("table5", sc, (2.0, "y+u"), 3, {})
    cache.put(key, {"metrics": None}, meta=meta)
    with cache._path(key).open("rb") as fh:
        obj = pickle.load(fh)
    assert obj["meta"]["experiment"] == "table5"
    assert obj["meta"]["seed"] == 3
    assert obj["meta"]["source"] == "test-fp"
