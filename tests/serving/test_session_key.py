"""``SessionKey.slug``: derived once per key, identity left as the fields'."""

import copy
import dataclasses
import hashlib
import pickle
import re

import pytest

from repro.serving import SessionKey


def _formula(app, segment):
    """The snapshot stem: the sanitised name cut at 60 characters, then a
    SHA-1 prefix of the raw pair."""
    raw = "%s\x00%s" % (app, segment)
    digest = hashlib.sha1(raw.encode("utf-8")).hexdigest()[:10]
    safe = re.sub(r"[^A-Za-z0-9._=-]+", "-", "%s__%s" % (app, segment))
    return "%s-%s" % (safe[:60], digest)


KEYS = [
    ("zipf", "seed3/r00017/reserve"),
    ("données", "ségment-ü/東京"),
    ("a b", "c/d\\e:f*g?h|i\x00j"),
    ("app", "x" * 100),
    ("long-" * 20, "s"),
]


@pytest.mark.parametrize("app,segment", KEYS)
def test_slug_is_the_formula(app, segment):
    key = SessionKey(app, segment)
    assert key.slug() == _formula(app, segment)
    assert key.slug() == _formula(app, segment)
    assert len(key.slug()) <= 60 + 1 + 10


def test_slug_is_derived_once_per_key(monkeypatch):
    digests = []
    sha1 = hashlib.sha1
    monkeypatch.setattr(hashlib, "sha1", lambda data: digests.append(data) or sha1(data))
    key = SessionKey("app", "segment")
    assert key.slug() == key.slug() == key.slug()
    assert len(digests) == 1


def test_equal_keys_built_apart_share_a_slug():
    first, second = SessionKey("app", "seg/ü"), SessionKey("app", "seg/ü")
    assert first is not second
    assert first.slug() == second.slug()


def test_the_memo_changes_neither_equality_hash_repr_nor_pickles():
    key, fresh = SessionKey("app", "seg/ü"), SessionKey("app", "seg/ü")
    before = (repr(key), hash(key), pickle.dumps(key))
    key.slug()
    assert (repr(key), hash(key), pickle.dumps(key)) == before
    assert key == fresh and hash(key) == hash(fresh) and repr(key) == repr(fresh)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(key, protocol) == pickle.dumps(fresh, protocol)
        restored = pickle.loads(pickle.dumps(key, protocol))
        assert restored == key and hash(restored) == hash(key)
        assert restored.slug() == key.slug()
    assert copy.deepcopy(key) == key
    assert dataclasses.astuple(key) == ("app", "seg/ü")
    assert [field.name for field in dataclasses.fields(key)] == ["app", "segment"]
    assert dataclasses.replace(key, segment="other").slug() == _formula("app", "other")
