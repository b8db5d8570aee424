import hashlib

import pytest

from fedsim.rng import derive_seed, stream


def test_same_label_same_stream():
    a = [stream(42, "delay", 0, 2).random() for _ in range(3)]
    b = [stream(42, "delay", 0, 2).random() for _ in range(3)]
    assert a == b


def test_different_labels_differ():
    assert derive_seed(42, "delay", 0, 2) != derive_seed(42, "delay", 2, 0)
    assert derive_seed(42, "delay", 0, 2) != derive_seed(42, "loss", 0, 2)
    assert derive_seed(42, "arrival") != derive_seed(43, "arrival")


def test_derivation_is_stable():
    # frozen: derivation must never change across releases, or seeds stop
    # reproducing published runs
    assert derive_seed(0, "arrival") == 0x3933DE19F81C71D4


def test_label_parts_are_delimited():
    # ("ab", "c") and ("a", "bc") must not collide
    assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


def test_streams_are_independent_of_draw_order():
    one = stream(9, "loss", 1, 2)
    other = stream(9, "loss", 0, 2)
    interleaved = [other.random() for _ in range(5)]
    _ = [one.random() for _ in range(100)]
    fresh = stream(9, "loss", 0, 2)
    assert [fresh.random() for _ in range(5)] == interleaved


@pytest.mark.parametrize("label", [(), ("arrival",), ("delay", 0, 2), ("loss", 15, 3), ("payload", "é/ü")])
def test_the_builtin_sha256_gives_the_hashlib_seeds(label):
    tag = "/".join(str(part) for part in label)
    digest = hashlib.sha256(f"{2**70}/{tag}".encode("utf-8")).digest()
    assert derive_seed(2**70, *label) == int.from_bytes(digest[:8], "big")
