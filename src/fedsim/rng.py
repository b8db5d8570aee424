"""Deterministic per-source random streams.

Every stochastic source in a run (per-link delay sampling, per-link loss
sampling, arrival process, payload sizes) draws from its own ``random.Random``
instance whose seed is derived from the scenario seed plus a structured label.
Streams are therefore independent of each other and of event interleaving:
adding traffic on one link never shifts the draw sequence of another. For the
same reason a stream may be made at any time before its first draw: each
per-link stream is made by its sampler on the link's first draw from it, so a
rule without jitter or loss makes none (see ``netem``), and it draws exactly
what a stream made at set-up would.

Each variate is computed from the stream's ``random()`` by the formula of
the ``random.Random`` method it replaces, with the same operations in the same
order (see ``netem`` and ``workload``), and the link or payload sampler that
owns a stream holds the spare normal ``gauss`` would keep on it. Only the
empirical payload mode still calls a method: ``randrange``.

Derivation goes through SHA-256 rather than ``hash()`` so it is stable across
interpreter invocations and immune to hash randomization. It is taken from
CPython's builtin module (``_sha256`` up to 3.11, ``_sha2`` from 3.12), as
``random`` takes its SHA-512, and from ``hashlib`` only where neither
exists: loading ``hashlib`` loads OpenSSL, which costs a few MB of memory.
The digest is the same from every source.
"""

from __future__ import annotations

import random

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def derive_seed(root_seed: int, *label: object) -> int:
    """Derive a 64-bit stream seed from the root seed and a label tuple."""
    tag = "/".join(str(part) for part in label)
    digest = sha256(f"{root_seed}/{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream(root_seed: int, *label: object) -> random.Random:
    """Return an independent deterministic RNG for the given source label."""
    return random.Random(derive_seed(root_seed, *label))
