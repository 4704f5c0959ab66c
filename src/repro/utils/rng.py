"""Deterministic random-number-stream management.

Every stochastic component in this library (clients' minibatch draws, the cloud's
edge sampling, dataset generators, parameter initialization) consumes an explicit
:class:`numpy.random.Generator`.  A single root seed is expanded into independent,
collision-free child streams via :class:`numpy.random.SeedSequence` spawning, so

* repeated runs with the same seed are bit-identical,
* adding a consumer never perturbs the streams of existing consumers, and
* per-client streams are statistically independent (no shared state, no locking),
  which mirrors how per-rank RNGs are handled in MPI-style HPC codes.

The central object is :class:`RngFactory`; algorithms hold one and hand out named
streams.  Names are hashed into the spawn key, so the mapping ``name -> stream`` is
stable across runs and across call order.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

__all__ = ["RngFactory", "spawn_generators", "as_generator", "stable_key",
           "first_uniforms", "generator_token", "generator_from_token",
           "restore_generator"]


def generator_token(gen: np.random.Generator) -> dict:
    """Snapshot ``gen`` into a picklable/JSON-able token.

    The token is the same ``{"__bitgen__": name, "state": {...}}`` envelope the
    checkpoint serializer (:mod:`repro.utils.serialization`) writes, so it
    round-trips *exactly*: Python ints are arbitrary-precision, surviving even
    PCG64's 128-bit state.  Use it to move generator state across process
    boundaries (execution-backend task descriptors) or into checkpoints.
    """
    from repro.utils.serialization import to_jsonable

    return to_jsonable(gen)


def generator_from_token(token: dict) -> np.random.Generator:
    """Rebuild a generator from a :func:`generator_token` snapshot.

    The returned generator continues the stream bit-identically from the
    snapshotted position.
    """
    from repro.utils.serialization import from_jsonable

    gen = from_jsonable(token)
    if not isinstance(gen, np.random.Generator):
        raise ValueError(f"not a generator token: {token!r}")
    return gen


def restore_generator(target: np.random.Generator,
                      source: np.random.Generator | dict) -> None:
    """Copy ``source``'s bit-generator state into ``target`` in place.

    ``source`` may be another generator or a :func:`generator_token` snapshot.
    In-place restoration keeps every alias to ``target`` (clients hold their
    sampler's generator, algorithms hold named streams) pointing at the
    restored stream.
    """
    if isinstance(source, dict):
        source = generator_from_token(source)
    target.bit_generator.state = source.bit_generator.state


def stable_key(name: str) -> int:
    """Map a string to a stable 64-bit integer (process-independent).

    Python's builtin ``hash`` is salted per process; we need a deterministic key so
    that named streams are reproducible across runs.  BLAKE2 is used for speed and
    availability in the standard library.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# ------------------------------------------------------ batched first draws
# Constants of NumPy's SeedSequence hash (``numpy/random/bit_generator.pyx``)
# and of the PCG64 generator behind ``default_rng``.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_LIMBS = tuple(np.uint64((_PCG_MULT >> (32 * i)) & _MASK32)
                        for i in range(4))
#: Keys per kernel pass.
_CHUNK = 4096


def _int_words(value) -> list[int]:
    """Little-endian uint32 words of a non-negative integer (SeedSequence's
    coercion: ``0`` is one zero word), or of each element of a sequence."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError(f"seed material must be non-negative, got {value}")
        words = [value & _MASK32]
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
        return words
    return [w for v in value for w in _int_words(v)]


class _Hash:
    """SeedSequence's ``hashmix`` (``_INIT_A``/``_MULT_A``; ``generate_state``
    runs the same recipe on ``_INIT_B``/``_MULT_B``) with its running
    multiplier.

    The multiplier advances once per call and never depends on the data, so
    one instance serves a whole batch of sequences in lock step.
    """

    def __init__(self, const: int = _INIT_A, mult: int = _MULT_A) -> None:
        self.const = const
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of two uint32 words."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _mul128(a: list[np.ndarray]) -> list[np.ndarray]:
    """``a * _PCG_MULT mod 2**128`` on four 32-bit limbs held in uint64."""
    cols = [np.uint64(0)] * 5
    for i in range(4):
        for j in range(4 - i):
            prod = a[i] * _PCG_MULT_LIMBS[j]
            cols[i + j] = cols[i + j] + (prod & np.uint64(_MASK32))
            cols[i + j + 1] = cols[i + j + 1] + (prod >> np.uint64(32))
    return _carry(cols[:4])


def _add128(a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
    return _carry([x + y for x, y in zip(a, b)])


def _carry(cols: list[np.ndarray]) -> list[np.ndarray]:
    """Normalize column sums (each < 2**40) to 32-bit limbs, mod 2**128."""
    out, carry = [], np.uint64(0)
    for col in cols:
        col = col + carry
        out.append(col & np.uint64(_MASK32))
        carry = col >> np.uint64(32)
    return out


def first_uniforms(entropy, spawn_prefix, keys) -> np.ndarray:
    """First ``random()`` draw of many spawned generators, in one batch.

    Element ``i`` equals, bit for bit::

        np.random.default_rng(np.random.SeedSequence(
            entropy, spawn_key=(*spawn_prefix, keys[i]))).random()

    ``entropy`` and the prefix entries are non-negative integers of any size;
    ``keys`` are integers in ``[0, 2**64)``.  The kernel replays the three
    stages NumPy runs per generator on whole arrays: the SeedSequence hash
    of the assembled uint32 words into a 4-word pool, ``generate_state(4,
    uint64)``, then PCG64 seeding and one step with its XSL-RR output.  The
    words shared by every sequence (entropy and prefix) are mixed once; a key
    of one word leaves the pool as it is where a two-word key mixes its high
    word, which is how SeedSequence treats keys below ``2**32``.
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1)
    run = _int_words(entropy)
    if len(run) < _POOL_SIZE:
        # A spawn key is always present, so SeedSequence zero-pads the run
        # entropy to the pool size.
        run += [0] * (_POOL_SIZE - len(run))
    shared = run + _int_words(list(spawn_prefix))

    hashmix = _Hash()
    pool = [hashmix(np.array([w], dtype=np.uint32)) for w in shared[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in shared[_POOL_SIZE:]:
        word = np.array([w], dtype=np.uint32)
        pool = [_mix(p, hashmix(word)) for p in pool]
    out = np.empty(keys.size, dtype=np.float64)
    # Chunks bound the kernel's temporaries (~40 arrays of the chunk's size).
    for lo in range(0, keys.size, _CHUNK):
        out[lo:lo + _CHUNK] = _keyed_uniforms(pool, hashmix.const,
                                              keys[lo:lo + _CHUNK])
    return out


def _keyed_uniforms(pool: list[np.ndarray], const: int,
                    keys: np.ndarray) -> np.ndarray:
    """Mix each key's words into the shared ``pool`` (hash multiplier at
    ``const``), then run ``generate_state`` and the first PCG64 draw."""
    hashmix = _Hash(const)
    low = (keys & np.uint64(_MASK32)).astype(np.uint32)
    pool = [_mix(p, hashmix(low)) for p in pool]
    high = (keys >> np.uint64(32)).astype(np.uint32)
    wide = high != 0
    pool = [np.where(wide, _mix(p, hashmix(high)), p) for p in pool]

    # generate_state(4, uint64): eight uint32 words cycled off the pool.
    hash_b = _Hash(_INIT_B, _MULT_B)
    state = [hash_b(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    # PCG64 takes (seed, inc) as (high, low) uint64 pairs; limbs run low first.
    initstate = [state[2], state[3], state[0], state[1]]
    initseq = [state[6], state[7], state[4], state[5]]
    inc = [((initseq[0] << np.uint64(1)) | np.uint64(1)) & np.uint64(_MASK32)]
    inc += [((initseq[k] << np.uint64(1)) | (initseq[k - 1] >> np.uint64(31)))
            & np.uint64(_MASK32) for k in (1, 2, 3)]
    # srandom: state = inc; state += initstate; step.  Then random(): step
    # and output.
    s = _add128(inc, initstate)
    s = _add128(_mul128(s), inc)
    s = _add128(_mul128(s), inc)
    lo = s[0] | (s[1] << np.uint64(32))
    hi = s[2] | (s[3] << np.uint64(32))
    rot = s[3] >> np.uint64(26)
    x = hi ^ lo
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def as_generator(seed: int | np.random.Generator | np.random.SeedSequence | None,
                 ) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an integer seed, an existing generator (returned unchanged), a
    ``SeedSequence``, or ``None`` (fresh OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_generators(seed: int | np.random.SeedSequence, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` independent generators from one seed.

    Streams are derived through ``SeedSequence.spawn`` and are guaranteed
    non-overlapping by the underlying Philox/PCG spawning machinery.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


class RngFactory:
    """Factory of named, independent random streams rooted at a single seed.

    Examples
    --------
    >>> factory = RngFactory(seed=0)
    >>> cloud_rng = factory.stream("cloud")
    >>> client_rngs = factory.streams("client", 30)

    Calling :meth:`stream` twice with the same name returns generators with the same
    *initial* state (two independent handles on an identical stream definition); the
    caller owns advancement of the state.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """Root seed this factory was created with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return an independent generator for the consumer called ``name``."""
        ss = np.random.SeedSequence(entropy=self._seed, spawn_key=(stable_key(name),))
        return np.random.default_rng(ss)

    def stream_at(self, name: str, i: int) -> np.random.Generator:
        """Return the ``i``-th stream of the ``name`` family without building the rest.

        ``stream_at(name, i)`` is bit-identical to ``streams(name, n)[i]`` for any
        ``n > i`` — the stream is a pure function of ``(seed, name, i)``.  This is
        what lets virtual populations derive a single client's generator on
        demand out of millions without materializing the full list.
        """
        if i < 0:
            raise ValueError(f"stream index must be >= 0, got {i}")
        ss = np.random.SeedSequence(entropy=self._seed,
                                    spawn_key=(stable_key(name), int(i)))
        return np.random.default_rng(ss)

    def streams(self, name: str, n: int) -> list[np.random.Generator]:
        """Return ``n`` independent generators, e.g. one per client."""
        if n < 0:
            raise ValueError(f"cannot create {n} streams")
        key = stable_key(name)
        return [
            np.random.default_rng(np.random.SeedSequence(entropy=self._seed,
                                                         spawn_key=(key, i)))
            for i in range(n)
        ]

    def iter_streams(self, name: str) -> Iterator[np.random.Generator]:
        """Yield an unbounded sequence of independent generators for ``name``."""
        key = stable_key(name)
        i = 0
        while True:
            yield np.random.default_rng(
                np.random.SeedSequence(entropy=self._seed, spawn_key=(key, i)))
            i += 1

    def child(self, name: str) -> "RngFactory":
        """Derive a sub-factory (e.g. one per training round) with its own namespace."""
        return RngFactory(seed=(self._seed * 0x9E3779B97F4A7C15 + stable_key(name)) % (2**63))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngFactory(seed={self._seed})"
