"""Reproducible per-path random streams.

Every stochastic routine in the package draws from counter-based Philox
streams keyed by (seed, stream_id, path_index).  A path's stream depends
only on those integers, never on how work is split across workers, so
ensembles are bit-identical for any worker count.

Path p's stream is the one numpy gives
``Philox(SeedSequence(entropy=seed, spawn_key=(stream, p)))``: its key
is ``SeedSequence(...).generate_state(2, np.uint64)`` and its counter
starts at 0.  A Philox stream is fixed by its key and counter alone
(Salmon et al., SC'11), so `normal_matrix` builds no SeedSequence or
Philox per path.  It replays SeedSequence's hash (O'Neill's
seed_seq_fe, pool of four 32-bit words) for all of a call's paths at
once: the entropy is the seed's words, zero-padded to the pool size,
then the stream's words, then the path's.  Seed and stream are the same
for every path of a call, so the pool they leave is mixed once in
Python ints; only the path's words are mixed into it in uint64 arrays
masked to 32 bits.  One Generator then draws each path after its Philox
state is reset to (key, counter 0).
"""

from itertools import islice

import numpy as np

from .errors import _check_count

MASK32 = 0xFFFFFFFF
POOL_SIZE = 4
# SeedSequence's hash constants
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence
    splits its entropy: 0 is one word."""
    n = _check_count("a seed, stream or path index", n, 0)
    words = [n & MASK32]
    while n := n >> 32:
        words.append(n & MASK32)
    return words


def _constants(const: int, mult: int):
    """SeedSequence's hash constants: the (xor, multiply) pair of each
    successive hash call, the second of which is the next call's first."""
    while True:
        nxt = (const * mult) & MASK32
        yield const, nxt
        const = nxt


def _hash(value, xor, mul):
    """SeedSequence's hashmix (and its output hash) with given constants;
    on Python ints or on uint64 arrays holding 32-bit values."""
    value = ((value ^ xor) * mul) & MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return result ^ (result >> 16)


def path_keys(seed: int, stream: int, path_offset: int,
              n_paths: int) -> np.ndarray:
    """(n_paths, 2) uint64 Philox keys of paths path_offset, ...

    Row p equals ``SeedSequence(entropy=seed, spawn_key=(stream,
    path_offset + p)).generate_state(2, np.uint64)``.
    """
    n_paths = _check_count("n_paths", n_paths, 0)  # _words checks the rest
    run = _words(seed)
    entropy = run + [0] * (POOL_SIZE - len(run)) + _words(stream)
    consts = _constants(INIT_A, MULT_A)
    pool = [_hash(w, *next(consts)) for w in entropy[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(consts)))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, *next(consts)))

    # columns are paths; row i of a (POOL_SIZE, n) array is pool word i,
    # and each row meets its own constants
    last = path_offset + n_paths - 1
    n_max = len(_words(max(last, path_offset)))
    path_consts = np.array(list(islice(consts, POOL_SIZE * n_max)),
                           np.uint64).reshape(n_max, POOL_SIZE, 2, 1)
    out_consts = np.array(list(islice(_constants(INIT_B, MULT_B), POOL_SIZE)),
                          np.uint64).reshape(POOL_SIZE, 2, 1)
    pool = np.array(pool, np.uint64)[:, None]
    keys = np.empty((n_paths, 2), np.uint64)
    start = 0
    while start < n_paths:
        # a path's word count, and with it the constants its words meet,
        # changes at each power of 2**32
        n_words = len(_words(path_offset + start))
        stop = min(n_paths, 2 ** (32 * n_words) - path_offset)
        paths = range(path_offset + start, path_offset + stop)
        mixed = pool
        for k in range(n_words):
            word = np.array([(p >> 32 * k) & MASK32 for p in paths], np.uint64)
            xor, mul = path_consts[k, :, 0], path_consts[k, :, 1]
            mixed = _mix(mixed, _hash(word, xor, mul))
        state = _hash(mixed, out_consts[:, 0], out_consts[:, 1])
        keys[start:stop, 0] = state[0] | (state[1] << 32)
        keys[start:stop, 1] = state[2] | (state[3] << 32)
        start = stop
    return keys


def substream(seed: int, stream: int) -> np.random.Generator:
    """Generator for non-path randomness (e.g. permutation shuffles)."""
    seq = np.random.SeedSequence(entropy=_check_count("seed", seed, 0),
                                 spawn_key=(_check_count("stream", stream, 0),))
    return np.random.Generator(np.random.Philox(seq))


def normal_matrix(seed: int, stream: int, n_rows: int, n_paths: int,
                  path_offset: int = 0) -> np.ndarray:
    """Standard-normal (n_rows, n_paths) matrix, column p from stream
    (seed, stream, path_offset + p).

    The offset lets workers generate disjoint path blocks that agree
    bit-for-bit with a single-worker run.  The result is the transpose
    of a C-ordered (n_paths, n_rows) block, so each path is contiguous.
    """
    keys = path_keys(seed, stream, path_offset, n_paths)
    block = np.empty((len(keys), _check_count("n_rows", n_rows, 0)))
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for key, row in zip(keys, block):
        state["state"]["key"] = key
        bitgen.state = state
        gen.standard_normal(out=row)
    return block.T
