"""The sampling stream of numpy's SeedSequence, PCG64 and
Generator.integers, reproduced bit for bit in pure Python, so that a
seeded sample never imports numpy.random.

`spawn_seed(m, i)` is SeedSequence(entropy=m, spawn_key=(i,))
.generate_state(1, np.uint64)[0], and `seed_state(s)` is
SeedSequence(s).generate_state(4, np.uint64), the words PCG64 seeds
from.  `partial_fisher_yates(state, n, size)` is the first `size`
entries of a Fisher-Yates shuffle of range(n) whose step i swaps with j
= default_rng(s).integers(i, n): PCG64's XSL-RR outputs read by
Lemire's bounded draws, on 64-bit words while the range n - i exceeds
2^32 and on the 32-bit halves of each word, low half first, after.
numpy.random stays the tests' oracle for all three.
"""

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's pool size and hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """A nonnegative n as little-endian 32-bit words; 0 is one word."""
    if n < 0:
        raise ValueError(f"expected an integer >= 0, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _generate_state(entropy: list[int], count: int) -> list[int]:
    """`count` 64-bit words from the pool SeedSequence mixes from the
    32-bit `entropy` words."""
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    out = []
    for i in range(2 * count):
        value = pool[i % _POOL_SIZE] ^ h
        h = h * _MULT_B & _MASK32
        value = value * h & _MASK32
        out.append(value ^ value >> 16)
    return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


def spawn_seed(entropy: int, index: int) -> int:
    """The first 64-bit word of the SeedSequence spawned as child `index`
    of `entropy`.  With a spawn key, entropy shorter than the pool is
    padded with zero words to the pool size before the key."""
    words = _words(entropy)
    return _generate_state(words + [0] * (_POOL_SIZE - len(words)) + _words(index), 1)[0]


def seed_state(seed: int) -> list[int]:
    """The four 64-bit words PCG64 seeds from for an integer seed."""
    return _generate_state(_words(seed), 4)


def _output(s: int) -> int:
    """PCG64's XSL-RR output of the 128-bit state s."""
    x = (s >> 64 ^ s) & _MASK64
    rot = s >> 122
    return (x >> rot | x << 64 - rot) & _MASK64


def partial_fisher_yates(state: list[int], n: int, size: int) -> list[int]:
    """First `size` entries of a Fisher-Yates shuffle of range(n) driven
    by PCG64 seeded from the four words `state`; O(size) memory.

    The range n - i of step i only falls, so the 64-bit draws all come
    first and the 32-bit halves start from an empty buffer.  A range of
    exactly 2^32 is one raw 32-bit draw: Lemire's product then has a zero
    low word and a zero threshold.  A range of 1 draws nothing."""
    # PCG64 seeding: from state 0, step (giving inc), add the seed, step.
    inc = ((state[2] << 64 | state[3]) << 1 | 1) & _MASK128
    s = ((inc + (state[0] << 64 | state[1])) * _PCG_MULT + inc) & _MASK128
    half = -1  # the unread high half of the last 64-bit output, or -1
    swap: dict[int, int] = {}
    out = []
    # Lemire: j - i is the high word of draw * span, redrawn while the low
    # word is below 2^k mod span (tested only when it is below span).
    for i in range(size):
        span = n - i
        if span > 1 << 32:
            while True:
                s = (s * _PCG_MULT + inc) & _MASK128
                m = _output(s) * span
                low = m & _MASK64
                if low >= span or low >= (1 << 64) % span:
                    break
            j = i + (m >> 64)
        elif span > 1:
            while True:
                if half < 0:
                    s = (s * _PCG_MULT + inc) & _MASK128
                    x = _output(s)
                    m, half = (x & _MASK32) * span, x >> 32
                else:
                    m, half = half * span, -1
                low = m & _MASK32
                if low >= span or low >= (1 << 32) % span:
                    break
            j = i + (m >> 32)
        else:
            j = i
        out.append(swap.get(j, j))
        swap[j] = swap.get(i, i)  # later steps read only positions past i
    return out
