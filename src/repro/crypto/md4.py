"""MD4 message digest (RFC 1320).

The Immune system uses MD4 for the message digests carried in the
token's ``message_digest_list`` field and for the 16-byte digest that
is RSA-signed to produce the token signature.  This module has a
from-scratch implementation of RFC 1320, validated against the RFC's
appendix test vectors in ``tests/unit/test_md4.py``.

MD4 is cryptographically broken by modern standards; it is used here
because reproducing the paper's system faithfully requires the same
(16-byte, cheap) digest function it used.  Nothing outside this module
depends on MD4 specifically — :class:`repro.crypto.keystore.KeyStore`
takes the digest function as a parameter.

Two implementations exist, both reached through :func:`md4_digest`:

* the **OpenSSL** backend (the optimised path): OpenSSL's MD4, called
  through :mod:`ctypes` from the ``libcrypto`` the interpreter already
  loaded for :mod:`hashlib` (opened by :mod:`repro.crypto.libcrypto`).
  OpenSSL 3 keeps MD4 in its ``legacy`` provider, which is not loaded
  by default, so the backend creates a private library context and
  loads the provider into that context only; the process-wide default
  context, and so :mod:`hashlib`, is untouched.  It is built once per
  process, at the first digest, and used only after it reproduces two
  RFC 1320 vectors;
* :func:`_python_md4` over :func:`_process_block_reference`, the
  table-driven RFC transcription: the fallback wherever the OpenSSL
  backend cannot be built (no OpenSSL 3, no legacy provider, a failed
  self-check), and the :mod:`repro.perf` baseline-mode path, so the
  byte-compares across perf modes check OpenSSL against the RFC end to
  end.

:func:`backend` names the implementation in use.  The tests assert
both equal over the RFC vectors and every input length up to 300
bytes.
"""

import functools
import struct

from repro import perf
from repro.crypto.libcrypto import open_libcrypto

_MASK = 0xFFFFFFFF

# Per-round left-rotation amounts (RFC 1320 section 3.4).
_ROUND1_SHIFTS = (3, 7, 11, 19)
_ROUND2_SHIFTS = (3, 5, 9, 13)
_ROUND3_SHIFTS = (3, 9, 11, 15)

# Word access orders for rounds 2 and 3.
_ROUND2_ORDER = (0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15)
_ROUND3_ORDER = (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15)

_ROUND2_CONSTANT = 0x5A827999
_ROUND3_CONSTANT = 0x6ED9EBA1

_BLOCK_WORDS = struct.Struct("<16I")


def _rotl(value, amount):
    value &= _MASK
    return ((value << amount) | (value >> (32 - amount))) & _MASK


def _f(x, y, z):
    return (x & y) | (~x & z)


def _g(x, y, z):
    return (x & y) | (x & z) | (y & z)


def _h(x, y, z):
    return x ^ y ^ z


def _pad(message):
    """RFC 1320 section 3.1-3.2: pad to 448 mod 512 bits, append length."""
    bit_length = (8 * len(message)) & 0xFFFFFFFFFFFFFFFF
    padded = message + b"\x80"
    padded += b"\x00" * ((56 - len(padded) % 64) % 64)
    padded += struct.pack("<Q", bit_length)
    return padded


def _process_block_reference(state, block):
    """Table-driven transcription of RFC 1320 (one 64-byte block)."""
    x = _BLOCK_WORDS.unpack(block)
    a, b, c, d = state

    # Round 1.
    for i in range(16):
        shift = _ROUND1_SHIFTS[i % 4]
        a, b, c, d = d, _rotl(a + _f(b, c, d) + x[i], shift), b, c
        # After the rotation the roles cycle: the new value becomes the
        # next round-robin register.  The tuple assignment above rotates
        # (a, b, c, d) -> (d, new, b, c), matching the RFC's
        # [ABCD k s] ... [DABC k s] ... pattern.

    # Round 2.
    for i in range(16):
        k = _ROUND2_ORDER[i]
        shift = _ROUND2_SHIFTS[i % 4]
        a, b, c, d = d, _rotl(a + _g(b, c, d) + x[k] + _ROUND2_CONSTANT, shift), b, c

    # Round 3.
    for i in range(16):
        k = _ROUND3_ORDER[i]
        shift = _ROUND3_SHIFTS[i % 4]
        a, b, c, d = d, _rotl(a + _h(b, c, d) + x[k] + _ROUND3_CONSTANT, shift), b, c

    return (
        (state[0] + a) & _MASK,
        (state[1] + b) & _MASK,
        (state[2] + c) & _MASK,
        (state[3] + d) & _MASK,
    )


def _python_md4(message):
    """MD4 of ``message`` (bytes) computed in Python."""
    state = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
    padded = _pad(message)
    for offset in range(0, len(padded), 64):
        state = _process_block_reference(state, padded[offset : offset + 64])
    return struct.pack("<4I", *state)


#: RFC 1320 appendix vectors the OpenSSL backend must reproduce before use
_SELF_CHECK = (
    (b"abc", bytes.fromhex("a448017aaf21d8525fc10ae87aa6729d")),
    (b"message digest", bytes.fromhex("d9130a8164549fe818874806e1c7014b")),
)


def _load_openssl_md4():
    """Build the OpenSSL MD4 function, or return ``None`` if it cannot run.

    ``None`` means: libcrypto cannot be opened
    (:func:`~repro.crypto.libcrypto.open_libcrypto`), a symbol is absent
    (OpenSSL 1.1 has no ``OSSL_LIB_CTX_new``), the context, provider or
    algorithm comes back NULL, or the result fails the self-check.  A
    context built before such a failure is not freed: this runs at most
    once per process.
    """
    lib = open_libcrypto()
    if lib is None:
        return None
    import ctypes

    try:
        lib_ctx_new = lib.OSSL_LIB_CTX_new
        provider_load = lib.OSSL_PROVIDER_load
        md_fetch = lib.EVP_MD_fetch
        evp_digest = lib.EVP_Digest
    except AttributeError:
        return None
    lib_ctx_new.argtypes = []
    lib_ctx_new.restype = ctypes.c_void_p
    provider_load.argtypes = [ctypes.c_void_p, ctypes.c_char_p]
    provider_load.restype = ctypes.c_void_p
    md_fetch.argtypes = [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_char_p]
    md_fetch.restype = ctypes.c_void_p
    # EVP_Digest(data, count, md_out, size_out, type, engine)
    evp_digest.argtypes = [
        ctypes.c_char_p,
        ctypes.c_size_t,
        ctypes.c_char_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
    ]
    evp_digest.restype = ctypes.c_int

    lib_ctx = lib_ctx_new()
    if not lib_ctx or not provider_load(lib_ctx, b"legacy"):
        return None
    md = md_fetch(lib_ctx, b"MD4", None)
    if not md:
        return None
    create_buffer = ctypes.create_string_buffer

    def openssl_md4(message):
        out = create_buffer(16)
        if evp_digest(message, len(message), out, None, md, None) != 1:
            raise RuntimeError("OpenSSL EVP_Digest(MD4) failed")
        return out.raw

    try:
        for message, expected in _SELF_CHECK:
            if openssl_md4(message) != expected:
                return None
    except RuntimeError:
        return None
    return openssl_md4


def _resolve_optimized():
    """Bind the optimised-mode MD4: OpenSSL if it loads, else Python."""
    global _optimized_md4
    _optimized_md4 = _load_openssl_md4() or _python_md4
    return _optimized_md4


def _first_digest(message):
    return _resolve_optimized()(message)


#: the optimised-mode MD4; resolved at the first digest, not at import
_optimized_md4 = _first_digest


def backend():
    """Name of the MD4 implementation in use: ``"openssl"`` or ``"python"``.

    In baseline perf mode this is always ``"python"``.  Otherwise it builds the OpenSSL backend if no digest has
    done so yet.
    """
    if not perf.optimized_enabled():
        return "python"
    fn = _optimized_md4
    if fn is _first_digest:
        fn = _resolve_optimized()
    return "python" if fn is _python_md4 else "openssl"


@functools.lru_cache(maxsize=8192)
def _md4_digest_cached(message):
    if perf.optimized_enabled():
        return _optimized_md4(message)
    return _python_md4(message)


class _LruCacheAdapter:
    """Expose an ``lru_cache`` to :mod:`repro.perf` mode switches."""

    name = "md4.digest"

    def __init__(self, cached_fn):
        self._fn = cached_fn

    def clear(self):
        self._fn.cache_clear()

    def stats(self):
        info = self._fn.cache_info()
        return {"hits": info.hits, "misses": info.misses, "size": info.currsize}


perf.register_cache(_LruCacheAdapter(_md4_digest_cached))


def md4_digest(message):
    """Return the 16-byte MD4 digest of ``message`` (bytes).

    Results are memoised: in a simulation the same frame is digested
    at every receiver, and MD4 is a pure function of its input, so the
    cache changes nothing semantically.  (Simulated CPU time for the
    computation is charged by the cost model regardless.)
    """
    if not isinstance(message, (bytes, bytearray)):
        raise TypeError("md4_digest expects bytes, got %r" % type(message))
    return _md4_digest_cached(bytes(message))


def md4_hexdigest(message):
    """Return the MD4 digest of ``message`` as a lowercase hex string."""
    return md4_digest(message).hex()
