"""RSA signatures over message digests.

The Immune system signs each token by "RSA decrypting a message digest
using the private key" and verifies by "RSA encrypting the signature
using the public key" (paper section 8) — i.e. a plain RSA signature
over a fixed-size 16-byte digest, as CryptoLib provided.  The paper's
measurements use a 300-bit modulus; that is the default here, and the
key-size ablation bench sweeps it.

The digest is deterministically padded into a full-width integer
(a simplified PKCS#1 v1.5 block: ``0x00 0x01 0xFF.. 0x00 digest``) so
that forging a signature for a different digest requires inverting RSA
within the simulation — mutant tokens injected by the adversary module
genuinely fail verification.

A signature is computed by the Chinese Remainder Theorem when the key
pair knows its primes: two half-width exponentiations, recombined with
Garner's formula in Python.  In the optimised perf mode the two halves
run in OpenSSL's ``BN_mod_exp_mont`` (through :mod:`ctypes`, from the
libcrypto :mod:`repro.crypto.libcrypto` opens).  Each key pair builds
its OpenSSL numbers and Montgomery contexts at its first signature and
uses them only after they reproduce Python's :func:`pow`; any failure
falls back to :func:`pow` for the halves.  Baseline perf mode signs
with the plain ``pow(m, d, n)``, so the byte-compares across perf
modes check the OpenSSL CRT path against textbook RSA end to end.
:func:`backend` names the implementation in use.  Every path yields
the same integer.
"""

import weakref

from repro import perf
from repro.crypto.libcrypto import open_libcrypto
from repro.crypto.primes import generate_prime


class CryptoError(Exception):
    """Raised on malformed keys, digests, or signatures."""


def _egcd(a, b):
    """Iterative extended Euclid: returns (g, x, y) with a*x + b*y = g.

    Iterative rather than recursive so large moduli (the key-size
    ablation sweeps well past 1000 bits) can never hit the interpreter
    recursion limit, and keygen avoids ~bit_length frame allocations.
    """
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def _modinv(a, m):
    g, x, _ = _egcd(a % m, m)
    if g != 1:
        raise CryptoError("modular inverse does not exist")
    return x % m


def _pad_digest(digest, modulus_bytes):
    """Embed a digest in a PKCS#1-style block sized to the modulus."""
    if len(digest) + 3 > modulus_bytes:
        raise CryptoError(
            "digest of %d bytes does not fit %d-byte modulus"
            % (len(digest), modulus_bytes)
        )
    padding = b"\xff" * (modulus_bytes - len(digest) - 3)
    return b"\x00\x01" + padding + b"\x00" + digest


# ----------------------------------------------------------------------
# CRT halves in OpenSSL
# ----------------------------------------------------------------------

class _BnApi:
    """The libcrypto BIGNUM functions, bound with their C signatures."""

    def __init__(self, lib):
        import ctypes

        ptr, c_int, buf = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p

        def bind(name, restype, *argtypes):
            fn = getattr(lib, name)  # AttributeError: symbol missing
            fn.restype = restype
            fn.argtypes = list(argtypes)
            setattr(self, name, fn)

        bind("BN_new", ptr)
        bind("BN_free", None, ptr)
        bind("BN_bin2bn", ptr, buf, c_int, ptr)
        bind("BN_bn2binpad", c_int, ptr, buf, c_int)
        bind("BN_CTX_new", ptr)
        bind("BN_CTX_free", None, ptr)
        bind("BN_MONT_CTX_new", ptr)
        bind("BN_MONT_CTX_set", c_int, ptr, ptr, ptr)
        bind("BN_MONT_CTX_free", None, ptr)
        # BN_mod_exp_mont(r, a, exponent, modulus, ctx, mont)
        bind("BN_mod_exp_mont", c_int, ptr, ptr, ptr, ptr, ptr, ptr)
        self.create_buffer = ctypes.create_string_buffer


class _OpenSslError(Exception):
    """Building the OpenSSL CRT state failed (handled by falling back)."""


def _free_handles(handles):
    for free, handle in reversed(handles):
        free(handle)


class _OpenSslHalves:
    """One key pair's CRT exponentiations, computed by OpenSSL.

    The primes, the CRT exponents, a reusable input and output, a
    ``BN_CTX`` and one Montgomery context per prime are built once, by
    :func:`_build_halves`; :func:`weakref.finalize` frees them with the
    object.
    """

    def __init__(self, api, p, q, dp, dq):
        self._api = api
        self._handles = []
        self._finalizer = weakref.finalize(self, _free_handles, self._handles)
        self._ctx = self._own(api.BN_CTX_new(), api.BN_CTX_free)
        self._a = self._own(api.BN_new(), api.BN_free)
        self._r = self._own(api.BN_new(), api.BN_free)
        self._p = self._prime_half(p, dp)
        self._q = self._prime_half(q, dq)

    def _own(self, handle, free):
        if not handle:
            raise _OpenSslError("libcrypto allocation returned NULL")
        self._handles.append((free, handle))
        return handle

    def _number(self, value, size):
        api = self._api
        return self._own(
            api.BN_bin2bn(value.to_bytes(size, "big"), size, None), api.BN_free
        )

    def _prime_half(self, prime, exponent):
        api = self._api
        size = (prime.bit_length() + 7) // 8
        modulus = self._number(prime, size)
        mont = self._own(api.BN_MONT_CTX_new(), api.BN_MONT_CTX_free)
        if api.BN_MONT_CTX_set(mont, modulus, self._ctx) != 1:
            raise _OpenSslError("BN_MONT_CTX_set failed")
        exponent_bn = self._number(exponent, (exponent.bit_length() + 7) // 8 or 1)
        return (modulus, exponent_bn, mont, size, api.create_buffer(size))

    def _half(self, value, half):
        """``pow(value, exponent, prime)`` for one prime half, or None."""
        api = self._api
        modulus, exponent, mont, size, out = half
        a, r = self._a, self._r
        if not api.BN_bin2bn(value.to_bytes(size, "big"), size, a):
            return None
        if api.BN_mod_exp_mont(r, a, exponent, modulus, self._ctx, mont) != 1:
            return None
        if api.BN_bn2binpad(r, out, size) != size:
            return None
        return int.from_bytes(out.raw, "big")

    def halves(self, m_p, m_q):
        """``(m_p ** dp mod p, m_q ** dq mod q)``; None on any failure.

        Inputs must already be reduced modulo their prime.
        """
        mp = self._half(m_p, self._p)
        if mp is None:
            return None
        mq = self._half(m_q, self._q)
        if mq is None:
            return None
        return mp, mq


def _build_halves(api, p, q, dp, dq):
    """OpenSSL CRT state for one key, checked against :func:`pow`; or None."""
    try:
        halves = _OpenSslHalves(api, p, q, dp, dq)
    except _OpenSslError:
        return None
    m = (p * q) // 3
    m_p, m_q = m % p, m % q
    if halves.halves(m_p, m_q) != (pow(m_p, dp, p), pow(m_q, dq, q)):
        halves._finalizer()
        return None
    return halves


#: a fixed CRT key (two Mersenne primes) the library must pass before
#: any key pair uses it
_SELF_CHECK_KEY = (2**127 - 1, 2**89 - 1, 65537, 257)


def _load_bn_api():
    """Bind OpenSSL's BIGNUM functions, or return ``None`` if unusable.

    ``None`` means: libcrypto cannot be opened, a symbol is missing, or
    exponentiation on a fixed key disagrees with :func:`pow`.
    """
    lib = open_libcrypto()
    if lib is None:
        return None
    try:
        api = _BnApi(lib)
    except AttributeError:
        return None
    check = _build_halves(api, *_SELF_CHECK_KEY)
    if check is None:
        return None
    check._finalizer()
    return api


#: marks "not resolved yet" for the process-wide API and per-key state
_UNRESOLVED = object()
_bn_api = _UNRESOLVED


def _resolved_bn_api():
    global _bn_api
    if _bn_api is _UNRESOLVED:
        _bn_api = _load_bn_api()
    return _bn_api


def backend():
    """Name of the CRT-half implementation: ``"openssl"`` or ``"python"``.

    In baseline perf mode this is always ``"python"`` (plain RSA).
    Otherwise it binds libcrypto if no signature has done so yet.
    """
    if not perf.optimized_enabled():
        return "python"
    return "python" if _resolved_bn_api() is None else "openssl"


class RsaPublicKey:
    """The verification half of an RSA key pair."""

    def __init__(self, n, e):
        self.n = n
        self.e = e
        self.modulus_bits = n.bit_length()
        self.modulus_bytes = (self.modulus_bits + 7) // 8

    def verify(self, digest, signature):
        """True iff ``signature`` is a valid signature of ``digest``."""
        if not isinstance(signature, int):
            raise CryptoError("signature must be an int, got %r" % type(signature))
        if not 0 <= signature < self.n:
            return False
        recovered = pow(signature, self.e, self.n)
        try:
            expected = int.from_bytes(_pad_digest(digest, self.modulus_bytes), "big")
        except CryptoError:
            return False
        return recovered == expected

    def __eq__(self, other):
        return (
            isinstance(other, RsaPublicKey) and self.n == other.n and self.e == other.e
        )

    def __hash__(self):
        return hash((self.n, self.e))

    def __repr__(self):
        return "RsaPublicKey(%d bits)" % self.modulus_bits


class RsaKeyPair:
    """A private signing key together with its public half."""

    def __init__(self, n, e, d, p=None, q=None):
        self.public = RsaPublicKey(n, e)
        self._d = d
        # Precomputed CRT exponents, as every production RSA
        # implementation keeps: signing modulo p and q separately costs
        # two half-width modexps (~4x faster) and recombines to the
        # *same* integer as pow(m, d, n).
        if p is not None and q is not None:
            self._crt = (p, q, d % (p - 1), d % (q - 1), _modinv(q, p))
        else:
            self._crt = None
        #: OpenSSL CRT state, built at the first optimised signature
        #: (None: unavailable, use pow)
        self._openssl = _UNRESOLVED

    def _openssl_halves(self):
        if self._openssl is _UNRESOLVED:
            api = _resolved_bn_api()
            p, q, dp, dq, _ = self._crt
            self._openssl = None if api is None else _build_halves(api, p, q, dp, dq)
        return self._openssl

    def sign(self, digest):
        """Sign a fixed-size digest; returns the signature as an int."""
        block = _pad_digest(digest, self.public.modulus_bytes)
        m = int.from_bytes(block, "big")
        if self._crt is not None and perf.optimized_enabled():
            p, q, dp, dq, qinv = self._crt
            m_p, m_q = m % p, m % q
            openssl = self._openssl_halves()
            halves = openssl.halves(m_p, m_q) if openssl is not None else None
            if halves is None:
                halves = pow(m_p, dp, p), pow(m_q, dq, q)
            mp, mq = halves
            return mq + ((mp - mq) * qinv % p) * q
        return pow(m, self._d, self.public.n)

    def __repr__(self):
        return "RsaKeyPair(%d bits)" % self.public.modulus_bits


def generate_keypair(rng, modulus_bits=300):
    """Generate an RSA key pair with a modulus of ``modulus_bits`` bits.

    300 bits matches the paper's measurement configuration.  The public
    exponent is 65537 when coprime to phi, falling back to smaller
    Fermat primes for unusual phi values.
    """
    if modulus_bits < 200:
        raise CryptoError("modulus of %d bits cannot hold a padded MD4 digest" % modulus_bits)
    half = modulus_bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(modulus_bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != modulus_bits:
            continue
        phi = (p - 1) * (q - 1)
        for e in (65537, 257, 17, 5, 3):
            if phi % e != 0:
                d = _modinv(e, phi)
                return RsaKeyPair(n, e, d, p=p, q=q)
