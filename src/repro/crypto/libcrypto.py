"""The one place this package opens OpenSSL's ``libcrypto``.

:mod:`repro.crypto.md4` (MD4 digests) and :mod:`repro.crypto.rsa`
(the CRT halves of a signature) call OpenSSL through :mod:`ctypes`.
Both reach it through the ``_hashlib`` extension's file: that module is
linked against the ``libcrypto`` the interpreter already loaded for
:mod:`hashlib`, so opening it resolves the same library without
:func:`ctypes.util.find_library`, which spawns ``ldconfig``/``gcc``.

The handle is opened afresh on each call (each backend calls it once
per process), so a test can substitute :class:`ctypes.CDLL` to
simulate a missing or broken library.
"""


def open_libcrypto():
    """A :class:`ctypes.CDLL` for the interpreter's libcrypto, or ``None``.

    ``None`` means ctypes or ``_hashlib`` is missing or the file cannot
    be opened.  Symbols are looked up by the caller, which must treat
    a missing one (:class:`AttributeError`) as unavailable too.
    """
    try:
        import ctypes
        import _hashlib

        return ctypes.CDLL(_hashlib.__file__)
    except (ImportError, OSError):
        return None
