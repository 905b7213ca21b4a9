"""SHA-256 from the interpreter's own module, not from OpenSSL.

Importing hashlib loads _hashlib, which maps OpenSSL's libcrypto into
the process: about 3.6 MB of resident memory for the one algorithm
veritas uses.  CPython builds its own SHA-256 as _sha256 up to 3.11 and
as _sha2 from 3.12; the digests are the same.  hashlib remains the
fallback for a build without either.  Every module that hashes imports
sha256 from here.
"""

try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = ["sha256"]
