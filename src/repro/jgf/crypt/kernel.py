"""JGF Crypt benchmark — IDEA encryption/decryption.

Encrypts and then decrypts an array of bytes with the International Data
Encryption Algorithm (IDEA), as in the JGF Section 2 "Crypt" kernel.  The
byte array is processed in independent 8-byte blocks, so the block loop is
embarrassingly parallel and is the benchmark's for method.

The implementation is a from-scratch IDEA: 8.5 rounds over four 16-bit words,
with multiplication modulo 65537, addition modulo 65536 and XOR; decryption
uses the inverted key schedule (multiplicative/additive inverses).
"""

from __future__ import annotations

import numpy as np

from repro.jgf.jgfrandom import JGFRandom
from repro.runtime import shm
from repro.runtime.worksharing import run_for


def _mul(a: int, b: int) -> int:
    """IDEA multiplication: multiplication modulo 65537 with 0 meaning 65536."""
    if a == 0:
        return (65537 - b) & 0xFFFF
    if b == 0:
        return (65537 - a) & 0xFFFF
    product = a * b
    result = product % 65537
    return result & 0xFFFF


def _mul_inverse(x: int) -> int:
    """Multiplicative inverse modulo 65537 (0 represents 65536, which is self-inverse)."""
    if x <= 1:
        return x
    return pow(x, 65535, 65537) & 0xFFFF


def _add_inverse(x: int) -> int:
    """Additive inverse modulo 65536."""
    return (65536 - x) & 0xFFFF


class IDEACipher:
    """IDEA key schedule plus per-block encryption."""

    ROUNDS = 8
    KEYS = 52

    def __init__(self, user_key: "list[int] | np.ndarray") -> None:
        key = list(int(k) & 0xFF for k in user_key)
        if len(key) != 16:
            raise ValueError("IDEA needs a 16-byte user key")
        self.user_key = key
        self.encrypt_keys = self._expand_key(key)
        self.decrypt_keys = self._invert_key(self.encrypt_keys)

    @staticmethod
    def _expand_key(key_bytes: list[int]) -> list[int]:
        """Expand the 128-bit user key into 52 16-bit encryption subkeys."""
        keys = [0] * IDEACipher.KEYS
        for i in range(8):
            keys[i] = ((key_bytes[2 * i] << 8) | key_bytes[2 * i + 1]) & 0xFFFF
        # Each successive group of eight subkeys is the previous group rotated
        # left by 25 bits (standard IDEA key schedule).
        for i in range(8, IDEACipher.KEYS):
            if i % 8 < 6:
                keys[i] = ((keys[i - 7] & 0x7F) << 9 | keys[i - 6] >> 7) & 0xFFFF
            elif i % 8 == 6:
                keys[i] = ((keys[i - 7] & 0x7F) << 9 | keys[i - 14] >> 7) & 0xFFFF
            else:
                keys[i] = ((keys[i - 15] & 0x7F) << 9 | keys[i - 14] >> 7) & 0xFFFF
        return keys

    @staticmethod
    def _invert_key(keys: list[int]) -> list[int]:
        """Build the 52 decryption subkeys from the encryption subkeys.

        Transcription of the reference IDEA ``de_key_idea`` routine: the
        decryption schedule is the encryption schedule read backwards with
        multiplicative/additive inverses applied to the transform keys and the
        two addition keys of the inner rounds swapped.
        """
        source = list(keys)
        inverted = [0] * IDEACipher.KEYS
        fill = IDEACipher.KEYS
        read = 0

        t1 = _mul_inverse(source[read]); read += 1
        t2 = _add_inverse(source[read]); read += 1
        t3 = _add_inverse(source[read]); read += 1
        fill -= 1; inverted[fill] = _mul_inverse(source[read]); read += 1
        fill -= 1; inverted[fill] = t3
        fill -= 1; inverted[fill] = t2
        fill -= 1; inverted[fill] = t1

        for _ in range(1, IDEACipher.ROUNDS):
            t1 = source[read]; read += 1
            fill -= 1; inverted[fill] = source[read]; read += 1
            fill -= 1; inverted[fill] = t1
            t1 = _mul_inverse(source[read]); read += 1
            t2 = _add_inverse(source[read]); read += 1
            t3 = _add_inverse(source[read]); read += 1
            fill -= 1; inverted[fill] = _mul_inverse(source[read]); read += 1
            fill -= 1; inverted[fill] = t2
            fill -= 1; inverted[fill] = t3
            fill -= 1; inverted[fill] = t1

        t1 = source[read]; read += 1
        fill -= 1; inverted[fill] = source[read]; read += 1
        fill -= 1; inverted[fill] = t1
        t1 = _mul_inverse(source[read]); read += 1
        t2 = _add_inverse(source[read]); read += 1
        t3 = _add_inverse(source[read]); read += 1
        fill -= 1; inverted[fill] = _mul_inverse(source[read]); read += 1
        fill -= 1; inverted[fill] = t3
        fill -= 1; inverted[fill] = t2
        fill -= 1; inverted[fill] = t1
        return inverted

    @staticmethod
    def crypt_block(block: "np.ndarray", offset: int, out: "np.ndarray", keys: list[int]) -> None:
        """Encrypt/decrypt one 8-byte block at ``offset`` using ``keys``."""
        x1 = (int(block[offset]) << 8) | int(block[offset + 1])
        x2 = (int(block[offset + 2]) << 8) | int(block[offset + 3])
        x3 = (int(block[offset + 4]) << 8) | int(block[offset + 5])
        x4 = (int(block[offset + 6]) << 8) | int(block[offset + 7])
        k = 0
        for _ in range(IDEACipher.ROUNDS):
            x1 = _mul(x1, keys[k])
            x2 = (x2 + keys[k + 1]) & 0xFFFF
            x3 = (x3 + keys[k + 2]) & 0xFFFF
            x4 = _mul(x4, keys[k + 3])
            t0 = x1 ^ x3
            t1 = x2 ^ x4
            t0 = _mul(t0, keys[k + 4])
            t1 = (t1 + t0) & 0xFFFF
            t1 = _mul(t1, keys[k + 5])
            t0 = (t0 + t1) & 0xFFFF
            x1 ^= t1
            x4 ^= t0
            x2, x3 = x3 ^ t1, x2 ^ t0
            k += 6
        y1 = _mul(x1, keys[k])
        y2 = (x3 + keys[k + 1]) & 0xFFFF
        y3 = (x2 + keys[k + 2]) & 0xFFFF
        y4 = _mul(x4, keys[k + 3])
        out[offset] = (y1 >> 8) & 0xFF
        out[offset + 1] = y1 & 0xFF
        out[offset + 2] = (y2 >> 8) & 0xFF
        out[offset + 3] = y2 & 0xFF
        out[offset + 4] = (y3 >> 8) & 0xFF
        out[offset + 5] = y3 & 0xFF
        out[offset + 6] = (y4 >> 8) & 0xFF
        out[offset + 7] = y4 & 0xFF


class CryptBenchmark:
    """Refactored sequential Crypt kernel (for methods already extracted).

    With ``shared=True`` the three byte arrays are allocated in
    :mod:`repro.runtime.shm` shared memory, which makes the kernel safe for
    the process backend: worksharing chunks executed by worker processes
    mutate the same pages the master validates.  ``process_safe`` marks the
    kernel as eligible for the backend's persistent worker pool (its bound
    methods pickle by shared-memory reference, not by value).
    """

    def __init__(self, array_size: int, seed: int = 136506717, *, shared: bool = False) -> None:
        if array_size % 8 != 0:
            array_size += 8 - array_size % 8
        self.size = array_size
        rng = JGFRandom(seed)
        self.shared = bool(shared)
        self.process_safe = self.shared
        plain = rng.states(array_size) & 0xFF
        if shared:
            self.plain = shm.as_shared(plain)
            self.encrypted = shm.shared_zeros(array_size, np.int64)
            self.decrypted = shm.shared_zeros(array_size, np.int64)
        else:
            self.plain = plain
            self.encrypted = np.zeros(array_size, dtype=np.int64)
            self.decrypted = np.zeros(array_size, dtype=np.int64)
        self.cipher = IDEACipher(rng.states(16) & 0xFF)

    def release_shared(self) -> None:
        """Free the shared-memory segments (no-op for in-process arrays)."""
        for array in (self.plain, self.encrypted, self.decrypted):
            if shm.is_shared(array):
                array.close()

    # -- base program --------------------------------------------------------------

    def run(self) -> None:
        """Encrypt then decrypt the whole array (the parallel-region method)."""
        self.encrypt_blocks(0, self.size, 8)
        self.decrypt_blocks(0, self.size, 8)

    def run_spmd(self) -> None:
        """SPMD region body using the runtime work-sharing API directly.

        Equivalent to :meth:`run` under the woven aspects, but expressed
        without weaving so it can be pickled to the process backend's
        persistent worker pool (``parallel_region(kernel.run_spmd, ...)``).
        """
        run_for(self.encrypt_blocks, 0, self.size, 8, loop_name="Crypt.encrypt")
        run_for(self.decrypt_blocks, 0, self.size, 8, loop_name="Crypt.decrypt")

    def encrypt_blocks(self, start: int, end: int, step: int) -> None:
        """For method: encrypt 8-byte blocks starting at offsets [start, end)."""
        for offset in range(start, end, step):
            IDEACipher.crypt_block(self.plain, offset, self.encrypted, self.cipher.encrypt_keys)

    def decrypt_blocks(self, start: int, end: int, step: int) -> None:
        """For method: decrypt 8-byte blocks starting at offsets [start, end)."""
        for offset in range(start, end, step):
            IDEACipher.crypt_block(self.encrypted, offset, self.decrypted, self.cipher.decrypt_keys)

    # -- validation -------------------------------------------------------------------

    def validate(self) -> bool:
        """Decryption must reproduce the plaintext exactly."""
        return bool(np.array_equal(self.plain, self.decrypted))

    def checksum(self) -> float:
        """Validation value combining plaintext, ciphertext and decrypted text."""
        return float(self.plain.sum() + self.encrypted.sum() * 1e-3 + self.decrypted.sum() * 1e-6)
