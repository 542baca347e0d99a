"""Key pairs and participant identities.

Every SEBDB participant (charity, school, orderer, ...) owns a
:class:`KeyPair`.  The compressed public key doubles as the participant's
on-chain identity; a short hex *address* derived from it is what appears in
the ``SenID`` system column.
"""

from __future__ import annotations

import dataclasses
import hashlib
import secrets  # sebdb: allow[determinism] real keygen entropy; sims use from_seed

from ..common.errors import SignatureError
from . import group, schnorr

ADDRESS_LENGTH = 20  # bytes of the pubkey hash used as an address


@dataclasses.dataclass(frozen=True)
class KeyPair:
    """A Schnorr key pair plus derived identity."""

    private_key: int
    public_key: bytes

    @classmethod
    def generate(cls) -> "KeyPair":
        """Fresh random key pair."""
        d = secrets.randbelow(group.N - 1) + 1
        return cls._from_scalar(d)

    @classmethod
    def from_seed(cls, seed: bytes | str) -> "KeyPair":
        """Deterministic key pair for tests and reproducible benchmarks."""
        if isinstance(seed, str):
            seed = seed.encode("utf-8")
        d = int.from_bytes(hashlib.sha256(b"keyseed" + seed).digest(), "big")
        d = d % (group.N - 1) + 1
        return cls._from_scalar(d)

    @classmethod
    def _from_scalar(cls, d: int) -> "KeyPair":
        if not 0 < d < group.N:
            raise SignatureError("private scalar out of range")
        public = group.serialize_point(group.scalar_mul(d))
        return cls(private_key=d, public_key=public)

    @property
    def address(self) -> str:
        """Short hex identity derived from the public key."""
        return address_of(self.public_key)

    def sign(self, message: bytes) -> bytes:
        return schnorr.sign(self.private_key, message, self.public_key)

    def verify(self, message: bytes, signature: bytes) -> bool:
        return schnorr.verify(self.public_key, message, signature)


def address_of(public_key: bytes) -> str:
    """Derive the hex address of a compressed public key."""
    return hashlib.sha256(public_key).digest()[:ADDRESS_LENGTH].hex()
