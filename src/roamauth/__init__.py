"""Roaming-authentication protocol engine and adversarial simulation harness.

Implements two three-party authentication schemes for mobile roaming (an
anonymous ECC scheme and the earlier nonce-and-hash scheme it improves on),
a Dolev-Yao style attack suite that runs the same strategies against both,
and cost accounting that reproduces the standard communication/computation
comparison tables.
"""

from .curve import TOY, P256, CurveParams, Point, get_profile
from .suite import CryptoSuite, identity_from_label

__all__ = [
    "TOY",
    "P256",
    "CurveParams",
    "Point",
    "get_profile",
    "CryptoSuite",
    "identity_from_label",
]

__version__ = "0.1.0"
