"""The text layer of a certificate file: ASCII JSON, decoded.

A certificate file is ASCII-only JSON.  This module reads and decodes
it, and refuses text that is neither with MalformedCertificate, the
error every later check of certificate data also raises.  It imports
only json, so a command can refuse a file that is not ASCII JSON
before it loads the certificate model; qsym.certificate builds the
model from what decode returns.
"""

import json


class MalformedCertificate(ValueError):
    """Raised when certificate data is structurally invalid."""


def decode(text: str):
    """The JSON value of text, or MalformedCertificate."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers over Python's
        # digit limit; RecursionError covers arrays or objects nested
        # past the interpreter's recursion limit.
        raise MalformedCertificate(f"not valid JSON: {exc}") from None


def read(path):
    """The JSON value of the file at path, read as ASCII text; OSError
    when the file cannot be read."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:  # the format is ASCII-only JSON
            raise MalformedCertificate(f"not ASCII text: {exc}") from None
    return decode(text)
