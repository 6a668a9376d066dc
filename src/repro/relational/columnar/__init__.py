"""Columnar storage: typed column vectors, compression, morsel blocks.

See :mod:`.store` for the storage backends behind ``Table.rows`` and
:mod:`.encodings` for the per-column codecs.  ``docs/storage.md`` has
the full design.
"""

from .encodings import (
    ColumnCodec,
    DeltaColumn,
    DictionaryColumn,
    FloatColumn,
    ForColumn,
    IntColumn,
    PlainColumn,
    RLEColumn,
    encode_column,
    pack_nulls,
    unpack_nulls,
)
from .store import (
    MORSEL,
    ColumnBlock,
    ColumnStore,
    PlainBlock,
    RowStore,
    check_storage,
    make_storage,
)

__all__ = [
    "MORSEL",
    "ColumnBlock",
    "ColumnCodec",
    "ColumnStore",
    "DeltaColumn",
    "DictionaryColumn",
    "FloatColumn",
    "ForColumn",
    "IntColumn",
    "PlainBlock",
    "PlainColumn",
    "RLEColumn",
    "RowStore",
    "check_storage",
    "encode_column",
    "make_storage",
    "pack_nulls",
    "unpack_nulls",
]
