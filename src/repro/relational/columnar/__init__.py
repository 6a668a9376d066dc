"""Columnar storage: typed column vectors and a row overlay.

See :mod:`.store` for the storage backends behind ``Table.rows``.
``docs/storage.md`` has the full design.
"""

from .store import (
    ColumnStore,
    RowStore,
    check_storage,
    make_storage,
)

__all__ = [
    "ColumnStore",
    "RowStore",
    "check_storage",
    "make_storage",
]
