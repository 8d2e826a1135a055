"""Coherence protocol message vocabulary.

These are the inter-node messages synthesised by the CMMU (and, after a
directory overflow, by the protocol extension software).  Header-only
messages carry ``header_flits``; data-bearing messages additionally carry
``data_flits`` (one cache block).
"""

from __future__ import annotations

# Requests (cache -> home)
RREQ = "rreq"  # read (shared) request
WREQ = "wreq"  # write (exclusive) request / upgrade
EVICT_WB = "evict_wb"  # write-back of an evicted dirty block (data)
RELINQ = "relinq"  # CICO check-in of a clean copy: drop my pointer

# Replies (home -> cache)
RDATA = "rdata"  # read data grant (data)
WDATA = "wdata"  # write data grant, exclusive (data)
BUSY = "busy"  # transaction in progress; retry later

# Coherence traffic (home -> cache, cache -> home)
INV = "inv"  # invalidate a shared copy
ACK = "ack"  # acknowledgement of an invalidation
FETCH_RD = "fetch_rd"  # downgrade owner to read-only, return data
FETCH_INV = "fetch_inv"  # invalidate owner, return data
FETCH_DATA = "fetch_data"  # owner's data response to a fetch (data)

# Barrier traffic (combining tree; not part of the coherence protocol)
BAR_UP = "bar_up"
BAR_DOWN = "bar_down"

DATA_BEARING = frozenset({RDATA, WDATA, EVICT_WB, FETCH_DATA})
REQUESTS = frozenset({RREQ, WREQ})


def message_size(kind: str, header_flits: int, data_flits: int) -> int:
    """Size of a message of ``kind`` in flits."""
    if kind in DATA_BEARING:
        return header_flits + data_flits
    return header_flits
