"""The on-disk cube store: per-cuboid sorted segments behind a footer index.

``io.write_cube`` flattens a cube into one TSV stream — fine as an export,
useless as a serving artifact: answering ``rollup("name")`` means scanning
every c-group of every cuboid.  :class:`CubeStore` is the read-optimized
counterpart.  A store file is laid out as

* a **header line** — magic, format version, and a JSON blob carrying the
  schema, the aggregate's name/kind, and the iceberg threshold the cube
  was computed with;
* one **segment** per materialized cuboid — the cuboid's groups as
  ``repr(values)<TAB>repr(value)`` lines in ascending c-group order (the
  same ``<_C`` order the engines shuffle in), segments in bottom-up BFS
  order;
* a **footer** — a JSON index mapping each cuboid mask to its segment's
  byte offset, length, group count and CRC-32;
* a fixed-format **footer pointer** as the last line, so a reader finds
  the index with one seek from the end.

:meth:`CubeStore.open` reads only the header and footer; segment bytes
are fetched (and CRC-checked) on first touch, so a point or slice query
pays for exactly the cuboids it reads.  A small LRU keeps hot segments
decoded.  Corruption anywhere — bad magic, truncated footer, a flipped
byte in a segment — fails with a one-line, offset-numbered
:class:`StoreError` instead of silently serving wrong aggregates.

Values round-trip through ``repr``/``ast.literal_eval``: exact for every
finalized aggregate in the registry (ints, floats, strings, ``None``,
tuples) and for every dimension type the generators produce, and —
unlike JSON — it preserves the int/float and tuple/list distinctions the
bit-identity contract needs.
"""

from __future__ import annotations

import ast
import json
import os
import threading
import zlib
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..cubing.result import CubeResult
from ..relation.lattice import all_cuboids, group_sort_key
from ..relation.schema import Schema

#: First token of a store file; bumped with the format version.
MAGIC = "repro-cube-store"
FORMAT_VERSION = 1

#: Default number of decoded segments kept hot per store.
DEFAULT_SEGMENT_CACHE = 16


class StoreError(ValueError):
    """Raised when a store file is malformed, truncated, or corrupt."""


class ServingCounters:
    """Shared read-path counters (``serving.*``), optionally mirrored
    into a :class:`~repro.observability.telemetry.Telemetry` registry.

    One instance is threaded through a store, its view, and the server
    so a single ``/stats`` read shows the whole pipeline.  All methods
    are cheap enough to call unguarded; thread safety comes from the
    caller's lock (the store and view serialize cache access anyway).
    """

    FIELDS = (
        "serving.cache_hit",        # query-result cache hits (view)
        "serving.cache_miss",       # query-result cache misses (view)
        "serving.segment_hit",      # decoded-segment LRU hits (store)
        "serving.segment_load",     # segments fetched from disk (store)
        "serving.bytes_read",       # raw segment bytes read from disk
        "serving.reaggregations",   # cuboids rebuilt from an ancestor
        "serving.requests",         # queries admitted by the server
        "serving.shed",             # queries refused at admission (503)
        "serving.deadline_exceeded",  # queries cut at the deadline (504)
        "serving.query_errors",     # queries rejected as unanswerable (400)
    )

    def __init__(self, telemetry=None):
        self._counts = {field: 0 for field in self.FIELDS}
        self._telemetry = telemetry

    def bump(self, field: str, amount: int = 1) -> None:
        self._counts[field] += amount
        if self._telemetry is not None:
            name = "repro_" + field.replace(".", "_") + "_total"
            self._telemetry.counter(name, f"{field} events").inc(amount)

    def value(self, field: str) -> int:
        return self._counts[field]

    def to_dict(self) -> Dict[str, int]:
        return dict(self._counts)


def _encode(obj) -> str:
    """One-token text encoding of a value; inverse is :func:`_decode`.

    ``repr`` escapes control characters, so the output never contains a
    literal tab or newline and one c-group always fits one line.
    """
    text = repr(obj)
    try:
        decoded = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        raise StoreError(
            f"value {text[:60]!r} of type {type(obj).__name__} does not "
            "round-trip through repr/literal_eval and cannot be stored"
        ) from None
    if decoded != obj:
        raise StoreError(
            f"value {text[:60]!r} decodes inexactly and cannot be stored"
        )
    return text


def _decode(text: str):
    return ast.literal_eval(text)


def _write_segments(handle, header: Dict, masks, by_mask) -> int:
    """Header, one segment per cuboid, footer; returns the bytes written."""
    handle.write(
        f"{MAGIC} {FORMAT_VERSION} "
        f"{json.dumps(header, sort_keys=True)}\n"
    )
    offset = handle.tell()
    entries = []
    for mask in sorted(masks, key=lambda m: group_sort_key(m, ())):
        lines = [
            f"{_encode(values)}\t{_encode(value)}\n"
            for values, value in by_mask[mask]
        ]
        segment = "".join(lines)
        raw = segment.encode("utf-8")
        handle.write(segment)
        entries.append(
            {
                "mask": mask,
                "offset": offset,
                "length": len(raw),
                "groups": len(lines),
                "crc32": zlib.crc32(raw),
            }
        )
        offset += len(raw)
    footer = json.dumps({"cuboids": entries}, sort_keys=True) + "\n"
    footer_raw = footer.encode("utf-8")
    handle.write(footer)
    handle.write(f"footer {offset} {zlib.crc32(footer_raw)}\n")
    return handle.tell()


def estimate_cube_bytes(cube: CubeResult) -> int:
    """Approximate resident size of a cube's group mapping in bytes.

    Sums ``sys.getsizeof`` over the dict, each key pair, each values
    tuple and its elements, and each aggregate value.  Shared/interned
    objects are counted once per reference, so this is an upper-ish
    estimate of exclusive footprint — good enough for the doctor's
    store-vs-memory ratio, not an allocator audit.
    """
    import sys

    total = sys.getsizeof(cube._groups)
    for (mask, values), agg in cube.items():
        total += sys.getsizeof((mask, values))
        total += sys.getsizeof(mask)
        total += sys.getsizeof(values)
        total += sum(sys.getsizeof(v) for v in values)
        total += sys.getsizeof(agg)
    return total


class CubeStore:
    """A cube materialized as an offset-indexed, lazily-read store file.

    Build one with :meth:`write`, read one with :meth:`open`::

        CubeStore.write(run.cube, "cube.store", aggregate="count")
        store = CubeStore.open("cube.store")
        store.cuboid(0b101)        # {values: aggregate}, one seek + read

    ``open`` returns a handle that keeps the file open; use it as a
    context manager or call :meth:`close`.
    """

    def __init__(
        self,
        path: str,
        handle,
        schema: Schema,
        index: "OrderedDict[int, Dict]",
        aggregate_name: Optional[str],
        aggregate_kind: Optional[str],
        min_group_size: int,
        store_bytes: int,
        segment_cache_size: int = DEFAULT_SEGMENT_CACHE,
        counters: Optional[ServingCounters] = None,
    ):
        self.path = path
        self.schema = schema
        self.aggregate_name = aggregate_name
        self.aggregate_kind = aggregate_kind
        self.min_group_size = min_group_size
        self.store_bytes = store_bytes
        self.counters = counters or ServingCounters()
        self._handle = handle
        self._index = index
        self._cache: "OrderedDict[int, Dict[Tuple, object]]" = OrderedDict()
        self._cache_size = max(1, segment_cache_size)
        self._lock = threading.RLock()

    # -- writing -------------------------------------------------------------

    @classmethod
    def write(
        cls,
        cube: CubeResult,
        path: str,
        aggregate: Optional[object] = None,
        cuboids: Optional[Sequence[int]] = None,
        min_group_size: int = 1,
    ) -> int:
        """Persist ``cube`` at ``path``; returns the bytes written.

        ``aggregate`` (an :class:`AggregateFunction` or registry name)
        is recorded so the read side knows whether missing cuboids may
        be rebuilt from an ancestor.  ``cuboids`` selects the masks to
        materialize (default: the whole lattice — cuboids with no
        groups are written as empty segments so "materialized empty"
        and "not materialized" stay distinguishable).  ``min_group_size``
        records the iceberg threshold the cube was computed with.
        """
        schema = cube.schema
        lattice = all_cuboids(schema.num_dimensions)
        if cuboids is None:
            masks = list(lattice)
        else:
            masks = sorted(set(cuboids))
            bad = [m for m in masks if m not in lattice]
            if bad:
                raise StoreError(
                    f"cuboid mask 0x{bad[0]:x} is outside the "
                    f"{schema.num_dimensions}-dimension lattice"
                )
        aggregate_name = aggregate_kind = None
        if aggregate is not None:
            if isinstance(aggregate, str):
                from ..aggregates import get_aggregate

                aggregate = get_aggregate(aggregate)
            aggregate_name = aggregate.name
            aggregate_kind = aggregate.kind.value

        # Segments come out of one pass over the (already deterministic)
        # row order: to_rows sorts by (level, mask, values), so each
        # cuboid's rows are contiguous and internally <_C-sorted.
        by_mask: Dict[int, List[Tuple[Tuple, object]]] = {m: [] for m in masks}
        for mask, values, value in cube.to_rows():
            if mask in by_mask:
                by_mask[mask].append((values, value))

        header = {
            "dimensions": list(schema.dimensions),
            "measure": schema.measure,
            "aggregate": aggregate_name,
            "aggregate_kind": aggregate_kind,
            "min_group_size": min_group_size,
            "total_groups": cube.num_groups,
        }
        # Write a sibling temp file and rename it over ``path`` only once
        # it is complete and on disk: a failure mid-write leaves the
        # previous store (if any) untouched and no temp file behind.
        tmp_path = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
        try:
            with open(tmp_path, "x", encoding="utf-8", newline="") as handle:
                size = _write_segments(handle, header, masks, by_mask)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
            raise
        return size

    # -- opening -------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str,
        segment_cache_size: int = DEFAULT_SEGMENT_CACHE,
        counters: Optional[ServingCounters] = None,
    ) -> "CubeStore":
        """Open a store for querying; loads only the header and footer."""
        size = os.path.getsize(path)
        handle = open(path, "rb")
        try:
            return cls._open_handle(
                path, handle, size, segment_cache_size, counters
            )
        except Exception:
            handle.close()
            raise

    @classmethod
    def _open_handle(cls, path, handle, size, segment_cache_size, counters):
        first = handle.readline()
        prefix = f"{MAGIC} {FORMAT_VERSION} ".encode()
        if not first.startswith(f"{MAGIC} ".encode()):
            raise StoreError(f"{path}: not a repro cube store (bad magic)")
        if not first.startswith(prefix):
            raise StoreError(
                f"{path}: unsupported store format version "
                f"{first.split()[1].decode(errors='replace')!r} "
                f"(reader supports {FORMAT_VERSION})"
            )
        try:
            header = json.loads(first[len(prefix):].decode("utf-8"))
        except ValueError:
            raise StoreError(f"{path}: header line is not valid JSON") from None

        # The footer pointer is the short fixed-format last line; 64
        # bytes from the end always covers it.
        tail_start = max(0, size - 64)
        handle.seek(tail_start)
        tail_lines = handle.read().splitlines()
        if not tail_lines or not tail_lines[-1].startswith(b"footer "):
            raise StoreError(
                f"{path}: truncated store — footer pointer line missing"
            )
        parts = tail_lines[-1].split()
        try:
            footer_offset, footer_crc = int(parts[1]), int(parts[2])
        except (IndexError, ValueError):
            raise StoreError(
                f"{path}: malformed footer pointer "
                f"{tail_lines[-1].decode(errors='replace')!r}"
            ) from None
        handle.seek(footer_offset)
        footer_raw = handle.readline()
        if zlib.crc32(footer_raw) != footer_crc:
            raise StoreError(
                f"{path}: footer at offset {footer_offset}: crc mismatch "
                f"(expected {footer_crc}, got {zlib.crc32(footer_raw)})"
            )
        footer = json.loads(footer_raw.decode("utf-8"))

        try:
            schema = Schema(header["dimensions"], measure=header["measure"])
            index: "OrderedDict[int, Dict]" = OrderedDict(
                (entry["mask"], entry) for entry in footer["cuboids"]
            )
            store = cls(
                path,
                handle,
                schema,
                index,
                header.get("aggregate"),
                header.get("aggregate_kind"),
                int(header.get("min_group_size", 1)),
                size,
                segment_cache_size=segment_cache_size,
                counters=counters,
            )
            store.total_groups = int(header.get("total_groups", 0))
            return store
        except (KeyError, TypeError) as exc:
            raise StoreError(f"{path}: incomplete header/footer: {exc}") from None

    # -- reading -------------------------------------------------------------

    @property
    def masks(self) -> Tuple[int, ...]:
        """Materialized cuboid masks, in on-disk (BFS) order."""
        return tuple(self._index)

    def has_cuboid(self, mask: int) -> bool:
        return mask in self._index

    def group_count(self, mask: int) -> int:
        """Group count of a materialized cuboid, from the footer (no IO)."""
        try:
            return self._index[mask]["groups"]
        except KeyError:
            raise StoreError(
                f"{self.path}: cuboid 0x{mask:x} is not materialized"
            ) from None

    def groups_per_cuboid(self) -> Dict[int, int]:
        """``{mask: group count}`` for every materialized cuboid."""
        return {mask: entry["groups"] for mask, entry in self._index.items()}

    def cuboid(self, mask: int) -> Dict[Tuple, object]:
        """One cuboid's ``{values: aggregate}``, loaded (and cached) lazily."""
        with self._lock:
            cached = self._cache.get(mask)
            if cached is not None:
                self._cache.move_to_end(mask)
                self.counters.bump("serving.segment_hit")
                return cached
            entry = self._index.get(mask)
            if entry is None:
                raise StoreError(
                    f"{self.path}: cuboid 0x{mask:x} is not materialized"
                )
            groups = self._load_segment(mask, entry)
            self._cache[mask] = groups
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
            return groups

    def _load_segment(self, mask: int, entry: Dict) -> Dict[Tuple, object]:
        offset, length = entry["offset"], entry["length"]
        self.counters.bump("serving.segment_load")
        self.counters.bump("serving.bytes_read", length)
        self._handle.seek(offset)
        raw = self._handle.read(length)
        if len(raw) != length:
            raise StoreError(
                f"{self.path}: segment for cuboid 0x{mask:x} at offset "
                f"{offset}: truncated ({len(raw)} of {length} bytes)"
            )
        if zlib.crc32(raw) != entry["crc32"]:
            raise StoreError(
                f"{self.path}: segment for cuboid 0x{mask:x} at offset "
                f"{offset}: crc mismatch (expected {entry['crc32']}, "
                f"got {zlib.crc32(raw)})"
            )
        groups: Dict[Tuple, object] = {}
        for i, line in enumerate(raw.decode("utf-8").splitlines()):
            try:
                values_text, _, value_text = line.partition("\t")
                groups[_decode(values_text)] = _decode(value_text)
            except (ValueError, SyntaxError):
                raise StoreError(
                    f"{self.path}: segment for cuboid 0x{mask:x} at offset "
                    f"{offset}: unparsable line {i + 1}: {line[:60]!r}"
                ) from None
        if len(groups) != entry["groups"]:
            raise StoreError(
                f"{self.path}: segment for cuboid 0x{mask:x} at offset "
                f"{offset}: {len(groups)} groups, footer promised "
                f"{entry['groups']}"
            )
        return groups

    def to_cube(self) -> CubeResult:
        """Materialize the whole store back into a :class:`CubeResult`."""
        groups: Dict[Tuple[int, Tuple], object] = {}
        for mask in self._index:
            for values, value in self.cuboid(mask).items():
                groups[(mask, values)] = value
        return CubeResult(self.schema, groups)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "CubeStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"CubeStore({self.path!r}, {len(self._index)} cuboids, "
            f"{self.store_bytes} bytes)"
        )
