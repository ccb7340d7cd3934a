"""Bit-exact JSON formats for annotations, detections, results, crop
pairs, evaluation reports, and run configuration.

The writer quantizes every float to 6 significant digits and serializes
with sorted keys and 2-space indentation, so repeated runs produce
byte-identical files. Every writer goes through ``_write``, and the
bytes it writes for ``obj`` are exactly
``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\\n"``
of ``obj`` with every float ``x`` replaced by ``float(f"{x:.6g}")``,
its value on the grid of 6 significant digits (``_qtext``), where a
generator (``types.GeneratorType``) stands for the list of its items and
a ``_Sparse`` pair ``(length, [(frame, value), ...])`` for the list of
``length`` slots that holds each value at its frame and ``None``
elsewhere: ASCII-escaped strings, ``int.__repr__`` and
``float.__repr__`` for numbers, ValueError for NaN and infinities and
TypeError for any other type, sets and other iterators included, and
for a key that is not a string. It is a specialized writer because
``json.dumps`` with an indent runs the pure-Python encoder, one
generator step per value.

Writers stream record by record: each passes its arrays of records as
generators, and ``_write`` hands the text to the file between records,
so neither the records nor the text of a whole file exist at once. A
track's per-frame arrays are ``_Sparse``: the writer builds the nulls
between its entries from the gaps, in pieces of at most ``_NULL_PIECE``
slots, so a record costs what its entries cost, not its video's length.
The text goes to a sibling file that replaces the path only once it is
complete, so a write that fails leaves the path as it was.

Results and detections files are read in order from a window of their
text by one pull reader (``_Reader``), whose callers' loops follow the
file's nesting: ``load_results`` reads one record at a time, holding
the tracks it has built and the text of one record, and
``read_detections`` one frame at a time, handing each video on once its
object closes, so ``track`` holds one video's detections. They raise
the first fault in file order. Text that is not JSON raises
``_read_json``'s message with its line and column, a parse that only
names the syntax fault. A key repeated in the root or in a video of a
detections file is a fault, as is ``videos`` before ``embedding_dim``.
The other loaders parse their whole file first. Every loader turns an
integer longer than ``int`` takes, and nesting deeper than the decoder
goes, into SchemaError too. The writers check what they write by the
loaders' rules, so a refusal raises SchemaError and leaves no file. The
detections writer takes its videos one at a time too, so ``synth``
writes each video as it is generated.

Loaders accept and ignore unknown object keys, but reject values that
violate a documented invariant with an error naming it; malformed JSON
raises SchemaError carrying the line and column. A loader checks the
JSON shape (objects, arrays, fields and array lengths) and hands each
number as parsed to the domain type that holds it (``BBox``,
``RleMask``, ``Detection``, ``Track``), which checks it. Every domain
type is built through ``_build``, which adds the JSON path, so a bad
value reads ``<JSON path>: <field>: <invariant>``. The loader checks a
number with ``core.ints`` itself only where it uses the number before a
domain type sees it (ids, declared sizes) or where the domain type's
message would not name the field. ``load_results`` puts its file's path
in front of each message, since ``fuse`` reads several results files.

One size rule holds in every format (``_fit_size``): all masks of a
video share one size. On each side, that size is the one the file
declares (an annotations file declares both, a detections file either,
a results file neither), or else the side of the video's first mask.
Annotation and results records share one reader (``_track_from``).
The rule, with the video's length, also holds between files:
``load_results`` checks its records against the map of lengths and
sizes its caller passes (``eval``'s ground truth, ``fuse``'s earlier
inputs), adds its file's videos to it and returns only the tracks.

Annotation ids are scoped per video: two videos may both carry an
annotation id 1, and loaders group by (video_id, id).
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from itertools import chain, compress, repeat
from json.decoder import WHITESPACE
from json.encoder import encode_basestring_ascii
from operator import is_not, or_
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

from .core import (
    _FLOAT,
    _INT,
    BBox,
    Detection,
    FrameDetections,
    RleMask,
    Track,
    TrackEntry,
    VideoGroundTruth,
    VideoMeta,
    bbox_of_mask,
    ints,
)
from .errors import ConfigError, SchemaError

if TYPE_CHECKING:
    from .evaluation import EvalReport
    from .pseudo_pair import CropPairSample


# ---------------------------------------------------------------------------
# Primitive encoding helpers


class _Sparse(tuple):
    """``(length, [(frame, value), ...])`` in ascending frame order, which
    ``_emit`` writes as the array of ``length`` slots holding each value
    at its frame and ``null`` elsewhere."""

    __slots__ = ()


def _qtext(x: float) -> str:
    """The JSON text of every float the writer writes: ``float.__repr__``
    of ``float(f"{x:.6g}")``, x on the grid of 6 significant digits, from
    one format call. A decimal of at most 6 significant digits
    round-trips through a normal float, so repr prints the digits that
    ``.6g`` prints; only the notation can differ. Where ``.6g`` writes
    plain decimals (magnitudes 1e-4 to 1e6), repr does too and adds ``.0``
    to an integer; text with an exponent is parsed back and printed by
    repr, and NaN and the infinities raise json's ValueError."""
    text = f"{x:.6g}"
    if "e" in text or "n" in text:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    return text if "." in text else text + ".0"


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))

# A streamed write hands its pieces to the file between the elements of an
# array once it holds more than this many. A results record of a
# one-entry track is ~25 pieces, most of its bytes in two runs of nulls.
_FLUSH_PIECES = 256

# A run of nulls in a ``_Sparse`` array is written in pieces of at most
# this many slots, with a flush between pieces, so that the text of a
# long run never exists at once (about 50 KB a piece).
_NULL_PIECE = 4096


def _emit(obj: Any, nl: str, out: list[str], flush: Callable[[list[str]], None]) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``nl`` is a newline
    plus the indentation of the line ``obj`` starts on. ``flush`` takes
    and empties ``out`` between the items of an array once it holds more
    than ``_FLUSH_PIECES`` pieces; an array of scalars is one piece."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(f"{sep}{_key(key)}: ")
            _emit(value, inner, out, flush)
            sep = "," + inner
        out.append(nl + "}")
    elif type(obj) is _Sparse:
        length, items = obj
        if not length:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        lead = "[" + inner
        done = 0  # slots written
        for f, value in chain(items, ((length, None),)):
            while done < f:  # the nulls of slots done .. f - 1, a piece at a time
                n = min(f - done, _NULL_PIECE)
                out.append(lead + "null" + (sep + "null") * (n - 1))
                lead = sep
                done += n
                if done < f:
                    flush(out)
            if f < length:
                out.append(lead)
                _emit(value, inner, out, flush)
                lead = sep
                done = f + 1
        out.append(nl + "]")
    elif isinstance(obj, (list, tuple, GeneratorType)):
        inner = nl + "  "
        sep = "," + inner
        if type(obj) is not GeneratorType:
            kinds = set(map(type, obj))
            if kinds and kinds <= _SCALAR_TYPES:
                # One join per array of scalars; all-int and all-float
                # arrays skip the per-element dispatch.
                text = map(int.__repr__ if kinds == _INT else _qtext if kinds == _FLOAT else _scalar, obj)
                out.append("[" + inner + sep.join(text) + nl + "]")
                return
        lead = "[" + inner
        for item in obj:
            out.append(lead)
            _emit(item, inner, out, flush)
            lead = sep
            if len(out) > _FLUSH_PIECES:
                flush(out)
        out.append(nl + "]" if lead == sep else "[]")
    else:
        out.append(_scalar(obj))


def _scalar(value: Any) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _qtext(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key: Any) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    raise TypeError(f"keys must be str, not {type(key).__name__}")


def _write(obj: Any, path: str) -> None:
    """Write ``obj`` to ``path`` in the bytes the module docstring states,
    streaming the items of each generator in ``obj``. The text goes to a
    sibling file that replaces ``path`` only once it is complete, so a
    write that fails leaves ``path`` as it was. A symlink is written
    through; a path that is not a regular file (a pipe, ``/dev/stdout``)
    is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            _stream(obj, fh)
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
    except (FileNotFoundError, PermissionError) as e:  # the directory is missing or read-only
        raise type(e)(e.errno, e.strerror, path) from None
    try:
        with fh:
            _stream(obj, fh)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def _stream(obj: Any, fh) -> None:
    """Write the bytes of ``_write(obj, ...)`` to ``fh``, a few records at
    a time."""

    def flush(out: list[str]) -> None:
        fh.write("".join(out))
        out.clear()

    out: list[str] = []
    _emit(obj, "\n", out, flush)
    out.append("\n")
    flush(out)


def _read_json(path: str) -> Any:
    """The JSON text of ``path``, parsed whole. Text that is not JSON, or
    that the decoder cannot take (an integer too long for ``int``, nesting
    too deep), raises SchemaError naming ``path`` and the fault, a syntax
    fault with its line and column."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not valid UTF-8: {e}") from e
    except ValueError as e:  # json's one other ValueError: an integer longer than int() converts
        raise SchemaError(f"{path}: an integer of more than {sys.get_int_max_str_digits()} digits") from e
    except RecursionError as e:
        raise SchemaError(f"{path}: JSON nested too deeply to decode") from e


# Characters ``_Reader`` reads at a time. A value that does not fit in the
# text held doubles it, so decoding a value longer than this costs at most
# about twice one decode of it. In the benchmark's seed-1 files (each
# value's JSON at indent 2), `wide`'s detections frames have a median of
# ~20 KB and a maximum of ~36 KB; 17 of its 390 results records exceed
# 64 KiB, the largest ~85 KB; and 4 of `long`'s 469 records are ~400-560
# KB, which are decoded again after each doubling. With half a window
# kept ahead of each value, 128 KiB read the files as fast as 1 MiB did
# without it, while `track` on `wide` held 0.8 MB less than at 256 KiB.
_READ_WINDOW = 1 << 17

_decode = json.JSONDecoder().raw_decode


class _Reader:
    """A pull reader of the JSON text of the open file ``fh``, in order,
    from a window of its text: ``value`` decodes the next value whole,
    ``members`` and ``items`` step through the object or array that comes
    next, whose values the caller reads in turn and whose JSON paths it
    names, and ``end`` checks that nothing follows the root.

    Half a window of text is kept ahead of each value until the file
    ends. A value is taken once a character other than whitespace follows
    it, and before the end of the file one other than ``.eE`` (which could
    go on with a number); one that does not decode is tried again with
    more text, and is a fault at the end of the file. Only the reader's
    own faults raise ``_read_json``'s message: what the caller raises
    passes untouched."""

    def __init__(self, fh) -> None:
        self.fh = fh
        self.text, self.pos, self.eof = "", 0, False

    def value(self) -> Any:
        """The next value, decoded whole."""
        self._next()
        while True:
            try:
                value, end = _decode(self.text, self.pos)
            except (ValueError, RecursionError):  # the rest may be unread
                self._more()
                continue
            if WHITESPACE.match(self.text, end).end() < len(self.text) and (self.eof or self.text[end] not in ".eE"):
                self.pos = end
                return value
            self._more()  # more of a number may be unread; at the end of the file, its container is unclosed

    def members(self, where: str) -> Iterator[str]:
        """The keys of the object that comes next, in order; anything else
        raises ``<where>: expected a JSON object`` at once."""
        return map(self._key, self._each(self._open("{", where)))

    def items(self, where: str) -> Iterator[int]:
        """The indices of the items of the array that comes next; anything
        else raises ``<where>: expected a JSON array`` at once."""
        return self._each(self._open("[", where))

    def end(self) -> None:
        """Check that only whitespace follows the root."""
        if self._next():
            self._fault()

    def _open(self, opener: str, where: str) -> str:
        """Step into the container that comes next and return its closer.
        Text that is not JSON gives its own fault before a wrong kind."""
        if self._next() != opener:
            _read_json(self.fh.name)
            raise SchemaError(f"{where}: expected a JSON {'object' if opener == '{' else 'array'}")
        self.pos += 1
        return "}" if opener == "{" else "]"

    def _each(self, closer: str) -> Iterator[int]:
        """Step to each item of the open container, past the comma before
        it, and at last past its ``closer``."""
        i = 0
        while (char := self._next()) != closer:
            if i:
                if char != ",":
                    self._fault()
                self.pos += 1
            yield i
            i += 1
        self.pos += 1

    def _key(self, _: int) -> str:
        """The key of the member that comes next, past its colon."""
        if self._next() != '"':
            self._fault()
        key = self.value()
        if self._next() != ":":
            self._fault()
        self.pos += 1
        return key

    def _next(self) -> str:
        """The next character other than whitespace, with half a window of
        text beyond it until the file ends; "" at the end."""
        while True:
            self.pos = WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) - (0 if self.eof else _READ_WINDOW // 2):
                return self.text[self.pos]
            if self.eof:
                return ""
            self._more()

    def _more(self) -> None:
        """Drop the text before ``pos`` and read a window more, or as much
        as is held if that is more; past the end, the text is not JSON."""
        if self.eof:
            self._fault()
        try:
            more = self.fh.read(max(_READ_WINDOW, len(self.text) - self.pos))
        except UnicodeDecodeError:
            self._fault()
        self.text, self.pos, self.eof = self.text[self.pos :] + more, 0, not more

    def _fault(self) -> NoReturn:
        _read_json(self.fh.name)  # raises the fault's message
        raise SchemaError(f"{self.fh.name}: not valid JSON")


def _expect_object(value: Any, where: str, error: type[Exception] = SchemaError) -> dict:
    if not isinstance(value, dict):
        raise error(f"{where}: expected a JSON object")
    return value


def _expect_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a JSON array")
    return value


def _get(obj: dict, key: str, where: str, check=None) -> Any:
    """``obj[key]``; with ``check`` (``core.ints``), that one number,
    checked under the name ``{where}.{key}``."""
    if key not in obj:
        raise SchemaError(f"{where}: missing required field '{key}'")
    if check is None:
        return obj[key]
    return check((obj[key],), f"{where}.{key}", SchemaError)[0]


def _build(cls: type, where: str, *args, **kwargs):
    """``cls(*args, **kwargs)``, a domain type that checks its own
    numbers, with its ValueError raised as a SchemaError under ``where``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from e


def _bbox_json(b: BBox) -> tuple[float, ...]:
    return (b.x, b.y, b.w, b.h)


def _bbox_from(value: Any, where: str) -> BBox:
    """The box ``value``, with its errors reported under ``where``."""
    if not isinstance(value, list) or len(value) != 4:
        raise SchemaError(f"{where}: bbox must be [x, y, w, h]")
    return _build(BBox, where, *value)


def _rle_json(m: RleMask) -> dict:
    return {"size": [m.height, m.width], "counts": m.counts}


def _rle_from(value: Any, where: str) -> RleMask:
    obj = _expect_object(value, where)
    size = _expect_list(_get(obj, "size", where), f"{where}.size")
    if len(size) != 2:
        raise SchemaError(f"{where}.size: must be [height, width]")
    counts = _get(obj, "counts", where)
    if isinstance(counts, str):
        raise SchemaError(f"{where}.counts: compressed string counts are not supported; use an integer array")
    counts = _expect_list(counts, f"{where}.counts")
    return _build(RleMask, where, height=size[0], width=size[1], counts=counts)


def _fit_size(mask: RleMask, size: list, vid: int, where: str) -> None:
    """The size rule of every format: all masks of a video share one
    size. ``size`` is the video's ``[height, width]``: on each side the
    one its file declares, or else None, which the video's first mask
    fills in."""
    if None in size:
        size[:] = (mask.height if size[0] is None else size[0], mask.width if size[1] is None else size[1])
    if mask.height != size[0] or mask.width != size[1]:
        raise SchemaError(
            f"{where}: mask size [{mask.height}, {mask.width}] differs from {size}, the size of video {vid}"
        )


def _track_json(
    where: str, vid: int, t: Track, length: int, size: list, seen: set[tuple[int, int]], categories: Mapping | None
) -> dict:
    """A track's record in video ``vid``: ``video_id``, ``id``,
    ``category_id`` and per-frame ``segmentations`` and ``bboxes`` arrays
    of ``length`` slots, null where the track has no entry. The track is
    checked by ``_track_from``'s rules, in its order, so that its loader
    takes it: a new (video, track) id (``seen`` holds those written
    before), with ``categories`` (an annotations file) a declared
    category, and masks of the video's ``size`` (``_fit_size``)."""
    _new_track(vid, t.track_id, seen, where)
    if categories is not None and t.category_id not in categories:
        raise SchemaError(f"{where}: unknown category_id {t.category_id}")
    for f in t.entries:
        if f >= length:
            raise SchemaError(f"{where}: track {t.track_id} entry frame {f} outside video length {length}")
    entries = sorted(t.entries.items())
    for f, e in entries:
        if e.mask is not None:
            _fit_size(e.mask, size, vid, f"{where}.segmentations[{f}]")
    return {
        "video_id": vid,
        "id": t.track_id,
        "category_id": t.category_id,
        "segmentations": _Sparse((length, [(f, _rle_json(e.mask)) for f, e in entries if e.mask is not None])),
        "bboxes": _Sparse((length, [(f, _bbox_json(e.bbox)) for f, e in entries])),
    }


def _new_track(vid: int, tid: int, seen: set[tuple[int, int]], where: str) -> None:
    """The rule that a file holds one record per (video, track) id; ``seen``
    holds the ids of the records before it."""
    if (vid, tid) in seen:
        raise SchemaError(f"{where}: duplicate track id {tid} for video {vid}")
    seen.add((vid, tid))


def _track_from(
    value: Any,
    where: str,
    videos: dict[int, tuple[int, list]],
    seen: set[tuple[int, int]],
    categories: Mapping[int, str] | None = None,
) -> tuple[int, Track]:
    """The video id and track of one annotations or results record:
    ``video_id``, ``id``, ``category_id``, and per-frame
    ``segmentations`` and ``bboxes`` arrays of the video's length. A
    frame with a mask but no box takes the mask's bounding box; a frame
    with neither, or with only an empty mask, has no entry, and only the
    frames with a mask or a box are visited.

    ``videos`` maps a video id to its length and ``[height, width]``
    (``_fit_size``) and ``seen`` holds the (video, track) ids read so
    far. With ``categories`` (an annotations file), the video and the
    category must be declared and the score is 1.0. Without (a results
    file), the record carries its ``score``, and a video that ``videos``
    lacks takes its first record's length and, through its first mask,
    its size."""
    obj = _expect_object(value, where)
    vid = _get(obj, "video_id", where, ints)
    tid = _get(obj, "id", where, ints)
    _new_track(vid, tid, seen, where)
    cid = _get(obj, "category_id", where, ints)  # Track's message would not name the field
    if categories is None:
        score = _get(obj, "score", where)
    else:
        if vid not in videos:
            raise SchemaError(f"{where}: unknown video_id {vid}")
        if cid not in categories:
            raise SchemaError(f"{where}: unknown category_id {cid}")
        score = 1.0
    segs = _expect_list(_get(obj, "segmentations", where), f"{where}.segmentations")
    boxes = _expect_list(_get(obj, "bboxes", where), f"{where}.bboxes")
    length, size = videos.setdefault(vid, (len(segs), [None, None]))
    if len(segs) != length or len(boxes) != length:
        raise SchemaError(f"{where}: segmentations and bboxes must have video {vid}'s length, {length}")
    entries: dict[int, TrackEntry] = {}
    present = map(or_, map(is_not, segs, repeat(None)), map(is_not, boxes, repeat(None)))
    for f in compress(range(length), present):
        seg, box = segs[f], boxes[f]
        mask = None
        if seg is not None:
            mask = _rle_from(seg, f"{where}.segmentations[{f}]")
            _fit_size(mask, size, vid, f"{where}.segmentations[{f}]")
        if box is not None:
            bbox = _bbox_from(box, f"{where}.bboxes[{f}]")
        else:
            bbox = bbox_of_mask(mask) if mask is not None else None
            if bbox is None:
                continue
        entries[f] = TrackEntry(bbox=bbox, mask=mask)
    return vid, _build(Track, where, track_id=tid, category_id=cid, score=score, entries=entries)


# ---------------------------------------------------------------------------
# Annotations (ground truth)


def save_annotations(ground_truth: Sequence[VideoGroundTruth], path: str) -> None:
    ground_truth = sorted(ground_truth, key=lambda g: g.video_id)
    for i in range(1, len(ground_truth)):
        if ground_truth[i].video_id == ground_truth[i - 1].video_id:
            raise SchemaError(f"videos[{i}]: duplicate video id {ground_truth[i].video_id}")
    videos = [{"id": g.video_id, "width": g.width, "height": g.height, "length": g.length} for g in ground_truth]
    cat_names: dict[int, str] = {}
    for g in ground_truth:
        for c in g.category_set:
            cat_names.setdefault(c, g.category_names.get(c, f"category_{c}"))
    categories = [{"id": c, "name": cat_names[c]} for c in sorted(cat_names)]
    for i, c in enumerate(categories):
        if not isinstance(c["name"], str):
            raise SchemaError(f"categories[{i}].name: expected a string")
    sizes = {g.video_id: [g.height, g.width] for g in ground_truth}
    ordered = ((g, t) for g in ground_truth for t in sorted(g.gt_tracks, key=lambda t: t.track_id))
    seen: set[tuple[int, int]] = set()
    annotations = (
        _track_json(f"annotations[{i}]", g.video_id, t, g.length, sizes[g.video_id], seen, cat_names)
        for i, (g, t) in enumerate(ordered)
    )
    _write({"videos": videos, "annotations": annotations, "categories": categories}, path)


def load_annotations(path: str) -> list[VideoGroundTruth]:
    """One ground truth per declared video, in ascending video id
    whatever the file's order."""
    root = _expect_object(_read_json(path), "annotations")
    videos: dict[int, tuple[int, list]] = {}
    for i, v in enumerate(_expect_list(_get(root, "videos", "annotations"), "videos")):
        where = f"videos[{i}]"
        obj = _expect_object(v, where)
        vid = _get(obj, "id", where, ints)
        if vid in videos:
            raise SchemaError(f"{where}: duplicate video id {vid}")
        width, height, length = (_positive_int(obj, key, where, required=True) for key in ("width", "height", "length"))
        videos[vid] = (length, [height, width])
    cat_names: dict[int, str] = {}
    for i, c in enumerate(_expect_list(_get(root, "categories", "annotations"), "categories")):
        where = f"categories[{i}]"
        obj = _expect_object(c, where)
        cid = _get(obj, "id", where, ints)
        name = _get(obj, "name", where)
        if not isinstance(name, str):
            raise SchemaError(f"{where}.name: expected a string")
        if cid in cat_names:
            raise SchemaError(f"{where}: duplicate category id {cid}")
        cat_names[cid] = name

    tracks: dict[int, list[Track]] = {vid: [] for vid in videos}
    seen: set[tuple[int, int]] = set()
    for i, a in enumerate(_expect_list(_get(root, "annotations", "annotations"), "annotations")):
        vid, track = _track_from(a, f"annotations[{i}]", videos, seen, cat_names)
        tracks[vid].append(track)
    out = []
    for vid in sorted(videos):
        length, (height, width) = videos[vid]
        out.append(
            _build(
                VideoGroundTruth,
                f"video {vid}",
                video_id=vid,
                height=height,
                width=width,
                length=length,
                gt_tracks=tracks[vid],
                category_set=sorted(cat_names),
                category_names=dict(cat_names),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Detections


@dataclass
class DetectionsFile:
    """Parsed detections file: declared embedding width plus per-video
    frame lists and geometry."""

    embedding_dim: int
    videos: dict[int, list[FrameDetections]] = field(default_factory=dict)
    metas: dict[int, VideoMeta] = field(default_factory=dict)


def _detection_json(d: Detection) -> dict:
    return {
        "bbox": _bbox_json(d.bbox),
        "score": d.score,
        "category_id": d.category_id,
        "class_probs": d.class_probs,
        "segmentation": _rle_json(d.mask) if d.mask is not None else None,
        "embedding": d.embedding,
    }


def save_detections(
    videos: Iterable[tuple[int, Sequence[FrameDetections], VideoMeta | None]],
    path: str,
    embedding_dim: int,
) -> None:
    """Write ``videos``, ``(video id, frames, meta or None)`` triples taken
    one at a time and in their order, as a detections file that
    ``load_detections`` reads back; a meta's ``length``, ``height`` and
    ``width`` are written as the video's declared geometry. Each video is
    checked by the loader's rules as it is written: a new video id, frames
    in ascending ``frame_index`` below the declared length, embeddings of
    ``embedding_dim`` values and masks of one size (``_fit_size``). A
    refusal raises SchemaError and leaves no file."""
    dim = _embedding_dim(embedding_dim)
    seen: set[int] = set()
    rows = (_video_json(f"videos[{i}]", *video, dim, seen) for i, video in enumerate(videos))
    _write({"embedding_dim": dim, "videos": rows}, path)


def _video_json(
    where: str, vid: int, frames: Sequence[FrameDetections], meta: VideoMeta | None, dim: int, seen: set[int]
) -> dict:
    (vid,) = ints((vid,), f"{where}.video_id", SchemaError)
    if vid in seen:
        raise SchemaError(f"{where}: duplicate video_id {vid}")
    seen.add(vid)
    row: dict[str, Any] = {"video_id": vid}
    length, size = None, [None, None]
    if meta is not None:
        length = row["length"] = meta.length
        size = [meta.height, meta.width]
        if meta.height is not None:
            row["height"] = meta.height
        if meta.width is not None:
            row["width"] = meta.width
    row["frames"] = _frames_json(where, frames, dim, size, vid, length)
    return row


def _frames_json(
    where: str, frames: Sequence[FrameDetections], dim: int, size: list, vid: int, length: int | None
) -> Iterator[dict]:
    last = -1
    for j, fr in enumerate(frames):
        fwhere = f"{where}.frames[{j}]"
        last = _frame_order(fr.frame_index, last, fwhere)
        for k, d in enumerate(fr.detections):
            _embedding_length(d.embedding, dim, f"{fwhere}.detections[{k}]")
        yield {"frame_index": fr.frame_index, "detections": [_detection_json(d) for d in fr.detections]}
    _fit_masks(frames, size, vid, where)
    _video_length(length, where, last)


def _fit_masks(frames: Sequence[FrameDetections], size: list, vid: int, where: str) -> None:
    """``_fit_size`` over the masks of video ``vid``'s frames, in order."""
    for j, fr in enumerate(frames):
        for k, d in enumerate(fr.detections):
            if d.mask is not None:
                _fit_size(d.mask, size, vid, f"{where}.frames[{j}].detections[{k}].segmentation")


def load_detections(path: str) -> DetectionsFile:
    """The detections file at ``path``, read one frame at a time
    (``read_detections``)."""
    dim, metas, videos = read_detections(path, lambda frames, meta: frames)
    return DetectionsFile(embedding_dim=dim, videos=videos, metas=metas)


def read_detections(
    path: str, each: Callable[[list[FrameDetections], VideoMeta], Any]
) -> tuple[int, dict[int, VideoMeta], dict[int, Any]]:
    """The embedding width of the detections file at ``path``, and per
    video id in file order its geometry and ``each(frames, meta)``.

    The file is read in order (``_Reader``), and each frame is checked as
    it is read. In a sorted-key file a video's ``video_id`` and declared
    sides follow its frames, so once its JSON object closes the video's
    ``video_id``, a new id, its declared sides, the size rule over its
    masks (``_fit_size``) and its length are checked, in that order. The
    video then goes to ``each``, and its frames are dropped when ``each``
    returns, so memory follows one video and what ``each`` returns, not
    the file.

    The first fault in file order is raised, and an error of ``each``
    propagates at once. A key repeated in the root or in a video is a
    fault, and so is ``videos`` before ``embedding_dim``: a video handed
    on cannot take a value that comes after it. Where ``videos`` or
    ``frames`` is not an array, that fault comes before both."""
    dim = 0
    root: dict[str, Any] = {}  # the root's members so far
    metas: dict[int, VideoMeta] = {}
    values: dict[int, Any] = {}
    with open(path, "r", encoding="utf-8") as fh:
        r = _Reader(fh)
        for key in r.members("detections"):
            value = r.items("videos") if key == "videos" else r.value()
            _member(root, key, value, "detections")
            if key == "embedding_dim":
                dim = _embedding_dim(value)
            elif key == "videos" and not dim:
                raise SchemaError("detections: embedding_dim must come before videos")
            for i in value if key == "videos" else ():
                where = f"videos[{i}]"
                video: dict[str, Any] = {}  # the video's members so far
                frames: list[FrameDetections] = []
                last = -1
                for name in r.members(where):
                    member = r.items(f"{where}.frames") if name == "frames" else r.value()
                    _member(video, name, member, where)
                    for j in member if name == "frames" else ():
                        frames.append(_frame_from(r.value(), f"{where}.frames[{j}]", dim, last))
                        last = frames[-1].frame_index
                vid = _get(video, "video_id", where, ints)
                if vid in values:
                    raise SchemaError(f"{where}: duplicate video_id {vid}")
                height, width = (_positive_int(video, side, where) for side in ("height", "width"))
                _get(video, "frames", where)
                _fit_masks(frames, [height, width], vid, where)
                length = _video_length(_positive_int(video, "length", where), where, last)
                meta = VideoMeta(length=length, height=height, width=width)
                values[vid], metas[vid] = each(frames, meta), meta
        r.end()
    _get(root, "embedding_dim", "detections")
    _get(root, "videos", "detections")
    return dim, metas, values


def _member(obj: dict, key: str, value: Any, where: str) -> None:
    """``obj[key] = value`` in the object at ``where``, where ``key`` is new."""
    if key in obj:
        raise SchemaError(f"{where}: repeated key '{key}'")
    obj[key] = value


def _embedding_dim(value: Any) -> int:
    (dim,) = ints((value,), "embedding_dim", SchemaError)
    if dim < 1:
        raise SchemaError("embedding_dim: must be at least 1")
    return dim


def _positive_int(obj: dict, key: str, where: str, required: bool = False) -> int | None:
    """A declared size, which must be >= 1; absent gives None unless
    ``required``."""
    if key not in obj and not required:
        return None
    value = _get(obj, key, where, ints)
    if value < 1:
        raise SchemaError(f"{where}.{key}: must be at least 1, got {value}")
    return value


def _video_length(length: int | None, where: str, last_frame: int) -> int:
    """A video's declared ``length``, or else one past its last frame (one
    empty frame when it has none); its frames must lie below it."""
    if length is None:
        length = max(last_frame + 1, 1)
    if last_frame >= length:
        raise SchemaError(f"{where}: frame_index {last_frame} outside declared length {length}")
    return length


def _frame_order(frame_index: int, last: int, where: str) -> int:
    """``frame_index``, which must exceed its video's ``last`` one."""
    if frame_index <= last:
        raise SchemaError(f"{where}: frame_index must be strictly increasing within a video")
    return frame_index


def _frame_from(value: Any, where: str, dim: int, last: int) -> FrameDetections:
    """One frame of a video whose frames so far end at ``last``."""
    obj = _expect_object(value, where)
    fidx = _get(obj, "frame_index", where)
    dets = [
        _detection_from(d, f"{where}.detections[{k}]", dim)
        for k, d in enumerate(_expect_list(_get(obj, "detections", where), f"{where}.detections"))
    ]
    frame = _build(FrameDetections, where, frame_index=fidx, detections=dets)
    _frame_order(frame.frame_index, last, where)
    return frame


def _embedding_length(emb: Sequence, dim: int, where: str) -> None:
    if len(emb) != dim:
        raise SchemaError(
            f"{where}.embedding: length {len(emb)} violates the declared "
            f"embedding_dim {dim} (dimension must be constant per file)"
        )


def _detection_from(value: Any, where: str, dim: int) -> Detection:
    obj = _expect_object(value, where)
    bbox = _bbox_from(_get(obj, "bbox", where), where)
    score = _get(obj, "score", where)
    cid = _get(obj, "category_id", where)
    probs = _expect_list(_get(obj, "class_probs", where), f"{where}.class_probs")
    emb = _expect_list(_get(obj, "embedding", where), f"{where}.embedding")
    _embedding_length(emb, dim, where)
    seg = obj.get("segmentation")
    mask = None if seg is None else _rle_from(seg, f"{where}.segmentation")
    return _build(
        Detection, where, bbox=bbox, score=score, category_id=cid, class_probs=probs, embedding=emb, mask=mask
    )


# ---------------------------------------------------------------------------
# Results (tracker / fusion output)


def save_results(
    tracks: Mapping[int, Sequence[Track]],
    path: str,
    video_lengths: Mapping[int, int],
) -> None:
    """One record per track, sorted by (video, descending score, id). The
    tracks are checked by the loader's rules as they are written
    (``_track_json``); a refusal raises SchemaError and leaves no file."""
    for vid in sorted(tracks):
        if vid not in video_lengths:
            raise SchemaError(f"no video length provided for video {vid}")
    sizes = {vid: [None, None] for vid in tracks}
    ordered = ((vid, t) for vid in sorted(tracks) for t in sorted(tracks[vid], key=lambda t: (-t.score, t.track_id)))
    seen: set[tuple[int, int]] = set()
    records = (
        {"score": t.score, **_track_json(f"results[{i}]", vid, t, video_lengths[vid], sizes[vid], seen, None)}
        for i, (vid, t) in enumerate(ordered)
    )
    _write(records, path)


def load_results(path: str, videos: dict[int, tuple[int, list]] | None = None) -> dict[int, list[Track]]:
    """Tracks grouped per video, in file order. The records are read one
    at a time (``_Reader``) and converted as they are read; the first fault
    in file order is raised, and its message starts with ``path``.
    ``videos`` (``_track_from``) holds the lengths and sizes known before
    the file, from the ground truth or earlier inputs: each record must
    agree with it, and the file's own videos are added to it, the size
    ``[None, None]`` where a video has no mask. A caller that needs a
    video's length or size reads it there."""
    tracks: dict[int, list[Track]] = {}
    videos = {} if videos is None else videos
    seen: set[tuple[int, int]] = set()
    where = f"{path}: results"
    with open(path, "r", encoding="utf-8") as fh:
        r = _Reader(fh)
        for i in r.items(where):
            vid, track = _track_from(r.value(), f"{where}[{i}]", videos, seen)
            tracks.setdefault(vid, []).append(track)
        r.end()
    return tracks


# ---------------------------------------------------------------------------
# Evaluation report, crop pairs, identity key


def _metrics_json(m) -> dict | None:
    if m is None:
        return None
    return {
        "ap": m.ap,
        "ap50": m.ap50,
        "ap75": m.ap75,
        "ar": {str(k): v for k, v in m.ar.items()},
    }


def save_report(report: EvalReport, path: str) -> None:
    _write(
        {
            "overall": _metrics_json(report.overall),
            "per_category": {str(c): _metrics_json(m) for c, m in report.per_category.items()},
        },
        path,
    )


def _view_json(view) -> dict:
    w = view.window
    return {
        "window": (w.x0, w.y0, w.x1, w.y1),
        "annotations": [
            {
                "instance_id": a.instance_id,
                "category_id": a.category_id,
                "bbox": _bbox_json(a.bbox),
                "segmentation": _rle_json(a.mask) if a.mask is not None else None,
            }
            for a in view.annotations
        ],
    }


def save_pairs(samples: Sequence[CropPairSample], path: str) -> None:
    _write(
        (
            {
                "source_image_id": s.source_image_id,
                "view_a": _view_json(s.view_a),
                "view_b": _view_json(s.view_b),
                "correspondence": [[a, b] for a, b in s.correspondence],
            }
            for s in samples
        ),
        path,
    )


def save_identity(identity_key: Mapping[tuple[int, int, int], int], path: str) -> None:
    """Rows [video, frame, detection, track] in key order, each checked
    by the loader's rule before any is sorted or written: four integers
    (numpy's are written as ints). A bad row is named by its place in
    ``identity_key``'s iteration order."""
    rows = [ints((v, f, d, t), f"identity[{i}]", SchemaError) for i, ((v, f, d), t) in enumerate(identity_key.items())]
    _write(sorted(rows), path)


def load_identity(path: str) -> dict[tuple[int, int, int], int]:
    root = _expect_list(_read_json(path), "identity")
    out: dict[tuple[int, int, int], int] = {}
    for i, row in enumerate(root):
        arr = _expect_list(row, f"identity[{i}]")
        if len(arr) != 4:
            raise SchemaError(f"identity[{i}]: expected [video, frame, detection, track]")
        v, f, d, t = ints(arr, f"identity[{i}]", SchemaError)
        if (v, f, d) in out:
            raise SchemaError(f"identity[{i}]: duplicate row for video {v} frame {f} detection {d}")
        out[(v, f, d)] = t
    return out


# ---------------------------------------------------------------------------
# Run configuration


# section -> (module, config dataclass). A section's module is imported
# only when a file names the section or a caller reads it, so a command
# loads only the modules it runs.
_SECTIONS = {
    "association": ("association", "AssociationConfig"),
    "crop": ("pseudo_pair", "CropConfig"),
    "fusion": ("fusion", "FusionConfig"),
    "synth": ("synth", "SynthConfig"),
}


def _section_class(name: str) -> type:
    module, cls = _SECTIONS[name]
    return getattr(importlib.import_module(f".{module}", __package__), cls)


class RunConfig:
    """The run configuration, one config dataclass per section:
    ``association`` (``AssociationConfig``), ``crop`` (``CropConfig``),
    ``fusion`` (``FusionConfig``) and ``synth`` (``SynthConfig``). A
    section not given is its dataclass's default, built when first read."""

    def __init__(self, **sections):
        self.__dict__.update(sections)

    def __getattr__(self, name: str):
        if name not in _SECTIONS:
            raise AttributeError(f"'RunConfig' object has no attribute {name!r}")
        value = _section_class(name)()
        setattr(self, name, value)  # later lookups find it without this call
        return value


def load_run_config(path: str | None) -> RunConfig:
    """Run configuration from a JSON file of per-section objects.

    Every section and every field is optional and falls back to the
    dataclass default; unknown sections or fields raise ConfigError.
    Each section the file names is built, and so checked, here, and each
    error starts with ``path``.
    """
    if path is None:
        return RunConfig()
    where = f"{path}: config"
    root = _expect_object(_read_json(path), where, ConfigError)
    kwargs = {}
    for name, value in root.items():
        if name not in _SECTIONS:
            raise ConfigError(f"{where}: unknown section '{name}'")
        cls = _section_class(name)
        obj = _expect_object(value, f"{where}.{name}", ConfigError)
        allowed = {f.name for f in fields(cls)}
        for key in obj:
            if key not in allowed:
                raise ConfigError(f"{where}.{name}: unknown field '{key}'")
        try:
            kwargs[name] = cls(**obj)
        except ConfigError as e:
            raise ConfigError(f"{where}.{name}: {e}") from e
    return RunConfig(**kwargs)
