"""Bit-exact JSON formats for annotations, detections, results, crop
pairs, evaluation reports, and run configuration.

All writers quantize floats to 6 significant digits and serialize with
sorted keys and 2-space indentation, so repeated runs produce
byte-identical files. Every writer goes through ``_write``, and the
bytes it writes for ``obj`` are exactly
``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\\n"``,
where a generator (``types.GeneratorType``) stands for the list of its
items and a ``_Quantized`` tuple for the list of its items' ``_q``
values and a ``_Sparse`` pair ``(length, [(frame, value), ...])`` for
the list of ``length`` slots that holds each value at its frame and
``None`` elsewhere: ASCII-escaped strings, ``int.__repr__`` and
``float.__repr__`` for numbers, ValueError for NaN and infinities and
TypeError for any other type, sets and other iterators included. It is
a specialized writer because ``json.dumps`` with an indent runs the
pure-Python encoder, one generator step per value.

Writers stream record by record: each passes its arrays of records as
generators, and ``_write`` hands the text to the file between records,
so neither the records nor the text of a whole file exist at once. A
track's per-frame arrays are ``_Sparse``: the writer builds the nulls
between its entries from the gaps, in pieces of at most ``_NULL_PIECE``
slots, so a record costs what its entries cost, not its video's length.
The text goes to a sibling file that replaces the path only once it is
complete, so a write that fails leaves the path as it was.

``load_results`` reads its file one record at a time (``_array_items``):
it holds the tracks it has built and the text of one record, not the
parsed file. Every other loader parses its whole file first.

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
from dataclasses import dataclass, field, fields
from itertools import chain, compress, repeat
from json.decoder import WHITESPACE
from json.encoder import encode_basestring_ascii
from operator import is_not, or_
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

from .core import (
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


def _q(x: float) -> float:
    """Quantize to 6 significant digits; the idempotent float grid all
    writers share."""
    return float(f"{float(x):.6g}")


class _Quantized(tuple):
    """Floats that ``_emit`` writes as the array of their ``_q`` values,
    each formatted once (``_qtext``)."""

    __slots__ = ()


class _Sparse(tuple):
    """``(length, [(frame, value), ...])`` in ascending frame order, which
    ``_emit`` writes as the array of ``length`` slots holding each value
    at its frame and ``null`` elsewhere."""

    __slots__ = ()


def _qtext(x: float) -> str:
    """``_scalar(_q(x))`` from one format call. A decimal of at most 6
    significant digits round-trips through a normal float, so repr prints
    the digits that ``.6g`` prints; only the notation can differ. Where
    ``.6g`` writes plain decimals (magnitudes 1e-4 to 1e6), repr does too
    and adds ``.0`` to an integer; text with an exponent, NaN or an
    infinity takes the two-step path, which raises for the last two."""
    text = f"{x:.6g}"
    if "e" in text or "n" in text:
        return _scalar(_q(x))
    return text if "." in text else text + ".0"


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))

# A streamed write hands its pieces to the file between the elements of a
# generator once it holds more than this many. A results record of a
# one-entry track is ~25 pieces, most of its bytes in two runs of nulls.
_FLUSH_PIECES = 256

# A run of nulls in a ``_Sparse`` array is written in pieces of at most
# this many slots, with a flush between pieces, so that the text of a
# long run never exists at once (about 50 KB a piece).
_NULL_PIECE = 4096


def _emit(obj: Any, nl: str, out: list[str], flush: Callable[[list[str]], None]) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``nl`` is a newline
    plus the indentation of the line ``obj`` starts on. ``flush`` takes
    and empties ``out`` between the items of a generator."""
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
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        if type(obj) is _Quantized:
            out.append("[" + inner + sep.join(map(_qtext, obj)) + nl + "]")
            return
        kinds = set(map(type, obj))
        if kinds <= _SCALAR_TYPES:
            # One join per array of scalars; all-int arrays skip the
            # per-element dispatch.
            text = map(int.__repr__ if kinds == _INT else _scalar, obj)
            out.append("[" + inner + sep.join(text) + nl + "]")
            return
        lead = "[" + inner
        for item in obj:
            out.append(lead)
            _emit(item, inner, out, flush)
            lead = sep
        out.append(nl + "]")
    elif isinstance(obj, GeneratorType):
        inner = nl + "  "
        lead = "[" + inner
        empty = True
        for item in obj:
            out.append(lead)
            _emit(item, inner, out, flush)
            lead = "," + inner
            empty = False
            if len(out) > _FLUSH_PIECES:
                flush(out)
        out.append("[]" if empty else nl + "]")
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
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key: Any) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return encode_basestring_ascii(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not valid UTF-8: {e}") from e


# Characters ``_array_items`` reads at a time. An item that does not fit
# in the text held doubles it, so decoding an item longer than this costs
# at most about twice one decode of it.
_READ_WINDOW = 1 << 20


def _array_items(path: str, where: str) -> Iterator[Any]:
    """The items of the JSON array that ``path`` holds, as ``_read_json``
    would parse them, decoded one at a time from a window of the text.

    Text that is not the next item or the end of the array (bad JSON, a
    BOM, text after the array, invalid UTF-8, a root that is not an
    array) sends the file to ``_read_json`` and ``_expect_list``, which
    raise the error of a whole-file parse; should they parse the file,
    the remaining items come from that parse."""
    decode = json.JSONDecoder().raw_decode
    skip = WHITESPACE.match
    count = 0  # items yielded
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text, pos = "", 0
            expect = "["  # then "first" (an item or "]"), "item" after ",", "end" after "]"
            while more := fh.read(max(_READ_WINDOW, len(text) - pos)):
                text, pos = text[pos:] + more, 0
                while (pos := skip(text, pos).end()) < len(text):
                    if expect == "[" and text[pos] == "[":
                        expect, pos = "first", pos + 1
                    elif expect == "first" and text[pos] == "]":
                        expect, pos = "end", pos + 1
                    elif expect in ("[", "end"):
                        raise ValueError  # not an array, or text after it
                    else:
                        try:
                            value, end = decode(text, pos)
                        except json.JSONDecodeError:
                            break  # the rest of the item may be unread
                        end = skip(text, end).end()
                        if end == len(text):
                            break  # so may the separator, or more digits of a number
                        if text[end] not in ",]":
                            raise ValueError
                        expect, pos = ("item" if text[end] == "," else "end"), end + 1
                        count += 1
                        yield value
            if expect == "end":
                return
    except ValueError:  # also JSONDecodeError and UnicodeDecodeError
        pass
    yield from _expect_list(_read_json(path), where)[count:]


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


def _bbox_json(b: BBox) -> _Quantized:
    return _Quantized((b.x, b.y, b.w, b.h))


def _bbox_from(value: Any, where: str) -> BBox:
    """The box ``value``, with its errors reported under ``where``."""
    if not isinstance(value, list) or len(value) != 4:
        raise SchemaError(f"{where}: bbox must be [x, y, w, h]")
    return _build(BBox, where, *value)


def _rle_json(m: RleMask) -> dict:
    return {"size": [m.height, m.width], "counts": list(m.counts)}


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


def _entries_json(t: Track, length: int) -> dict[str, _Sparse]:
    """A track's per-frame ``segmentations`` and ``bboxes`` arrays, null
    where the track has no entry."""
    for f in t.entries:
        if f >= length:
            raise SchemaError(f"track {t.track_id} entry frame {f} outside video length {length}")
    entries = sorted(t.entries.items())
    return {
        "segmentations": _Sparse((length, [(f, _rle_json(e.mask)) for f, e in entries if e.mask is not None])),
        "bboxes": _Sparse((length, [(f, _bbox_json(e.bbox)) for f, e in entries])),
    }


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
    if (vid, tid) in seen:
        raise SchemaError(f"{where}: duplicate track id {tid} for video {vid}")
    seen.add((vid, tid))
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
    videos = [
        {"id": g.video_id, "width": g.width, "height": g.height, "length": g.length}
        for g in sorted(ground_truth, key=lambda g: g.video_id)
    ]
    cat_names: dict[int, str] = {}
    for g in ground_truth:
        for c in g.category_set:
            cat_names.setdefault(c, g.category_names.get(c, f"category_{c}"))
    categories = [{"id": c, "name": cat_names[c]} for c in sorted(cat_names)]
    annotations = (
        {"id": t.track_id, "video_id": g.video_id, "category_id": t.category_id, **_entries_json(t, g.length)}
        for g in sorted(ground_truth, key=lambda g: g.video_id)
        for t in sorted(g.gt_tracks, key=lambda t: t.track_id)
    )
    _write({"videos": videos, "annotations": annotations, "categories": categories}, path)


def load_annotations(path: str) -> list[VideoGroundTruth]:
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
        "score": _q(d.score),
        "category_id": d.category_id,
        "class_probs": _Quantized(d.class_probs),
        "segmentation": _rle_json(d.mask) if d.mask is not None else None,
        "embedding": _Quantized(d.embedding),
    }


def save_detections(
    videos: Mapping[int, Sequence[FrameDetections]],
    path: str,
    metas: Mapping[int, VideoMeta] | None = None,
    embedding_dim: int | None = None,
) -> None:
    """Write ``videos`` as a detections file that ``load_detections``
    reads back. ``embedding_dim`` defaults to the one length every
    embedding shares; it is checked before the file is opened."""
    dims = {len(d.embedding) for frames in videos.values() for fr in frames for d in fr.detections}
    if embedding_dim is None:
        if len(dims) > 1:
            raise SchemaError("detections mix embedding dimensions; they must be constant per file")
        embedding_dim = dims.pop() if dims else 0
    if embedding_dim < 1:
        raise SchemaError("embedding_dim: must be at least 1")
    if dims - {embedding_dim}:
        raise SchemaError(
            f"embedding length {min(dims - {embedding_dim})} violates the declared "
            f"embedding_dim {embedding_dim} (dimension must be constant per file)"
        )
    rows = (_video_json(vid, videos[vid], (metas or {}).get(vid)) for vid in sorted(videos))
    _write({"embedding_dim": embedding_dim, "videos": rows}, path)


def _video_json(vid: int, frames: Sequence[FrameDetections], meta: VideoMeta | None) -> dict:
    row: dict[str, Any] = {"video_id": vid}
    if meta is not None:
        row["length"] = meta.length
        if meta.height is not None:
            row["height"] = meta.height
        if meta.width is not None:
            row["width"] = meta.width
    row["frames"] = (
        {"frame_index": fr.frame_index, "detections": [_detection_json(d) for d in fr.detections]}
        for fr in frames
    )
    return row


def load_detections(path: str) -> DetectionsFile:
    root = _expect_object(_read_json(path), "detections")
    (dim,) = ints((_get(root, "embedding_dim", "detections"),), "embedding_dim", SchemaError)
    if dim < 1:
        raise SchemaError("embedding_dim: must be at least 1")
    out = DetectionsFile(embedding_dim=dim)
    for i, v in enumerate(_expect_list(_get(root, "videos", "detections"), "videos")):
        where = f"videos[{i}]"
        obj = _expect_object(v, where)
        vid = _get(obj, "video_id", where, ints)
        if vid in out.videos:
            raise SchemaError(f"{where}: duplicate video_id {vid}")
        height, width = (_positive_int(obj, key, where) for key in ("height", "width"))
        size = [height, width]
        frames: list[FrameDetections] = []
        last_frame = -1
        for j, fr in enumerate(_expect_list(_get(obj, "frames", where), f"{where}.frames")):
            fwhere = f"{where}.frames[{j}]"
            fobj = _expect_object(fr, fwhere)
            fidx = _get(fobj, "frame_index", fwhere)
            dets = []
            for k, d in enumerate(_expect_list(_get(fobj, "detections", fwhere), f"{fwhere}.detections")):
                dets.append(_detection_from(d, f"{fwhere}.detections[{k}]", dim, size, vid))
            frame = _build(FrameDetections, fwhere, frame_index=fidx, detections=dets)
            if frame.frame_index <= last_frame:
                raise SchemaError(f"{fwhere}: frame_index must be strictly increasing within a video")
            last_frame = frame.frame_index
            frames.append(frame)
        length = _positive_int(obj, "length", where)
        if length is None:
            length = max(last_frame + 1, 1)  # no frames and no declared length: one empty frame
        if last_frame >= length:
            raise SchemaError(f"{where}: frame_index {last_frame} outside declared length {length}")
        out.videos[vid] = frames
        out.metas[vid] = VideoMeta(length=length, height=height, width=width)
    return out


def _positive_int(obj: dict, key: str, where: str, required: bool = False) -> int | None:
    """A declared size, which must be >= 1; absent gives None unless
    ``required``."""
    if key not in obj and not required:
        return None
    value = _get(obj, key, where, ints)
    if value < 1:
        raise SchemaError(f"{where}.{key}: must be at least 1, got {value}")
    return value


def _detection_from(value: Any, where: str, dim: int, size: list, vid: int) -> Detection:
    obj = _expect_object(value, where)
    bbox = _bbox_from(_get(obj, "bbox", where), where)
    score = _get(obj, "score", where)
    cid = _get(obj, "category_id", where)
    probs = _expect_list(_get(obj, "class_probs", where), f"{where}.class_probs")
    emb = _expect_list(_get(obj, "embedding", where), f"{where}.embedding")
    if len(emb) != dim:
        raise SchemaError(
            f"{where}.embedding: length {len(emb)} violates the declared "
            f"embedding_dim {dim} (dimension must be constant per file)"
        )
    seg = obj.get("segmentation")
    mask = None
    if seg is not None:
        mask = _rle_from(seg, f"{where}.segmentation")
        _fit_size(mask, size, vid, f"{where}.segmentation")
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
    """One record per track, sorted by (video, descending score, id)."""
    for vid in sorted(tracks):
        if vid not in video_lengths:
            raise SchemaError(f"no video length provided for video {vid}")
    records = (
        {
            "video_id": vid,
            "id": t.track_id,
            "category_id": t.category_id,
            "score": _q(t.score),
            **_entries_json(t, video_lengths[vid]),
        }
        for vid in sorted(tracks)
        for t in sorted(tracks[vid], key=lambda t: (-t.score, t.track_id))
    )
    _write(records, path)


def load_results(path: str, videos: dict[int, tuple[int, list]] | None = None) -> dict[int, list[Track]]:
    """Tracks grouped per video, in file order. The records are read and
    converted one at a time; the errors are those of a whole-file parse
    followed by the conversion, and each starts with ``path``.
    ``videos`` (``_track_from``) holds the lengths and sizes known before
    the file, from the ground truth or earlier inputs: each record must
    agree with it, and the file's own videos are added to it, the size
    ``[None, None]`` where a video has no mask. A caller that needs a
    video's length or size reads it there."""
    tracks: dict[int, list[Track]] = {}
    videos = {} if videos is None else videos
    seen: set[tuple[int, int]] = set()
    try:
        for i, r in enumerate(_array_items(path, "results")):
            vid, track = _track_from(r, f"results[{i}]", videos, seen)
            tracks.setdefault(vid, []).append(track)
    except SchemaError as e:
        _read_json(path)  # malformed JSON reports that first, as a whole-file parse did, and names the path
        raise SchemaError(f"{path}: {e}") from e
    return tracks


# ---------------------------------------------------------------------------
# Evaluation report, crop pairs, identity key


def _metrics_json(m) -> dict | None:
    if m is None:
        return None
    return {
        "ap": _q(m.ap),
        "ap50": _q(m.ap50),
        "ap75": _q(m.ap75),
        "ar": {str(k): _q(v) for k, v in m.ar.items()},
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
        "window": _Quantized((w.x0, w.y0, w.x1, w.y1)),
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
    _write(([v, f, d, t] for (v, f, d), t in sorted(identity_key.items())), path)


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
        for name, value in sections.items():
            if name not in _SECTIONS:
                raise TypeError(f"RunConfig has no section '{name}'")
            setattr(self, name, value)

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
        ctor_kwargs = {}
        for key, raw in obj.items():
            if key not in allowed:
                raise ConfigError(f"{where}.{name}: unknown field '{key}'")
            ctor_kwargs[key] = raw
        try:
            kwargs[name] = cls(**ctor_kwargs)
        except ConfigError as e:
            raise ConfigError(f"{where}.{name}: {e}") from e
    return RunConfig(**kwargs)
