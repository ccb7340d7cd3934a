"""numpy, imported at its first use rather than with vistrack, so that
commands that do no array work (``eval``, ``fuse``, ``pseudopair``,
``--help``) start without it."""


class _LazyNumpy:
    def __getattr__(self, name: str):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)  # later lookups find it without this call
        return value


np = _LazyNumpy()
