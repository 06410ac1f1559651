"""A stand-in for ``engine.AsvFleet`` with the ASVs at arbitrary places."""


class StillAsvs:
    """ASVs held at the given (x, y): every tick's anchors are the same
    float lists, as an ``AsvFleet`` without jitter gives."""

    def __init__(self, xy):
        self._anchors = [[float(x), float(y)] for x, y in xy]

    def at(self, tick):
        return self._anchors
