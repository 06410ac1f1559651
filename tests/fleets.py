"""A stand-in for ``engine.AsvFleet`` with the ASVs at arbitrary places."""


class StillAsvs:
    """ASVs held at the given (x, y): ``stations`` as float lists, and every
    tick's anchors the stations, as an ``AsvFleet`` without jitter gives."""

    def __init__(self, xy):
        self.stations = [[float(x), float(y)] for x, y in xy]

    def at(self, tick):
        return self.stations
