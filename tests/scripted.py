"""Programs whose threads surface fixed lists of requests, run as compiled
code or as host generators.  A search keys its states only when no thread
is a host generator, so the compiled form runs a program through the
successor memo."""

from permute.runtime import Program


class Script:
    """Compiled code that surfaces a fixed list of requests in order; its
    state is the index of the request it surfaced last."""

    def __init__(self, requests):
        self.requests = requests

    def start(self):
        return self._at(0)

    def resume(self, state, result):
        return self._at(state + 1)

    def _at(self, i):
        return (self.requests[i] if i < len(self.requests) else None), i


def body_of(requests):
    def body():
        for request in requests:
            yield request
    return body


def scripted(scripts, declarations, compiled):
    """A program whose threads surface the requests `scripts` lists, run as
    compiled code or as host generators."""
    codes = [Script(requests) for requests in scripts.values()] if compiled else ()
    return Program([(name, body_of(requests)) for name, requests in scripts.items()],
                   declarations, codes)
