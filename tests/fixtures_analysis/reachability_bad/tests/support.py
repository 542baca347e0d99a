"""A test helper that forwards ``**kwargs`` to a src constructor: its own
call sites pass no keyword, so ``verbose`` stays unpassed."""

from repro import Engine


def make_engine(size, **kwargs):
    return Engine(size, **kwargs)


def check_engine():
    return make_engine(2).run()
