"""A test helper that forwards ``**kwargs`` to a src constructor: its
call site passes ``verbose``, which nothing else passes, so the keyword
reaches ``Engine`` only through this helper."""

from repro import Engine


def make_engine(size, **kwargs):
    return Engine(size, **kwargs)


def check_engine():
    return make_engine(2, verbose=True).run()
