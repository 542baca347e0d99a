from repro import Engine, open_engine
from repro.util import reexported

#: entry points patched by name, as a tracer's target list names them
TARGETS = ["repro.util.helpers.traced", "Engine.orphan"]


def main():
    engine = open_engine(size=3, mode="safe")
    return Engine.small().run() + engine.run() + reexported()
