from repro import Engine, open_engine


def main():
    return Engine.small().run() + open_engine(size=3).run()
