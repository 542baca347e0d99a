from repro import Histogram


def check_histogram():
    return Histogram([1, 2]).bucket_of(3)
