def reexported():
    return 1


def traced():
    return 2
