"""The one pickling rule of the package's exceptions."""

import copyreg


class ByState:
    """Mixin: an exception whose __init__ takes other arguments than its
    message pickles by its args and attributes, so it crosses a process pool."""

    def __reduce__(self):
        return copyreg.__newobj__, (type(self),), {**self.__dict__, "args": self.args}
