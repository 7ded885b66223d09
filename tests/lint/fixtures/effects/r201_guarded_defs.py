"""R201 fixture: functions defined under module-level compound
statements are module functions like any other.

Each line marked ``planted`` must give exactly one R201 finding, which
needs every such ``def`` to be summarised.
"""

import random

try:
    from fast_backend import draw  # noqa: F401
except ImportError:

    def fallback():
        return random.random()  # planted: def in an except body

else:

    def preferred():
        return random.random()  # planted: def in a try's else body

finally:

    def cleanup():
        return random.random()  # planted: def in a finally body


if random.__name__ == "random":

    def chosen():
        return random.random()  # planted: def in an if body

else:

    def other():
        return random.random()  # planted: def in an if's else body


with open(__file__) as _handle:

    def reader():
        return random.random()  # planted: def in a with body


class Holder:
    if True:

        def method(self):
            return random.random()  # planted: method in a class-level if
