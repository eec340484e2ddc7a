import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# no per-example deadline: the property tests time numpy work whose wall
# time varies with the machine's load, so a deadline only adds flaky failures
settings.register_profile("symfd", deadline=None)
settings.load_profile("symfd")
