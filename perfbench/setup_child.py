"""One cold set-up of direx in a fresh interpreter.

Imports ``direx``, builds the vertex set and loads the bundled
commissioning data, then exits.  ``run.py`` times a few of these from
the parent, each from the child's start to its end, and reports their
median as ``setup_s``.
"""

from direx import data, model

model.enumerate_extreme_points()
data.commissioning_distribution()
data.commissioning_counts()
