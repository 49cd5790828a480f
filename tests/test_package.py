"""The package namespace is the union of its layers' ``__all__`` and the error classes."""

import inspect

import hilbertcone
from hilbertcone import bounds, contraction, core, errors, simplex

LAYERS = (core, contraction, simplex, bounds)
ERRORS = [cls for cls in vars(errors).values()
          if inspect.isclass(cls) and cls.__module__ == errors.__name__]


def test_every_listed_name_is_the_layers_object():
    for mod in LAYERS:
        for name in mod.__all__:
            assert getattr(hilbertcone, name) is getattr(mod, name), (mod.__name__, name)
    assert len(ERRORS) == 7 and all(issubclass(cls, errors.HilbertConeError) for cls in ERRORS)
    for cls in ERRORS:
        assert getattr(hilbertcone, cls.__name__) is cls


def test_public_names_are_exactly_the_listed_ones():
    listed = {name for mod in LAYERS for name in mod.__all__} | {cls.__name__ for cls in ERRORS}
    public = {name for name, value in vars(hilbertcone).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == listed
    star: dict = {}
    exec("from hilbertcone import *", star)
    assert {name for name, value in star.items()
            if not name.startswith("_") and not inspect.ismodule(value)} == listed
