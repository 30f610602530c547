"""Imported by pytest before any test module, so that sadnet, not numpy, is
imported first and its one-BLAS-thread pin reaches the whole suite."""

import sadnet  # noqa: F401
