"""Build hook for the optional compiled belief-propagation kernel.

The kernel is one hand-written C file built by plain setuptools.  The
package works without it (a NumPy fallback is selected at import time), so
the extension is optional: without a working compiler the build warns and
succeeds, and only speed is lost.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "spintable._kernels",
            ["src/spintable/_kernels.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
