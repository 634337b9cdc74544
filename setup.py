from setuptools import Extension, setup

# optional: without a C compiler the install proceeds and smdc.gf falls
# back to the pure-Python kernel
setup(ext_modules=[Extension("smdc._gfcore", ["src/smdc/_gfcore.c"], optional=True)])
