import types

import polyspace

SUBMODULES = ("domain", "polyfun", "weights", "quadrature", "norms", "experiments")


def test_the_package_exports_each_modules_all_and_nothing_else():
    exported = []
    for name in SUBMODULES:
        module = getattr(polyspace, name)
        assert isinstance(module, types.ModuleType) and module.__name__ == f"polyspace.{name}"
        for attr in module.__all__:
            assert getattr(polyspace, attr) is getattr(module, attr), (name, attr)
        exported += module.__all__
    assert len(set(exported)) == len(exported) == 62
    # importing polyspace.cli, as other tests do, binds the package's "cli"
    public = {name for name in vars(polyspace) if not name.startswith("_")} - {"cli"}
    assert public == set(exported) | set(SUBMODULES)
