"""Source conventions of ``src/repro`` (FSTC1xx, FSTC401), checked over its
own AST.

The vectorized hot paths stay fast only while nobody quietly brings back
a per-nonzero Python loop, a bare ``ValueError`` or a wall-clock call
inside a kernel.  The rules:

``FSTC101``
    Kernel modules (:data:`KERNEL_MODULES`) have no ``for`` loop with a
    data-dependent trip count: ``range()`` over an ``nnz``, ``len()`` or
    ``.shape[k]`` expression, or iteration over ``.tolist()`` payloads.
``FSTC102``
    Hot packages (:data:`HOT_PACKAGES`) raise only :mod:`repro.errors`
    subclasses, never a bare builtin exception.
``FSTC103``
    Kernel modules make no wall-clock (``time.time``/``time.monotonic``)
    or unseeded random calls; ``time.perf_counter`` and
    ``np.random.default_rng`` are allowed.
``FSTC104``
    Every public module declares ``__all__`` (dunder modules are exempt).
``FSTC401``
    Kernel modules outside ``repro.backends`` do not call the NumPy
    kernel primitives directly; those go through the active backend.

A finding is suppressed by a pragma on its line::

    for k in range(len(tiles)):  # staticcheck: ignore[FSTC101] per right tile
"""

import ast
import re
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parent

#: Packages whose modules raise only repro.errors subclasses (FSTC102).
HOT_PACKAGES = ("core", "hashing", "baselines", "tensors", "backends")

#: The FaSTCC kernel proper, where FSTC101/103/401 apply.
KERNEL_MODULES = (
    "core/tiled_co",
    "core/accumulators",
    "core/contraction",
    "core/semiring",
    "hashing/open_addressing",
    "hashing/chaining",
    "hashing/slice_table",
    "hashing/hash_functions",
    "backends/numpy_backend",
    "backends/scipy_backend",
    "backends/arrayapi_backend",
)

_BANNED_RAISES = ("ValueError", "RuntimeError", "MemoryError", "KeyError", "Exception")
_BACKEND_ONLY_CALLS = {
    f"{np}.{op}"
    for np in ("np", "numpy")
    for op in ("add.at", "subtract.at", "bincount", "matmul", "dot", "einsum",
               "tensordot")
}
_PRAGMA = re.compile(r"#\s*staticcheck:\s*ignore\[([A-Z0-9,\s]+)\]")


def _dotted(node) -> str:
    """``np.random.rand`` for a Name/Attribute chain, else ``""``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return ""


def _data_length(node) -> bool:
    """Does an expression's value come from per-element data?"""
    return any(
        (isinstance(sub, ast.Name) and "nnz" in sub.id.lower())
        or (isinstance(sub, ast.Attribute) and "nnz" in sub.attr.lower())
        or (isinstance(sub, ast.Call) and _dotted(sub.func) == "len")
        or (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Attribute)
            and sub.value.attr == "shape")
        for sub in ast.walk(node)
    )


def _per_element(it) -> bool:
    """Is a ``for`` loop's iterable sized by the data?"""
    if not isinstance(it, ast.Call):
        return False
    name = _dotted(it.func)
    if name == "range":
        return any(_data_length(a) for a in it.args)
    if name == "zip":
        return any(
            isinstance(a, ast.Call) and isinstance(a.func, ast.Attribute)
            and a.func.attr == "tolist"
            for a in it.args
        )
    return isinstance(it.func, ast.Attribute) and it.func.attr == "tolist"


def violations(source: str, module: str) -> list[tuple[str, int]]:
    """``(code, line)`` of each unsuppressed finding in one module.

    ``module`` is the path below the package root (``core/tiled_co.py``);
    it decides which rules apply.
    """
    tree = ast.parse(source)
    package = module.split("/")[0] if "/" in module else ""
    basename = module.rsplit("/", 1)[-1]
    kernel = module[:-3] in KERNEL_MODULES
    found = []
    public = not (basename.startswith("__") and basename.endswith("__.py"))
    if public and not any(
        isinstance(t, ast.Name) and t.id == "__all__"
        for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))
        for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
    ):
        found.append(("FSTC104", 1))
    for node in ast.walk(tree):
        if package in HOT_PACKAGES and isinstance(node, ast.Raise) and node.exc:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _dotted(exc) in _BANNED_RAISES:
                found.append(("FSTC102", node.lineno))
        if not kernel:
            continue
        if isinstance(node, ast.For) and _per_element(node.iter):
            found.append(("FSTC101", node.lineno))
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if (
                name in ("time.time", "time.monotonic")
                or name.startswith("random.")
                or (name.startswith(("np.random.", "numpy.random."))
                    and not name.endswith(".random.default_rng"))
            ):
                found.append(("FSTC103", node.lineno))
            if package != "backends" and name in _BACKEND_ONLY_CALLS:
                found.append(("FSTC401", node.lineno))
    lines = source.splitlines()

    def suppressed(code, line):
        match = _PRAGMA.search(lines[line - 1]) if 0 < line <= len(lines) else None
        return bool(match) and code in {c.strip() for c in match.group(1).split(",")}

    return [(code, line) for code, line in found if not suppressed(code, line)]


def test_repro_tree_is_clean():
    modules = sorted(ROOT.rglob("*.py"))
    assert any(p.name == "tiled_co.py" for p in modules)
    found = [
        f"{path.relative_to(ROOT)}:{line}: {code}"
        for path in modules
        for code, line in violations(
            path.read_text(encoding="utf-8"), path.relative_to(ROOT).as_posix()
        )
    ]
    assert found == []


def codes(module: str, body: str | None) -> list[str]:
    """Codes of a seeded snippet placed at ``module``.

    The snippet declares ``__all__`` first unless ``body`` is ``None``,
    which stands for a module without one.
    """
    source = "x = 1\n" if body is None else "__all__ = []\n" + body
    return [code for code, _ in violations(source, module)]


class TestPerElementLoops:
    def test_range_over_nnz_flagged(self):
        assert codes("core/tiled_co.py",
                     "for i in range(op.nnz):\n    pass\n") == ["FSTC101"]

    def test_range_over_len_flagged(self):
        assert codes("core/tiled_co.py",
                     "for i in range(len(xs)):\n    pass\n") == ["FSTC101"]

    def test_zip_tolist_flagged(self):
        assert codes(
            "hashing/chaining.py",
            "for a, b in zip(x.tolist(), y.tolist()):\n    pass\n",
        ) == ["FSTC101"]

    def test_tolist_flagged(self):
        assert codes("core/semiring.py",
                     "for a in x.tolist():\n    pass\n") == ["FSTC101"]

    def test_fixed_range_allowed(self):
        assert codes("core/tiled_co.py",
                     "for i in range(4):\n    pass\n") == []

    def test_rule_off_outside_kernels(self):
        assert codes("core/model.py",
                     "for i in range(len(xs)):\n    pass\n") == []

    def test_pragma_suppresses(self):
        assert codes(
            "core/tiled_co.py",
            "for i in range(len(xs)):  # staticcheck: ignore[FSTC101] tiny\n"
            "    pass\n",
        ) == []


class TestExceptionDiscipline:
    def test_bare_valueerror_flagged(self):
        assert codes("core/plan.py", "raise ValueError('bad')\n") == ["FSTC102"]

    def test_bare_keyerror_name_flagged(self):
        assert codes("tensors/coo.py", "raise KeyError\n") == ["FSTC102"]

    def test_repro_errors_allowed(self):
        assert codes("core/plan.py", "raise ShapeError('bad')\n") == []

    def test_reraise_allowed(self):
        assert codes(
            "core/plan.py", "try:\n    pass\nexcept OSError:\n    raise\n"
        ) == []

    def test_rule_off_outside_hot_packages(self):
        assert codes("serve/service.py", "raise ValueError('bad')\n") == []

    def test_pragma_suppresses(self):
        assert codes(
            "hashing/open_addressing.py",
            "raise KeyError(k)  # staticcheck: ignore[FSTC102] mapping protocol\n",
        ) == []


class TestDeterminism:
    def test_time_time_flagged(self):
        assert codes("core/tiled_co.py", "t = time.time()\n") == ["FSTC103"]

    def test_legacy_np_random_flagged(self):
        assert codes("core/accumulators.py",
                     "x = np.random.rand(3)\n") == ["FSTC103"]

    def test_stdlib_random_flagged(self):
        assert codes("core/accumulators.py",
                     "x = random.random()\n") == ["FSTC103"]

    def test_perf_counter_allowed(self):
        assert codes("core/tiled_co.py", "t = time.perf_counter()\n") == []

    def test_default_rng_allowed(self):
        assert codes("core/tiled_co.py",
                     "rng = np.random.default_rng(0)\n") == []


class TestPublicModules:
    def test_missing_all_flagged(self):
        assert codes("core/model.py", None) == ["FSTC104"]

    def test_all_declared(self):
        assert codes("core/model.py", "X = 1\n") == []

    def test_dunder_module_exempt(self):
        assert codes("__main__.py", None) == []


class TestBackendDiscipline:
    def test_direct_kernel_call_flagged(self):
        assert codes("core/tiled_co.py",
                     "np.add.at(buf, pos, vals)\n") == ["FSTC401"]

    def test_backend_layer_exempt(self):
        assert codes("backends/numpy_backend.py",
                     "np.add.at(buf, pos, vals)\n") == []

    def test_pragma_suppresses_finding(self):
        assert codes(
            "core/tiled_co.py",
            "np.dot(a, b)  # staticcheck: ignore[FSTC401] reference\n",
        ) == []

    def test_pragma_for_other_code_does_not_suppress(self):
        assert codes(
            "core/tiled_co.py", "np.dot(a, b)  # staticcheck: ignore[FSTC101]\n"
        ) == ["FSTC401"]

    def test_pragma_lists_multiple_codes(self):
        assert codes(
            "core/tiled_co.py",
            "np.dot(a, b)  # staticcheck: ignore[FSTC101, FSTC401]\n",
        ) == []
