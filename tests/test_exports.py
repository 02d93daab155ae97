"""Every name krausloom exports, and every public name a module of the package
defines, has a reader in the package or in scripts/, or a stated reason to
exist without one."""

import ast
import pathlib
import types

import krausloom

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Exported with no caller in src/krausloom or scripts/, each for a reason.
UNCALLED = {
    "embed": "the per-placement reference that test_lattice_kernel compares the kernel with",
    "controlled_on_path": "the per-placement reference that test_lattice_kernel compares the kernel with",
    "stage_unitary": "the lattice side of acceptance criterion 2",
    "encode_joint_state": "criterion 2 feeds complex system qubits, which the theta1 preparation cannot make",
    "encode_reservoir_state": "criterion 2 feeds complex system qubits, which the theta1 preparation cannot make",
    "output_mode_decomposition": "acceptance criterion 4",
    "bloch_vector": "acceptance criterion 6",
    "preparation_circuit": "its whole unitary is checked; prepare_product_state returns only column 0",
    "build_channel_lattice": "circuit export, whose file CI's evolve step reads",
    "circuit_to_payload": "circuit export, whose file CI's evolve step reads",
    "settings_table": "the 16-setting protocol",
}

# Public module-level names, not exported, with no reader, each for a reason.
UNREAD = {
    "placement_matrix": "ROADMAP aim 1's gate-construction layer, and test_lattice_kernel's "
                        "one-placement case",
    "load_counts": "the counts-file reader README documents, which tomography --counts "
                   "is to read (ROADMAP item 18)",
}


def _read_names() -> set[str]:
    """Every name read as a Name or an Attribute in the package's modules,
    ``__init__`` aside, and in scripts/."""
    paths = [p for p in (ROOT / "src" / "krausloom").glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "scripts").glob("*.py")
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _public_names() -> set[str]:
    """Every public name a module of the package, ``__init__`` aside, defines at
    module level: each def, class and assignment target."""
    names = set()
    for path in (ROOT / "src" / "krausloom").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_every_export_has_a_caller_or_a_reason():
    uncalled = set(krausloom.__all__) - _read_names()
    assert sorted(uncalled - UNCALLED.keys()) == []


def test_every_reason_is_for_an_export_without_a_caller():
    uncalled = set(krausloom.__all__) - _read_names()
    assert sorted(UNCALLED.keys() - uncalled) == []


def test_every_public_name_is_read_or_has_a_reason():
    unread = _public_names() - _read_names()
    assert sorted(unread - UNCALLED.keys() - UNREAD.keys()) == []


def test_every_module_level_reason_is_for_an_unexported_name_nobody_reads():
    unread = _public_names() - _read_names()
    assert sorted(UNREAD.keys() - (unread - set(krausloom.__all__))) == []


def test_submodules_are_not_exported():
    assert [n for n in krausloom.__all__ if isinstance(getattr(krausloom, n), types.ModuleType)] == []
