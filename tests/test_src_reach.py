"""Every public function, class and method in src/deletia has a caller
outside the unit tests.

A reference is an ``ast.Name`` or ``ast.Attribute`` that matches the
definition's name and sits outside the definition's own body. It may sit in
``src/deletia``, ``scripts/`` or ``bench/``, or in
``tests/test_acceptance.py``. A string constant in ``bench/`` also counts,
because the bench tracer wraps functions by name. Import aliases are not
references. A reference made inside a definition counts only once that
definition is reached, so the reached set is a fixed point grown from
module-level code and the outside files. Dunder methods are reached with
their class.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Qualified names counted as reached without a caller. ROADMAP item 6 gives
# family_from_descriptor a CLI caller (per-key runs on the paper's families).
# No src/ path calls HashFamily.eval or .measure since the PVD and TCR steps
# read the key tables whole; bench/run.py still wraps both by name for its
# hashfam.eval and hashfam.measure counters, so they go with ROADMAP items
# 1 and 11.
EXEMPT = {"hashfam.family_from_descriptor", "hashfam.HashFamily.eval",
          "hashfam.HashFamily.measure"}
FUNC = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node) -> set[str]:
    """The Names under ``node``, and its Attributes with a leading dot."""
    return {n.id if isinstance(n, ast.Name) else "." + n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _outside_references() -> set[str]:
    names = set()
    files = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    for path in files:
        tree = ast.parse(path.read_text())
        names |= _names(tree)
        if path.parent.name == "bench":
            names |= {n.value for n in ast.walk(tree)
                      if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return names


def _definitions():
    """(qualified name, name, enclosing class or None, the names its own
    code refers to) for every top-level function and class and every
    method, plus the names that each module's top-level code refers to. A
    class's own code leaves out its methods: each method is its own entry."""
    defs, module_refs = [], set()
    for path in sorted((ROOT / "src" / "deletia").glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (*FUNC, ast.ClassDef)):
                module_refs |= _names(node)
                continue
            qual = f"{mod}.{node.name}"
            if isinstance(node, FUNC):
                defs.append((qual, node.name, None, _names(node)))
                continue
            rest = [*node.bases, *node.decorator_list,
                    *(s for s in node.body if not isinstance(s, FUNC))]
            defs.append((qual, node.name, None, set().union(*map(_names, rest))))
            defs += [(f"{qual}.{m.name}", m.name, qual, _names(m))
                     for m in node.body if isinstance(m, FUNC)]
    return defs, module_refs


def unreached() -> list[str]:
    defs, roots = _definitions()
    missing = EXEMPT - {qual for qual, _, _, _ in defs}
    assert not missing, f"exempt names that src/ does not define: {', '.join(missing)}"
    roots |= _outside_references()
    reached = set(EXEMPT)
    grown = True
    while grown:
        grown = False
        for qual, name, cls, _ in defs:
            if qual in reached:
                continue
            dunder = name.startswith("__") and name.endswith("__")
            # a method is only reached as an attribute, not by a bare name
            keys = {"." + name} if cls else {name, "." + name}
            # outside its own body: a class's body holds its methods
            referrers = (refs for q, _, c, refs in defs
                         if q in reached and q != qual and c != qual)
            if keys & roots or (dunder and cls in reached) \
                    or any(keys & refs for refs in referrers):
                reached.add(qual)
                grown = True
    return [qual for qual, name, _, _ in defs
            if qual not in reached and not name.startswith("_")]


def test_every_public_src_name_is_reached_outside_the_unit_tests():
    names = unreached()
    assert not names, f"reached only from the unit tests: {', '.join(names)}"
